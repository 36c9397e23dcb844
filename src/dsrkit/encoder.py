"""Stacked-LSTM speaker encoder with exact hand-derived backpropagation.

Float64 throughout: every gradient here is checked against central finite
differences in the test suite, and 32-bit noise would drown that signal.
The utterance summary is the final-frame top-layer hidden state, passed
through an affine projection and L2-normalized.

The recurrence is feature-major: the state is (H, B), and the trace keeps
each layer's activated gates as (T, 4H, B) and its c_prev, tanh(c) and h
as (T, H, B), so every gate of every step is one contiguous (H, B) block.
Each layer projects all T input frames with one matmul before its time
loop, which then adds only W_h h. One tanh activates the whole gate block:
the i, f and o rows are pre-scaled by 1/2 and mapped through
sigmoid(a) = 0.5 * (1 + tanh(a / 2)). The backward pass writes every step's
pre-activation gradients into one (T, 4H, B) buffer and forms the weight
gradients, and the input gradients of the layer below, after the loop.
This is the RNN restructuring of Appleyard et al. 2016 (arXiv:1604.01946).

Zero rows: a batch row whose upstream gradient is all zero contributes
exactly zero to every parameter gradient, so the backward pass runs only
over the live columns, gathering each step's trace blocks at them. A
satisfied triplet (FaceNet's hinge, Schroff et al. 2015) gives all three
of its rows a zero gradient. When every row is live the gather is the
identity and the pass runs the full-batch operations unchanged.

Checkpoint layout (version 1, all little-endian):
  magic "DSRK" | version int32 | n_layers, hidden_dim, embed_dim,
  input_dim, seed as int32 | then per tensor, in the fixed order
  lstm0.w_x, lstm0.w_h, lstm0.b, lstm1.w_x, ... , proj.w, proj.b:
  name length uint32 | name UTF-8 | element count uint64 | float64 data.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    FormatError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedFormatError,
    ValidationError,
)

CHECKPOINT_MAGIC = b"DSRK"
CHECKPOINT_VERSION = 1
_HEADER_BYTES = 28  # magic, version, five int32 dims


@dataclass(frozen=True)
class EncoderConfig:
    """Desk-scale defaults; hidden_dim=256, n_layers=3 mirrors full scale."""

    n_layers: int = 2
    hidden_dim: int = 32
    embed_dim: int = 16
    input_dim: int = 20
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "hidden_dim", "embed_dim", "input_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be at least 1")


def tensor_order(config: EncoderConfig):
    """Canonical tensor names: serialization and reductions both follow it."""
    names = []
    for layer in range(config.n_layers):
        names += [f"lstm{layer}.w_x", f"lstm{layer}.w_h", f"lstm{layer}.b"]
    return names + ["proj.w", "proj.b"]


def _tensor_shapes(config: EncoderConfig):
    h, e = config.hidden_dim, config.embed_dim
    shapes = {}
    for layer in range(config.n_layers):
        d = config.input_dim if layer == 0 else h
        shapes[f"lstm{layer}.w_x"] = (4 * h, d)
        shapes[f"lstm{layer}.w_h"] = (4 * h, h)
        shapes[f"lstm{layer}.b"] = (4 * h,)
    shapes["proj.w"] = (e, h)
    shapes["proj.b"] = (e,)
    return shapes


@dataclass
class EncoderParams:
    config: EncoderConfig
    tensors: dict = field(default_factory=dict)

    def __post_init__(self):
        shapes = _tensor_shapes(self.config)
        if set(self.tensors) != set(shapes):
            raise ShapeError("parameter set does not match config tensor list")
        for name, shape in shapes.items():
            t = self.tensors[name]
            if t.shape != shape:
                raise ShapeError(f"{name}: expected shape {shape}, got {t.shape}")
            if not np.all(np.isfinite(t)):
                raise ValidationError(f"{name} contains non-finite values")


def init_params(config: EncoderConfig) -> EncoderParams:
    """Uniform(-k, k) with k = 1/sqrt(hidden_dim); forget-gate bias shifted
    to +1 and projection bias forced nonzero so a zero-state LSTM still
    produces a usable direction."""
    rng = np.random.default_rng(config.seed)
    k = 1.0 / np.sqrt(config.hidden_dim)
    h = config.hidden_dim
    tensors = {}
    for name, shape in _tensor_shapes(config).items():
        t = rng.uniform(-k, k, size=shape)
        if name.endswith(".b") and name.startswith("lstm"):
            t[h:2 * h] += 1.0  # forget gate rows
        if name == "proj.b":
            t[t == 0.0] = 0.5 * k
        tensors[name] = t
    return EncoderParams(config, tensors)


def _gate_affine(hidden_dim: int, batch: int):
    """Row scale and offset that turn one tanh over a (4H, B) gate block
    into sigmoid(a) = 0.5 * (1 + tanh(a / 2)) on the i, f and o rows and
    tanh(a) on the g rows. Halving is exact in binary floating point
    (above the subnormal range), so scaling the pre-activations by 0.5 up
    front costs no precision."""
    scale = np.full((4 * hidden_dim, batch), 0.5)
    scale[2 * hidden_dim:3 * hidden_dim] = 1.0
    return scale, 1.0 - scale


@dataclass
class BatchTrace:
    """Forward-pass cache for one uniform-length batch, kept for backprop.

    Everything but the input stack and the outputs is feature-major: time
    first, then features, then batch, so each gate of each step is one
    contiguous (H, B) block.
    """

    stack: np.ndarray          # (B, T, input_dim), as passed in
    layer_inputs: list         # per layer: (T, d_in, B); layer 0 is a view of stack
    gates: list                # per layer: (T, 4H, B) activated, rows i|f|g|o
    c_prevs: list              # per layer: (T, H, B) cell state entering step t
    tanh_cs: list              # per layer: (T, H, B)
    hs: list                   # per layer: (T, H, B)
    pre_norm: np.ndarray       # (B, E)
    norms: np.ndarray          # (B,)
    embeddings: np.ndarray     # (B, E), rows unit-norm


def forward_batch(params: EncoderParams, stack: np.ndarray, out=None) -> BatchTrace:
    """Run the full encoder over a (B, T, input_dim) stack.

    out, the trace of an earlier call on a stack of the same shape, lends
    its gate, cell-state, tanh(c) and h arrays: they are overwritten and
    returned in the new trace, so out must not be used after the call.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeError(f"expected a (B, T, D) stack, got ndim {stack.ndim}")
    cfg = params.config
    if stack.shape[2] != cfg.input_dim:
        raise ShapeError(f"frame width {stack.shape[2]} != input_dim {cfg.input_dim}")
    if stack.shape[0] < 1 or stack.shape[1] < 1:
        raise EmptyInputError("batch and frame count must both be nonzero")
    if out is not None and out.stack.shape != stack.shape:
        raise ShapeError(f"out traced a {out.stack.shape} stack, not {stack.shape}")
    B, T, _ = stack.shape
    H = cfg.hidden_dim
    scale, offset = _gate_affine(H, B)
    row_scale = scale[:, :1]
    x = stack.transpose(1, 2, 0)
    layer_inputs, gates_all, c_prevs_all, tanh_cs_all, hs_all = [], [], [], [], []
    ig = np.empty((H, B))
    c_last = np.empty((H, B))  # the cell state leaving the last step
    for layer in range(cfg.n_layers):
        if out is None:
            gates, c_prevs = np.empty((T, 4 * H, B)), np.empty((T, H, B))
            tanh_cs, hs = np.empty((T, H, B)), np.empty((T, H, B))
        else:
            gates, c_prevs = out.gates[layer], out.c_prevs[layer]
            tanh_cs, hs = out.tanh_cs[layer], out.hs[layer]
        wh = row_scale * params.tensors[f"lstm{layer}.w_h"]
        # Input projection for every step at once; the loop adds only W_h h.
        np.matmul(row_scale * params.tensors[f"lstm{layer}.w_x"], x, out=gates)
        gates += scale * params.tensors[f"lstm{layer}.b"][:, None]
        c_prevs[0] = 0.0
        for t in range(T):
            a = gates[t]  # activated in place
            if t:
                a += wh @ hs[t - 1]
            np.tanh(a, out=a)
            a *= scale
            a += offset
            c = c_prevs[t + 1] if t + 1 < T else c_last
            np.multiply(a[H:2 * H], c_prevs[t], out=c)
            np.multiply(a[:H], a[2 * H:3 * H], out=ig)
            c += ig
            np.tanh(c, out=tanh_cs[t])
            np.multiply(a[3 * H:], tanh_cs[t], out=hs[t])
        layer_inputs.append(x)
        gates_all.append(gates)
        c_prevs_all.append(c_prevs)
        tanh_cs_all.append(tanh_cs)
        hs_all.append(hs)
        x = hs
    top = hs_all[-1][-1].T
    pre_norm = top @ params.tensors["proj.w"].T + params.tensors["proj.b"]
    norms = np.linalg.norm(pre_norm, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NumericError("pre-normalization embedding norm is not finite")
    if np.any(norms < 1e-300):
        raise NumericError("pre-normalization embedding collapsed to zero")
    embeddings = pre_norm / norms[:, None]
    return BatchTrace(stack, layer_inputs, gates_all, c_prevs_all, tanh_cs_all,
                      hs_all, pre_norm, norms, embeddings)


def backward_batch(params: EncoderParams, trace: BatchTrace,
                   grad_out: np.ndarray) -> dict:
    """Gradients of sum_b grad_out[b] . embedding[b], summed over the batch.

    Only the live columns (rows of grad_out with a nonzero entry) are
    backpropagated; a dead column's contribution is exactly zero.
    """
    cfg = params.config
    grad_out = np.asarray(grad_out, dtype=np.float64)
    T = trace.stack.shape[1]
    H = cfg.hidden_dim
    if grad_out.shape != trace.embeddings.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != embeddings {trace.embeddings.shape}"
        )
    live = np.flatnonzero(np.any(grad_out != 0.0, axis=1))
    if len(live) == len(grad_out):
        live = slice(None)  # every column: views, the full-batch operations

        def cols(a):
            return a
    else:
        grad_out = grad_out[live]

        def cols(a):  # the live columns of one step's (features, B) block
            return np.take(a, live, axis=1)
    B = len(grad_out)
    e, norms = trace.embeddings[live], trace.norms[live]
    # Through L2 normalization: radial component of the upstream grad dies.
    dv = (grad_out - np.sum(grad_out * e, axis=1, keepdims=True) * e) / norms[:, None]
    grads = {}
    top = trace.hs[-1][-1].T[live]
    grads["proj.w"] = dv.T @ top
    grads["proj.b"] = dv.sum(axis=0)
    # Gate derivative (1 - x) * (x + shift): sigmoid' = s (1 - s) on the
    # i, f, o rows, tanh' = (1 - g) (1 + g) on the g rows.
    shift = np.zeros((4 * H, B))
    shift[2 * H:3 * H] = 1.0
    da = np.empty((T, 4 * H, B))  # pre-activation grads, reused by every layer
    dh_seq = None  # grads flowing into this layer's h from the layer above
    dh_top = (dv @ params.tensors["proj.w"]).T
    dc = np.empty((H, B))
    dh = np.empty((H, B))
    tmp = np.empty((H, B))
    tmp4 = np.empty((4 * H, B))
    for layer in reversed(range(cfg.n_layers)):
        wx = params.tensors[f"lstm{layer}.w_x"]
        wh_t = params.tensors[f"lstm{layer}.w_h"].T
        gates = trace.gates[layer]
        c_prevs = trace.c_prevs[layer]
        tanh_cs = trace.tanh_cs[layer]
        dc[:] = 0.0
        dh[:] = dh_top if dh_seq is None else dh_seq[-1]
        for t in reversed(range(T)):
            if t < T - 1:
                np.matmul(wh_t, da[t + 1], out=dh)
                if dh_seq is not None:
                    dh += dh_seq[t]
            gate, tc, d = cols(gates[t]), cols(tanh_cs[t]), da[t]
            # dc = f_{t+1} dc_{t+1} + dh o (1 - tanh(c)^2); d[3H:] is scratch
            # until it receives do.
            np.multiply(tc, tc, out=d[3 * H:])
            np.subtract(1.0, d[3 * H:], out=d[3 * H:])
            np.multiply(dh, gate[3 * H:], out=tmp)
            tmp *= d[3 * H:]
            dc += tmp
            np.multiply(dc, gate[2 * H:3 * H], out=d[:H])
            np.multiply(dc, cols(c_prevs[t]), out=d[H:2 * H])
            np.multiply(dc, gate[:H], out=d[2 * H:3 * H])
            np.multiply(dh, tc, out=d[3 * H:])
            np.add(gate, shift, out=tmp4)
            d *= tmp4
            np.subtract(1.0, gate, out=tmp4)
            d *= tmp4
            dc *= gate[H:2 * H]
        x = trace.layer_inputs[layer]
        hs = trace.hs[layer]
        dwx = np.zeros_like(wx)
        dwh = np.zeros((4 * H, H))
        for t in reversed(range(T)):
            dwx += da[t] @ cols(x[t]).T
            if t:
                dwh += da[t] @ cols(hs[t - 1]).T
        grads[f"lstm{layer}.w_x"] = dwx
        grads[f"lstm{layer}.w_h"] = dwh
        grads[f"lstm{layer}.b"] = da.sum(axis=0).sum(axis=1)
        if layer:
            dh_seq = np.matmul(wx.T, da)
    return grads


def zero_grads(params: EncoderParams) -> dict:
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def add_grads(into: dict, grads: dict) -> dict:
    for name in into:
        into[name] += grads[name]
    return into


def global_grad_norm(params: EncoderParams, grads: dict) -> float:
    total = 0.0
    for name in tensor_order(params.config):
        total += float(np.sum(grads[name] * grads[name]))
    return float(np.sqrt(total))


def sgd_step(params: EncoderParams, grads: dict, lr: float, clip: float) -> EncoderParams:
    """One plain SGD update with global-norm clipping; returns new params."""
    if lr <= 0:
        raise ParameterError("lr must be positive")
    if clip <= 0:
        raise ParameterError("clip must be positive")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in {name}")
    norm = global_grad_norm(params, grads)
    factor = clip / norm if norm > clip else 1.0
    tensors = {name: t - lr * factor * grads[name] for name, t in params.tensors.items()}
    return EncoderParams(params.config, tensors)


def _layout(cfg: EncoderConfig):
    """Each tensor of a checkpoint in file order: its name, its shape and the
    record head its float64 data follows (name length uint32, UTF-8 name,
    element count uint64). The writer writes these heads; the reader
    requires them byte for byte."""
    shapes = _tensor_shapes(cfg)
    for name in tensor_order(cfg):
        raw = name.encode("utf-8")
        count = math.prod(shapes[name])
        yield name, shapes[name], struct.pack("<I", len(raw)) + raw + struct.pack("<Q", count)


def save_checkpoint(params: EncoderParams, path) -> None:
    cfg = params.config
    out = [CHECKPOINT_MAGIC, struct.pack("<i", CHECKPOINT_VERSION),
           struct.pack("<5i", cfg.n_layers, cfg.hidden_dim, cfg.embed_dim,
                       cfg.input_dim, cfg.seed)]
    for name, _, head in _layout(cfg):
        out += [head, np.ascontiguousarray(params.tensors[name], dtype="<f8").tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_checkpoint(path) -> EncoderParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic")
    if len(blob) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated checkpoint header ({len(blob)} bytes)")
    (version,) = struct.unpack_from("<i", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise UnsupportedFormatError(f"{path}: checkpoint version {version} not supported")
    n_layers, hidden, embed, input_dim, seed = struct.unpack_from("<5i", blob, 8)
    if min(n_layers, hidden, embed, input_dim) < 1:
        raise FormatError(f"{path}: non-positive dimension in checkpoint header")
    # Bound the header against the file before building anything sized by
    # it: every tensor needs at least its 12 length bytes and its data.
    h = hidden
    floats = (4 * h * (input_dim + h + 1) + (n_layers - 1) * 4 * h * (2 * h + 1)
              + embed * (h + 1))
    least = _HEADER_BYTES + 12 * (3 * n_layers + 2) + 8 * floats
    if least > len(blob):
        raise FormatError(
            f"{path}: header needs at least {least} bytes, file has {len(blob)}")
    cfg = EncoderConfig(n_layers, hidden, embed, input_dim, seed)
    tensors = {}
    offset = _HEADER_BYTES
    for name, shape, head in _layout(cfg):
        start = offset + len(head)
        if blob[offset:start] != head:
            raise FormatError(f"{path}: expected the head of tensor {name} ({head!r}), "
                              f"found {blob[offset:start]!r}")
        offset = start + 8 * math.prod(shape)
        if offset > len(blob):
            raise FormatError(f"{path}: truncated data for {name}")
        tensors[name] = np.frombuffer(blob[start:offset], dtype="<f8").reshape(shape).copy()
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after tensors")
    return EncoderParams(cfg, tensors)
