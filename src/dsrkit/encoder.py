"""Stacked-LSTM speaker encoder with exact hand-derived backpropagation.

Float64 throughout: every gradient here is checked against central finite
differences in the test suite, and 32-bit noise would drown that signal.
The utterance summary is the final-frame top-layer hidden state, passed
through an affine projection and L2-normalized.

The recurrence is feature-major: the state is (H, B), so every gate of
every step is one contiguous (H, B) block. One tanh activates the whole
gate block: the i, f and o rows are pre-scaled by 1/2 and mapped through
sigmoid(a) = 0.5 * (1 + tanh(a / 2)). Training and inference run the same
cell step (_cell_step) and differ only in what they keep:

- Training (forward_batch(..., keep=True)) keeps each layer's activated
  gates as (T, 4H, B), its c_prev as (T, H, B) and its last cell state,
  5·T·H·B floats a layer. Each layer projects all T input frames with one
  matmul before its time loop, which then adds only W_h h. A layer below
  the top writes its h sequence into the c_prev array of the layer above,
  whose projection reads it before that layer's cell states overwrite it,
  and the top layer keeps its last two h in a ring: beyond its trace, a
  training pass allocates nothing that grows with T.
- Inference (keep=False) keeps the outputs only. Each step projects its
  own input frame, and each layer writes its h over its input sequence, so
  a pass holds one (T, H, B) array whatever the depth.

The backward pass consumes the training trace and allocates nothing sized
by T: each step writes its pre-activation gradients over its gates, takes
tanh(c) in place once the raw cell state is spent and recomputes
h = o * tanh(c) for that step. These act elementwise on the operands the
forward step used, so they give its bits (the test suite checks this on
random shapes): cheap activations are traded for trace memory, as in
Gruslys et al. 2016 (arXiv:1606.03401) and Chen et al. 2016
(arXiv:1604.06174), and no result moves. The weight gradients accumulate
inside the time loop; the gradients into the layer below come from one
matmul over all steps, the RNN restructuring of Appleyard et al. 2016
(arXiv:1604.01946), written over the layer's spent cell states.

Zero rows: a batch row whose upstream gradient is all zero contributes
exactly zero to every parameter gradient, so the backward pass runs only
over the live columns: it first packs each layer's gates and cell states
at them into the front of their own memory, one step at a time. A
satisfied triplet (FaceNet's hinge, Schroff et al. 2015) gives all three
of its rows a zero gradient. When every row is live nothing is packed and
the pass runs the full-batch operations unchanged.

Checkpoint layout (version 1, all little-endian):
  magic "DSRK" | version int32 | n_layers, hidden_dim, embed_dim,
  input_dim, seed as int32 | then per tensor, in the fixed order
  lstm0.w_x, lstm0.w_h, lstm0.b, lstm1.w_x, ... , proj.w, proj.b:
  name length uint32 | name UTF-8 | element count uint64 | float64 data.
"""

import math
import os
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
    return list(_tensor_shapes(config))


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
    """What one forward pass over a uniform-length batch keeps.

    A training trace (keep=True) keeps, per layer, the activated gates and
    the cell state entering each step, plus the cell state leaving the last
    step: 5·T·H·B floats. tanh(c) and h = o * tanh(c), which the backward
    pass also needs (h is the next layer's input too), are recomputed from
    them with the same elementwise operations, so they carry the forward
    pass's bits. backward_batch consumes a training trace (consumed): it
    leaves gradients in these arrays, for forward_batch(..., out=) to
    overwrite. An inference trace (keep=False) has empty per-layer lists.
    Both keep top: the top layer's last h as an (H, B) block viewed as
    (B, H), copied out of the top layer's two-step ring (at inference, out
    of the h sequence). That is the layout the projection has always read;
    a C-contiguous (B, H) copy changes the last bit of some entries of
    top @ proj.w.T at the default H = 32.

    Everything but the input stack and the outputs is feature-major: time
    first, then features, then batch, so each gate of each step is one
    contiguous (H, B) block.
    """

    stack: np.ndarray          # (B, T, input_dim), as passed in
    gates: list                # per layer: (T, 4H, B) activated, rows i|f|g|o
    c_prevs: list              # per layer: (T, H, B) cell state entering step t
    c_lasts: list              # per layer: (H, B) cell state leaving step T - 1
    top: np.ndarray            # (B, H) top layer's last h, a view of an (H, B) block
    norms: np.ndarray          # (B,)
    embeddings: np.ndarray     # (B, E), rows unit-norm
    consumed: bool = field(default=False, init=False)  # set by backward_batch


def _cell_step(a, c_prev, c, tanh_c, ig, h, scale, offset):
    """One LSTM step. a holds the step's (4H, B) pre-activations, rows
    i|f|g|o, and is activated in place; c receives f * c_prev + i * g (c may
    be c_prev), tanh_c its tanh and h the output. ig is scratch."""
    H = len(c)
    np.tanh(a, out=a)
    a *= scale
    a += offset
    np.multiply(a[H:2 * H], c_prev, out=c)
    np.multiply(a[:H], a[2 * H:3 * H], out=ig)
    c += ig
    np.tanh(c, out=tanh_c)
    np.multiply(a[3 * H:], tanh_c, out=h)


def forward_batch(params: EncoderParams, stack: np.ndarray, out=None,
                  keep=True) -> BatchTrace:
    """Run the full encoder over a (B, T, input_dim) stack.

    keep=True keeps what backward_batch needs. keep=False keeps only the
    outputs: each step projects its own input, and each layer overwrites
    its input sequence with its h, so the pass holds one (T, H, B) array.
    out, the training trace of an earlier call on a stack of the same
    shape, consumed by backward_batch or not, lends its gate and cell-state
    arrays: they are overwritten and returned in the new trace, so out must
    not be used after the call.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ShapeError(f"expected a (B, T, D) stack, got ndim {stack.ndim}")
    cfg = params.config
    if stack.shape[2] != cfg.input_dim:
        raise ShapeError(f"frame width {stack.shape[2]} != input_dim {cfg.input_dim}")
    if stack.shape[0] < 1 or stack.shape[1] < 1:
        raise EmptyInputError("batch and frame count must both be nonzero")
    if out is not None and not keep:
        raise ParameterError("an inference pass (keep=False) writes no trace into out")
    if out is not None and not out.gates:
        raise ParameterError("out is an inference trace (keep=False) and lends no arrays")
    if out is not None and out.stack.shape != stack.shape:
        raise ShapeError(f"out traced a {out.stack.shape} stack, not {stack.shape}")
    B, T, _ = stack.shape
    H, n_layers = cfg.hidden_dim, cfg.n_layers
    scale, offset = _gate_affine(H, B)
    row_scale = scale[:, :1]
    x = stack.transpose(1, 2, 0)
    tanh_c, ig = np.empty((H, B)), np.empty((H, B))
    if not keep:
        gates_all, c_prevs_all, c_lasts = [], [], []
        hs = np.empty((T, H, B))  # each layer's h, read and overwritten by the next
    elif out is None:
        gates_all = [np.empty((T, 4 * H, B)) for _ in range(n_layers)]
        c_prevs_all = [np.empty((T, H, B)) for _ in range(n_layers)]
        c_lasts = [np.empty((H, B)) for _ in range(n_layers)]
    else:
        gates_all, c_prevs_all, c_lasts = list(out.gates), list(out.c_prevs), list(out.c_lasts)
    for layer in range(n_layers):
        wx = row_scale * params.tensors[f"lstm{layer}.w_x"]
        wh = row_scale * params.tensors[f"lstm{layer}.w_h"]
        bias = scale * params.tensors[f"lstm{layer}.b"][:, None]
        if keep:
            gates, c_prevs, c_last = gates_all[layer], c_prevs_all[layer], c_lasts[layer]
            # Input projection for every step at once; the loop adds only W_h h.
            # It reads the layer below's h out of c_prevs before the loop
            # writes this layer's cell states over it.
            np.matmul(wx, x, out=gates)
            gates += bias
            c_prevs[0] = 0.0
            # h goes into the c_prev array of the layer above, which reads it
            # as its input; the top layer keeps its last two steps.
            hs = c_prevs_all[layer + 1] if layer + 1 < n_layers else np.empty((2, H, B))
        else:
            a, c = np.empty((4 * H, B)), np.zeros((H, B))
        for t in range(T):
            if keep:
                a, c_prev = gates[t], c_prevs[t]
                c = c_prevs[t + 1] if t + 1 < T else c_last
            else:
                # Above layer 0, x[t] is hs[t]: read here, overwritten below.
                np.matmul(wx, x[t], out=a)
                a += bias
                c_prev = c
            if t:
                a += wh @ hs[(t - 1) % len(hs)]
            _cell_step(a, c_prev, c, tanh_c, ig, hs[t % len(hs)], scale, offset)
        x = hs
    top = hs[(T - 1) % len(hs)].copy().T  # frees hs; the layout of a view of it (BatchTrace)
    pre_norm = top @ params.tensors["proj.w"].T + params.tensors["proj.b"]
    norms = np.linalg.norm(pre_norm, axis=1)
    if not np.all(np.isfinite(norms)):
        raise NumericError("pre-normalization embedding norm is not finite")
    if np.any(norms < 1e-300):
        raise NumericError("pre-normalization embedding collapsed to zero")
    embeddings = pre_norm / norms[:, None]
    return BatchTrace(stack, gates_all, c_prevs_all, c_lasts, top, norms, embeddings)


def _compact(a, live):
    """The live columns of a contiguous (T, F, B) array, packed a step at a
    time, in ascending t, into the front of its own memory: step t lands at
    t·F·B' and no later step starts before (t + 1)·F·B, so each is read
    before anything is written over it. Returns the (T, F, B') view."""
    packed = a.reshape(-1)[:a.size // a.shape[-1] * len(live)].reshape(*a.shape[:2], len(live))
    block = np.empty(packed.shape[1:])
    for src, dst in zip(a, packed):
        np.take(src, live, axis=-1, out=block, mode="clip")
        dst[...] = block
    return packed


def backward_batch(params: EncoderParams, trace: BatchTrace,
                   grad_out: np.ndarray) -> dict:
    """Gradients of sum_b grad_out[b] . embedding[b], summed over the batch.

    Only the live columns (rows of grad_out with a nonzero entry) are
    backpropagated; a dead column's contribution is exactly zero. The pass
    consumes the trace: a second backward_batch on it raises ParameterError,
    and only forward_batch(..., out=trace) may reuse its memory.
    """
    cfg = params.config
    if not trace.gates or trace.consumed:
        raise ParameterError("no backward pass on an inference trace (keep=False) "
                             "or on one an earlier backward_batch consumed")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    T = trace.stack.shape[1]
    H = cfg.hidden_dim
    if grad_out.shape != trace.embeddings.shape:
        raise ShapeError(
            f"grad_out shape {grad_out.shape} != embeddings {trace.embeddings.shape}"
        )
    trace.consumed = True
    gates_all, c_prevs_all, c_lasts = trace.gates, trace.c_prevs, trace.c_lasts
    live = np.flatnonzero(np.any(grad_out != 0.0, axis=1))
    if len(live) == len(grad_out):
        live = slice(None)  # every column: the full-batch operations, in place
    else:
        grad_out = grad_out[live]
        gates_all = [_compact(a, live) for a in gates_all]
        c_prevs_all = [_compact(a, live) for a in c_prevs_all]
        c_lasts = [_compact(c[None], live)[0] for c in c_lasts]
    B = len(grad_out)
    e, norms = trace.embeddings[live], trace.norms[live]
    # Through L2 normalization: radial component of the upstream grad dies.
    dv = (grad_out - np.sum(grad_out * e, axis=1, keepdims=True) * e) / norms[:, None]
    grads = {}
    top = trace.top[live]
    grads["proj.w"] = dv.T @ top
    grads["proj.b"] = dv.sum(axis=0)
    # Gate derivative (1 - x) * (x + shift): sigmoid' = s (1 - s) on the
    # i, f, o rows, tanh' = (1 - g) (1 + g) on the g rows.
    shift = np.zeros((4 * H, B))
    shift[2 * H:3 * H] = 1.0
    dh_top = (dv @ params.tensors["proj.w"]).T
    dc, dh, h, tmp = (np.empty((H, B)) for _ in range(4))
    d, tmp4 = np.empty((4 * H, B)), np.empty((4 * H, B))
    d_i, d_f, d_g, d_o = d[:H], d[H:2 * H], d[2 * H:3 * H], d[3 * H:]
    above = None  # the layer above: its da, its w_x gradient and dh_seq
    for layer in reversed(range(cfg.n_layers)):
        wx = params.tensors[f"lstm{layer}.w_x"]
        wh_t = params.tensors[f"lstm{layer}.w_h"].T
        gates, c_prevs, c_last = gates_all[layer], c_prevs_all[layer], c_lasts[layer]
        o_gates = gates[:, 3 * H:]
        dwx = grads[f"lstm{layer}.w_x"] = np.zeros_like(wx)
        dwh = grads[f"lstm{layer}.w_h"] = np.zeros((4 * H, H))
        np.tanh(c_last, out=c_last)
        if above:  # h holds this layer's h at the step the loop is on
            da_above, dwx_above, dh_seq = above
            np.multiply(o_gates[-1], c_last, out=h)
        dc[:] = 0.0
        dh[:] = dh_seq[-1] if above else dh_top
        for t in reversed(range(T)):
            if t < T - 1:
                np.matmul(wh_t, gates[t + 1], out=dh)
                if above:
                    dh += dh_seq[t]
            gate, tc = gates[t], c_prevs[t + 1] if t + 1 < T else c_last
            # dc = f_{t+1} dc_{t+1} + dh o (1 - tanh(c)^2); d_o is scratch
            # until it receives do.
            np.multiply(tc, tc, out=d_o)
            np.subtract(1.0, d_o, out=d_o)
            np.multiply(dh, o_gates[t], out=tmp)
            tmp *= d_o
            dc += tmp
            np.multiply(dc, gate[2 * H:3 * H], out=d_i)
            np.multiply(dc, c_prevs[t], out=d_f)
            np.multiply(dc, gate[:H], out=d_g)
            np.multiply(dh, tc, out=d_o)
            np.add(gate, shift, out=tmp4)
            d *= tmp4
            np.subtract(1.0, gate, out=tmp4)
            dc *= gate[H:2 * H]
            np.multiply(d, tmp4, out=gate)  # gates[t] now holds da[t]
            if above:  # the layer above's input at t is this layer's h
                dwx_above += da_above[t] @ h.T
            if t:  # h at t - 1 = o * tanh(c_prev)
                np.tanh(c_prevs[t], out=c_prevs[t])
                np.multiply(o_gates[t - 1], c_prevs[t], out=h)
                dwh += gate @ h.T
            if not layer:  # the input: the stack itself, or its live columns
                x = trace.stack[:, t].T
                dwx += gate @ (x if isinstance(live, slice) else np.take(x, live, axis=-1)).T
        grads[f"lstm{layer}.b"] = gates.sum(axis=0).sum(axis=1)
        if layer:  # grads into the layer below's h, in the spent cell states
            above = gates, dwx, np.matmul(wx.T, gates, out=c_prevs)
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
    """Read a checkpoint, bounding every read by the header: the file must
    hold the header's tensor count of record heads before the layout is
    built, a file longer than the layout is refused unread, and each record's
    head is checked before its data is read, so a header whose dims the file
    does not hold names the first tensor that differs."""
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER_BYTES)
        size = os.fstat(fh.fileno()).st_size
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
        # Bound the tensor count against the file before building the layout:
        # every tensor needs at least its 12 record-head length bytes.
        least = _HEADER_BYTES + 12 * (3 * n_layers + 2)
        if least > size:
            raise FormatError(f"{path}: header needs at least {least} bytes, file has {size}")
        cfg = EncoderConfig(n_layers, hidden, embed, input_dim, seed)
        layout = list(_layout(cfg))
        exact = _HEADER_BYTES + sum(len(head) + 8 * math.prod(shape)
                                    for _, shape, head in layout)
        if size > exact:
            raise FormatError(f"{path}: {size - exact} trailing bytes after tensors")
        tensors = {}
        offset = _HEADER_BYTES
        for name, shape, head in layout:
            found = fh.read(len(head))
            if found != head:
                raise FormatError(f"{path}: expected the head of tensor {name} ({head!r}), "
                                  f"found {found!r}")
            nbytes = 8 * math.prod(shape)
            offset += len(head) + nbytes
            # Read no more than the file holds; one that shrank since is cut short.
            data = fh.read(nbytes) if offset <= size else b""
            if len(data) < nbytes:
                raise FormatError(f"{path}: truncated data for {name}")
            tensors[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    return EncoderParams(cfg, tensors)
