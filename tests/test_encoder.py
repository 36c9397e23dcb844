"""Encoder: FD and per-step reference oracles, init/step contracts,
checkpoint round-trips and malformed checkpoints."""

import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from dsrkit.encoder import (
    EncoderConfig,
    EncoderParams,
    _gate_affine,
    backward_batch,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    tensor_order,
    zero_grads,
)
from dsrkit.errors import (
    DsrkitError,
    FormatError,
    NumericError,
    ParameterError,
    ShapeError,
    UnsupportedFormatError,
)

SMALL = EncoderConfig(n_layers=2, hidden_dim=8, embed_dim=4, input_dim=5, seed=7)


def embed_one(params, frames):
    """Embedding of one (T, D) utterance: forward_batch on a (1, T, D) stack."""
    return forward_batch(params, frames[None]).embeddings[0]


def grads_one(params, frames, g):
    """Gradients of g . embed_one(params, frames) via backward_batch."""
    return backward_batch(params, forward_batch(params, frames[None]), g[None])


def fd_gradient(params, frames, g, h=1e-5):
    """Independent oracle: central finite differences on g . embed_one(...)."""
    out = {}
    for name, tensor in params.tensors.items():
        flat = tensor.ravel()
        approx = np.zeros(flat.size)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = float(g @ embed_one(params, frames))
            flat[j] = orig - h
            down = float(g @ embed_one(params, frames))
            flat[j] = orig
            approx[j] = (up - down) / (2.0 * h)
        out[name] = approx.reshape(tensor.shape)
    return out


def _sigmoid(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def reference_forward(params, stack):
    """Batch-major, one step at a time, every gate activated separately:
    the encoder as first written, kept as the oracle for forward_batch."""
    cfg = params.config
    B, T, _ = stack.shape
    H = cfg.hidden_dim
    x = stack
    cache = []
    for layer in range(cfg.n_layers):
        wx = params.tensors[f"lstm{layer}.w_x"]
        wh = params.tensors[f"lstm{layer}.w_h"]
        b = params.tensors[f"lstm{layer}.b"]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        gates = np.empty((B, T, 4 * H))
        c_prevs = np.empty((B, T, H))
        tanh_cs = np.empty((B, T, H))
        hs = np.empty((B, T, H))
        for t in range(T):
            a = x[:, t] @ wx.T + h @ wh.T + b
            i = _sigmoid(a[:, :H])
            f = _sigmoid(a[:, H:2 * H])
            g = np.tanh(a[:, 2 * H:3 * H])
            o = _sigmoid(a[:, 3 * H:])
            c_prevs[:, t] = c
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            gates[:, t] = np.concatenate([i, f, g, o], axis=1)
            tanh_cs[:, t] = tc
            hs[:, t] = h
        cache.append((x, gates, c_prevs, tanh_cs, hs, c))
        x = hs
    pre_norm = x[:, -1] @ params.tensors["proj.w"].T + params.tensors["proj.b"]
    norms = np.linalg.norm(pre_norm, axis=1)
    return pre_norm / norms[:, None], norms, cache


def reference_backward(params, forward, grad_out):
    """Per-step backward matching reference_forward; every weight gradient
    is accumulated inside the time loop."""
    e, norms, cache = forward
    cfg = params.config
    H = cfg.hidden_dim
    B, T = cache[0][0].shape[:2]
    dv = (grad_out - np.sum(grad_out * e, axis=1, keepdims=True) * e) / norms[:, None]
    grads = {"proj.w": dv.T @ cache[-1][4][:, -1], "proj.b": dv.sum(axis=0)}
    dh_seq = np.zeros((B, T, H))
    dh_seq[:, -1] = dv @ params.tensors["proj.w"]
    for layer in reversed(range(cfg.n_layers)):
        wx = params.tensors[f"lstm{layer}.w_x"]
        wh = params.tensors[f"lstm{layer}.w_h"]
        x, gates, c_prevs, tanh_cs, hs, _ = cache[layer]
        dwx = np.zeros_like(wx)
        dwh = np.zeros_like(wh)
        db = np.zeros(4 * H)
        dx = np.empty_like(x)
        dh = np.zeros((B, H))
        dc = np.zeros((B, H))
        for t in reversed(range(T)):
            dh = dh + dh_seq[:, t]
            i = gates[:, t, :H]
            f = gates[:, t, H:2 * H]
            g = gates[:, t, 2 * H:3 * H]
            o = gates[:, t, 3 * H:]
            tc = tanh_cs[:, t]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            dg = dc * i
            df = dc * c_prevs[:, t]
            da = np.concatenate(
                [di * i * (1.0 - i), df * f * (1.0 - f),
                 dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
            dwx += da.T @ x[:, t]
            dwh += da.T @ h_prev
            db += da.sum(axis=0)
            dx[:, t] = da @ wx
            dh = da @ wh
            dc = dc * f
        grads[f"lstm{layer}.w_x"] = dwx
        grads[f"lstm{layer}.w_h"] = dwh
        grads[f"lstm{layer}.b"] = db
        dh_seq = dx
    return grads


def fulltrace_forward(params, stack):
    """forward_batch as it was when the trace also kept every layer's input,
    tanh(c) and h: the byte-level oracle of both passes."""
    cfg = params.config
    B, T, _ = stack.shape
    H = cfg.hidden_dim
    scale, offset = _gate_affine(H, B)
    row_scale = scale[:, :1]
    x = stack.transpose(1, 2, 0)
    layer_inputs, gates_all, c_prevs_all, tanh_cs_all, hs_all = [], [], [], [], []
    ig = np.empty((H, B))
    c_last = np.empty((H, B))
    for layer in range(cfg.n_layers):
        gates, c_prevs = np.empty((T, 4 * H, B)), np.empty((T, H, B))
        tanh_cs, hs = np.empty((T, H, B)), np.empty((T, H, B))
        wh = row_scale * params.tensors[f"lstm{layer}.w_h"]
        np.matmul(row_scale * params.tensors[f"lstm{layer}.w_x"], x, out=gates)
        gates += scale * params.tensors[f"lstm{layer}.b"][:, None]
        c_prevs[0] = 0.0
        for t in range(T):
            a = gates[t]
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
    pre_norm = hs_all[-1][-1].T @ params.tensors["proj.w"].T + params.tensors["proj.b"]
    norms = np.linalg.norm(pre_norm, axis=1)
    return SimpleNamespace(stack=stack, layer_inputs=layer_inputs, gates=gates_all,
                           c_prevs=c_prevs_all, tanh_cs=tanh_cs_all, hs=hs_all,
                           norms=norms, embeddings=pre_norm / norms[:, None])


def fulltrace_backward(params, trace, grad_out):
    """backward_batch over a fulltrace_forward trace, reading tanh(c), h and
    the layer inputs where the forward pass stored them. On a fully live
    batch every column is taken as a view, with no gather."""
    cfg = params.config
    T = trace.stack.shape[1]
    H = cfg.hidden_dim
    live = np.flatnonzero(np.any(grad_out != 0.0, axis=1))
    if len(live) == len(grad_out):
        live = slice(None)

        def cols(a):
            return a
    else:
        grad_out = grad_out[live]

        def cols(a):
            return np.take(a, live, axis=1)
    B = len(grad_out)
    e, norms = trace.embeddings[live], trace.norms[live]
    dv = (grad_out - np.sum(grad_out * e, axis=1, keepdims=True) * e) / norms[:, None]
    top = trace.hs[-1][-1].T[live]
    grads = {"proj.w": dv.T @ top, "proj.b": dv.sum(axis=0)}
    shift = np.zeros((4 * H, B))
    shift[2 * H:3 * H] = 1.0
    da = np.empty((T, 4 * H, B))
    dh_seq = None
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


def recomputed(trace, layer):
    """tanh(c) and h = o * tanh(c) of one layer of a training trace, one step
    at a time from its gates, cell states and last cell state."""
    gates, c_prevs = trace.gates[layer], trace.c_prevs[layer]
    T, H = c_prevs.shape[:2]
    tanh_cs, hs = np.empty_like(c_prevs), np.empty_like(c_prevs)
    for t in range(T):
        c = c_prevs[t + 1] if t + 1 < T else trace.c_lasts[layer]
        tanh_cs[t] = np.tanh(c)
        hs[t] = gates[t, 3 * H:] * tanh_cs[t]
    return tanh_cs, hs


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def max_rel_error(analytic, approx):
    worst = 0.0
    for name in analytic:
        a, f = analytic[name], approx[name]
        rel = np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)
        worst = max(worst, float(np.max(rel)))
    return worst


class TestEncodeContracts:
    def test_output_is_unit_norm(self):
        params = init_params(SMALL)
        rng = np.random.default_rng(0)
        e = embed_one(params, rng.normal(size=(3, 5)))
        assert abs(np.linalg.norm(e) - 1.0) < 1e-9

    def test_deterministic(self):
        params = init_params(SMALL)
        frames = np.random.default_rng(1).normal(size=(4, 5))
        assert embed_one(params, frames).tobytes() == embed_one(params, frames).tobytes()

    def test_zero_weights_give_normalized_projection_bias(self):
        params = init_params(SMALL)
        for name in params.tensors:
            if name != "proj.b":
                params.tensors[name][:] = 0.0
        frames = np.random.default_rng(2).normal(size=(6, 5))
        b = params.tensors["proj.b"]
        npt.assert_allclose(embed_one(params, frames), b / np.linalg.norm(b), atol=1e-12)

    def test_rescaling_projection_leaves_embedding_fixed(self):
        params = init_params(SMALL)
        frames = np.random.default_rng(3).normal(size=(5, 5))
        base = embed_one(params, frames)
        for s in (0.25, 3.0, 1e4):
            tensors = dict(params.tensors)
            tensors["proj.w"] = s * tensors["proj.w"]
            tensors["proj.b"] = s * tensors["proj.b"]
            scaled = EncoderParams(params.config, tensors)
            npt.assert_allclose(embed_one(scaled, frames), base, atol=1e-9)

    # Squaring the scaled projection overflows in numpy before the check raises.
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_norm_rejected(self):
        params = init_params(SMALL)
        tensors = dict(params.tensors)
        tensors["proj.w"] = 1e308 * tensors["proj.w"]
        tensors["proj.b"] = 1e308 * tensors["proj.b"]
        stack = np.random.default_rng(3).normal(size=(3, 5, 5))
        with pytest.raises(NumericError, match="not finite"):
            forward_batch(EncoderParams(params.config, tensors), stack)

    def test_wrong_frame_width_rejected(self):
        params = init_params(SMALL)
        with pytest.raises(ShapeError):
            forward_batch(params, np.zeros((1, 3, 4)))


class TestGradients:
    def test_matches_central_finite_differences(self):
        params = init_params(SMALL)
        rng = np.random.default_rng(10)
        frames = rng.normal(size=(3, 5))
        g = rng.normal(size=4)
        analytic = grads_one(params, frames, g)
        approx = fd_gradient(params, frames, g)
        assert max_rel_error(analytic, approx) < 1e-5

    def test_zero_upstream_gives_zero_grads(self):
        params = init_params(SMALL)
        frames = np.random.default_rng(4).normal(size=(3, 5))
        grads = grads_one(params, frames, np.zeros(4))
        for g in grads.values():
            npt.assert_array_equal(g, np.zeros_like(g))

    def test_radial_upstream_gives_zero_grads(self):
        params = init_params(SMALL)
        frames = np.random.default_rng(5).normal(size=(3, 5))
        e = embed_one(params, frames)
        grads = grads_one(params, frames, 2.5 * e)
        for g in grads.values():
            assert np.max(np.abs(g)) < 1e-9

    def test_wrong_grad_width_rejected(self):
        params = init_params(SMALL)
        trace = forward_batch(params, np.zeros((1, 3, 5)))
        with pytest.raises(ShapeError):
            backward_batch(params, trace, np.zeros((1, 5)))


class TestReferenceOracle:
    """The fused, hoisted, feature-major recurrence against the per-step
    reference, at the batch shapes training and evaluation run."""

    @pytest.mark.parametrize("batch,frames", [(128, 98), (64, 198), (16, 98),
                                              (1, 98), (3, 1)])
    def test_matches_per_step_reference(self, batch, frames):
        params = init_params(EncoderConfig(seed=batch + frames))
        rng = np.random.default_rng(frames)
        stack = rng.normal(size=(batch, frames, params.config.input_dim))
        g = rng.normal(size=(batch, params.config.embed_dim))
        trace = forward_batch(params, stack)
        expected = reference_forward(params, stack)
        oracle = fulltrace_forward(params, stack)
        npt.assert_allclose(trace.embeddings, expected[0], rtol=0, atol=1e-12)
        # Trace layout: feature-major (T, features, B) per layer. The layer
        # inputs, tanh(c) and h are recomputed from the kept fields.
        x_got = trace.stack.transpose(1, 2, 0)
        for layer, (x, gates, c_prevs, tanh_cs, hs, c_last) in enumerate(expected[2]):
            tanh_got, hs_got = recomputed(trace, layer)
            for got, want in ((x_got, x), (trace.gates[layer], gates),
                              (trace.c_prevs[layer], c_prevs), (tanh_got, tanh_cs),
                              (hs_got, hs)):
                npt.assert_allclose(got, want.transpose(1, 2, 0), rtol=0, atol=1e-12)
            npt.assert_allclose(trace.c_lasts[layer], c_last.T, rtol=0, atol=1e-12)
            # Recomputed from the kept fields, tanh(c) and o * tanh(c) carry
            # the bits the full-trace pass stored.
            assert same_bytes(tanh_got, oracle.tanh_cs[layer]), layer
            assert same_bytes(hs_got, oracle.hs[layer]), layer
            x_got = hs_got
        npt.assert_allclose(trace.top, expected[2][-1][4][:, -1], rtol=0, atol=1e-12)
        assert same_bytes(trace.top, oracle.hs[-1][-1].T)
        grads = backward_batch(params, trace, g)
        reference = reference_backward(params, expected, g)
        assert list(grads) == list(reference)
        for name, want in reference.items():
            scale = np.max(np.abs(want))
            assert np.max(np.abs(grads[name] - want)) <= 1e-12 * scale, name
        if frames == 1:
            npt.assert_array_equal(grads["lstm0.w_h"], 0.0)
            npt.assert_array_equal(grads["lstm1.w_h"], 0.0)

    @pytest.mark.parametrize("batch,frames,n_live", [(128, 98, 34), (96, 98, 25),
                                                     (64, 198, 1), (16, 98, 15),
                                                     (3, 1, 2)])
    def test_zero_rows_match_reference_on_live_rows(self, batch, frames, n_live):
        params = init_params(EncoderConfig(seed=batch + frames + n_live))
        rng = np.random.default_rng(batch + n_live)
        stack = rng.normal(size=(batch, frames, params.config.input_dim))
        live = np.sort(rng.choice(batch, size=n_live, replace=False))
        g = np.zeros((batch, params.config.embed_dim))
        g[live] = rng.normal(size=(n_live, params.config.embed_dim))
        grads = backward_batch(params, forward_batch(params, stack), g)
        reference = reference_backward(params, reference_forward(params, stack[live]),
                                       g[live])
        assert list(grads) == list(reference)
        for name, want in reference.items():
            scale = np.max(np.abs(want))
            assert np.max(np.abs(grads[name] - want)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("batch,frames", [(16, 98), (64, 198), (3, 1)])
    def test_fully_live_batch_is_bit_identical_to_columnfree_pass(self, batch, frames):
        """fulltrace_backward takes every column of a fully live batch as a
        view, so this also pins the full-batch operations."""
        params = init_params(EncoderConfig(seed=batch * frames))
        rng = np.random.default_rng(batch)
        stack = rng.normal(size=(batch, frames, params.config.input_dim))
        g = rng.normal(size=(batch, params.config.embed_dim))
        g[0, 1:] = 0.0  # a row with one nonzero entry is live
        grads = backward_batch(params, forward_batch(params, stack), g)
        want = fulltrace_backward(params, fulltrace_forward(params, stack), g)
        assert list(grads) == list(want)
        for name in want:
            assert np.array_equal(grads[name].view(np.int64),
                                  want[name].view(np.int64)), name


class TestBatching:
    def test_batch_embeddings_match_single_encode(self):
        params = init_params(SMALL)
        stack = np.random.default_rng(6).normal(size=(5, 4, 5))
        batch = forward_batch(params, stack).embeddings
        for row, f in zip(batch, stack):
            npt.assert_allclose(row, embed_one(params, f), atol=1e-12)

    def test_batch_grads_equal_sum_of_singles(self):
        params = init_params(SMALL)
        rng = np.random.default_rng(7)
        stack = rng.normal(size=(3, 4, 5))
        gouts = rng.normal(size=(3, 4))
        trace = forward_batch(params, stack)
        batch = backward_batch(params, trace, gouts)
        total = zero_grads(params)
        for f, g in zip(stack, gouts):
            single = grads_one(params, f, g)
            for name in total:
                total[name] += single[name]
        for name in total:
            npt.assert_allclose(batch[name], total[name], atol=1e-12)


class TestTraceReuse:
    """forward_batch(..., out=old) writes into old's arrays and computes
    exactly what a fresh call computes."""

    BUFFERS = ("gates", "c_prevs", "c_lasts")

    @pytest.mark.parametrize("batch,frames", [(16, 98), (5, 4), (3, 1)])
    def test_reused_trace_is_bit_identical_and_shares_memory(self, batch, frames):
        params = init_params(EncoderConfig(seed=batch + frames))
        rng = np.random.default_rng(frames)
        earlier, stack = rng.normal(size=(2, batch, frames, params.config.input_dim))
        old = forward_batch(params, earlier)
        lent = {name: list(getattr(old, name)) for name in self.BUFFERS}
        fresh = forward_batch(params, stack)
        reused = forward_batch(params, stack, out=old)
        for name in self.BUFFERS:
            for got, want in zip(getattr(reused, name), getattr(fresh, name), strict=True):
                assert got.tobytes() == want.tobytes(), name
        for name in ("top", "norms", "embeddings"):
            assert same_bytes(getattr(reused, name), getattr(fresh, name)), name
        for name, arrays in lent.items():
            for got, old_array in zip(getattr(reused, name), arrays, strict=True):
                assert np.shares_memory(got, old_array), name

    @pytest.mark.parametrize("batch,frames,n_live", [(16, 98, 16), (16, 98, 5), (5, 4, 0),
                                                     (3, 1, 2)])
    def test_consumed_trace_is_reused_bit_identically(self, batch, frames, n_live):
        """Each training step runs forward_batch(..., out=) on the trace the
        previous step's backward pass consumed."""
        params = init_params(EncoderConfig(seed=batch + frames + n_live))
        rng = np.random.default_rng(n_live)
        earlier, stack = rng.normal(size=(2, batch, frames, params.config.input_dim))
        g = np.zeros((batch, params.config.embed_dim))
        g[:n_live] = rng.normal(size=(n_live, params.config.embed_dim))
        old = forward_batch(params, earlier)
        backward_batch(params, old, g)
        fresh = forward_batch(params, stack)
        reused = forward_batch(params, stack, out=old)
        for name in self.BUFFERS:
            for got, want in zip(getattr(reused, name), getattr(fresh, name), strict=True):
                assert got.tobytes() == want.tobytes(), name
        for name in ("top", "norms", "embeddings"):
            assert same_bytes(getattr(reused, name), getattr(fresh, name)), name
        grads = backward_batch(params, reused, g)
        for name, want in backward_batch(params, fresh, g).items():
            assert same_bytes(grads[name], want), name

    def test_second_backward_pass_on_one_trace_rejected(self):
        params = init_params(SMALL)
        stack = np.random.default_rng(11).normal(size=(3, 4, 5))
        trace = forward_batch(params, stack)
        backward_batch(params, trace, np.ones((3, 4)))
        with pytest.raises(ParameterError, match="consumed"):
            backward_batch(params, trace, np.ones((3, 4)))

    @pytest.mark.parametrize("shape", [(4, 6, 5), (5, 7, 5)])
    def test_mismatched_shape_rejected(self, shape):
        params = init_params(SMALL)
        old = forward_batch(params, np.zeros((5, 6, 5)))
        with pytest.raises(ShapeError, match="out traced"):
            forward_batch(params, np.zeros(shape), out=old)


class TestKeepLevels:
    """The training pass (keep=True), the inference pass (keep=False) and
    the full-trace oracle compute the same bits."""

    @settings(max_examples=100, deadline=None)
    @given(n_layers=st.integers(1, 3),
           hidden=st.one_of(st.integers(1, 48), st.sampled_from([31, 32, 33, 48])),
           batch=st.integers(1, 64), frames=st.integers(1, 40),
           input_dim=st.integers(1, 6), embed_dim=st.integers(1, 5),
           dead_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]), seed=st.integers(0, 2**16))
    def test_passes_and_oracle_agree_byte_for_byte(self, n_layers, hidden, batch, frames,
                                                    input_dim, embed_dim, dead_share, seed):
        params = init_params(EncoderConfig(n_layers, hidden, embed_dim, input_dim, seed))
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(batch, frames, input_dim))
        g = rng.normal(size=(batch, embed_dim))
        g[rng.random(batch) < dead_share] = 0.0
        trace = forward_batch(params, stack)
        oracle = fulltrace_forward(params, stack)
        inferred = forward_batch(params, stack, keep=False)
        assert same_bytes(trace.embeddings, oracle.embeddings)
        assert same_bytes(inferred.embeddings, oracle.embeddings)
        c_lasts = [c.copy() for c in trace.c_lasts]  # the backward pass consumes the trace
        grads = backward_batch(params, trace, g)
        want = fulltrace_backward(params, oracle, g)
        assert list(grads) == list(want)
        for name in want:
            assert same_bytes(grads[name], want[name]), name
        # The recompute rests on np.tanh giving each element the same bits
        # over a whole sequence, or over gathered columns, as over one step.
        live = np.flatnonzero(np.any(g != 0.0, axis=1))
        for layer in range(n_layers):
            cells = np.concatenate((oracle.c_prevs[layer][1:], c_lasts[layer][None]))
            assert same_bytes(np.tanh(cells), oracle.tanh_cs[layer])
            assert same_bytes(np.tanh(np.take(cells, live, axis=-1)),
                              np.take(oracle.tanh_cs[layer], live, axis=-1))

    def test_inference_trace_keeps_only_outputs(self):
        params = init_params(SMALL)
        stack = np.random.default_rng(8).normal(size=(3, 4, 5))
        trace = forward_batch(params, stack, keep=False)
        assert trace.gates == trace.c_prevs == trace.c_lasts == []
        with pytest.raises(ParameterError, match="keep=False"):
            backward_batch(params, trace, np.ones((3, 4)))
        with pytest.raises(ParameterError, match="keep=False"):
            forward_batch(params, stack, out=forward_batch(params, stack), keep=False)

    def test_inference_trace_as_out_of_training_pass_rejected(self):
        params = init_params(SMALL)
        stack = np.random.default_rng(8).normal(size=(2, 3, 5))
        inference = forward_batch(params, stack, keep=False)
        with pytest.raises(ParameterError, match="inference trace"):
            forward_batch(params, stack, out=inference)

    def test_training_trace_keeps_five_floats_per_layer_step(self):
        cfg = EncoderConfig(n_layers=3, hidden_dim=8, embed_dim=4, input_dim=5)
        B, T, H = 6, 7, cfg.hidden_dim
        stack = np.random.default_rng(9).normal(size=(B, T, cfg.input_dim))
        trace = forward_batch(init_params(cfg), stack)
        arrays = trace.gates + trace.c_prevs + trace.c_lasts + [trace.top, trace.stack]
        # Each array's memory, once: no field holds a view of a larger buffer.
        owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
                  for a in arrays}
        assert trace.stack is stack and trace.top.base.shape == (H, B)
        assert sum(o.nbytes for o in owners.values()) == 8 * (
            cfg.n_layers * 5 * T * H * B + cfg.n_layers * H * B + H * B + stack.size)

    @pytest.mark.parametrize("batch,frames", [(64, 198), (96, 98)])
    @pytest.mark.parametrize("dead_share", [0.0, 0.5])
    def test_backward_pass_allocates_less_than_one_hidden_sequence(self, batch, frames,
                                                                   dead_share):
        """The backward pass works inside the trace it consumes: at the
        fine-tuning shapes its peak stays below one (T, H, B') array, B' the
        live rows."""
        params = init_params(EncoderConfig(n_layers=2, hidden_dim=32))
        rng = np.random.default_rng(batch)
        stack = rng.normal(size=(batch, frames, params.config.input_dim))
        g = rng.normal(size=(batch, params.config.embed_dim))
        n_dead = int(dead_share * batch)
        g[:n_dead] = 0.0
        trace = forward_batch(params, stack)
        tracemalloc.start()
        try:
            backward_batch(params, trace, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * frames * params.config.hidden_dim * (batch - n_dead), peak

    def test_inference_pass_holds_one_hidden_sequence(self):
        """At the evaluation's B240xT98 the full trace is about 85 MB; the
        inference pass holds one (T, H, B) array of 6 MB."""
        params = init_params(EncoderConfig(n_layers=2, hidden_dim=32))
        stack = np.random.default_rng(10).normal(size=(240, 98, params.config.input_dim))
        peaks = {}
        for keep in (False, True):
            tracemalloc.start()
            try:
                forward_batch(params, stack, keep=keep)
                peaks[keep] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] <= 20e6, peaks
        assert peaks[True] >= 2 * 5 * 98 * 32 * 240 * 8, peaks


class TestInitParams:
    def test_ranges(self):
        cfg = EncoderConfig(n_layers=2, hidden_dim=16, embed_dim=8, input_dim=6, seed=1)
        params = init_params(cfg)
        k = 1.0 / np.sqrt(16)
        for name, t in params.tensors.items():
            if name.startswith("lstm") and name.endswith(".b"):
                gates = t.reshape(4, 16)
                assert np.all(np.abs(gates[[0, 2, 3]]) < k + 1e-12)
                assert np.all(gates[1] > 1 - k) and np.all(gates[1] < 1 + k)
            else:
                assert np.all(np.abs(t) < k + 1e-12)
        assert np.all(params.tensors["proj.b"] != 0.0)

    def test_seed_reproducible_and_distinct(self):
        a = init_params(SMALL)
        b = init_params(SMALL)
        c = init_params(EncoderConfig(2, 8, 4, 5, seed=8))
        for name in a.tensors:
            npt.assert_array_equal(a.tensors[name], b.tensors[name])
        assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)

    def test_bad_config_rejected(self):
        with pytest.raises(ParameterError):
            EncoderConfig(n_layers=0)


class TestSgdStep:
    def test_zero_grads_leave_params_unchanged(self):
        params = init_params(SMALL)
        stepped = sgd_step(params, zero_grads(params), lr=0.1, clip=1.0)
        for name in params.tensors:
            npt.assert_array_equal(stepped.tensors[name], params.tensors[name])

    def test_plain_arithmetic(self):
        params = init_params(SMALL)
        grads = zero_grads(params)
        grads["proj.b"][0] = 0.5
        before = params.tensors["proj.b"][0]
        stepped = sgd_step(params, grads, lr=0.1, clip=1e9)
        assert stepped.tensors["proj.b"][0] == pytest.approx(before - 0.05, abs=1e-15)

    def test_norm_clipping_rescales(self):
        params = init_params(SMALL)
        grads = zero_grads(params)
        grads["proj.w"][0, 0] = 10.0  # global norm is exactly 10
        before = params.tensors["proj.w"][0, 0]
        stepped = sgd_step(params, grads, lr=0.1, clip=1.0)
        assert stepped.tensors["proj.w"][0, 0] == pytest.approx(before - 0.1, abs=1e-15)

    def test_non_finite_grads_rejected(self):
        params = init_params(SMALL)
        grads = zero_grads(params)
        grads["proj.w"][0, 0] = np.nan
        with pytest.raises(NumericError):
            sgd_step(params, grads, lr=0.1, clip=1.0)

    def test_bad_hyperparameters_rejected(self):
        params = init_params(SMALL)
        with pytest.raises(ParameterError):
            sgd_step(params, zero_grads(params), lr=0.0, clip=1.0)
        with pytest.raises(ParameterError):
            sgd_step(params, zero_grads(params), lr=0.1, clip=0.0)


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        params = init_params(SMALL)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(params, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.config == params.config
        for name in params.tensors:
            npt.assert_array_equal(loaded.tensors[name], params.tensors[name])

    def test_header_magic(self, tmp_path):
        path = tmp_path / "c.ckpt"
        save_checkpoint(init_params(SMALL), path)
        assert path.read_bytes()[:4] == b"DSRK"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedFormatError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"DSRK" + struct.pack("<ii", 1, 2))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        path = tmp_path / "name.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[28 + 4] = 0xFF  # first byte of the first tensor name
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="lstm0.w_x"):
            load_checkpoint(path)

    def test_huge_header_dims_rejected_before_allocating(self, tmp_path, monkeypatch):
        path = tmp_path / "huge.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<i", 2**31 - 1)
        path.write_bytes(bytes(blob))

        def refuse(config):
            raise AssertionError("tensor list built from an unchecked header")

        monkeypatch.setattr("dsrkit.encoder.tensor_order", refuse)
        monkeypatch.setattr("dsrkit.encoder._tensor_shapes", refuse)
        with pytest.raises(FormatError, match="at least"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset, first_mismatch", [
        (12, "lstm0.w_x"),  # hidden_dim
        (16, "proj.w"),     # embed_dim
        (20, "lstm0.w_x"),  # input_dim
    ])
    def test_huge_tensor_dim_names_first_mismatch_without_allocating(
            self, tmp_path, offset, first_mismatch):
        path = tmp_path / "huge.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 4] = struct.pack("<i", 2**31 - 1)
        path.write_bytes(bytes(blob))
        with open(path, "r+b") as fh:
            fh.truncate(16 * 2**20)  # zeros past the tensors: no whole-file read
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(first_mismatch)):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_non_positive_header_dim_rejected(self, tmp_path):
        path = tmp_path / "zero.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = bytearray(path.read_bytes())
        blob[12:16] = struct.pack("<i", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_truncation_or_byte_flip_is_a_dsrkit_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("ckpt") / "p.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = path.read_bytes()
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(path)
        where = data.draw(st.integers(0, len(blob) - 1), label="where")
        flip = data.draw(st.integers(1, 255), label="flip")
        changed = bytearray(blob)
        changed[where] ^= flip
        path.write_bytes(bytes(changed))
        try:
            load_checkpoint(path)
        except DsrkitError:
            pass

    def test_one_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "tail.ckpt"
        save_checkpoint(init_params(SMALL), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_checkpoint(path)

    def test_oversized_file_rejected_before_reading_it(self, tmp_path):
        """A valid checkpoint extended sparsely to 1 GiB: the size the header
        gives bounds the read, so the trailing bytes are refused unread."""
        path = tmp_path / "huge.ckpt"
        save_checkpoint(init_params(SMALL), path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(2**30)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f"{2**30 - size} trailing bytes"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("part", ["name length", "name byte", "element count"])
    def test_corrupt_record_head_names_its_tensor(self, tmp_path, part):
        """Walk the documented layout (28-byte header, then per tensor a
        uint32 name length, the name, a uint64 count and the float64 data),
        corrupt one part of each tensor's head in turn, and expect an error
        that names that tensor."""
        path = tmp_path / "head.ckpt"
        params = init_params(SMALL)
        save_checkpoint(params, path)
        blob = path.read_bytes()
        offset = 28
        for name in tensor_order(SMALL):
            raw = name.encode("utf-8")
            where = {"name length": offset, "name byte": offset + 4 + len(raw) - 1,
                     "element count": offset + 4 + len(raw)}[part]
            changed = bytearray(blob)
            changed[where] ^= 1
            path.write_bytes(bytes(changed))
            with pytest.raises(FormatError, match=re.escape(name)):
                load_checkpoint(path)
            offset += 4 + len(raw) + 8 + 8 * params.tensors[name].size
        assert offset == len(blob)

    def test_cut_inside_last_record_head_names_its_tensor(self, tmp_path):
        """A file cut inside proj.b's head is still long enough for the
        header's size bound (which does not count name bytes), so the
        record head check must catch it."""
        path = tmp_path / "cut.ckpt"
        save_checkpoint(init_params(SMALL), path)
        blob = path.read_bytes()
        head = 4 + len(b"proj.b") + 8
        start = len(blob) - 8 * SMALL.embed_dim - head
        for cut in range(start, start + head):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match=re.escape("proj.b")):
                load_checkpoint(path)

    def test_tensor_order_is_layerwise_then_projection(self):
        assert tensor_order(SMALL) == [
            "lstm0.w_x", "lstm0.w_h", "lstm0.b",
            "lstm1.w_x", "lstm1.w_h", "lstm1.b",
            "proj.w", "proj.b",
        ]


class TestParamsValidation:
    def test_missing_tensor_rejected(self):
        params = init_params(SMALL)
        broken = dict(params.tensors)
        del broken["proj.b"]
        with pytest.raises(ShapeError):
            EncoderParams(SMALL, broken)

    def test_wrong_shape_rejected(self):
        params = init_params(SMALL)
        broken = {k: v.copy() for k, v in params.tensors.items()}
        broken["proj.w"] = np.zeros((3, 3))
        with pytest.raises(ShapeError):
            EncoderParams(SMALL, broken)
