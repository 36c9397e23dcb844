"""Losses vs hand arithmetic, exhaustive CTC enumeration, finite differences."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from dsrkit.errors import (
    EmptyInputError,
    InfeasibleAlignmentError,
    InsufficientBatchError,
    NumericError,
    ParameterError,
    ShapeError,
    ValidationError,
)
from dsrkit.losses import (
    Ge2eScale,
    ctc_loss,
    ge2e_loss,
    s2s_ce_loss,
    triplet_loss,
    validate_logprobs,
)


def normalized_logprobs(rng, n_steps, n_symbols):
    x = rng.normal(size=(n_steps, n_symbols))
    top = x.max(axis=1, keepdims=True)
    return x - (top + np.log(np.sum(np.exp(x - top), axis=1, keepdims=True)))


def rel_err(a, b, floor=1e-6):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestTripletLoss:
    def test_hand_value(self):
        loss, *_ = triplet_loss([0.0, 0.0], [3.0, 4.0], [0.0, 1.0], alpha=0.5)
        assert loss == pytest.approx(24.5, abs=1e-12)

    def test_satisfied_margin_is_zero_with_zero_grads(self):
        a = np.array([1.0, 0.0])
        loss, ga, gp, gn = triplet_loss(a, a, [1.0, 1.0], alpha=0.3)
        assert loss == 0.0
        for g in (ga, gp, gn):
            npt.assert_array_equal(g, 0.0)

    def test_degenerate_equality_gives_alpha(self):
        a = np.array([0.2, -0.4, 1.0])
        loss, *_ = triplet_loss(a, a, a, alpha=0.7)
        assert loss == pytest.approx(0.7, abs=1e-15)

    def test_exact_kink_uses_zero_subgradient(self):
        # |a-p|^2 = 1, |a-n|^2 = 4, alpha = 3: hinge argument is exactly 0
        loss, ga, gp, gn = triplet_loss(
            [0.0, 0.0], [1.0, 0.0], [0.0, 2.0], alpha=3.0)
        assert loss == 0.0
        for g in (ga, gp, gn):
            npt.assert_array_equal(g, 0.0)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            loss, *_ = triplet_loss(rng.normal(size=3), rng.normal(size=3),
                                    rng.normal(size=3), alpha=rng.uniform(0, 1))
            assert loss >= 0.0

    def test_orthogonal_transform_invariance(self):
        rng = np.random.default_rng(1)
        a, p, n = rng.normal(size=(3, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        base, *_ = triplet_loss(a, p, n, alpha=0.4)
        moved, *_ = triplet_loss(q @ a, q @ p, q @ n, alpha=0.4)
        assert moved == pytest.approx(base, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        checked = 0
        while checked < 5:
            a, p, n = rng.normal(size=(3, 4))
            loss, ga, gp, gn = triplet_loss(a, p, n, alpha=0.3)
            if loss < 1e-3:  # stay away from the kink for the FD probe
                continue
            checked += 1
            for vec, grad in ((a, ga), (p, gp), (n, gn)):
                for j in range(4):
                    orig = vec[j]
                    vec[j] = orig + h
                    up, *_ = triplet_loss(a, p, n, alpha=0.3)
                    vec[j] = orig - h
                    down, *_ = triplet_loss(a, p, n, alpha=0.3)
                    vec[j] = orig
                    assert rel_err(grad[j], (up - down) / (2 * h)) < 1e-5

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            triplet_loss([0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0], alpha=0.1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ParameterError):
            triplet_loss([0.0], [0.0], [0.0], alpha=-0.1)


class TestGe2eLoss:
    def test_orthogonal_two_by_two_hand_value(self):
        emb = np.array([[[1.0, 0.0], [1.0, 0.0]],
                        [[0.0, 1.0], [0.0, 1.0]]])
        loss, *_ = ge2e_loss(emb, Ge2eScale(w=1.0, b=0.0))
        assert loss == pytest.approx(4.0 * (np.log(np.e + 1.0) - 1.0), abs=1e-9)
        assert loss == pytest.approx(1.253046, abs=1e-5)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(3, 4, 5))
        scale = Ge2eScale(w=2.0, b=-1.0)
        base, *_ = ge2e_loss(emb, scale)
        spk_perm = emb[[2, 0, 1]]
        utt_perm = emb[:, [3, 1, 0, 2]]
        assert ge2e_loss(spk_perm, scale)[0] == pytest.approx(base, abs=1e-9)
        assert ge2e_loss(utt_perm, scale)[0] == pytest.approx(base, abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(3, 3, 4))
        scale = Ge2eScale(w=1.5, b=-0.5)
        _, demb, dw, db = ge2e_loss(emb, scale)
        h = 1e-6
        flat = emb.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, *_ = ge2e_loss(emb, scale)
            flat[j] = orig - h
            down, *_ = ge2e_loss(emb, scale)
            flat[j] = orig
            assert rel_err(demb.ravel()[j], (up - down) / (2 * h)) < 1e-6
        up, *_ = ge2e_loss(emb, Ge2eScale(scale.w + h, scale.b))
        down, *_ = ge2e_loss(emb, Ge2eScale(scale.w - h, scale.b))
        assert rel_err(dw, (up - down) / (2 * h)) < 1e-6
        up, *_ = ge2e_loss(emb, Ge2eScale(scale.w, scale.b + h))
        down, *_ = ge2e_loss(emb, Ge2eScale(scale.w, scale.b - h))
        # db is ~0, so compare absolutely at the FD noise scale
        assert abs(db - (up - down) / (2 * h)) < 1e-8

    def test_bias_gradient_is_analytically_zero(self):
        rng = np.random.default_rng(5)
        *_, db = ge2e_loss(rng.normal(size=(2, 3, 4)), Ge2eScale(1.0, 0.0))
        assert abs(db) < 1e-12

    def test_small_batches_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InsufficientBatchError):
            ge2e_loss(rng.normal(size=(1, 3, 4)), Ge2eScale())
        with pytest.raises(InsufficientBatchError):
            ge2e_loss(rng.normal(size=(3, 1, 4)), Ge2eScale())

    def test_non_stack_rejected(self):
        with pytest.raises(ShapeError, match=r"\(N, M, D\) stack"):
            ge2e_loss(np.ones((4, 3)), Ge2eScale())

    def test_zero_norm_embedding_rejected(self):
        emb = np.ones((2, 2, 3))
        emb[1, 0] = 0.0
        with pytest.raises(NumericError, match="zero-norm embedding"):
            ge2e_loss(emb, Ge2eScale())

    def test_zero_full_centroid_rejected(self):
        # Speaker 0's rows sum to 0: its full centroid, as speaker 1's
        # utterances see it, has no direction.
        emb = np.array([[[1.0, 0.0], [-1.0, 0.0]],
                        [[0.0, 1.0], [0.0, 2.0]]])
        with pytest.raises(NumericError, match="zero-norm centroid"):
            ge2e_loss(emb, Ge2eScale())

    def test_zero_leave_one_out_centroid_rejected(self):
        # Leaving out speaker 0's last row leaves rows that sum to 0, while
        # every full centroid is nonzero.
        emb = np.array([[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                        [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(NumericError, match="zero-norm centroid"):
            ge2e_loss(emb, Ge2eScale())

    def test_scale_validation_and_projection(self):
        with pytest.raises(ParameterError):
            Ge2eScale(w=0.0)
        with pytest.raises(ParameterError):
            Ge2eScale(w=-1.0)
        stepped = Ge2eScale(w=1e-3, b=0.0).stepped(grad_w=100.0, grad_b=0.0, lr=1.0)
        assert stepped.w == 1e-6

    def test_non_finite_scale_rejected(self):
        for w in (np.nan, np.inf):
            with pytest.raises(ParameterError):
                Ge2eScale(w=w)


def reference_ge2e(emb, scale):
    """The per-(speaker, utterance, centroid) loop the similarity-tensor
    ge2e_loss replaced; it rebuilds the centroids for every utterance."""
    n_spk, n_utt, _ = emb.shape
    e_norms = np.linalg.norm(emb, axis=2)
    sums = emb.sum(axis=1)
    full_cent = sums / n_utt
    loss = 0.0
    demb = np.zeros_like(emb)
    dw = 0.0
    db = 0.0
    for j in range(n_spk):
        for i in range(n_utt):
            e = emb[j, i]
            en = e_norms[j, i]
            cents = full_cent.copy()
            cents[j] = (sums[j] - e) / (n_utt - 1)
            cnorms = np.linalg.norm(cents, axis=1)
            cos = cents @ e / (cnorms * en)
            sim = scale.w * cos + scale.b
            top = np.max(sim)
            lse = top + np.log(np.sum(np.exp(sim - top)))
            loss += lse - sim[j]
            dsim = np.exp(sim - lse)
            dsim[j] -= 1.0
            dw += float(dsim @ cos)
            db += float(dsim.sum())
            for k in range(n_spk):
                coef = scale.w * dsim[k]
                ck = cents[k]
                dcos_de = ck / (cnorms[k] * en) - cos[k] * e / (en * en)
                dcos_dc = e / (cnorms[k] * en) - cos[k] * ck / (cnorms[k] * cnorms[k])
                demb[j, i] += coef * dcos_de
                if k == j:
                    spread = coef * dcos_dc / (n_utt - 1)
                    demb[j] += spread
                    demb[j, i] -= spread
                else:
                    demb[k] += coef * dcos_dc / n_utt
    return loss, demb, dw, db


class TestGe2eOracle:
    """The similarity-tensor ge2e_loss against the loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(n_spk=st.integers(2, 6), n_utt=st.integers(2, 6), dim=st.integers(2, 16),
           w=st.floats(0.5, 12.0), b=st.floats(-6.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    # Speaker 1's two rows nearly cancel: its centroid has norm 1.8e-4 and
    # demb reaches 3.1e3, where the two forms differ by 2.5 ulp.
    @example(n_spk=3, n_utt=2, dim=2, w=2.0, b=0.0, seed=7126121)
    def test_matches_loop(self, n_spk, n_utt, dim, w, b, seed):
        emb = np.random.default_rng(seed).normal(size=(n_spk, n_utt, dim))
        emb /= np.linalg.norm(emb, axis=2, keepdims=True)
        scale = Ge2eScale(w, b)
        loss, demb, dw, db = ge2e_loss(emb, scale)
        ref_loss, ref_demb, ref_dw, ref_db = reference_ge2e(emb, scale)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        npt.assert_allclose(demb, ref_demb, rtol=0,
                            atol=1e-12 * max(1.0, np.abs(ref_demb).max()))
        assert abs(dw - ref_dw) <= 1e-12
        assert abs(db - ref_db) <= 1e-12


def collapse(path, blank):
    out = []
    prev = None
    for s in path:
        if s != prev:
            out.append(s)
        prev = s
    return [s for s in out if s != blank]


def ctc_brute_force(probs, target, blank=0):
    """Oracle: sum the probability of every path collapsing to target."""
    n_steps, n_symbols = probs.shape
    total = 0.0
    for path in itertools.product(range(n_symbols), repeat=n_steps):
        if collapse(path, blank) == list(target):
            pr = 1.0
            for t, s in enumerate(path):
                pr *= probs[t, s]
            total += pr
    return total


def reference_ctc(lp, labels, blank=0):
    """Per-state forward-backward loops, as ctc_loss ran before its one
    array step per frame. None where every alignment has zero probability;
    the target must fit in the steps."""
    n_steps = lp.shape[0]
    ext = [blank]
    for s in labels:
        ext += [s, blank]
    n_states = len(ext)
    alpha = np.full((n_steps, n_states), -np.inf)
    alpha[0, 0] = lp[0, ext[0]]
    if n_states > 1:
        alpha[0, 1] = lp[0, ext[1]]
    for t in range(1, n_steps):
        for s in range(n_states):
            acc = alpha[t - 1, s]
            if s >= 1:
                acc = np.logaddexp(acc, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, alpha[t - 1, s - 2])
            alpha[t, s] = acc + lp[t, ext[s]]
    log_z = alpha[n_steps - 1, n_states - 1]
    if n_states > 1:
        log_z = np.logaddexp(log_z, alpha[n_steps - 1, n_states - 2])
    if not np.isfinite(log_z):
        return None
    beta = np.full((n_steps, n_states), -np.inf)
    beta[n_steps - 1, n_states - 1] = 0.0
    if n_states > 1:
        beta[n_steps - 1, n_states - 2] = 0.0
    for t in range(n_steps - 2, -1, -1):
        for s in range(n_states):
            acc = beta[t + 1, s] + lp[t + 1, ext[s]]
            if s + 1 < n_states:
                acc = np.logaddexp(acc, beta[t + 1, s + 1] + lp[t + 1, ext[s + 1]])
            if s + 2 < n_states and ext[s + 2] != blank and ext[s + 2] != ext[s]:
                acc = np.logaddexp(acc, beta[t + 1, s + 2] + lp[t + 1, ext[s + 2]])
            beta[t, s] = acc
    occupancy = np.exp(alpha + beta - log_z)
    grad = np.zeros_like(lp)
    for s in range(n_states):
        grad[:, ext[s]] -= occupancy[:, s]
    return float(-log_z), grad


class TestCtcLoss:
    def test_single_step_hand_value(self):
        lp = np.log(np.array([[0.5, 0.5]]))
        loss, grad = ctc_loss(lp, [1])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        npt.assert_allclose(grad, [[0.0, -1.0]], atol=1e-12)

    def test_deterministic_posterior_gives_zero_loss(self):
        lp = np.array([[-np.inf, 0.0], [-np.inf, 0.0]])
        loss, _ = ctc_loss(lp, [1])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(7)
        cases = 0
        while cases < 200:
            n_steps = int(rng.integers(1, 5))
            n_symbols = int(rng.integers(2, 4))
            tgt_len = int(rng.integers(0, 3))
            target = list(rng.integers(1, n_symbols, size=tgt_len))
            repeats = sum(1 for u in range(1, tgt_len) if target[u] == target[u - 1])
            if n_steps < tgt_len + repeats:
                continue
            cases += 1
            lp = normalized_logprobs(rng, n_steps, n_symbols)
            loss, _ = ctc_loss(lp, target)
            expected = ctc_brute_force(np.exp(lp), target)
            assert abs(np.exp(-loss) - expected) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 12),
           n_symbols=st.integers(2, 5), tgt_len=st.integers(0, 5),
           impossible=st.floats(0.0, 0.5))
    def test_matches_per_state_loops_bit_for_bit(self, seed, n_steps, n_symbols, tgt_len,
                                                 impossible):
        """Random posteriors, some entries log 0, against reference_ctc."""
        rng = np.random.default_rng(seed)
        target = [int(s) for s in rng.integers(1, n_symbols, size=tgt_len)]
        lp = normalized_logprobs(rng, n_steps, n_symbols)
        lp[rng.random(lp.shape) < impossible] = -np.inf
        repeats = sum(1 for u in range(1, tgt_len) if target[u] == target[u - 1])
        if n_steps < tgt_len + repeats:
            with pytest.raises(InfeasibleAlignmentError):
                ctc_loss(lp, target, validate=False)
            return
        reference = reference_ctc(lp, target)
        if reference is None:
            with pytest.raises(NumericError):
                ctc_loss(lp, target, validate=False)
            return
        loss, grad = ctc_loss(lp, target, validate=False)
        assert np.float64(loss).tobytes() == np.float64(reference[0]).tobytes()
        assert grad.tobytes() == reference[1].tobytes()

    def test_loss_maps_to_probability(self):
        rng = np.random.default_rng(8)
        lp = normalized_logprobs(rng, 4, 3)
        loss, _ = ctc_loss(lp, [1, 2])
        assert 0.0 < np.exp(-loss) <= 1.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        lp = normalized_logprobs(rng, 4, 3)
        target = [1, 2]
        _, grad = ctc_loss(lp, target)
        h = 1e-6
        flat = lp.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, _ = ctc_loss(lp, target, validate=False)
            flat[j] = orig - h
            down, _ = ctc_loss(lp, target, validate=False)
            flat[j] = orig
            assert rel_err(grad.ravel()[j], (up - down) / (2 * h)) < 1e-6

    def test_infeasible_target_rejected(self):
        lp = np.full((2, 2), np.log(0.5))
        with pytest.raises(InfeasibleAlignmentError):
            ctc_loss(lp, [1, 1])  # repeat needs a separator: min 3 steps

    def test_blank_in_target_rejected(self):
        lp = np.full((3, 2), np.log(0.5))
        with pytest.raises(ParameterError):
            ctc_loss(lp, [0, 1])

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValidationError):
            ctc_loss(np.zeros((2, 2)), [1])

    def test_alphabet_without_room_for_the_blank_rejected(self):
        with pytest.raises(ParameterError, match="blank"):
            ctc_loss(np.zeros((2, 0)), [])

    def test_empty_target_counts_all_blank_paths(self):
        rng = np.random.default_rng(10)
        lp = normalized_logprobs(rng, 3, 3)
        loss, _ = ctc_loss(lp, [])
        assert loss == pytest.approx(-float(lp[:, 0].sum()), abs=1e-12)


class TestS2sCeLoss:
    def test_certain_predictions_give_zero(self):
        lp = np.array([[0.0, -np.inf], [0.0, -np.inf]])
        loss, _ = s2s_ce_loss(lp, [0, 0])
        assert loss == 0.0

    def test_hand_value(self):
        lp = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
        loss, _ = s2s_ce_loss(lp, [0, 0])
        assert loss == pytest.approx((np.log(2) + np.log(4)) / 2, abs=1e-12)
        assert loss == pytest.approx(1.039721, abs=1e-6)

    def test_uniform_gives_log_k(self):
        lp = np.full((3, 4), np.log(0.25))
        loss, _ = s2s_ce_loss(lp, [0, 3, 1])
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        lp = normalized_logprobs(rng, 3, 4)
        target = [2, 0, 3]
        _, grad = s2s_ce_loss(lp, target)
        h = 1e-6
        flat = lp.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, _ = s2s_ce_loss(lp, target, validate=False)
            flat[j] = orig - h
            down, _ = s2s_ce_loss(lp, target, validate=False)
            flat[j] = orig
            assert rel_err(grad.ravel()[j], (up - down) / (2 * h)) < 1e-5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            s2s_ce_loss(np.full((2, 2), np.log(0.5)), [0, 1, 0])

    def test_empty_target_rejected(self):
        with pytest.raises(EmptyInputError):
            s2s_ce_loss(np.zeros((0, 2)), [])


class TestLogProbValidation:
    def test_normalized_rows_pass(self):
        rng = np.random.default_rng(12)
        validate_logprobs(normalized_logprobs(rng, 5, 4))

    def test_bad_rows_fail(self):
        with pytest.raises(ValidationError):
            validate_logprobs(np.zeros((2, 3)))
