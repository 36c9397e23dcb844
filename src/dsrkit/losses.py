"""Objective functions: triplet hinge, GE2E (softmax variant), CTC and
per-step cross-entropy.

Every loss returns analytic gradients alongside the value; the test suite
holds them to central finite differences. CTC is computed entirely in log
space so it stays comparable to an exhaustive alignment enumeration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InfeasibleAlignmentError,
    InsufficientBatchError,
    NumericError,
    ParameterError,
    ShapeError,
    ValidationError,
)

GE2E_W_FLOOR = 1e-6


@dataclass(frozen=True)
class Ge2eScale:
    """Learned similarity scale S = w * cos + b; w stays strictly positive."""

    w: float = 10.0
    b: float = -5.0

    def __post_init__(self):
        if not 0 < self.w < np.inf:  # also rejects NaN
            raise ParameterError("Ge2eScale w must be positive and finite")

    def stepped(self, grad_w: float, grad_b: float, lr: float) -> "Ge2eScale":
        """SGD update with the positivity projection on w."""
        return Ge2eScale(max(self.w - lr * grad_w, GE2E_W_FLOOR), self.b - lr * grad_b)


def triplet_loss(anchor, positive, negative, alpha: float):
    """Hinge on squared distances: max(|a-p|^2 - |a-n|^2 + alpha, 0), on
    three vectors or summed over the rows of three (B, E) stacks.

    Returns (loss, grad_anchor, grad_positive, grad_negative). The row
    hinges are added left to right and every zero gradient is +0.0. The
    subgradient at the kink is 0 (FaceNet, Schroff et al. 2015,
    arXiv:1503.03832), so an exactly-met margin does not move any embedding.
    """
    a, p, n = (np.asarray(x, dtype=np.float64) for x in (anchor, positive, negative))
    if not (a.shape == p.shape == n.shape) or a.ndim not in (1, 2):
        raise ShapeError("anchor, positive, negative must be vectors or stacks of one shape")
    if not 0 <= alpha < np.inf:  # also rejects NaN
        raise ParameterError("alpha must be nonnegative and finite")
    ap, an = a - p, a - n
    raw = np.vecdot(ap, ap) - np.vecdot(an, an) + alpha  # a 1-D @ per row
    active = ~(raw <= 0.0)  # a NaN row stays in, so its loss is NaN
    loss = np.add.accumulate(np.append(0.0, np.where(active, raw, 0.0)))[-1]
    # + 0.0 turns a -0.0 gradient into +0.0.
    return float(loss), *(np.where(active[..., None], g, 0.0) + 0.0
                          for g in (2.0 * (n - p), -2.0 * ap, 2.0 * an))


def ge2e_loss(embeddings, scale: Ge2eScale):
    """Softmax GE2E over an (N speakers, M utterances, D) stack, computed
    as one (N, M, N) similarity tensor (Wan et al. 2018, arXiv:1710.10467):

        S[j, i, k] = w * cos(e[j, i], c[j, i, k]) + b
        loss = sum over (j, i) of logsumexp_k S[j, i, k] - S[j, i, j]

    c[j, i, k] is speaker k's centroid; the own-speaker centroid c[j, i, j]
    leaves utterance i out. Returns (loss, grad_embeddings, grad_w,
    grad_b); grad_b is analytically 0 for the softmax variant but is still
    reported for the optimizer loop.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    if emb.ndim != 3:
        raise ShapeError("embeddings must be a (N, M, D) stack")
    n_spk, n_utt, _ = emb.shape
    if n_spk < 2 or n_utt < 2:
        raise InsufficientBatchError("GE2E needs at least 2 speakers x 2 utterances")
    e_norms = np.linalg.norm(emb, axis=2, keepdims=True)
    if np.any(e_norms < 1e-300):
        raise NumericError("zero-norm embedding in GE2E batch")
    own = np.arange(n_spk)
    sums = emb.sum(axis=1)
    cents = np.tile(sums / n_utt, (n_spk, n_utt, 1, 1))
    cents[own, :, own] = (sums[:, None] - emb) / (n_utt - 1)
    c_norms = np.linalg.norm(cents, axis=3)
    if np.any(c_norms < 1e-300):
        raise NumericError("zero-norm centroid in GE2E batch")
    cos = np.vecdot(cents, emb[:, :, None]) / (c_norms * e_norms)
    sim = scale.w * cos + scale.b
    top = sim.max(axis=2, keepdims=True)
    lse = top + np.log(np.exp(sim - top).sum(axis=2, keepdims=True))
    loss = float(np.sum(lse[:, :, 0] - sim[own, :, own]))
    dsim = np.exp(sim - lse)
    dsim[own, :, own] -= 1.0
    coef = scale.w * dsim
    inv = coef / (c_norms * e_norms)
    demb = (np.einsum("jik,jikd->jid", inv, cents)
            - np.sum(coef * cos, axis=2, keepdims=True) / e_norms**2 * emb)
    # Gradient through c[j, i, k]: a full centroid spreads it over all M of
    # speaker k's utterances, a leave-one-out one over the M - 1 other than i.
    dcent = inv[..., None] * emb[:, :, None] - (coef * cos / c_norms**2)[..., None] * cents
    loo = dcent[own, :, own]
    dcent[own, :, own] = 0.0
    demb += dcent.sum(axis=(0, 1))[:, None] / n_utt
    demb += (loo.sum(axis=1, keepdims=True) - loo) / (n_utt - 1)
    return loss, demb, float(np.sum(dsim * cos)), float(np.sum(dsim))


def validate_logprobs(logprobs) -> None:
    """Each row must log-normalize: logsumexp(row) = 0 within 1e-9."""
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.ndim != 2:
        raise ShapeError("log-probability sequence must be a (T, K) matrix")
    top = np.max(lp, axis=1)
    lse = top + np.log(np.sum(np.exp(lp - top[:, None]), axis=1))
    if np.any(np.abs(lse) > 1e-9):
        raise ValidationError("log-probability rows do not normalize to 1")


def ctc_loss(logprobs, target, validate: bool = True):
    """Negative log total probability of all alignments collapsing to target.

    Symbol 0 is the blank. Forward algorithm in log space over the
    blank-extended label sequence; the gradient w.r.t. the log-probabilities
    comes from forward-backward state occupancies. Set validate=False to
    treat the inputs as free variables (finite-difference probes break row
    normalization).
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.ndim != 2:
        raise ShapeError("log-probability sequence must be a (T, K) matrix")
    n_steps, n_symbols = lp.shape
    if n_steps < 1:
        raise EmptyInputError("need at least one time step")
    blank = 0
    if n_symbols < 1:
        raise ParameterError(f"alphabet of {n_symbols} symbols cannot hold the blank")
    labels = [int(s) for s in target]
    for s in labels:
        if not 0 <= s < n_symbols:
            raise ParameterError(f"target symbol {s} outside alphabet of {n_symbols}")
        if s == blank:
            raise ParameterError("target may not contain the blank symbol")
    if validate:
        validate_logprobs(lp)
    repeats = sum(1 for u in range(1, len(labels)) if labels[u] == labels[u - 1])
    if n_steps < len(labels) + repeats:
        raise InfeasibleAlignmentError(
            f"{n_steps} steps cannot align to {len(labels)} labels "
            f"with {repeats} repeat separators"
        )
    n_states = 2 * len(labels) + 1
    ext = np.full(n_states, blank)
    ext[1::2] = labels
    # skip[s]: state s may be entered from s - 2, jumping the blank between
    # two different labels.
    skip = np.zeros(n_states, dtype=bool)
    skip[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    alpha = np.full((n_steps, n_states), -np.inf)
    alpha[0, :2] = lp[0, ext[:2]]
    for t in range(1, n_steps):
        acc = alpha[t - 1].copy()
        acc[1:] = np.logaddexp(acc[1:], alpha[t - 1, :-1])
        np.logaddexp(acc[2:], alpha[t - 1, :-2], out=acc[2:], where=skip[2:])
        alpha[t] = acc + lp[t, ext]
    log_z = np.logaddexp.reduce(alpha[-1, -2:])
    if not np.isfinite(log_z):
        raise NumericError("every alignment has zero probability")
    # beta excludes the emission at t, so alpha + beta is the log mass of
    # complete paths occupying state s at time t.
    beta = np.full((n_steps, n_states), -np.inf)
    beta[-1, -2:] = 0.0
    for t in range(n_steps - 2, -1, -1):
        emitted = beta[t + 1] + lp[t + 1, ext]
        acc = emitted.copy()
        acc[:-1] = np.logaddexp(acc[:-1], emitted[1:])
        np.logaddexp(acc[:-2], emitted[2:], out=acc[:-2], where=skip[2:])
        beta[t] = acc
    occupancy = np.exp(alpha + beta - log_z)
    grad = np.zeros_like(lp)
    np.subtract.at(grad.T, ext, occupancy.T)
    return float(-log_z), grad


def s2s_ce_loss(logprobs, target, validate: bool = True):
    """Mean per-step negative log-probability of the target symbols.

    Returns (loss, grad w.r.t. logprobs).
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.ndim != 2:
        raise ShapeError("log-probability sequence must be a (T, K) matrix")
    labels = [int(s) for s in target]
    if not labels:
        raise EmptyInputError("target must contain at least one symbol")
    if lp.shape[0] != len(labels):
        raise ShapeError(f"{lp.shape[0]} steps for {len(labels)} target symbols")
    for s in labels:
        if not 0 <= s < lp.shape[1]:
            raise ParameterError(f"target symbol {s} outside alphabet of {lp.shape[1]}")
    if validate:
        validate_logprobs(lp)
    rows = np.arange(len(labels))
    loss = float(-np.mean(lp[rows, labels]))
    grad = np.zeros_like(lp)
    grad[rows, labels] = -1.0 / len(labels)
    return loss, grad

