"""Evaluation metrics: cosine, EER, WER, MOS aggregation, gender probe.

Scores and reports are deterministic: EER uses a discrete threshold sweep
over observed scores (no ROC interpolation), WER uses unit-cost word edit
distance, and MOS confidence intervals use the two-sided 95% Student-t
quantile, solved from the t distribution's closed-form CDF for integer
degrees of freedom.
"""

import csv
import string
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientTrialsError,
    NumericError,
    ShapeError,
    UndefinedMetricError,
    ValidationError,
)


def _t_coverage(theta: float, df: int) -> float:
    """P(|T| <= sqrt(df) tan(theta)) for Student's t with integer df, in
    closed form (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even)."""
    sin, cos = np.sin(theta), np.cos(theta)
    # 1 + k1/(k1+1) cos^2 + k1 k2/((k1+1)(k2+1)) cos^4 + ..., k = 1, 3, ... or 2, 4, ...
    k = np.arange(1 + df % 2, df - 1, 2)
    series = 1.0 + np.sum(np.cumprod(k / (k + 1) * cos**2))
    if df % 2 == 0:
        return sin * series
    if df == 1:
        return 2.0 / np.pi * theta
    return 2.0 / np.pi * (theta + sin * cos * series)


def t_quantile_95(df: int) -> float:
    """Two-sided 95% t critical value t(0.975, df): the coverage is solved
    for theta = atan(t / sqrt(df)) by bisection on (0, pi/2) down to
    adjacent floats."""
    if df < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    lo, hi = 0.0, np.pi / 2
    while lo < (mid := (lo + hi) / 2) < hi:
        if _t_coverage(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(df) * np.tan(hi))


def cosine(a, b):
    """Cosine similarity along the last axis; the leading axes broadcast.

    Each row's dot product and norms use the same BLAS dot as a 1-D
    ``a @ b``, so a stack scores bit for bit like its rows one at a time.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ShapeError("cosine requires vectors of one length on the last axis")
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    if np.any(na < 1e-300) or np.any(nb < 1e-300):
        raise NumericError("cosine of a zero vector is undefined")
    return np.vecdot(a, b) / (na * nb)


def eer(scores, genuine) -> float:
    """Equal error rate by exhaustive sweep over the observed scores.

    scores are trial similarities in [-1, 1]; genuine is the matching mask
    (True for same-speaker trials, False for impostors). Accept rule is
    score >= threshold. At the threshold minimizing |FAR - FRR| (ties
    resolved toward the lower threshold) the EER is (FAR + FRR) / 2.
    """
    scores = np.asarray(scores, dtype=np.float64)
    genuine = np.asarray(genuine, dtype=bool)
    if scores.ndim != 1 or scores.shape != genuine.shape:
        raise ShapeError("eer needs one genuine flag per score")
    if not np.all(np.abs(scores) <= 1.0):
        raise ValidationError("trial scores must lie in [-1, 1] (no NaN)")
    target = np.sort(scores[genuine])
    impostor = np.sort(scores[~genuine])
    if len(target) == 0 or len(impostor) == 0:
        raise InsufficientTrialsError("need at least one genuine and one impostor trial")
    thresholds = np.unique(scores)
    far = (len(impostor) - np.searchsorted(impostor, thresholds)) / len(impostor)
    frr = np.searchsorted(target, thresholds) / len(target)
    best = np.argmin(np.abs(far - frr))
    return float((far[best] + frr[best]) / 2.0)


def tokenize(text) -> list:
    """Lowercase, split on whitespace, strip flanking punctuation."""
    words = text.split() if isinstance(text, str) else [str(w) for w in text]
    out = []
    for w in words:
        w = w.lower().strip(string.punctuation)
        if w:
            out.append(w)
    return out


def word_edits(reference, hypothesis) -> tuple:
    """(substitutions + deletions + insertions, |reference|) at word level.
    An empty reference makes every hypothesis word an insertion."""
    ref = tokenize(reference)
    hyp = tokenize(hypothesis)
    prev = list(range(len(hyp) + 1))  # edits of ref[:i] into each hyp[:j]
    for i, rw in enumerate(ref, start=1):
        cur = [i]
        for j, hw in enumerate(hyp, start=1):
            # deletion, insertion, substitution or match
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (rw != hw)))
        prev = cur
    return prev[-1], len(ref)


def wer(reference, hypothesis) -> float:
    """(substitutions + deletions + insertions) / |reference| at word level."""
    edits, ref_words = word_edits(reference, hypothesis)
    if not ref_words:
        raise UndefinedMetricError("WER is undefined for an empty reference")
    return edits / ref_words


def corpus_wer(references, hypotheses) -> float:
    """Total edits over total reference words across the corpus."""
    if len(references) != len(hypotheses):
        raise ShapeError(f"{len(hypotheses)} hypothesis lines for {len(references)} references")
    edits = ref_words = 0
    for ref, hyp in zip(references, hypotheses):
        line_edits, line_words = word_edits(ref, hyp)
        edits += line_edits
        ref_words += line_words
    if ref_words == 0:
        raise UndefinedMetricError("no reference words in corpus")
    return edits / ref_words


@dataclass(frozen=True)
class MosSummary:
    mean: float
    half_width_95: float
    n: int

    def formatted(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width_95:.2f}"


def mos_summary(scores) -> MosSummary:
    """Mean opinion score with a 95% t confidence half-width."""
    vals = np.asarray(list(scores), dtype=np.float64)
    if vals.size == 0:
        raise EmptyInputError("no opinion scores to summarize")
    if np.any(vals < 1.0) or np.any(vals > 5.0):
        raise ValidationError("opinion scores must lie in [1, 5]")
    mean = float(np.mean(vals))
    if vals.size == 1:
        return MosSummary(mean, 0.0, 1)
    half = t_quantile_95(vals.size - 1) * float(np.std(vals, ddof=1)) / np.sqrt(vals.size)
    return MosSummary(mean, half, int(vals.size))


def gender_probe(embeddings, female_centroid, male_centroid):
    """Nearest-centroid gender decision by cosine for each row of an (N, D)
    stack; ties classify female.

    Returns (labels, margins): "female"/"male" per row, and the winning
    cosine minus the losing one.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2:
        raise ShapeError("gender_probe takes an (N, D) stack of embeddings")
    for c in (female_centroid, male_centroid):
        norm = np.linalg.norm(np.asarray(c, dtype=np.float64))
        if not abs(norm - 1.0) <= 1e-6:  # also rejects a NaN norm
            raise ValidationError("gender-probe centroids must be finite and unit-norm")
    cos_f = cosine(embeddings, female_centroid)
    cos_m = cosine(embeddings, male_centroid)
    return np.where(cos_f >= cos_m, "female", "male"), np.abs(cos_f - cos_m)


@dataclass(frozen=True)
class ReportRow:
    metric: str
    cohort: str
    value: float
    ci_low: float = None
    ci_high: float = None


def write_csv_report(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "cohort", "value", "ci_low", "ci_high"])
        for r in rows:
            writer.writerow([
                r.metric, r.cohort, repr(float(r.value)),
                "" if r.ci_low is None else repr(float(r.ci_low)),
                "" if r.ci_high is None else repr(float(r.ci_high)),
            ])


def write_text_report(rows, path) -> None:
    lines = []
    for r in rows:
        line = f"{r.metric} [{r.cohort}]: {r.value:.6f}"
        if r.ci_low is not None and r.ci_high is not None:
            line += f" (95% CI {r.ci_low:.6f} .. {r.ci_high:.6f})"
        lines.append(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
