"""Evaluation metrics: cosine, EER, WER, MOS aggregation, gender probe.

Scores and reports are deterministic: EER uses a discrete threshold sweep
over observed scores (no ROC interpolation), WER uses unit-cost word edit
distance, and MOS confidence intervals come from an embedded two-sided
95% t-quantile table (df 1..200, normal tail value beyond that).
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

# Two-sided 95% Student-t quantiles, t(0.975, df) for df = 1..200.
T_TABLE_95 = (
    12.706205, 4.302653, 3.182446, 2.776445, 2.570582,
    2.446912, 2.364624, 2.306004, 2.262157, 2.228139,
    2.200985, 2.178813, 2.160369, 2.144787, 2.131450,
    2.119905, 2.109816, 2.100922, 2.093024, 2.085963,
    2.079614, 2.073873, 2.068658, 2.063899, 2.059539,
    2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
    2.039513, 2.036933, 2.034515, 2.032245, 2.030108,
    2.028094, 2.026192, 2.024394, 2.022691, 2.021075,
    2.019541, 2.018082, 2.016692, 2.015368, 2.014103,
    2.012896, 2.011741, 2.010635, 2.009575, 2.008559,
    2.007584, 2.006647, 2.005746, 2.004879, 2.004045,
    2.003241, 2.002465, 2.001717, 2.000995, 2.000298,
    1.999624, 1.998972, 1.998341, 1.997730, 1.997138,
    1.996564, 1.996008, 1.995469, 1.994945, 1.994437,
    1.993943, 1.993464, 1.992997, 1.992543, 1.992102,
    1.991673, 1.991254, 1.990847, 1.990450, 1.990063,
    1.989686, 1.989319, 1.988960, 1.988610, 1.988268,
    1.987934, 1.987608, 1.987290, 1.986979, 1.986675,
    1.986377, 1.986086, 1.985802, 1.985523, 1.985251,
    1.984984, 1.984723, 1.984467, 1.984217, 1.983972,
    1.983731, 1.983495, 1.983264, 1.983038, 1.982815,
    1.982597, 1.982383, 1.982173, 1.981967, 1.981765,
    1.981567, 1.981372, 1.981180, 1.980992, 1.980808,
    1.980626, 1.980448, 1.980272, 1.980100, 1.979930,
    1.979764, 1.979600, 1.979439, 1.979280, 1.979124,
    1.978971, 1.978820, 1.978671, 1.978524, 1.978380,
    1.978239, 1.978099, 1.977961, 1.977826, 1.977692,
    1.977561, 1.977431, 1.977304, 1.977178, 1.977054,
    1.976931, 1.976811, 1.976692, 1.976575, 1.976460,
    1.976346, 1.976233, 1.976122, 1.976013, 1.975905,
    1.975799, 1.975694, 1.975590, 1.975488, 1.975387,
    1.975288, 1.975189, 1.975092, 1.974996, 1.974902,
    1.974808, 1.974716, 1.974625, 1.974535, 1.974446,
    1.974358, 1.974271, 1.974185, 1.974100, 1.974017,
    1.973934, 1.973852, 1.973771, 1.973691, 1.973612,
    1.973534, 1.973457, 1.973381, 1.973305, 1.973231,
    1.973157, 1.973084, 1.973012, 1.972941, 1.972870,
    1.972800, 1.972731, 1.972663, 1.972595, 1.972528,
    1.972462, 1.972396, 1.972332, 1.972268, 1.972204,
    1.972141, 1.972079, 1.972017, 1.971957, 1.971896,
)

NORMAL_QUANTILE_95 = 1.96


def t_quantile_95(df: int) -> float:
    """Two-sided 95% t critical value; normal approximation past df 200."""
    if df < 1:
        raise ValidationError("degrees of freedom must be at least 1")
    if df <= len(T_TABLE_95):
        return T_TABLE_95[df - 1]
    return NORMAL_QUANTILE_95


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


def wer(reference, hypothesis) -> float:
    """(substitutions + deletions + insertions) / |reference| at word level."""
    ref = tokenize(reference)
    hyp = tokenize(hypothesis)
    if not ref:
        raise UndefinedMetricError("WER is undefined for an empty reference")
    prev = np.arange(len(hyp) + 1)
    for i, rw in enumerate(ref, start=1):
        cur = np.empty_like(prev)
        cur[0] = i
        for j, hw in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1,          # deletion
                         cur[j - 1] + 1,       # insertion
                         prev[j - 1] + (rw != hw))
        prev = cur
    return float(prev[-1]) / len(ref)


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
