"""Triplet construction under the gender- and severity-dependent policy.

Positives are always tempo-stretched copies of the anchor. Negatives are
pitch-shifted copies of the anchor for female speakers (a deeper version
of the same voice) and seeded cross-speaker picks for male speakers,
where a self-negative from pitch alone would be too easy.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .audio import AudioBuffer
from .augment import AugmentCoeffs, pitch_shift, tempo_change
from .errors import ParameterError, SamplingError

log = logging.getLogger(__name__)

GENDERS = ("female", "male")
SEVERITIES = ("moderate", "moderate_severe")


@dataclass(frozen=True)
class SpeakerProfile:
    speaker_id: str
    gender: str
    severity: str = None  # None for speakers with no dysarthria setting

    def __post_init__(self):
        if not self.speaker_id:
            raise ParameterError("speaker_id must be non-empty")
        if self.gender not in GENDERS:
            raise ParameterError(f"unknown gender {self.gender!r}")
        if self.severity is not None and self.severity not in SEVERITIES:
            raise ParameterError(f"unknown severity {self.severity!r}")


@dataclass
class Utterance:
    """One audio clip tied to a speaker; utterance_id keys caches."""

    speaker_id: str
    buffer: AudioBuffer
    utterance_id: str = ""
    transcript: str = ""


@dataclass
class Triplet:
    anchor: Utterance
    positive: Utterance
    negative: Utterance
    policy_tag: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.anchor.speaker_id != self.positive.speaker_id:
            raise ParameterError("positive must derive from the anchor's speaker")
        if self.negative is self.anchor:
            raise ParameterError("negative may not be the unmodified anchor")


def coeffs_for(severity: str) -> AugmentCoeffs:
    """Severity-dependent augmentation strengths."""
    if severity == "moderate_severe":
        return AugmentCoeffs(pitch_coeff=0.5, tempo_coeff=0.5)
    if severity == "moderate":
        return AugmentCoeffs(pitch_coeff=0.25, tempo_coeff=0.7)
    raise ParameterError(f"no coefficients defined for severity {severity!r}")


def _cached_augment(cache, utt: Utterance, kind: str, coeff: float) -> AudioBuffer:
    if cache is None or not utt.utterance_id:
        return _apply(utt.buffer, kind, coeff)
    key = (utt.utterance_id, kind, coeff)
    if key not in cache:
        cache[key] = _apply(utt.buffer, kind, coeff)
    return cache[key]


def _apply(buffer: AudioBuffer, kind: str, coeff: float) -> AudioBuffer:
    return tempo_change(buffer, coeff) if kind == "tempo" else pitch_shift(buffer, coeff)


def build_triplet(anchor: Utterance, profile: SpeakerProfile, pool,
                  seed: int, cache: dict = None) -> Triplet:
    """Assemble one (anchor, positive, negative) per the gender policy.

    pool supplies cross-speaker negative candidates for male anchors; it
    may contain same-speaker utterances, which are filtered out here.
    """
    if profile.severity is None:
        raise ParameterError(
            f"speaker {profile.speaker_id} has no severity; cannot pick coefficients"
        )
    coeffs = coeffs_for(profile.severity)
    pos_buf = _cached_augment(cache, anchor, "tempo", coeffs.tempo_coeff)
    positive = Utterance(anchor.speaker_id, pos_buf,
                         f"{anchor.utterance_id}#tempo{coeffs.tempo_coeff}",
                         anchor.transcript)
    tag = {"pitch_coeff": coeffs.pitch_coeff, "tempo_coeff": coeffs.tempo_coeff}
    if profile.gender == "female":
        neg_buf = _cached_augment(cache, anchor, "pitch", coeffs.pitch_coeff)
        negative = Utterance(anchor.speaker_id, neg_buf,
                             f"{anchor.utterance_id}#pitch{coeffs.pitch_coeff}",
                             anchor.transcript)
        tag["negative_source"] = "self_pitch_shift"
    else:
        others = [u for u in pool if u.speaker_id != anchor.speaker_id]
        if not others:
            raise SamplingError(
                f"no cross-speaker negatives available for male anchor "
                f"{anchor.utterance_id or anchor.speaker_id}"
            )
        rng = np.random.default_rng(seed)
        negative = others[int(rng.integers(len(others)))]
        tag["negative_source"] = f"cross_speaker:{negative.speaker_id}"
    return Triplet(anchor, positive, negative, tag)


def iter_batches(utterances, profiles: dict, batch_size: int, seed: int,
                 cache: dict = None):
    """Endless stream of training batches: a fresh seeded permutation per
    epoch, consumed in full batches (one short batch per epoch if the pool
    is smaller than batch_size)."""
    if batch_size < 1:
        raise ParameterError("batch_size must be at least 1")
    if not utterances:
        raise SamplingError("no utterances to sample from")
    n = len(utterances)
    epoch = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence([seed, epoch]))
        order = rng.permutation(n)
        starts = range(0, n - batch_size + 1, batch_size) if n >= batch_size else [0]
        if n < batch_size and epoch == 0:
            log.warning("short batches: %d utterances for batch size %d", n, batch_size)
        for start in starts:
            chosen = order[start:start + batch_size]
            child_seeds = rng.integers(0, 2**31, size=len(chosen))
            batch = []
            for idx, child in zip(chosen, child_seeds):
                anchor = utterances[int(idx)]
                batch.append(build_triplet(anchor, profiles[anchor.speaker_id],
                                           utterances, int(child), cache))
            yield batch
        epoch += 1
