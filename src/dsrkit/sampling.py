"""Triplet construction under the gender- and severity-dependent policy.

Positives are always tempo-stretched copies of the anchor. Negatives are
pitch-shifted copies of the anchor for female speakers (a deeper version
of the same voice) and seeded cross-speaker picks for male speakers,
where a self-negative from pitch alone would be too easy.

An utterance holds no audio. A corpus clip's utterance_id is its WAV
path; a derived clip (`derive`) names the corpus clip it is rendered from
and the transform that renders it, under an id made from its source's
(``f01-00.wav#tempo0.5``). Building a triplet renders nothing:
`cache_features` makes the features of a set of utterances, each source
clip decoded once in one call on the worker pool, and keeps only the
features, in the caller's cache under their utterance_ids.
"""

import logging
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .augment import pitch_shift, tempo_change
from .errors import ParameterError, SamplingError
from .parallel import pmap

log = logging.getLogger(__name__)

GENDERS = ("female", "male")


class Coeffs(NamedTuple):
    """Augmentation strengths: pitch_coeff c gives frequency ratio 1 - c/2
    (`pitch_shift`); tempo_coeff t is a speed factor, so duration scales by
    1/t (`tempo_change`)."""

    pitch_coeff: float
    tempo_coeff: float


SEVERITY_COEFFS = {"moderate": Coeffs(0.25, 0.7), "moderate_severe": Coeffs(0.5, 0.5)}
SEVERITIES = tuple(SEVERITY_COEFFS)


@dataclass
class Utterance:
    """One clip's speaker, gender and severity (None for speakers with no
    dysarthria setting), and the utterance_id that keys caches. A corpus
    clip's id is its WAV path and it is its own source; a derived clip's
    source is the corpus clip that transform renders it from."""

    speaker_id: str
    gender: str
    severity: str
    utterance_id: str
    source: str = None
    transform: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.speaker_id:
            raise ParameterError("speaker_id must be non-empty")
        if self.gender not in GENDERS:
            raise ParameterError(f"unknown gender {self.gender!r}")
        if self.severity is not None and self.severity not in SEVERITIES:
            raise ParameterError(f"unknown severity {self.severity!r}")
        if self.source is None:
            self.source = self.utterance_id


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


def coeffs_for(severity: str) -> Coeffs:
    """The augmentation strengths of severity (`SEVERITY_COEFFS`)."""
    try:
        return SEVERITY_COEFFS[severity]
    except KeyError:
        raise ParameterError(f"no coefficients defined for severity {severity!r}") from None


def derive(utt: Utterance, tag: str, transform) -> Utterance:
    """The corpus clip utt as rendered by transform(clip): utt's metadata
    and source under the id ``utt.utterance_id + "#" + tag``."""
    return replace(utt, utterance_id=f"{utt.utterance_id}#{tag}", transform=transform)


def cache_features(utterances, cache: dict, featurize) -> None:
    """Put the features of each utterance that cache lacks into cache under
    its utterance_id. The missing ones are grouped by source clip, in
    first-seen order, and each group costs one call on the worker pool,
    featurize(source, transforms), which decodes the clip once and returns
    the features of transform(clip) for each (of the clip itself for None);
    so no audio outlives that call."""
    jobs = {}  # source -> {missing utterance_id: transform}
    for u in utterances:
        if u.utterance_id not in cache:
            jobs.setdefault(u.source, {})[u.utterance_id] = u.transform
    done = pmap(lambda job: featurize(job[0], list(job[1].values())), jobs.items())
    for missing, features in zip(jobs.values(), done):
        cache.update(zip(missing, features))


def build_triplet(anchor: Utterance, pool, seed: int) -> Triplet:
    """Assemble one (anchor, positive, negative) per the gender policy.

    pool supplies cross-speaker negative candidates for male anchors; it
    may contain same-speaker utterances, which are filtered out here. The
    augmented members are derived utterances (`derive`) whose transforms
    look tempo_change and pitch_shift up when they run; nothing is rendered
    here.
    """
    if anchor.severity is None:
        raise ParameterError(
            f"speaker {anchor.speaker_id} has no severity; cannot pick coefficients"
        )
    coeffs = coeffs_for(anchor.severity)
    positive = derive(anchor, f"tempo{coeffs.tempo_coeff}",
                      lambda clip: tempo_change(clip, coeffs.tempo_coeff))
    tag = coeffs._asdict()
    if anchor.gender == "female":
        negative = derive(anchor, f"pitch{coeffs.pitch_coeff}",
                          lambda clip: pitch_shift(clip, coeffs.pitch_coeff))
        tag["negative_source"] = "self_pitch_shift"
    else:
        others = [u for u in pool if u.speaker_id != anchor.speaker_id]
        if not others:
            raise SamplingError(
                f"no cross-speaker negatives available for male anchor "
                f"{anchor.utterance_id}"
            )
        rng = np.random.default_rng(seed)
        negative = others[int(rng.integers(len(others)))]
        tag["negative_source"] = f"cross_speaker:{negative.speaker_id}"
    return Triplet(anchor, positive, negative, tag)


def iter_batches(utterances, batch_size: int, seed: int):
    """Endless stream of training batches: a fresh seeded permutation per
    epoch, consumed in full batches (one short batch per epoch if the pool
    is smaller than batch_size). Pulling a batch builds its triplets and
    runs no vocoder: the caller makes their features (`cache_features`)."""
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
            anchors = [utterances[int(idx)] for idx in order[start:start + batch_size]]
            child_seeds = rng.integers(0, 2**31, size=len(anchors))
            yield [build_triplet(anchor, utterances, int(child))
                   for anchor, child in zip(anchors, child_seeds)]
        epoch += 1
