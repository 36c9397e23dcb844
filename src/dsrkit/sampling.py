"""Triplet construction under the gender- and severity-dependent policy.

Positives are always tempo-stretched copies of the anchor. Negatives are
pitch-shifted copies of the anchor for female speakers (a deeper version
of the same voice) and seeded cross-speaker picks for male speakers,
where a self-negative from pitch alone would be too easy.

An utterance holds no audio. A corpus clip's utterance_id is its WAV
path; an augment's is derived from it (``f01-00.wav#tempo0.5``). A pulled
anchor is decoded once, in one call on the worker pool that makes its own
features and those of its augments, and only the features are kept, in the
caller's cache under their utterance_ids.
"""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugmentCoeffs, pitch_shift, tempo_change
from .errors import ParameterError, SamplingError
from .parallel import pmap

log = logging.getLogger(__name__)

GENDERS = ("female", "male")
SEVERITIES = ("moderate", "moderate_severe")


@dataclass
class Utterance:
    """One clip's speaker, gender and severity (None for speakers with no
    dysarthria setting), and the utterance_id that keys caches: a corpus
    clip's WAV path, or a derived clip's id (an augment), whose features
    are cached where it is rendered."""

    speaker_id: str
    gender: str
    severity: str
    utterance_id: str

    def __post_init__(self):
        if not self.speaker_id:
            raise ParameterError("speaker_id must be non-empty")
        if self.gender not in GENDERS:
            raise ParameterError(f"unknown gender {self.gender!r}")
        if self.severity is not None and self.severity not in SEVERITIES:
            raise ParameterError(f"unknown severity {self.severity!r}")


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


def _augment_requests(anchor: Utterance):
    """(coeffs, {kind: (coeff, derived utterance_id)}): the augments the
    policy asks of anchor, a tempo-stretched positive and, for a female, a
    pitch-shifted self-negative."""
    if anchor.severity is None:
        raise ParameterError(
            f"speaker {anchor.speaker_id} has no severity; cannot pick coefficients"
        )
    coeffs = coeffs_for(anchor.severity)
    kinds = [("tempo", coeffs.tempo_coeff)]
    if anchor.gender == "female":
        kinds.append(("pitch", coeffs.pitch_coeff))
    return coeffs, {kind: (coeff, f"{anchor.utterance_id}#{kind}{coeff}")
                    for kind, coeff in kinds}


def _augment(kind: str, coeff: float):
    """The transform that renders augment kind at coeff; tempo_change and
    pitch_shift are looked up when it runs."""
    return lambda clip: (tempo_change if kind == "tempo" else pitch_shift)(clip, coeff)


def cache_features(wanted: dict, cache: dict, featurize) -> None:
    """Fill cache from wanted, {corpus utterance_id: {feature id: transform}}.
    Each clip with a feature id that cache lacks costs one call on the worker
    pool, featurize(utterance_id, transforms), which decodes the clip once
    and returns the features of transform(clip) for each missing id (of the
    clip itself for transform None); so no audio outlives that call."""
    jobs = []  # (utterance_id, {missing feature id: transform}), in wanted's order
    for utt_id, features in wanted.items():
        missing = {f: t for f, t in features.items() if f not in cache}
        if missing:
            jobs.append((utt_id, missing))
    done = pmap(lambda job: featurize(job[0], list(job[1].values())), jobs)
    for (_, missing), features in zip(jobs, done):
        cache.update(zip(missing, features))


def _prefetch(anchors, cache: dict, featurize) -> None:
    """Cache the features of each anchor and of every augment it needs, each
    anchor decoded once on the worker pool (`cache_features`)."""
    wanted = {}
    for anchor in anchors:
        wanted.setdefault(anchor.utterance_id, {anchor.utterance_id: None}).update(
            (utt_id, _augment(kind, coeff))
            for kind, (coeff, utt_id) in _augment_requests(anchor)[1].items())
    cache_features(wanted, cache, featurize)


def build_triplet(anchor: Utterance, pool, seed: int, cache: dict, featurize) -> Triplet:
    """Assemble one (anchor, positive, negative) per the gender policy.

    pool supplies cross-speaker negative candidates for male anchors; it
    may contain same-speaker utterances, which are filtered out here.
    cache holds the features of the anchor and of its augmented members
    under their utterance_ids (`_prefetch`); a cross-speaker negative's are
    left to the caller.
    """
    coeffs, requests = _augment_requests(anchor)
    _prefetch([anchor], cache, featurize)  # nothing left to do when iter_batches prefetched
    augmented = {kind: replace(anchor, utterance_id=utt_id)
                 for kind, (_, utt_id) in requests.items()}
    positive = augmented["tempo"]
    tag = {"pitch_coeff": coeffs.pitch_coeff, "tempo_coeff": coeffs.tempo_coeff}
    if "pitch" in augmented:
        negative = augmented["pitch"]
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


def iter_batches(utterances, batch_size: int, seed: int, cache: dict, featurize):
    """Endless stream of training batches: a fresh seeded permutation per
    epoch, consumed in full batches (one short batch per epoch if the pool
    is smaller than batch_size). Pulling a batch first makes the features
    its anchors and their augments lack in cache on the worker pool of
    `pmap`, each anchor decoded once by featurize(utterance_id, transforms)
    (`cache_features`)."""
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
            # Only a pulled batch runs the vocoder; build_triplet then hits cache.
            _prefetch(anchors, cache, featurize)
            yield [build_triplet(anchor, utterances, int(child), cache, featurize)
                   for anchor, child in zip(anchors, child_seeds)]
        epoch += 1
