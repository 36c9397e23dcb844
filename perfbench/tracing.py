"""In-memory span tracer that times dsrkit's public functions from outside.

``from .audio import read_wav`` copies the binding into the importing
module, so a wrapper only sees the calls made through the attribute it
replaces. The target tables below therefore patch each name in the module
that looks it up at call time (``dsrkit.pipeline.forward_batch``,
``dsrkit.sampling.pitch_shift``, ``dsrkit.cli.evaluate``, ...), not only in
the module that defines it. Nothing under ``src/`` is modified: wrappers are
installed for one run and the original attributes are restored afterwards.

A span is ``[name, start, end, parent, run, bucket, items]``. Spans nest
strictly (one thread), so a span's self time is its duration minus the
durations of its direct children.
"""

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, BUCKET, ITEMS = range(7)


class Tracer:
    """Records spans for the targets it installs; ``run`` tags new spans and
    ``full`` says whether the targets are the layer set or only the stages."""

    def __init__(self, targets, full):
        self.targets = targets
        self.full = full
        self.spans = []
        self.run = None
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None, None])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[END] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if describe is not None:
                span[BUCKET], span[ITEMS] = describe(args, result)
            return result
        return traced

    def wrap_generator(self, fn, name):
        """Time each ``next()`` on the returned generator; creating a
        generator runs none of its body, so timing the call would show ~0."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TimedIterator(self, fn(*args, **kwargs), name)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, describe in self.targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if describe is GENERATOR:
                    replacement = self.wrap_generator(original, name)
                else:
                    replacement = self.wrap(original, name, describe)
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class _TimedIterator:
    def __init__(self, tracer, iterator, name):
        self._tracer, self._iterator, self._name = tracer, iterator, name

    def __iter__(self):
        return self

    def __next__(self):
        with self._tracer.span(self._name):
            return next(self._iterator)


GENERATOR = object()  # marks a target whose result is a generator


def _shape(stack):
    batch, frames = stack.shape[:2]
    return f"B{batch}xT{frames}", {"seqs": batch, "frames": batch * frames}


def _file_bytes(arg_index):
    def describe(args, result):
        return None, {"bytes": os.path.getsize(args[arg_index])}
    return describe


def _read_wav(args, result):
    return None, {"bytes": os.path.getsize(args[0]), "path": str(args[0])}


def _samples_out(args, result):
    return None, {"samples_out": len(result.samples)}


def _vocoder_from_sampling(args, result):
    return "via_sampling", {"samples_out": len(result.samples)}


def _triplet_requests(args, result):
    # One tempo-stretched positive per triplet, plus the pitch-shifted
    # self-negative on the female branch.
    self_negative = result.policy_tag.get("negative_source") == "self_pitch_shift"
    return None, {"augment_requests": 2 if self_negative else 1}


# Functions whose wall time gives the end-to-end stage metrics; installed
# on every run, traced or not.
STAGES = ("pretrain_ge2e", "finetune_triplet")

PIPELINE_FUNCTIONS = STAGES + (
    "run_gender_experiment", "synth_corpus", "load_manifest", "load_utterances",
    "augment_file", "mel_for", "embed_utterances", "evaluate", "gender_centroids",
    "probe_shifted_females", "verification_trials",
)
CLI_BINDINGS = ("synth_corpus", "augment_file", "pretrain_ge2e", "finetune_triplet",
                "evaluate")


def stage_targets(dsrkit):
    return [(module, fn, f"pipeline.{fn}", None)
            for module in (dsrkit.pipeline, dsrkit.cli) for fn in STAGES]


def layer_targets(dsrkit):
    """Every layer boundary the traced run records, keyed where it is looked up."""
    pipeline, sampling, metrics = dsrkit.pipeline, dsrkit.sampling, dsrkit.metrics
    targets = [
        (pipeline, "forward_batch", "encoder.forward_batch",
         lambda args, result: _shape(args[1])),
        (pipeline, "backward_batch", "encoder.backward_batch",
         lambda args, result: _shape(args[1].stack)),
        (pipeline, "sgd_step", "encoder.sgd_step", None),
        (pipeline, "save_checkpoint", "encoder.save_checkpoint", _file_bytes(1)),
        (pipeline, "load_checkpoint", "encoder.load_checkpoint", _file_bytes(0)),
        (pipeline, "tempo_change", "augment.tempo_change", _samples_out),
        (pipeline, "pitch_shift", "augment.pitch_shift", _samples_out),
        (sampling, "tempo_change", "augment.tempo_change", _vocoder_from_sampling),
        (sampling, "pitch_shift", "augment.pitch_shift", _vocoder_from_sampling),
        (pipeline, "synth_voice", "audio.synth_voice", None),
        (pipeline, "write_wav", "audio.write_wav", _file_bytes(1)),
        (pipeline, "read_wav", "audio.read_wav", _read_wav),
        (pipeline, "log_mel", "audio.log_mel",
         lambda args, result: (None, {"frames": result.frames.shape[0]})),
        (pipeline, "ge2e_loss", "losses.ge2e_loss", None),
        (pipeline, "triplet_loss", "losses.triplet_loss",
         lambda args, result: (None, {"active": int(result[0] > 0)})),
        (pipeline, "iter_batches", "sampling.batch", GENERATOR),
        (sampling, "build_triplet", "sampling.build_triplet", _triplet_requests),
        (pipeline, "eer", "metrics.eer",
         lambda args, result: (None, {"trials": len(args[0])})),
        (pipeline, "cosine", "metrics.cosine", None),
        (metrics, "cosine", "metrics.cosine", None),
        (pipeline, "gender_probe", "metrics.gender_probe", None),
    ]
    targets += [(pipeline, fn, f"pipeline.{fn}", None) for fn in PIPELINE_FUNCTIONS]
    targets += [(dsrkit.cli, fn, f"pipeline.{fn}", None) for fn in CLI_BINDINGS]
    return targets


def self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


# ratio -> (numerator, denominator, reported as 1 - numerator / denominator)
RATIOS = {
    "pipeline.mel_cache_hit_ratio": ("audio.log_mel.calls", "pipeline.mel_for.calls", True),
    "pipeline.wav_decodes_per_file": ("audio.read_wav.calls", "audio.read_wav.files", False),
    "sampling.augment_cache_hit_ratio": ("sampling.vocoder_calls",
                                         "sampling.build_triplet.augment_requests", True),
    "losses.triplet_loss.active_ratio": ("losses.triplet_loss.active",
                                         "losses.triplet_loss.calls", False),
}


def layer_stats(spans, run):
    """Flat ``<module>.<function>[.<bucket>].<stat>`` figures for one run,
    with the ratios in ``RATIOS`` (0 where their base is 0)."""
    stats = defaultdict(float)
    paths = defaultdict(set)
    for span, self_s in zip(spans, self_times(spans)):
        if span[RUN] != run:
            continue
        keys = [span[NAME]]
        if span[BUCKET] is not None:
            keys.append(f"{span[NAME]}.{span[BUCKET]}")
        for key in keys:
            stats[f"{key}.calls"] += 1
            stats[f"{key}.self_s"] += self_s
        for item, value in (span[ITEMS] or {}).items():
            if item == "path":
                paths[span[NAME]].add(value)
            else:
                stats[f"{span[NAME]}.{item}"] += value
    for name, seen in paths.items():
        stats[f"{name}.files"] = len(seen)
    stats["sampling.vocoder_calls"] = (stats["augment.tempo_change.via_sampling.calls"]
                                       + stats["augment.pitch_shift.via_sampling.calls"])
    for name, (num, den, complement) in RATIOS.items():
        part, base = stats[num], stats[den]
        value = part / base if base else 0.0
        stats[name] = 1.0 - value if complement and base else value
    return dict(stats)
