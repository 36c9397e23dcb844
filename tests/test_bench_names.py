"""The benchmark tracer patches dsrkit functions by name: every name it
targets must still exist, or a traced benchmark run fails."""

import collections
import runpy
import threading
from pathlib import Path

import dsrkit
import dsrkit.cli
import dsrkit.metrics
import dsrkit.pipeline
import dsrkit.sampling

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    # run_path compiles the file in memory: nothing is written beside it.
    tracing = runpy.run_path(str(TRACING))
    targets = tracing["stage_targets"](dsrkit) + tracing["layer_targets"](dsrkit)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not hasattr(owner, attr)]
    assert missing == []


def locked_tracer(tracing):
    class LockedTracer(tracing["Tracer"]):
        # Tracer.begin appends a span and then reads spans[-1] with no lock,
        # and pool threads call traced names; the lock keeps each thread's
        # span its own, so the counts below cannot vary from run to run.
        lock = threading.Lock()

        def begin(self, name):
            with self.lock:
                return super().begin(name)

        def end(self, span):
            with self.lock:
                super().end(span)

    return LockedTracer(
        tracing["stage_targets"](dsrkit) + tracing["layer_targets"](dsrkit), full=True)


def encoder_counts(stats):
    """The encoder's call, sequence and frame counts, total and per bucket."""
    return {name: value for name, value in stats.items()
            if name.startswith(("encoder.forward_batch.", "encoder.backward_batch."))
            and not name.endswith("_s")}


def worker_counts(calls):
    """encoder_counts' figures of the (name, (B, T), peak) encoder calls
    the worker processes made, which no tracer in this process sees."""
    stats = collections.Counter()
    for name, (b, t), _ in calls:
        stats.update({f"encoder.{name}.calls": 1, f"encoder.{name}.seqs": b,
                      f"encoder.{name}.frames": b * t, f"encoder.{name}.B{b}xT{t}.calls": 1})
    return stats


def test_traced_experiment_matches_untraced(tmp_path, monkeypatch, worker_encoder_calls):
    # The tracer's describe functions read arguments by position, so a
    # changed signature shows up only when a traced run calls through them.
    tracing = runpy.run_path(str(TRACING))
    config = dsrkit.pipeline.RunConfig(
        corpus_speakers=4, utterances_per_speaker=4, duration_s=0.5, ge2e_n_speakers=2,
        ge2e_m_utterances=2, ge2e_iterations=3, batch_size=4, triplet_iterations=2,
        holdout_per_speaker=2)
    untraced = dsrkit.pipeline.run_gender_experiment(config, tmp_path / "plain")
    # Each clip whose mel the traced run asks for, per cache; the caches
    # are kept alive so that no two share an id.
    caches, featurized = {}, set()
    mel_for = dsrkit.pipeline.mel_for

    def recording_mel_for(utt, cache):
        caches[id(cache)] = cache
        featurized.add((id(cache), utt.utterance_id))
        return mel_for(utt, cache)

    monkeypatch.setattr(dsrkit.pipeline, "mel_for", recording_mel_for)
    worker_encoder_calls()  # the untraced run's
    tracer = locked_tracer(tracing)
    with tracer.installed():
        traced = dsrkit.pipeline.run_gender_experiment(config, tmp_path / "traced")
    monkeypatch.undo()
    assert traced == untraced
    stats = tracing["layer_stats"](tracer.spans, None)
    # Inference and training both encode through dsrkit.pipeline.forward_batch,
    # and the backward describer reads the trace's input stack; a training
    # step's longest group may be encoded in the worker process instead.
    in_worker = worker_counts(worker_encoder_calls())
    assert set(in_worker) <= {"encoder.forward_batch.calls", "encoder.forward_batch.seqs",
                              "encoder.forward_batch.frames",
                              "encoder.forward_batch.B4xT98.calls",
                              "encoder.backward_batch.calls", "encoder.backward_batch.seqs",
                              "encoder.backward_batch.frames",
                              "encoder.backward_batch.B4xT98.calls"}
    assert collections.Counter(encoder_counts(stats)) + in_worker == {
        "encoder.forward_batch.calls": 13, "encoder.forward_batch.seqs": 73,
        "encoder.forward_batch.frames": 3904, "encoder.forward_batch.B4xT48.calls": 5,
        "encoder.forward_batch.B4xT98.calls": 2, "encoder.forward_batch.B6xT48.calls": 1,
        "encoder.forward_batch.B7xT48.calls": 1, "encoder.forward_batch.B8xT48.calls": 4,
        "encoder.backward_batch.calls": 7, "encoder.backward_batch.seqs": 33,
        "encoder.backward_batch.frames": 1984, "encoder.backward_batch.B4xT48.calls": 3,
        "encoder.backward_batch.B4xT98.calls": 2, "encoder.backward_batch.B6xT48.calls": 1,
        "encoder.backward_batch.B7xT48.calls": 1}
    evaluated = locked_tracer(tracing)
    with evaluated.installed():
        dsrkit.pipeline.evaluate(tmp_path / "traced" / "corpus" / "manifest.tsv",
                                 tmp_path / "traced" / "finetune" / "finetuned.ckpt",
                                 config, tmp_path / "eval")
    # The 16-utterance manifest in one group, then the 8 pitch-shifted
    # females, both here: inference never uses the worker process.
    assert worker_encoder_calls() == []
    assert encoder_counts(tracing["layer_stats"](evaluated.spans, None)) == {
        "encoder.forward_batch.calls": 2, "encoder.forward_batch.seqs": 24,
        "encoder.forward_batch.frames": 1152, "encoder.forward_batch.B16xT48.calls": 1,
        "encoder.forward_batch.B8xT48.calls": 1}
    # One triplet objective per fine-tuning iteration.
    assert stats["losses.triplet_loss.calls"] == config.triplet_iterations
    for name in ("sampling.build_triplet", "sampling.batch", "pipeline.gender_centroids",
                 "pipeline.probe_shifted_females", "encoder.backward_batch"):
        assert stats.get(f"{name}.calls", 0) >= 1, name
    # The synthesis and vocoder calls run on pool threads, which must still
    # look up the names the tracer patches.
    holdout = dsrkit.pipeline.load_manifest(tmp_path / "traced" / "corpus" / "holdout.tsv")
    assert stats["audio.synth_voice.calls"] == (config.corpus_speakers
                                                * config.utterances_per_speaker)
    assert (stats["augment.pitch_shift.calls"]
            - stats.get("augment.pitch_shift.via_sampling.calls", 0)
            == sum(r.gender == "female" for r in holdout))
    assert stats["sampling.vocoder_calls"] >= 1
    # Augments and probe shifts are featurized on the worker that renders
    # them, still through the log_mel name the tracer patches: one call per
    # distinct clip, wherever it runs.
    assert stats["audio.log_mel.calls"] == len(featurized)
