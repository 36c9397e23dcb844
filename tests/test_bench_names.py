"""The benchmark tracer patches dsrkit functions by name: every name it
targets must still exist, or a traced benchmark run fails."""

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


def test_traced_experiment_matches_untraced(tmp_path):
    # The tracer's describe functions read arguments by position, so a
    # changed signature shows up only when a traced run calls through them.
    tracing = runpy.run_path(str(TRACING))
    config = dsrkit.pipeline.RunConfig(
        corpus_speakers=4, utterances_per_speaker=4, duration_s=0.5, ge2e_n_speakers=2,
        ge2e_m_utterances=2, ge2e_iterations=3, batch_size=4, triplet_iterations=2,
        holdout_per_speaker=2)
    untraced = dsrkit.pipeline.run_gender_experiment(config, tmp_path / "plain")

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

    tracer = LockedTracer(
        tracing["stage_targets"](dsrkit) + tracing["layer_targets"](dsrkit), full=True)
    with tracer.installed():
        traced = dsrkit.pipeline.run_gender_experiment(config, tmp_path / "traced")
    assert traced == untraced
    stats = tracing["layer_stats"](tracer.spans, None)
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
