"""The benchmark tracer patches dsrkit functions by name: every name it
targets must still exist, or a traced benchmark run fails."""

import runpy
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
