"""Encoder calls counted, or made to fail, in the worker process.

Training sends one length group of each step to the worker process the
stage forks (``dsrkit.parallel.worker``), which calls ``dsrkit.encoder``'s
functions, so a patch of ``dsrkit.pipeline``'s names sees only the groups
encoded here. The fixtures below patch ``dsrkit.encoder`` before the stage,
so its worker is forked with the patch, which acts only in a process other
than the test's; the worker reports to a file, read once the stage, and so
its worker, has ended.
"""

import os
import tracemalloc

import pytest

import dsrkit.encoder


def _stack_of(name, args):
    return args[1] if name == "forward_batch" else args[1].stack


@pytest.fixture
def worker_encoder_calls(monkeypatch, tmp_path):
    """A function returning the (name, (B, T), peak) of each encoder call
    the worker processes made since the fixture started or the function was
    last called; peak is tracemalloc's peak in that worker after the call,
    counted from its first call (0 where the worker does not trace). Always
    [] where there is no worker (a process that may run on one CPU)."""
    log = tmp_path / "worker_calls.log"
    log.touch()
    here, first = os.getpid(), []

    for name in ("forward_batch", "backward_batch"):
        original = getattr(dsrkit.encoder, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            if os.getpid() == here:
                return _original(*args, **kwargs)
            if not first:  # a list each fork copies empty
                first.append(None)
                if tracemalloc.is_tracing():
                    tracemalloc.reset_peak()
            result = _original(*args, **kwargs)
            b, t = _stack_of(_name, args).shape[:2]
            peak = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{_name} {b} {t} {peak}\n")
            return result

        monkeypatch.setattr(dsrkit.encoder, name, recording)
    taken = [0]

    def calls():
        lines = log.read_text(encoding="utf-8").splitlines()
        new, taken[0] = lines[taken[0]:], len(lines)
        return [(name, (int(b), int(t)), int(peak))
                for name, b, t, peak in map(str.split, new)]
    return calls


@pytest.fixture
def worker_forward_fails(monkeypatch):
    """A function that makes dsrkit.encoder.forward_batch, in each worker
    process forked after the call, call fail() on its calls after its first
    `after`; monkeypatch.undo() restores it."""
    here = os.getpid()

    def install(after, fail):
        original, calls = dsrkit.encoder.forward_batch, []

        def failing(*args, **kwargs):
            if os.getpid() != here:
                calls.append(None)
                if len(calls) > after:
                    fail()
            return original(*args, **kwargs)

        monkeypatch.setattr(dsrkit.encoder, "forward_batch", failing)
    return install
