"""Encoder calls counted, or made to fail, in the worker process.

Training sends one length group of each step to the worker process
(``dsrkit.parallel.worker``), which calls ``dsrkit.encoder``'s functions, so
a patch of ``dsrkit.pipeline``'s names sees only the groups encoded here.
The functions below are submitted to the worker by name: it is forked from
the test process after collection, so it has this module too.
"""

import pytest

import dsrkit.encoder
import dsrkit.parallel
from dsrkit.errors import NumericError

_COUNTED = []  # in the worker: (name, stack shape) of each encoder call
_ORIGINALS = {}


def _stack_of(name, args):
    return args[1] if name == "forward_batch" else args[1].stack


def _count(on):
    """In the worker: wrap dsrkit.encoder's forward_batch and backward_batch
    (on=True) or restore them (on=False); forget what was counted."""
    _COUNTED.clear()
    for name in ("forward_batch", "backward_batch"):
        original = _ORIGINALS.setdefault(name, getattr(dsrkit.encoder, name))

        def counting(*args, _name=name, _original=original, **kwargs):
            _COUNTED.append((_name, _stack_of(_name, args).shape[:2]))
            return _original(*args, **kwargs)

        setattr(dsrkit.encoder, name, counting if on else original)


def _take_counted():
    taken = list(_COUNTED)
    _COUNTED.clear()
    return taken


def fail_forward(after):
    """In the worker: make dsrkit.encoder.forward_batch raise NumericError
    on every call after its first `after`; after=None restores it."""
    original = _ORIGINALS.setdefault("forward_batch", dsrkit.encoder.forward_batch)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) > after:
            raise NumericError("injected in the worker process")
        return original(*args, **kwargs)

    dsrkit.encoder.forward_batch = original if after is None else failing


@pytest.fixture
def worker_encoder_calls():
    """A function returning the (name, (B, T)) of each encoder call the
    worker process made since the fixture started or the function was last
    called; always [] where there is no worker (a process that may run on
    one CPU)."""
    proc = dsrkit.parallel.worker()
    if proc is None:
        yield list
        return
    proc.submit(_count, True).result()
    yield lambda: proc.submit(_take_counted).result()
    proc.submit(_count, False).result()

