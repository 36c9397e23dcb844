"""pmap: the shared worker pool behaves as a serial loop would."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dsrkit.parallel
from dsrkit.parallel import pmap

SRC = Path(dsrkit.__file__).parents[1]


def test_results_in_input_order():
    # Earlier items sleep longer, so they finish after later ones.
    def slow_square(x):
        time.sleep(0.002 * (20 - x))
        return x * x
    assert pmap(slow_square, range(20)) == [x * x for x in range(20)]


def test_first_failing_item_raises():
    # Item 3 raises after item 5 in time but first in input order.
    done = []
    def fail(x):
        if x == 3:
            time.sleep(0.05)
            raise ValueError("item 3")
        if x == 5:
            raise KeyError("item 5")
        time.sleep(0.01)
        done.append(x)
        return x
    with pytest.raises(ValueError, match="item 3"):
        pmap(fail, range(8))
    # Every other item has finished by the time the error comes out.
    assert sorted(done) == [0, 1, 2, 4, 6, 7]


def test_one_request_in_flight(python_c):
    # Each message is larger than a socket buffer: were the first reply
    # still unread when the second request is sent, each process would
    # wait for the other to read.
    if dsrkit.parallel._CPUS < 2:
        pytest.skip("a process that may run on one CPU has no worker process")
    code = ("from dsrkit.parallel import worker\n"
            "with worker() as get:\n"
            "    link = get()\n"
            "    first = link.submit(bytes, b'a' * 2**22)\n"
            "    second = link.submit(bytes, b'b' * 2**22)\n"
            "    print(second.result() == b'b' * 2**22, first.result() == b'a' * 2**22)\n")
    assert python_c(code, timeout=60) == (0, "True True\n", "")


def test_import_starts_no_process():
    # Commands that never train pay for no process, and no import time for it.
    code = ("import sys, dsrkit.cli, dsrkit.pipeline, multiprocessing.process as p; "
            "print(len(p._children), 'concurrent.futures.process' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.split() == ["0", "False"]
