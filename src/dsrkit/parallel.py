"""One persistent thread pool for independent numpy work, and one worker
process per training stage.

numpy releases the interpreter lock inside its array kernels, so the phase
vocoder and voice synthesis run on separate cores at once. The pool has one
worker per CPU this process may run on and starts no thread before the first
``pmap`` call. ``pmap`` is never called from inside a worker.

The encoder's many short numpy calls hand that lock back and forth, so
threads do not speed it up; a second process does. A training stage enters
``worker()``, whose getter forks it at its first call, under the pool's
rule: only when this process may run on at least 2 CPUs. It is forked (not
spawned), so it starts with this process's modules and leaves no helper
process behind. It ignores Ctrl-C, which interrupts the calling process
alone. However the stage ends, the worker finishes its tasks and exits
before ``worker()`` does, and its memory goes with it; no exit hook is
needed, and each stage that trains in two processes pays for one fork.
"""

import os
import signal
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_CPUS)


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on the pool: results in input order, and
    the exception of the first failing item in that order is raised, once
    every item has finished, so no work runs on after pmap returns."""
    futures = [_POOL.submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]


@contextmanager
def worker():
    """A getter of the worker process: a one-process ProcessPoolExecutor,
    forked at the getter's first call, that runs its tasks one at a time in
    submission order, or None on a process that may run on one CPU. It is
    shut down, its tasks finished, when the with block ends."""
    proc = None

    def get():
        nonlocal proc
        if proc is None and _CPUS > 1:
            # Imported here: they add about 15 ms to every command's import.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            proc = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                                       initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
        return proc

    try:
        yield get
    finally:
        if proc is not None:
            proc.shutdown()
