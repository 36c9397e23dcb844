"""One persistent thread pool for independent numpy work, and one worker
process beside it.

numpy releases the interpreter lock inside its array kernels, so the phase
vocoder and voice synthesis run on separate cores at once. The pool has one
worker per CPU this process may run on and starts no thread before the first
``pmap`` call. ``pmap`` is never called from inside a worker.

The encoder's many short numpy calls hand that lock back and forth, so
threads do not speed it up; a second process does. ``worker()`` forks it at
its first call, under the pool's rule: only when this process may run on at
least 2 CPUs. It is forked (not spawned), so it starts with this process's
modules and leaves no helper process behind, and it is shut down at exit.
"""

import atexit
import os
import signal
from concurrent.futures import ThreadPoolExecutor, wait

_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(_CPUS)
_WORKER = None


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on the pool: results in input order, and
    the exception of the first failing item in that order is raised, once
    every item has finished, so no work runs on after pmap returns."""
    futures = [_POOL.submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]


def worker(start=True):
    """The worker process, a one-process ProcessPoolExecutor that runs its
    tasks one at a time in submission order, or None on a process that may
    run on one CPU. start=False returns it only if it is already running."""
    global _WORKER
    if _WORKER is None and start and _CPUS > 1:
        # Imported here: they add about 15 ms to every command's import.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # Ctrl-C interrupts the calling process alone, whose exit stops the worker.
        _WORKER = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                                      initializer=signal.signal,
                                      initargs=(signal.SIGINT, signal.SIG_IGN))
        atexit.register(shutdown)
    return _WORKER


def shutdown():
    """Stop the worker process and wait for it to exit; the next
    ``worker()`` forks a new one. Registered to run at exit, so the worker
    has exited before interpreter teardown collects the executor."""
    global _WORKER
    if _WORKER is not None:
        atexit.unregister(shutdown)
        _WORKER.shutdown()
        _WORKER = None
