"""One persistent thread pool for independent numpy work.

numpy releases the interpreter lock inside its array kernels, so the phase
vocoder and voice synthesis run on separate cores at once. The pool has one
worker per CPU this process may run on and starts no thread before the first
``pmap`` call. ``pmap`` is never called from inside a worker.
"""

import os
from concurrent.futures import ThreadPoolExecutor, wait

_POOL = ThreadPoolExecutor(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                           else os.cpu_count() or 1)


def pmap(fn, items) -> list:
    """``[fn(x) for x in items]`` on the pool: results in input order, and
    the exception of the first failing item in that order is raised, once
    every item has finished, so no work runs on after pmap returns."""
    futures = [_POOL.submit(fn, x) for x in items]
    wait(futures)
    return [f.result() for f in futures]
