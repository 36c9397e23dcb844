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
alone. The calling thread writes each request to one duplex pipe and reads
its reply itself, so no helper thread runs beside the stage and no request
waits for the interpreter lock. However the stage ends, the caller closes
its end, the worker exits at that end of file and is waited for before
``worker()`` returns, and its memory goes with it; no exit hook is needed,
and each stage that trains in two processes pays for one fork.
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


def _serve(conn, callers_end):
    """The worker process: answer each (fn, args) request on conn, in
    order, with (True, fn(*args)) or (False, the exception it raised), until
    the caller closes its end. Closing this process's copy of that end first
    is what lets the caller's close reach it as end of file."""
    callers_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            fn, args = conn.recv()
            try:
                reply = True, fn(*args)
            except Exception as exc:  # raised again by the caller
                reply = False, exc
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the caller has closed its end, possibly mid-message: exit quietly


class _Reply:
    """One request's reply, read from the pipe once: by result(), or by the
    next request's submit if result() has not been called by then."""

    def __init__(self, conn):
        self._conn, self._reply = conn, None

    def read(self):
        if self._reply is None:
            try:
                self._reply = self._conn.recv()
            except (EOFError, OSError) as exc:
                raise ChildProcessError("worker process died") from exc

    def result(self):
        """The request's value, or the exception it raised, raised here."""
        self.read()
        ok, value = self._reply
        if not ok:
            raise value
        return value


class _Worker:
    """The calling end of a forked worker process. At most one request is
    in flight: submit reads the last reply before it sends, since two
    unread messages larger than the socket buffer, one each way, would
    block both processes for good. A worker that has died raises
    ChildProcessError. held is the caller's record of what the worker keeps
    between requests, and lives as long as the worker."""

    def __init__(self, context):
        self._conn, theirs = context.Pipe()
        self._process = context.Process(target=_serve, args=(theirs, self._conn))
        self._process.start()
        theirs.close()
        self._last = None
        self.held = set()

    def submit(self, fn, *args) -> _Reply:
        """Send fn(*args) to the worker; result() of the reply returned
        gives its value."""
        if self._last is not None:
            self._last.read()
        try:
            self._conn.send((fn, args))
        except OSError as exc:
            raise ChildProcessError("worker process died") from exc
        self._last = _Reply(self._conn)
        return self._last

    def close(self):
        self._conn.close()
        self._process.join()
        self._process.close()


@contextmanager
def worker():
    """A getter of the worker process, forked at the getter's first call,
    that runs its requests one at a time in submission order, or None on a
    process that may run on one CPU. The worker exits, and is waited for,
    when the with block ends."""
    link = None

    def get():
        nonlocal link
        if link is None and _CPUS > 1:
            # Imported here: it adds about 15 ms to every command's import.
            import multiprocessing
            link = _Worker(multiprocessing.get_context("fork"))
        return link

    try:
        yield get
    finally:
        if link is not None:
            link.close()
