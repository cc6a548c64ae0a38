"""The one worker pool: ``[fn(key) for key in keys]`` on forked workers.

Three command-level drivers map keys through it: the Monte Carlo
replicates of ``experiments``, the nine checks of ``mtgl verify-lemmas``
(``cli``), and the per-task CSV writes of ``dataio.write_dataset``.
Library code below them runs its work in the calling process.  Each
result must depend on its key alone.  The keys are dealt one at a time,
in key order, to whichever worker is free: this process and a forked
child per other worker each claim the next key by reading its index
from one file whose offset they share, and the results are merged in
key order, so the list is the same at any worker count and keys of
unequal cost balance themselves.  There is one worker per
``len(os.sched_getaffinity(0)) // b`` cores, where b is the BLAS thread
count the environment declares (OPENBLAS_NUM_THREADS, else
OMP_NUM_THREADS), so workers and their BLAS threads share the cores
without oversubscribing them.  With neither variable set BLAS takes
every core and every map runs in this process alone.  A map of one key
never forks.  Nothing else in the package forks.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import tempfile
import threading


def _worker_count():
    """Workers this process can run: its usable cores divided by the
    BLAS threads each worker declares (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS).  With neither set BLAS takes every core, so one.
    One also where the process cannot fork, or runs other threads,
    whose locks a forked child would inherit without the threads."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    declared = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas_threads = int(declared)
    except (TypeError, ValueError):
        return 1
    if blas_threads < 1:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // blas_threads)


def _map_in_key_order(fn, keys):
    """``[fn(key) for key in keys]`` on ``_worker_count()`` workers.

    With more than one worker (at most one per key) the keys are dealt
    one at a time, in key order, to whichever worker is free (see
    ``_Deal``): this process and a forked child per other worker each
    claim the next key and keep its ``(index, result)``; a child
    pickles its pairs, and its exception if one stopped it, down a pipe
    once no key is left.  Every result depends on its key alone, so the
    merged list is the same at any worker count.  An exception stops
    the deal, so no key past it is claimed, and the run raises the
    exception of its lowest failing key, as the serial loop would.  If
    a child dies before it reports, the run raises RuntimeError naming
    the keys below the lowest failing one that no worker reported: with
    one dead child, the keys it claimed.  Every child is reaped before
    this returns or raises; a BaseException in this process kills them
    first.
    """
    keys = list(keys)
    workers = min(len(keys), _worker_count())
    if workers <= 1:
        return [fn(key) for key in keys]
    sys.stdout.flush()
    sys.stderr.flush()
    deal = _Deal(len(keys))
    children = []  # (pid, read end), not yet reaped
    try:
        for _ in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(fn, keys, deal, read_end, write_end)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb")))
        pairs, failure = _run_worker(fn, keys, deal)
        failures = [failure] if failure else []  # (index, exception)
        dead = []  # exit statuses of the children that did not report
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                dead.append(code)
                continue
            child_pairs, failure = pickle.loads(payload)
            pairs += child_pairs
            if failure:
                failures.append(failure)
        if dead:
            first = min((index for index, _ in failures), default=len(keys))
            reported = {index for index, _ in pairs}
            lost = [keys[i] for i in range(first) if i not in reported]
            if lost or not failures:
                statuses = ", ".join(map(str, dead))
                who = (f"a worker ended with status {statuses} before reporting its"
                       if len(dead) == 1 else
                       f"{len(dead)} workers ended with status {statuses} "
                       "before reporting their")
                raise RuntimeError(f"{who} keys {lost!r}")
        if failures:
            raise min(failures, key=lambda item: item[0])[1]
        rows = [None] * len(keys)
        for index, result in pairs:
            rows[index] = result
        return rows
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        deal.close()


class _Deal:
    """The keys of one map, dealt by index to the workers claiming them.

    The indices ``0..count-1`` are 8-byte integers in an unlinked
    temporary file, read through one unbuffered open file description.
    This process and its forked children share that description, so
    they share its offset: a claim is one ``os.read`` of 8 bytes, which
    takes the next index and moves the offset past it.  Linux moves the
    offset of a regular file shared this way under the file's position
    lock, so no index is handed out twice and every index is handed out
    in order.  The lock is held only inside the read, so a worker that
    dies, even mid-claim, holds nothing the others wait for.
    """

    def __init__(self, count):
        self._file = tempfile.TemporaryFile(buffering=0)
        data = memoryview(b"".join(i.to_bytes(8, "little") for i in range(count)))
        while data:
            data = data[self._file.write(data):]
        self._file.seek(0)

    def claim(self):
        """The next unclaimed index, or None once none is left."""
        chunk = os.read(self._file.fileno(), 8)
        return int.from_bytes(chunk, "little") if chunk else None

    def stop(self):
        """End the deal.  Claims are made in index order, so every index
        below a failing one is claimed already."""
        os.lseek(self._file.fileno(), 0, os.SEEK_END)

    def close(self):
        self._file.close()


def _run_worker(fn, keys, deal):
    """Claim and run keys until none is left: ``(pairs, None)``, or at
    the first exception ``(pairs, (index, exception))``, having stopped
    the deal."""
    pairs = []
    while (index := deal.claim()) is not None:
        try:
            pairs.append((index, fn(keys[index])))
        except Exception as exc:
            deal.stop()
            return pairs, (index, exc)
    return pairs, None


def _run_child(fn, keys, deal, read_end, write_end):
    """Body of a forked worker: run ``_run_worker`` and pickle what it
    returns down the pipe.  It leaves only through os._exit, so no
    ``finally`` or atexit handler of the caller runs twice; exit status
    0 means the whole payload was written.  It ignores SIGINT (on
    Ctrl-C the parent kills it) and closes its copy of the read end, so
    a write to a dead parent fails instead of blocking."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(read_end)
        payload = _run_worker(fn, keys, deal)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)
