"""The one worker pool: ``[fn(key) for key in keys]`` on forked workers.

Three callers map keys through it: the Monte Carlo replicates of
``experiments``, the 4096-replicate chunks of the ``probability``
checks, and the per-task CSV writes of ``dataio.write_dataset``.  Each
result must depend on its key alone; the keys are split into contiguous
blocks, one per worker, this process runs the first block and a forked
child each other block, and the results are merged in key order, so
the list is the same at any worker count.  There is one worker per
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

    The keys are split into contiguous blocks, one per worker (at most
    one per key).  This process runs the first block; a forked child
    runs each other block and pickles its results, or its first
    exception, down a pipe.  Every result depends on its key alone, so
    the list is the same at any worker count, and a failing run raises
    the exception of its lowest failing key, as the serial loop would.
    A child that dies without its results raises RuntimeError naming
    its keys.  Every child is reaped before this returns or raises.
    """
    keys = list(keys)
    workers = max(1, min(len(keys), _worker_count()))
    cuts = [len(keys) * i // workers for i in range(workers + 1)]
    blocks = [keys[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []  # (pid, read end, block), not yet reaped
    if workers > 1:
        sys.stdout.flush()
        sys.stderr.flush()
    try:
        for block in blocks[1:]:
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child_block(fn, block, read_end, write_end)
            os.close(write_end)
            children.append((pid, os.fdopen(read_end, "rb"), block))
        rows = [fn(key) for key in blocks[0]]
        while children:
            pid, pipe, block = children[0]
            payload = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise RuntimeError(
                    f"the worker for keys {block[0]!r} to {block[-1]!r} ended "
                    f"with status {code} before sending its results"
                )
            results, error = pickle.loads(payload)
            if error is not None:
                raise error
            rows += results
        return rows
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child_block(fn, block, read_end, write_end):
    """Body of a forked worker: pickle ``(results, None)``, or ``(None,
    first exception)``, of ``block`` down the pipe.  It leaves only
    through os._exit, so no ``finally`` or atexit handler of the caller
    runs twice; exit status 0 means the whole payload was written.  It
    ignores SIGINT (on Ctrl-C the parent kills it) and closes its copy
    of the read end, so a write to a dead parent fails instead of
    blocking."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(read_end)
        try:
            payload = ([fn(key) for key in block], None)
        except Exception as exc:
            payload = (None, exc)
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)
