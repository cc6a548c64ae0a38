import ast
import os
import signal
from pathlib import Path

import pytest

from mtgl import pool

PACKAGE = Path(pool.__file__).resolve().parent


def test_worker_count_divides_cores_by_declared_blas_threads(monkeypatch):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(8)))
    for openblas, omp, want in (
        (None, None, 1),  # BLAS takes every core
        ("1", None, 8),
        ("2", "8", 4),  # OPENBLAS_NUM_THREADS wins
        (None, "3", 2),
        ("16", None, 1),
        ("0", None, 1),
        ("many", None, 1),
    ):
        for name, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert pool._worker_count() == want, (openblas, omp)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(pool.threading, "active_count", lambda: 2)
    assert pool._worker_count() == 1


def test_key_order_map_splits_contiguous_blocks(use_workers):
    use_workers(3)
    keys = [(T, r) for T in (1, 4) for r in range(4)]
    pids = pool._map_in_key_order(lambda key: (key, os.getpid()), keys)
    assert [key for key, _ in pids] == keys
    owners = [pid for _, pid in pids]
    # blocks of 2, 3 and 3 keys; the first runs in this process
    assert owners[:2] == [os.getpid()] * 2
    assert len({*owners[2:5]}) == len({*owners[5:]}) == 1
    assert len(set(owners)) == 3
    assert pool._map_in_key_order(lambda key: key, []) == []
    # a map of one key never forks
    assert pool._map_in_key_order(lambda key: os.getpid(), ["only"]) == [os.getpid()]


def test_worker_killed_mid_block_raises(use_workers, assert_no_children):
    def fn(key):
        if key == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return key

    use_workers(2)
    with pytest.raises(RuntimeError, match="keys 2 to 3 ended with status -9"):
        pool._map_in_key_order(fn, range(4))
    assert_no_children()


def test_failure_in_the_first_block_reaps_the_workers(use_workers, assert_no_children):
    def fn(key):
        if key == 0:
            raise KeyboardInterrupt
        return key

    use_workers(3)
    with pytest.raises(KeyboardInterrupt):
        pool._map_in_key_order(fn, range(6))
    assert_no_children()


def _fork_calls(path):
    """Lines of ``path`` that reach os.fork or os.forkpty, by attribute
    or by a ``from os import``."""
    names = ("fork", "forkpty")
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in names for alias in node.names):
                yield node.lineno


def test_only_the_pool_module_forks():
    forks = {
        path.name: list(_fork_calls(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert forks.pop("pool.py"), "the pool no longer forks; update this guard"
    assert not any(forks.values()), {name: lines for name, lines in forks.items() if lines}
