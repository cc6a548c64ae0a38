import ast
import os
import signal
import time
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
    # no sched_getaffinity, as on macOS: one worker
    monkeypatch.setattr(pool.threading, "active_count", lambda: 1)
    monkeypatch.delattr(pool.os, "sched_getaffinity")
    assert pool._worker_count() == 1


def test_key_order_map_returns_results_in_key_order(use_workers):
    use_workers(3)
    keys = [(T, r) for T in (1, 4) for r in range(4)]
    pids = pool._map_in_key_order(lambda key: (key, os.getpid()), keys)
    assert [key for key, _ in pids] == keys
    # this process and two forked children share the keys
    assert len({pid for _, pid in pids}) <= 3
    assert pool._map_in_key_order(lambda key: key, []) == []
    # a map of one key never forks
    assert pool._map_in_key_order(lambda key: os.getpid(), ["only"]) == [os.getpid()]


def _wait_for(paths, seconds=10.0):
    """True once every path exists, False after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not all(path.exists() for path in paths):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def test_keys_are_dealt_to_whichever_worker_is_free(use_workers, tmp_path):
    # key 0 holds its worker until keys 1..5 have all run, so the other
    # worker must take every one of them; a static split (contiguous or
    # strided) gives key 0's worker some of keys 1..5 and times out
    def fn(key):
        if key == 0:
            if not _wait_for([tmp_path / str(k) for k in range(1, 6)], seconds=5.0):
                raise TimeoutError("keys 1..5 did not all run while key 0 waited")
        else:
            (tmp_path / str(key)).touch()
        return key * key

    use_workers(2)
    assert pool._map_in_key_order(fn, range(6)) == [0, 1, 4, 9, 16, 25]


def test_every_key_runs_once_with_more_workers_than_cores(use_workers):
    # eight workers race for 20,000 keys; a lost update of the shared
    # counter would run some key twice (or never).  Each worker counts
    # its runs, and forks before it runs any, so the counts add up to
    # the runs made.
    runs = []

    def fn(key):
        runs.append(key)
        return key, os.getpid(), len(runs)

    use_workers(8)
    started = time.monotonic()
    rows = pool._map_in_key_order(fn, range(20_000))
    assert time.monotonic() - started < 60
    assert [key for key, _, _ in rows] == list(range(20_000))
    made = {}
    for _, pid, count in rows:
        made[pid] = max(made.get(pid, 0), count)
    assert sum(made.values()) == 20_000


def test_worker_killed_mid_key_raises(use_workers, assert_no_children, tmp_path):
    # the forked worker notes its first key and kills itself mid-key;
    # this process holds its own first key until then, so the worker has
    # claimed one key before it dies
    me = os.getpid()
    marker = tmp_path / "killed"

    def fn(key):
        if os.getpid() != me:
            marker.write_text(str(key))
            os.kill(os.getpid(), signal.SIGKILL)
        assert _wait_for([marker])
        return key

    use_workers(2)
    with pytest.raises(RuntimeError, match="ended with status -9") as failure:
        pool._map_in_key_order(fn, range(4))
    assert str(failure.value).endswith(f"its keys [{marker.read_text()}]")
    assert_no_children()


def test_an_exception_in_a_worker_reaches_the_caller(
    use_workers, assert_no_children, tmp_path
):
    # the forked worker notes its first key and raises there; this
    # process holds its own first key until then, so the one failure is
    # the child's, pickled back down its pipe
    me = os.getpid()
    marker = tmp_path / "raised"

    def fn(key):
        if os.getpid() != me:
            marker.write_text(str(key))
            raise ValueError(f"key {key} failed in a worker")
        assert _wait_for([marker])
        return key

    use_workers(2)
    with pytest.raises(ValueError, match="failed in a worker$") as failure:
        pool._map_in_key_order(fn, range(4))
    assert str(failure.value) == f"key {marker.read_text()} failed in a worker"
    assert_no_children()


def test_a_failing_key_stops_the_deal(use_workers, assert_no_children, tmp_path):
    # key 0 fails at once while every other key takes 10 ms; a deal that
    # went on would run all 200 keys on the other worker
    def fn(key):
        (tmp_path / str(key)).touch()
        if key == 0:
            raise ValueError("key 0")
        time.sleep(0.01)
        return key

    use_workers(2)
    with pytest.raises(ValueError, match="^key 0$"):
        pool._map_in_key_order(fn, range(200))
    assert len(list(tmp_path.iterdir())) < 200
    assert_no_children()


def test_every_dead_worker_is_named(use_workers, assert_no_children, tmp_path):
    # both forked workers note their first key and kill themselves
    # mid-key; this process holds its own first key until both have, so
    # it runs every other key and the two noted keys are never reported
    me = os.getpid()

    def fn(key):
        if os.getpid() != me:
            (tmp_path / str(key)).touch()
            os.kill(os.getpid(), signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while len(list(tmp_path.iterdir())) < 2:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        return key

    use_workers(3)
    with pytest.raises(RuntimeError, match="^2 workers ended with status -9, -9") as failure:
        pool._map_in_key_order(fn, range(6))
    lost = sorted(int(path.name) for path in tmp_path.iterdir())
    assert str(failure.value).endswith(f"their keys {lost!r}")
    assert_no_children()


def test_interrupt_in_this_process_kills_the_workers_at_once(
    use_workers, assert_no_children
):
    # the forked workers would each take a minute a key; the interrupt in
    # this process kills and reaps them without waiting for one
    me = os.getpid()

    def fn(key):
        if os.getpid() == me:
            raise KeyboardInterrupt
        time.sleep(60)
        return key

    use_workers(3)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pool._map_in_key_order(fn, range(6))
    assert time.monotonic() - started < 10
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


def _imports_pool(path):
    """True if ``path`` imports the pool module or a name from it."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            if any(alias.name == "mtgl.pool" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package is one of ``mtgl``
            module = ".".join(filter(None, ["mtgl" if node.level else None, node.module]))
            names = {alias.name for alias in node.names}
            if module == "mtgl.pool" or (module == "mtgl" and "pool" in names):
                return True
    return False


def test_only_the_command_level_drivers_use_the_pool():
    # library code runs its work in the calling process; a module that
    # schedules its own work again must be named in the pool's docstring
    users = {path.stem for path in PACKAGE.glob("*.py") if _imports_pool(path)}
    assert users == {"cli", "experiments", "dataio"}
    for name in users:
        assert f"``{name}" in pool.__doc__, name
