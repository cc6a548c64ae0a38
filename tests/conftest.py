import os

import pytest

from mtgl import pool


@pytest.fixture
def use_workers(monkeypatch):
    """``use_workers(count)`` runs every map of the worker pool on
    ``count`` workers for the rest of the test."""

    def use(count):
        monkeypatch.setattr(pool, "_worker_count", lambda: count)

    return use


@pytest.fixture
def assert_no_children():
    """A check that every child this process forked has been reaped."""

    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    return check
