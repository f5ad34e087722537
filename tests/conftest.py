"""Fixtures shared by the test modules."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from pointseq import autograd as ag


class CountingPool(ThreadPoolExecutor):
    """A helper pool that counts the helpers it is asked for."""

    def __init__(self, workers):
        super().__init__(workers)
        self.submitted = 0

    def submit(self, fn, *args, **kwargs):
        self.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def helper_pool(monkeypatch):
    """Yields ``install(n)``, which gives the tile scheduler a new
    :class:`CountingPool` of ``n`` helper threads (no helper for 0) as
    ``ag._pool`` and returns it. Threads switch as often as the interpreter
    allows until the test ends, so a lost or mixed-up tile would show; then
    every pool made is shut down."""
    pools = []

    def install(n):
        pool = CountingPool(n) if n else None
        if pool is not None:
            pools.append(pool)
        monkeypatch.setattr(ag, "_pool", pool)
        monkeypatch.setattr(ag, "_tile_pool", lambda: pool)
        return pool

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield install
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown()
