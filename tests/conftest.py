"""Pytest configuration: keep the initializer deterministic per test, and
give a test that asks for it a pool of its own."""

import pytest

from repro.infer import parallel
from repro.nn import init


@pytest.fixture(autouse=True)
def _deterministic_init():
    init.seed(1234)
    yield


@pytest.fixture
def fresh_pool(monkeypatch):
    """The shared inference pool, started afresh for one test: its width
    is the first thread count the test's pool tasks ask for (the pool
    only grows).  Yields :mod:`repro.infer.parallel`; afterwards the
    test's pool is shut down and the process's own comes back."""
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "_pool_width", 0)
    # The pin sets it; the process gets its own value back afterwards.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    yield parallel
    if parallel._pool is not None:
        parallel._pool.shutdown(wait=False)
