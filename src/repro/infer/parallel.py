"""Thread-pool plumbing for inference.

NumPy ufuncs and BLAS kernels release the GIL on their inner loops, so a
plain :class:`~concurrent.futures.ThreadPoolExecutor` gives real
parallel speedups on multi-core hosts without any pickling or shared
-memory machinery — the packed engine's per-thread workspace arena
(:mod:`repro.deploy.workspace`) keeps the scratch buffers disjoint.

The pool is the process's one level of parallelism.  The first time it
reaches two workers it sets every OpenBLAS loaded in the process to one
thread and puts ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``, so an
OpenBLAS loaded later (SciPy's) and every process spawned afterwards
start at one thread too: the FP convolutions call BLAS every few
milliseconds, and an OpenBLAS worker thread busy-waits between calls,
holding a core the pool threads need.  BLAS computes the same bits at
any thread count, so outputs are unchanged.  A thread count of ``1``
gives a 1-worker pool and leaves the cores to BLAS.

The thread count resolves, in order: an explicit ``n_threads``
argument, the ``REPRO_NUM_THREADS`` environment variable (read by
:func:`get_num_threads` on every call; there is no process-wide
setter), and finally ``os.cpu_count()``.  At ``1``, :func:`parallel_map`
runs inline on the calling thread, the deterministic-latency choice for
benchmarking single-core behaviour.

Work handed to the pool may fan out again: a :func:`parallel_map`
issued from a pool task (a server flush's batches) hands its items to
idle workers and runs the ones no worker has started itself, so it uses
an idle core when there is one and never waits on work nobody runs.
:func:`submit_task` always queues, from a pool task too, so a pool task
must never wait on its future.

Results are always returned in submission order, and callers stitch /
reduce them on the calling thread afterwards, so outputs are identical
for every thread count.  Work handed to the pool runs under the
submitting thread's grad mode and effective default dtype (both are
thread-scoped in :mod:`repro.grad`), so a worker computes exactly what
the caller would have computed inline.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, TypeVar

from ..grad import (get_default_dtype, is_grad_enabled, no_grad,
                    thread_default_dtype)

__all__ = ["check_num_threads", "get_num_threads", "parallel_map",
           "submit_task"]

T = TypeVar("T")
R = TypeVar("R")

# One long-lived pool, grown on demand: worker threads survive across
# calls, so their thread-local workspace arenas (repro.deploy.workspace)
# stay warm instead of being re-allocated on every flush/forward.
_pool: Optional[ThreadPoolExecutor] = None
_pool_width = 0
_pool_lock = threading.Lock()
_in_worker = threading.local()

#: Thread-count setters of the OpenBLAS builds NumPy and SciPy bundle
#: (64- and 32-bit integer interfaces), then of a plain OpenBLAS.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_",
                     "openblas_set_num_threads")


def _pin_openblas_to_one_thread(maps: str = "/proc/self/maps") -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    The libraries are found by name in ``maps``; without it (no
    ``/proc``), or for a library exporting none of the setters, nothing
    happens.
    """
    try:
        with open(maps) as f:
            lines = f.read().splitlines()
    except OSError:
        return
    paths = {parts[5] for parts in (line.split(None, 5) for line in lines)
             if len(parts) == 6
             and "openblas" in os.path.basename(parts[5]).lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool, _pool_width
    with _pool_lock:
        if _pool is None or _pool_width < workers:
            # The old pool is dropped, not shut down: a caller that took
            # it just before can still queue on it, and its threads exit
            # after the queued work once no caller holds it.
            if _pool_width < 2 <= workers:
                # A second worker makes the pool the process's only
                # level of parallelism (see the module docstring).
                _pin_openblas_to_one_thread()
                os.environ["OPENBLAS_NUM_THREADS"] = "1"
            _pool = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="repro-infer")
            _pool_width = workers
        return _pool


def check_num_threads(n: Any) -> int:
    """``n`` as a thread count; ``ValueError`` unless it is an integer >= 1.

    The one rule for every ``n_threads`` setting (``EngineConfig``,
    ``ServerConfig``, ``InferencePipeline``, a per-call argument) and
    for ``REPRO_NUM_THREADS``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n_threads must be >= 1, got {n}")
    return n


def get_num_threads() -> int:
    """The process default thread count: ``REPRO_NUM_THREADS`` when set
    (read now, on every call), else ``os.cpu_count()``.

    A value that is not an integer >= 1 raises ``ValueError`` naming the
    variable.
    """
    env = os.environ.get("REPRO_NUM_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return check_num_threads(env)
    except ValueError as exc:
        raise ValueError(
            f"invalid environment variable REPRO_NUM_THREADS={env!r}: "
            f"{exc}") from None


def _in_caller_context(fn: Callable[..., R]) -> Callable[..., R]:
    """Wrap ``fn`` to run in a pool worker under the calling thread's
    grad mode and effective dtype, flagged as a worker (nested pool
    calls then help while they wait instead of deadlocking the pool)."""
    grad_enabled = is_grad_enabled()
    dtype = get_default_dtype()

    def guarded(*args, **kwargs) -> R:
        _in_worker.active = True
        try:
            with thread_default_dtype(dtype):
                if grad_enabled:
                    return fn(*args, **kwargs)
                with no_grad():
                    return fn(*args, **kwargs)
        finally:
            _in_worker.active = False

    return guarded


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 n_threads: Optional[int] = None) -> List[R]:
    """``[fn(item) for item in items]``, fanned out over worker threads.

    Results come back in input order.  With one item, one thread, or an
    empty sequence the call runs inline — no pool, no overhead.  A call
    issued *from inside a pool worker* (a server flush's batches, a
    thread-parallel model nested in a thread-parallel pipeline) helps
    while it waits: it queues all but the first item of each wave, runs
    the first itself, then takes back every queued item no idle worker
    has started and runs it inline too.  It waits only on items another
    worker is already running, so it cannot deadlock the pool however
    busy it is — and so ``fn`` must never wait on another item of the
    same call.  The first exception propagates to the caller; queued
    items of its wave are cancelled, started ones run to completion.
    """
    items = list(items)
    resolved = (get_num_threads() if n_threads is None
                else check_num_threads(n_threads))
    workers = min(resolved, len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    # Grad mode and dtype are thread-local (repro.grad): a no_grad() or
    # a float32 engine scope on the calling thread must extend into the
    # pool, or workers would build autograd graphs / compute in the
    # process-default dtype.
    guarded = _in_caller_context(fn)

    # Submit in waves of `workers` items: the shared pool only grows, so
    # the pool width cannot be trusted to bound concurrency when the
    # requested thread count is lower than a previous call's.
    pool = _executor(workers)
    nested = getattr(_in_worker, "active", False)
    results: List[R] = []
    for i in range(0, len(items), workers):
        wave = items[i:i + workers]
        if nested:
            results.extend(_help_while_waiting(pool, fn, guarded, wave))
        else:
            results.extend(pool.map(guarded, wave))
    return results


def _help_while_waiting(pool: ThreadPoolExecutor, fn: Callable[[T], R],
                        guarded: Callable[[T], R],
                        wave: List[T]) -> List[R]:
    """One wave of a :func:`parallel_map` issued from a pool worker.

    All but the first item go to the pool; this thread runs the first,
    then each queued item in order: inline when ``cancel()`` shows no
    worker has started it, else it waits for the worker running it.
    This worker already holds the caller's grad mode and dtype, so its
    own items call the plain ``fn``.
    """
    queued = [(pool.submit(guarded, item), item) for item in wave[1:]]
    try:
        results = [fn(wave[0])]
        for future, item in queued:
            results.append(fn(item) if future.cancel() else future.result())
        return results
    finally:
        for future, _ in queued:
            future.cancel()


def submit_task(fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
    """Queue one task on the shared inference pool; returns its future.

    This is the executor handoff for layers above the pipeline: the
    multi-model server runs each model's flush as one task, so several
    models execute concurrently.  The task is flagged as a pool worker,
    so a flush's own ``parallel_map`` over its batches hands them to
    idle workers and runs the rest itself (see :func:`parallel_map`).

    The task always queues, on a 1-worker pool at a thread count of 1
    and from a pool task too (a flush that ends hands its model's next
    flush to the pool), so the caller never blocks.  A pool task must
    therefore never wait on a ``submit_task`` future, just as a
    :func:`parallel_map` ``fn`` never waits on another item of its call.

    The caller's (thread-local) grad mode and dtype are carried into
    the worker, matching :func:`parallel_map`.
    """
    return _executor(get_num_threads()).submit(
        _in_caller_context(fn), *args, **kwargs)
