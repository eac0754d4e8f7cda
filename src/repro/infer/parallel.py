"""Thread-pool plumbing for inference.

NumPy ufuncs and BLAS kernels release the GIL on their inner loops, so a
plain :class:`~concurrent.futures.ThreadPoolExecutor` gives real
parallel speedups on multi-core hosts without any pickling or shared
-memory machinery — the packed engine's per-thread workspace arena
(:mod:`repro.deploy.workspace`) keeps the scratch buffers disjoint.

The pool is the process's one level of parallelism.  When it is created
(which needs two or more workers) it sets every OpenBLAS loaded in the
process to one thread, for the rest of the process: the FP convolutions
call BLAS every few milliseconds, and an OpenBLAS worker thread
busy-waits between calls, holding a core the pool threads need.  BLAS
computes the same bits at any thread count, so outputs are unchanged.
A thread count of ``1`` never creates the pool and leaves the cores to
BLAS instead.

The thread count resolves, in order: an explicit ``n_threads``
argument, the ``REPRO_NUM_THREADS`` environment variable (read by
:func:`get_num_threads` on every call; there is no process-wide
setter), and finally ``os.cpu_count()``.  ``1`` disables the pool
entirely (callers run inline on the calling thread), which is also the
deterministic-latency choice for benchmarking single-core behaviour.

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
            # The old pool (if any) finishes its in-flight work and its
            # threads wind down; new submissions go to the wider pool.
            if _pool is not None:
                _pool.shutdown(wait=False)
            else:
                # The first pool becomes the process's only level of
                # parallelism (see the module docstring).
                _pin_openblas_to_one_thread()
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
    calls then run inline instead of deadlocking the pool)."""
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
    empty sequence the call runs inline — no pool, no overhead.  Calls
    issued *from inside a pool worker* (a thread-parallel model nested
    in a thread-parallel pipeline) also run inline: handing them to the
    shared pool while every worker waits on them would deadlock.  A
    worker exception propagates to the caller (remaining work is not
    cancelled, matching executor semantics).
    """
    items = list(items)
    resolved = (get_num_threads() if n_threads is None
                else check_num_threads(n_threads))
    workers = min(resolved, len(items))
    if workers <= 1 or getattr(_in_worker, "active", False):
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
    results: List[R] = []
    for i in range(0, len(items), workers):
        results.extend(pool.map(guarded, items[i:i + workers]))
    return results


def submit_task(fn: Callable[..., R], *args, **kwargs) -> "Future[R]":
    """Hand one task to the shared inference pool; returns its future.

    This is the executor handoff for layers above the pipeline (the
    multi-model server runs each model's flush as one task, so several
    models execute concurrently while each flush's internal
    ``parallel_map`` runs inline — the task carries the same
    nested-call guard as a ``parallel_map`` worker, so it can never
    deadlock the pool by fanning out into it and waiting).

    With an effective thread count of 1, or when called from inside a
    pool worker, the task runs inline on the calling thread and the
    returned future is already resolved — the deterministic single
    -core behaviour, with no second pool and no extra threads.

    The caller's (thread-local) grad mode and dtype are carried into
    the worker, matching :func:`parallel_map`.
    """
    if get_num_threads() <= 1 or getattr(_in_worker, "active", False):
        future: "Future[R]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # mirrored onto the returned future
            future.set_exception(exc)
        return future
    return _executor(get_num_threads()).submit(
        _in_caller_context(fn), *args, **kwargs)
