"""Worker side of the jobs subsystem: execute items, report results.

A worker is a loop around :func:`process_task`: take a task (a shard of
items for one model), run each item through a cached
:class:`repro.api.Engine`, write the output atomically, and report one
message per item.  The same generator drives both execution modes:

* :func:`worker_main` — the ``multiprocessing`` entry point.  Each
  worker process owns a task queue (so a lost lease is attributable to
  exactly one worker) and a result pipe it writes synchronously, so a
  worker that dies mid-message breaks only its own channel.
* inline mode (``workers=0``) — the coordinator calls
  :func:`process_task` directly; no processes, fully deterministic,
  what most tests use.

Durability contract with the coordinator: an item's output is fully on
disk (written to a temp file and ``os.replace``'d into place) *before*
its ``done`` message is sent.  A worker death between the two leaves an
orphan output file and no journal record — the resume path simply redoes
the item, and the atomic overwrite keeps the final bytes identical.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from .chaos import ChaosConfig, ChaosPoisoned
from .manifest import JobItem, sha256_file

__all__ = ["WorkerTask", "EngineCache", "atomic_save_npy",
           "process_task", "worker_main"]

#: Engines cached per worker (distinct models this worker can hold).
ENGINE_CACHE_SIZE = 2


@dataclass(frozen=True)
class WorkerTask:
    """A shard of work for one worker: items, their attempt numbers,
    and their lease ordinals (the chaos crash key — see
    :meth:`repro.jobs.chaos.ChaosConfig.should_crash`)."""

    task_id: int
    items: Tuple[JobItem, ...]
    attempts: Tuple[int, ...]
    leases: Tuple[int, ...]


def atomic_save_npy(path: os.PathLike, array: np.ndarray) -> None:
    """Write an ``.npy`` durably: temp file in the destination
    directory, flush + fsync, then ``os.replace`` into place.  Readers
    (and the resume hash check) see either the old bytes or the new
    bytes, never a torn write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, array)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class EngineCache:
    """Per-worker ``artifact path -> Engine`` cache (LRU, tiny).

    Bulk manifests typically run a handful of models over many inputs;
    keeping the last few engines hot avoids re-unpacking weights per
    shard while bounding memory.  Evicted engines are ``close()``'d so
    their pipelines/models release immediately.
    """

    def __init__(self, batch_size: int, chaos: ChaosConfig,
                 capacity: int = ENGINE_CACHE_SIZE) -> None:
        self.batch_size = batch_size
        self.chaos = chaos
        self.capacity = capacity
        self._engines: Dict[str, object] = {}
        self._loads = 0

    def get(self, artifact: str):
        engine = self._engines.pop(artifact, None)
        if engine is None:
            self._loads += 1
            self.chaos.check_artifact_load(artifact, self._loads)
            from ..api import Engine, EngineConfig
            from ..deploy.serialize import read_artifact_meta
            meta = read_artifact_meta(artifact)
            engine = Engine.from_artifact(artifact, EngineConfig(
                dtype=meta.get("dtype"), n_threads=1,
                batch_size=self.batch_size))
        self._engines[artifact] = engine  # most-recently-used position
        while len(self._engines) > self.capacity:
            oldest = next(iter(self._engines))  # insertion order = LRU
            self._engines.pop(oldest).close()
        return engine

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()


def process_task(task: WorkerTask, cache: EngineCache,
                 chaos: ChaosConfig,
                 allow_crash: bool = False) -> Iterator[Tuple]:
    """Run a task's items; yield one message per item.

    Messages (tuples, queue-friendly):

    ``("done", item_id, output_sha, seconds, attempt)``
        Output is on disk, renamed into place, hashed.
    ``("fail", item_id, attempt, error_summary, fatal)``
        The attempt failed.  ``fatal`` marks errors no retry can fix
        (a poison input); the coordinator quarantines those
        immediately instead of burning the retry budget.

    ``allow_crash=True`` arms the chaos worker-crash fault (only the
    subprocess path sets it; inline mode must survive its own tests).
    An armed crash fires *after* the output write and *before* the done
    message — the unjournaled-work window resume has to cover.
    """
    for item, attempt, lease in zip(task.items, task.attempts,
                                    task.leases):
        started = time.perf_counter()
        try:
            chaos.check_infer(item.item_id, attempt)
            engine = cache.get(item.artifact)
            array = np.load(item.input)
            result = engine.infer(array)
            if not result.ok:
                raise RuntimeError(
                    f"inference resolved {result.status}: {result.detail}")
            chaos.slow_io(item.item_id)
            atomic_save_npy(item.output, result.image)
        except Exception as exc:
            yield ("fail", item.item_id, attempt,
                   f"{type(exc).__name__}: {exc}",
                   isinstance(exc, ChaosPoisoned))
            continue
        if allow_crash and chaos.should_crash(item.item_id, lease):
            chaos.crash_worker()  # pragma: no cover - os._exit
        output_sha = sha256_file(item.output)
        yield ("done", item.item_id, output_sha,
               time.perf_counter() - started, attempt)


def worker_main(worker_id: int, task_queue, results,
                chaos: ChaosConfig, batch_size: int) -> None:
    """``multiprocessing`` target: drain ``task_queue`` until the
    ``None`` sentinel, sending per-item messages plus a
    ``("task_done", worker_id, task_id)`` marker after each task on
    ``results`` (this worker's write end of its result pipe) so the
    coordinator can re-dispatch to this worker."""
    cache = EngineCache(batch_size=batch_size, chaos=chaos)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            for message in process_task(task, cache, chaos,
                                        allow_crash=chaos.active):
                results.send(message)
            results.send(("task_done", worker_id, task.task_id))
    finally:
        cache.close()
