"""The coordinator: plan → lease → collect → retry → complete.

:class:`JobRunner` owns the journal (single writer) and drives the
item lifecycle.  ``plan()`` replays any existing journal against the
manifest and decides, per item, whether it is *skipped* (a ``done``
record whose output file still matches its recorded hash, or a
quarantined item), *invalidated* (a ``done`` record whose output is
missing or altered — redone), or *runnable*.  ``run()`` then executes
the runnable set, either inline (``workers=0`` — sequential, in
process, deterministic) or across a ``multiprocessing`` spawn pool,
journaling every transition before or immediately after it happens:

* ``leased`` is written *before* a task is handed to a worker, so a
  worker death can never make work invisible;
* ``done`` is written only after the worker reports the output
  renamed into place and hashed — the commit point;
* ``failed`` / ``quarantined`` are written as the retry policy decides.

Worker deaths are detected by liveness polling: a dead worker's
unreported items are re-leased to a fresh worker at the *same* attempt
number (a crash is not the item's fault — only journaled ``failed``
records burn retry budget).
"""

from __future__ import annotations

import collections
import heapq
import multiprocessing
import multiprocessing.connection
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..serve.metrics import MetricsRegistry
from .chaos import ChaosConfig
from .journal import JobsError, Journal, replay_journal
from .manifest import JobItem, Manifest, sha256_file
from .worker import EngineCache, WorkerTask, process_task, worker_main

__all__ = ["JobRunner", "RunReport"]

#: Result-queue poll / liveness-check interval (seconds).
_POLL_S = 0.1


@dataclass
class RunReport:
    """What a ``JobRunner.run`` accomplished."""

    total: int = 0
    done: int = 0
    #: completed in a previous run and skipped by output-hash check
    skipped: int = 0
    quarantined: int = 0
    #: ``done`` records whose outputs had rotted and were redone
    invalidated: int = 0
    #: journaled transient failures (retries) during this run
    failures: int = 0
    #: leases lost to worker deaths and re-dispatched
    lost_leases: int = 0
    resumed: bool = False
    wall_s: float = 0.0

    @property
    def complete(self) -> bool:
        return self.done + self.skipped + self.quarantined == self.total


@dataclass
class _Tracked:
    """Coordinator-side state of one runnable item."""

    item: JobItem
    #: next attempt number == journaled ``failed`` records so far
    attempt: int = 0
    #: lease ordinal (journaled ``leased`` records, across all runs) —
    #: the chaos crash key, so a resumed run continues the same
    #: deterministic draw sequence
    lease: int = 0
    #: ready | waiting (backoff) | leased | done | quarantined
    status: str = "ready"


class JobRunner:
    """Run a manifest crash-safely; resume is the default.

    ``journal_path`` defaults to ``<output_dir>/journal.jsonl``; if the
    file exists and was written for the same manifest bytes, the run
    resumes.  ``fresh=True`` discards it.  ``fsync=False`` trades
    durability for test speed.
    """

    def __init__(self, manifest: Manifest,
                 journal_path=None,
                 chaos: Optional[ChaosConfig] = None,
                 fsync: bool = True) -> None:
        self.manifest = manifest
        self.journal_path = (Path(journal_path) if journal_path is not None
                             else manifest.output_dir / "journal.jsonl")
        self.chaos = chaos if chaos is not None else ChaosConfig()
        self.fsync = fsync
        #: The runner's scrape surface (same registry type the serving
        #: layer publishes into); counters track every item outcome the
        #: :class:`RunReport` tallies, over this runner's lifetime.
        self.metrics = MetricsRegistry()
        self._m_items = self.metrics.counter(
            "repro_jobs_items_total",
            "Item outcomes observed by this runner "
            "(done/skipped/failed/quarantined/invalidated).",
            ("outcome",))
        self._m_lost_leases = self.metrics.counter(
            "repro_jobs_lost_leases_total",
            "Leases lost to worker deaths and re-dispatched.")
        self._m_item_seconds = self.metrics.histogram(
            "repro_jobs_item_seconds",
            "Per-item processing time as reported by workers.")

    # -- planning ----------------------------------------------------------

    def plan(self, fresh: bool = False
             ) -> Tuple[List[_Tracked], RunReport, List[Dict]]:
        """Replay the journal; split items into runnable vs settled.

        Returns ``(runnable, report, records)`` where ``records`` are
        the journal entries the plan itself produced (``pending`` for
        new items, ``invalidated`` for rotted outputs) — appended by
        ``run()`` right after its ``run`` header.
        """
        items = self.manifest.items()
        report = RunReport(total=len(items))
        if fresh and self.journal_path.exists():
            self.journal_path.unlink()
        prior_items: Dict[str, object] = {}
        if self.journal_path.exists() \
                and self.journal_path.stat().st_size > 0:
            state = replay_journal(self.journal_path)
            if state.runs:
                if state.manifest_sha \
                        and state.manifest_sha != self.manifest.manifest_sha:
                    raise JobsError(
                        f"journal {self.journal_path} was written by a "
                        "different manifest (sha mismatch); pass fresh=True "
                        "(--fresh) to discard it or use a new journal path")
                report.resumed = True
                prior_items = state.items

        runnable: List[_Tracked] = []
        records: List[Dict] = []
        for item in items:
            prior = prior_items.get(item.item_id)
            if prior is None:
                records.append({
                    "event": "pending", "item": item.item_id,
                    "model": item.model, "shard": item.shard,
                    "input": item.input, "output": item.output,
                    "input_sha": item.input_sha})
                runnable.append(_Tracked(item))
                continue
            if prior.status == "quarantined":
                report.quarantined += 1
                self._m_items.labels(outcome="quarantined").inc()
                continue
            if prior.status == "done":
                output = Path(item.output)
                if output.is_file() \
                        and sha256_file(output) == prior.output_sha:
                    report.skipped += 1
                    self._m_items.labels(outcome="skipped").inc()
                    continue
                reason = ("output missing" if not output.is_file()
                          else "output hash mismatch")
                records.append({"event": "invalidated",
                                "item": item.item_id, "reason": reason})
                report.invalidated += 1
                self._m_items.labels(outcome="invalidated").inc()
                runnable.append(_Tracked(item, attempt=prior.failures,
                                         lease=prior.leases))
                continue
            # pending / leased / failed: runnable, resuming the attempt
            # count at the journaled failure count (interrupted leases
            # do not burn retry budget).
            runnable.append(_Tracked(item, attempt=prior.failures,
                                     lease=prior.leases))
        return runnable, report, records

    # -- execution ---------------------------------------------------------

    def run(self, workers: Optional[int] = None,
            fresh: bool = False) -> RunReport:
        """Execute the manifest to completion (or quarantine) and
        return a :class:`RunReport`.  Safe to call again after any
        interruption — that *is* the resume path."""
        started = time.monotonic()
        n_workers = self.manifest.workers if workers is None else workers
        runnable, report, plan_records = self.plan(fresh=fresh)
        tracked = {t.item.item_id: t for t in runnable}

        with Journal(self.journal_path, fsync=self.fsync) as journal:
            journal.append({
                "event": "run",
                "manifest_sha": self.manifest.manifest_sha,
                "n_items": report.total,
                "n_skipped": report.skipped + report.quarantined,
                "resume": report.resumed,
                "workers": n_workers,
                "chaos": self.chaos.to_dict() if self.chaos.active else None})
            if plan_records:
                journal.append_many(plan_records)
            if runnable:
                if n_workers == 0:
                    self._run_inline(runnable, tracked, journal, report)
                else:
                    self._run_pool(runnable, tracked, journal, report,
                                   n_workers)
            if report.complete:
                journal.append({"event": "run_complete",
                                "done": report.done + report.skipped,
                                "quarantined": report.quarantined})
        report.wall_s = time.monotonic() - started
        return report

    # -- shared bookkeeping ------------------------------------------------

    def _initial_tasks(self, runnable: List[_Tracked]
                       ) -> "collections.deque":
        """Group ready items into per-model shards of ``shard_size``."""
        by_model: Dict[str, List[_Tracked]] = {}
        for t in runnable:
            by_model.setdefault(t.item.model, []).append(t)
        size = self.manifest.shard_size
        ready = collections.deque()
        for model in sorted(by_model):
            group = by_model[model]
            for i in range(0, len(group), size):
                ready.append(group[i:i + size])
        return ready

    def _lease_records(self, batch: List[_Tracked], worker: int
                       ) -> List[Dict]:
        for t in batch:
            t.status = "leased"
            t.lease += 1
        return [{"event": "leased", "item": t.item.item_id,
                 "worker": worker, "attempt": t.attempt,
                 "lease": t.lease} for t in batch]

    def _make_task(self, task_id: int, batch: List[_Tracked]) -> WorkerTask:
        return WorkerTask(task_id=task_id,
                          items=tuple(t.item for t in batch),
                          attempts=tuple(t.attempt for t in batch),
                          leases=tuple(t.lease for t in batch))

    def _handle_done(self, t: _Tracked, output_sha: str, seconds: float,
                     attempt: int, journal: Journal,
                     report: RunReport) -> None:
        t.status = "done"
        journal.append({"event": "done", "item": t.item.item_id,
                        "output_sha": output_sha, "seconds": seconds,
                        "attempt": attempt})
        report.done += 1
        self._m_items.labels(outcome="done").inc()
        self._m_item_seconds.observe(seconds)
        self.chaos.maybe_kill_run(report.done)

    def _handle_fail(self, t: _Tracked, attempt: int, error: str,
                     fatal: bool, journal: Journal, report: RunReport,
                     retry_heap: List, seq: List[int]) -> None:
        policy = self.manifest.retry
        if fatal or policy.exhausted(attempt):
            t.status = "quarantined"
            journal.append({"event": "quarantined", "item": t.item.item_id,
                            "attempts": attempt + 1, "error": error})
            report.quarantined += 1
            self._m_items.labels(outcome="quarantined").inc()
            return
        delay = policy.delay_s(t.item.item_id, attempt)
        t.status = "waiting"
        t.attempt = attempt + 1
        journal.append({"event": "failed", "item": t.item.item_id,
                        "attempt": attempt, "error": error,
                        "retry_in_s": round(delay, 6)})
        report.failures += 1
        self._m_items.labels(outcome="failed").inc()
        seq[0] += 1
        heapq.heappush(retry_heap,
                       (time.monotonic() + delay, seq[0], t.item.item_id))

    @staticmethod
    def _settled(tracked: Dict[str, _Tracked]) -> bool:
        return all(t.status in ("done", "quarantined")
                   for t in tracked.values())

    # -- inline mode -------------------------------------------------------

    def _run_inline(self, runnable, tracked, journal, report) -> None:
        """Sequential execution in this process: no pool, no chaos
        crashes, fully deterministic — the reference run."""
        ready = self._initial_tasks(runnable)
        retry_heap: List = []
        seq = [0]
        cache = EngineCache(batch_size=self.manifest.batch_size,
                            chaos=self.chaos)
        task_id = 0
        try:
            while not self._settled(tracked):
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, item_id = heapq.heappop(retry_heap)
                    t = tracked[item_id]
                    t.status = "ready"
                    ready.append([t])
                if not ready:
                    if retry_heap:
                        time.sleep(
                            max(0.0, retry_heap[0][0] - time.monotonic()))
                        continue
                    break  # pragma: no cover - defensive
                batch = ready.popleft()
                journal.append_many(self._lease_records(batch, worker=-1))
                task = self._make_task(task_id, batch)
                task_id += 1
                for message in process_task(task, cache, self.chaos):
                    self._dispatch_message(message, tracked, journal,
                                           report, retry_heap, seq)
        finally:
            cache.close()

    def _dispatch_message(self, message, tracked, journal, report,
                          retry_heap, seq) -> bool:
        """Apply one worker message; returns True if it was an item
        message (False for task markers)."""
        kind = message[0]
        if kind == "done":
            _, item_id, output_sha, seconds, attempt = message
            self._handle_done(tracked[item_id], output_sha, seconds,
                              attempt, journal, report)
            return True
        if kind == "fail":
            _, item_id, attempt, error, fatal = message
            self._handle_fail(tracked[item_id], attempt, error, fatal,
                              journal, report, retry_heap, seq)
            return True
        return False

    # -- pool mode ---------------------------------------------------------

    def _run_pool(self, runnable, tracked, journal, report,
                  n_workers: int) -> None:
        ctx = multiprocessing.get_context("spawn")
        ready = self._initial_tasks(runnable)
        retry_heap: List = []
        seq = [0]
        task_id = [0]
        n_workers = max(1, min(n_workers, max(1, len(ready))))

        workers: Dict[int, Dict] = {}

        def spawn(worker_id: int) -> None:
            task_queue = ctx.Queue()
            # One result pipe per worker, written synchronously: a worker
            # that dies mid-message (chaos crash, SIGKILL, OOM) can only
            # break its own pipe.  A shared queue would keep its write
            # lock held by the dead worker and wedge every other one.
            results, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=worker_main,
                args=(worker_id, task_queue, sender, self.chaos,
                      self.manifest.batch_size),
                daemon=True)
            proc.start()
            sender.close()  # the worker's end is the last: EOF on death
            workers[worker_id] = {"proc": proc, "queue": task_queue,
                                  "results": results, "task": None}

        def drain(state: Dict) -> bool:
            """Apply every message waiting on a worker's result pipe;
            True when one of them was item progress."""
            progress = False
            try:
                while state["results"].poll():
                    message = state["results"].recv()
                    if message[0] == "task_done":
                        state["task"] = None
                    else:
                        self._dispatch_message(message, tracked, journal,
                                               report, retry_heap, seq)
                        progress = True
            except (EOFError, OSError):
                # Closed, perhaps mid-message: the worker is exiting,
                # and the liveness check re-leases the rest of its task.
                state["proc"].join(timeout=1.0)
            return progress

        for worker_id in range(n_workers):
            spawn(worker_id)
        next_worker_id = n_workers
        # Abort guard: worker deaths with zero item progress in between
        # (no done/failed message) are tolerated up to a bound — chaos
        # crashes land here legitimately, but a pool whose workers die
        # on arrival (broken environment, unimportable artifact) must
        # fail loudly instead of respawning forever.
        fruitless_deaths = 0
        max_fruitless = max(16, 4 * n_workers)

        try:
            while not self._settled(tracked):
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, item_id = heapq.heappop(retry_heap)
                    t = tracked[item_id]
                    if t.status == "waiting":
                        t.status = "ready"
                        ready.append([t])
                # dispatch to idle workers
                for state in workers.values():
                    if state["task"] is None and ready:
                        batch = ready.popleft()
                        worker_id = next(w for w, s in workers.items()
                                         if s is state)
                        journal.append_many(
                            self._lease_records(batch, worker=worker_id))
                        task = self._make_task(task_id[0], batch)
                        task_id[0] += 1
                        state["task"] = (task, batch)
                        state["queue"].put(task)
                # collect results
                pipes = {s["results"]: s for s in workers.values()}
                for pipe in multiprocessing.connection.wait(
                        list(pipes), timeout=_POLL_S):
                    if drain(pipes[pipe]):
                        fruitless_deaths = 0
                # liveness: re-lease work owned by dead workers
                for worker_id in list(workers):
                    state = workers[worker_id]
                    if state["proc"].is_alive():
                        continue
                    # What it sent before it died still counts.
                    if drain(state):
                        fruitless_deaths = 0
                    state["results"].close()
                    task_batch = state["task"]
                    workers.pop(worker_id)
                    fruitless_deaths += 1
                    if fruitless_deaths > max_fruitless:
                        raise JobsError(
                            f"{fruitless_deaths} consecutive worker "
                            "deaths with no item progress; aborting "
                            "(journal is intact — rerun to resume)")
                    if task_batch is not None:
                        _, batch = task_batch
                        lost = [t for t in batch
                                if t.status == "leased"]
                        if lost:
                            report.lost_leases += len(lost)
                            self._m_lost_leases.inc(len(lost))
                            for t in lost:
                                t.status = "ready"
                            ready.append(lost)
                    if not self._settled(tracked):
                        spawn(next_worker_id)
                        next_worker_id += 1
        finally:
            for state in workers.values():
                try:
                    state["queue"].put(None)
                except (ValueError, OSError):  # pragma: no cover
                    pass
            for state in workers.values():
                state["proc"].join(timeout=5.0)
                if state["proc"].is_alive():  # pragma: no cover
                    state["proc"].terminate()
                    state["proc"].join(timeout=1.0)
                state["results"].close()
