"""Deadline-aware micro-batch scheduling policy.

The serving trade-off: every queued request gets *cheaper* to run the
longer it waits (more same-model work to coalesce into one stacked
forward) and *later* the longer it waits.  The scheduler resolves it
with a per-request deadline: a model's queue becomes *due* the moment
its oldest deadline arrives — flushing a partial batch rather than
blowing the latency budget — or as soon as a full batch's worth of
work is queued, whichever comes first.

:class:`MicroBatchScheduler` is deliberately just the policy and the
queues: it never reads the clock (callers pass ``now``), never runs a
model, and never sleeps.  That makes every decision deterministic and
directly unit-testable with a simulated clock; the background thread,
the executor handoff and the model registry all live in
:mod:`repro.serve.server`.

It also tracks which models have a flush in flight.  A model runs one
flush at a time: a busy model is never reported due, so its queue
simply waits (or sheds at the admission-control bound) until its
flush completes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Hashable, List, Optional, Set, Tuple

__all__ = ["QueuedRequest", "MicroBatchScheduler"]


@dataclass
class QueuedRequest:
    """One admitted request waiting to be coalesced into a batch.

    ``extra_futures`` carries identical in-flight requests that were
    deduplicated onto this one (the server's thundering-herd guard) as
    ``(future, enqueued_at, request_id)`` triples: they resolve with
    the same result, but only this request occupies queue depth and
    batch space, and each rider's latency is measured from its *own*
    arrival time, not the primary's.

    ``request_id`` is the correlation id threaded through structured
    logs and (when the request came over HTTP) the ``X-Request-Id``
    header; the server assigns one when the caller didn't.
    """

    image: Any
    cache_key: str
    future: Any
    enqueued_at: float
    deadline: float
    model_key: Hashable = None
    extra_futures: List[Any] = field(default_factory=list)
    request_id: Optional[str] = None


class MicroBatchScheduler:
    """Per-model request queues with deadline/full-batch due policy.

    Parameters
    ----------
    max_batch:
        Queue length at which a model becomes due immediately (a full
        micro-batch is waiting; there is nothing to gain by waiting
        longer).

    All methods are thread-safe; ``now`` is always an explicit caller
    argument so tests can drive a simulated clock.
    """

    def __init__(self, max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._lock = threading.Lock()
        # Insertion-ordered so round-robin across models is stable.
        self._queues: "OrderedDict[Hashable, Deque[QueuedRequest]]" = (
            OrderedDict()
        )
        # Models with a flush in flight (at most one each).
        self._busy: Set[Hashable] = set()
        # Running total of queued requests, maintained by enqueue/take/
        # drain_queued: admission control consults it on every submit,
        # so it must stay O(1) however many models the zoo holds.
        self._depth = 0

    # -- enqueue / inspect -------------------------------------------------

    def enqueue(
        self, request: QueuedRequest, max_depth: Optional[int] = None
    ) -> int:
        """Queue ``request`` under its model key; returns the new depth.

        With ``max_depth``, admission control happens atomically under
        the queue lock: if the total queued depth is already at the
        bound the request is refused and ``-1`` is returned — two
        racing submitters can never both squeeze past the bound.
        """
        with self._lock:
            if max_depth is not None and self._depth >= max_depth:
                return -1
            queue = self._queues.get(request.model_key)
            if queue is None:
                queue = self._queues[request.model_key] = deque()
            queue.append(request)
            self._depth += 1
            return self._depth

    def depth(self) -> int:
        """Total queued (not yet taken) requests across all models."""
        with self._lock:
            return self._depth

    def audit_depth(self) -> int:
        """The depth counter, asserted against a full queue scan.

        The O(1) counter is what admission control trusts; this is the
        O(#models) ground truth kept for tests and debugging — a drift
        between the two is a bookkeeping bug, so it raises rather than
        answering wrong.
        """
        with self._lock:
            scanned = sum(len(q) for q in self._queues.values())
            if scanned != self._depth:
                raise AssertionError(
                    f"depth counter {self._depth} != scanned queue total "
                    f"{scanned}"
                )
            return self._depth

    def pending(self, model_key: Hashable) -> int:
        with self._lock:
            queue = self._queues.get(model_key)
            return len(queue) if queue else 0

    def inflight(self, model_key: Hashable = None) -> int:
        """In-flight flushes for one model (0 or 1), or all models."""
        with self._lock:
            if model_key is not None:
                return int(model_key in self._busy)
            return len(self._busy)

    # -- due policy --------------------------------------------------------

    def _due(self, queue: Deque[QueuedRequest], now: float) -> bool:
        return len(queue) >= self.max_batch or queue[0].deadline <= now

    def due_keys(self, now: float, force: bool = False) -> List[Hashable]:
        """Model keys that should flush at ``now`` (busy models skipped).

        ``force`` treats every non-empty queue as due — the drain /
        shutdown path, where latency budgets no longer matter.
        """
        with self._lock:
            due = []
            for key, queue in self._queues.items():
                if not queue or key in self._busy:
                    continue
                if force or self._due(queue, now):
                    due.append(key)
            return due

    def next_due(self, now: float) -> Optional[float]:
        """Seconds until the earliest queue becomes due (0 if one is).

        ``None`` when nothing eligible is queued — busy models don't
        count; their flush completion wakes the server loop anyway.
        """
        soonest: Optional[float] = None
        with self._lock:
            for key, queue in self._queues.items():
                if not queue or key in self._busy:
                    continue
                wait = (
                    0.0
                    if len(queue) >= self.max_batch
                    else max(0.0, queue[0].deadline - now)
                )
                if soonest is None or wait < soonest:
                    soonest = wait
        return soonest

    # -- flush lifecycle ---------------------------------------------------

    def take(
        self, model_key: Hashable, now: float
    ) -> Tuple[List[QueuedRequest], str]:
        """Pop every queued request for ``model_key`` and mark it in-flight.

        Returns ``(requests, reason)`` where ``reason`` is ``"full"``
        (a complete micro-batch was waiting), ``"deadline"`` (the
        oldest request's deadline forced a partial batch) or
        ``"drain"`` (taken before it was due).  The caller **must**
        pair a non-empty take with :meth:`release`.
        """
        with self._lock:
            queue = self._queues.get(model_key)
            if not queue:
                return [], "drain"
            # Re-check under the lock: due_keys() and take() are not
            # atomic, so two racing pollers could otherwise both start
            # a flush of the same model.
            if model_key in self._busy:
                return [], "drain"
            if len(queue) >= self.max_batch:
                reason = "full"
            elif queue[0].deadline <= now:
                reason = "deadline"
            else:
                reason = "drain"
            taken = list(queue)
            queue.clear()
            self._depth -= len(taken)
            self._busy.add(model_key)
            return taken, reason

    def release(self, model_key: Hashable) -> None:
        """Mark the in-flight flush of ``model_key`` finished."""
        with self._lock:
            self._busy.discard(model_key)

    def drain_queued(self) -> List[QueuedRequest]:
        """Pop and return every queued (not in-flight) request.

        The shutdown shedding path: a server past its drain deadline
        empties the queues in one atomic sweep and resolves each
        request with a typed refusal, so no future is ever stranded
        behind a stop flag.  In-flight flushes are untouched — they
        settle their own futures on completion.
        """
        with self._lock:
            taken: List[QueuedRequest] = []
            for queue in self._queues.values():
                taken.extend(queue)
                queue.clear()
            self._depth -= len(taken)
            return taken

    def idle(self) -> bool:
        """True when nothing is queued and nothing is in flight."""
        with self._lock:
            if self._busy:
                return False
            return not any(self._queues.values())
