"""Work-conserving micro-batch scheduling policy.

A model's queue is *due* whenever it holds work and the model has no
flush in flight.  A flush takes everything queued, so requests that
arrive while a model runs form its next batch: batching happens under
load, and an idle model never makes a request wait for batch-mates.

:class:`MicroBatchScheduler` is deliberately just the policy and the
queues: it never reads the clock, never runs a model, and never
sleeps.  That makes every decision deterministic and directly
unit-testable; the dispatch, the executor handoff and the model
registry all live in :mod:`repro.serve.server`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Hashable, List, Optional, Sequence, Set, Tuple

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
    model_key: Hashable = None
    extra_futures: List[Any] = field(default_factory=list)
    request_id: Optional[str] = None


class MicroBatchScheduler:
    """Per-model request queues, due whenever their model is idle.

    Parameters
    ----------
    max_batch:
        Queue length at which a flush counts as ``"full"`` rather than
        ``"idle"`` (it only labels the flush; either way the flush
        takes everything queued).

    All methods are thread-safe.
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
        self,
        requests: Sequence[QueuedRequest],
        max_depth: Optional[int] = None,
    ) -> int:
        """Queue ``requests`` in order under their model keys, in one
        hold of the queue lock; returns how many were admitted.

        With ``max_depth``, admission control happens atomically under
        the lock: requests are admitted while the total queued depth is
        below the bound, so the admitted ones are a prefix of
        ``requests`` and two racing submitters can never both squeeze
        past the bound.  No flush can take part of the call's requests
        before the rest are queued.
        """
        with self._lock:
            room = len(requests)
            if max_depth is not None:
                room = max(0, min(room, max_depth - self._depth))
            for request in requests[:room]:
                self._queues.setdefault(request.model_key, deque()).append(
                    request
                )
            self._depth += room
            return room

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

    def due_keys(self) -> List[Hashable]:
        """Model keys with queued work and no flush in flight."""
        with self._lock:
            return [
                key
                for key, queue in self._queues.items()
                if queue and key not in self._busy
            ]

    # -- flush lifecycle ---------------------------------------------------

    def take(
        self, model_key: Hashable
    ) -> Tuple[List[QueuedRequest], Optional[str]]:
        """Pop every queued request for ``model_key`` and mark it in-flight.

        Returns ``(requests, reason)`` where ``reason`` is ``"full"``
        (at least ``max_batch`` were queued) or ``"idle"`` (fewer: the
        model was idle, so its queue ran without waiting for
        batch-mates).  Nothing is taken, and ``reason`` is ``None``,
        when the queue is empty or the model already has a flush in
        flight.  The caller **must** pair a non-empty take with
        :meth:`release`.
        """
        with self._lock:
            queue = self._queues.get(model_key)
            # Re-check under the lock: due_keys() and take() are not
            # atomic, so two racing pollers could otherwise both start
            # a flush of the same model.
            if not queue or model_key in self._busy:
                return [], None
            reason = "full" if len(queue) >= self.max_batch else "idle"
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
