"""Micro-batch scheduler policy under a simulated clock.

Every decision is a pure function of (queues, now), so these tests
drive the clock explicitly — no sleeps, no racy timing assumptions.
"""

import pytest

from repro.serve import MicroBatchScheduler, QueuedRequest

KEY_A = ("srresnet", "scales", 2)
KEY_B = ("edsr", "e2fif", 2)


def _req(key, now, budget=1.0):
    return QueuedRequest(
        image=None,
        cache_key="",
        future=None,
        enqueued_at=now,
        deadline=now + budget,
        model_key=key,
    )


class TestQueueing:
    def test_depth_and_pending(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.depth() == 0
        sched.enqueue(_req(KEY_A, 0.0))
        sched.enqueue(_req(KEY_A, 0.0))
        sched.enqueue(_req(KEY_B, 0.0))
        assert sched.depth() == 3
        assert sched.pending(KEY_A) == 2
        assert sched.pending(KEY_B) == 1

    def test_max_depth_refusal_is_atomic_with_enqueue(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.enqueue(_req(KEY_A, 0.0), max_depth=2) == 1
        assert sched.enqueue(_req(KEY_A, 0.0), max_depth=2) == 2
        assert sched.enqueue(_req(KEY_A, 0.0), max_depth=2) == -1
        assert sched.depth() == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch=0)


class TestDuePolicy:
    def test_not_due_before_deadline(self):
        sched = MicroBatchScheduler(max_batch=4)
        sched.enqueue(_req(KEY_A, now=10.0, budget=0.5))
        assert sched.due_keys(now=10.4) == []
        assert sched.due_keys(now=10.5) == [KEY_A]

    def test_full_batch_is_due_immediately(self):
        sched = MicroBatchScheduler(max_batch=2)
        sched.enqueue(_req(KEY_A, now=0.0, budget=100.0))
        assert sched.due_keys(now=0.0) == []
        sched.enqueue(_req(KEY_A, now=0.0, budget=100.0))
        assert sched.due_keys(now=0.0) == [KEY_A]

    def test_force_makes_everything_due(self):
        sched = MicroBatchScheduler(max_batch=8)
        sched.enqueue(_req(KEY_A, now=0.0, budget=100.0))
        sched.enqueue(_req(KEY_B, now=0.0, budget=100.0))
        assert sched.due_keys(now=0.0) == []
        assert set(sched.due_keys(now=0.0, force=True)) == {KEY_A, KEY_B}

    def test_next_due_tracks_earliest_deadline(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.next_due(now=0.0) is None
        sched.enqueue(_req(KEY_A, now=0.0, budget=0.8))
        sched.enqueue(_req(KEY_B, now=0.0, budget=0.3))
        assert sched.next_due(now=0.0) == pytest.approx(0.3)
        assert sched.next_due(now=0.2) == pytest.approx(0.1)
        assert sched.next_due(now=0.5) == 0.0  # KEY_B already overdue
        assert sched.next_due(now=2.0) == 0.0

    def test_next_due_zero_for_full_batch(self):
        sched = MicroBatchScheduler(max_batch=1)
        sched.enqueue(_req(KEY_A, now=0.0, budget=100.0))
        assert sched.next_due(now=0.0) == 0.0


class TestFlushLifecycle:
    def test_take_reports_reason(self):
        sched = MicroBatchScheduler(max_batch=2)
        sched.enqueue(_req(KEY_A, now=0.0, budget=0.5))
        taken, reason = sched.take(KEY_A, now=1.0)
        assert len(taken) == 1
        assert reason == "deadline"
        sched.release(KEY_A)
        sched.enqueue(_req(KEY_A, now=2.0, budget=9.0))
        sched.enqueue(_req(KEY_A, now=2.0, budget=9.0))
        taken, reason = sched.take(KEY_A, now=2.0)
        assert len(taken) == 2
        assert reason == "full"
        sched.release(KEY_A)
        sched.enqueue(_req(KEY_A, now=3.0, budget=9.0))
        taken, reason = sched.take(KEY_A, now=3.0)
        assert reason == "drain"

    def test_take_coalesces_everything_queued(self):
        sched = MicroBatchScheduler(max_batch=2)
        for _ in range(5):
            sched.enqueue(_req(KEY_A, now=0.0))
        taken, _ = sched.take(KEY_A, now=0.0)
        assert len(taken) == 5
        assert sched.pending(KEY_A) == 0

    def test_take_rechecks_cap_under_its_own_lock(self):
        # due_keys() and take() are not atomic: a second poller whose
        # due_keys snapshot predates another take() must not start a
        # second flush of a busy model.
        sched = MicroBatchScheduler(max_batch=1)
        sched.enqueue(_req(KEY_A, now=0.0))
        taken, _ = sched.take(KEY_A, now=0.0)
        assert len(taken) == 1
        sched.enqueue(_req(KEY_A, now=0.0))  # arrives while in flight
        stolen, reason = sched.take(KEY_A, now=99.0)
        assert stolen == []
        assert sched.inflight(KEY_A) == 1
        assert sched.pending(KEY_A) == 1
        sched.release(KEY_A)
        taken, _ = sched.take(KEY_A, now=99.0)
        assert len(taken) == 1

    def test_empty_take_does_not_go_inflight(self):
        sched = MicroBatchScheduler(max_batch=2)
        taken, _ = sched.take(KEY_A, now=0.0)
        assert taken == []
        assert sched.inflight(KEY_A) == 0

    def test_inflight_cap_suppresses_due(self):
        sched = MicroBatchScheduler(max_batch=1)
        sched.enqueue(_req(KEY_A, now=0.0))
        assert sched.due_keys(now=0.0) == [KEY_A]
        sched.take(KEY_A, now=0.0)
        assert sched.inflight(KEY_A) == 1
        # More work arrives while the flush runs: not due, not counted
        # toward next_due, until release().
        sched.enqueue(_req(KEY_A, now=0.0, budget=0.0))
        assert sched.due_keys(now=5.0) == []
        assert sched.next_due(now=5.0) is None
        sched.release(KEY_A)
        assert sched.due_keys(now=5.0) == [KEY_A]

    def test_drain_queued_pops_queued_but_not_inflight(self):
        sched = MicroBatchScheduler(max_batch=1)
        sched.enqueue(_req(KEY_A, now=0.0))
        taken, _ = sched.take(KEY_A, now=0.0)  # now in flight
        queued = [_req(KEY_A, now=0.0), _req(KEY_B, now=0.0)]
        for req in queued:
            sched.enqueue(req)
        drained = sched.drain_queued()
        assert sorted(id(r) for r in drained) == sorted(id(r) for r in queued)
        assert sched.depth() == 0
        assert sched.inflight(KEY_A) == 1  # untouched by the sweep
        assert sched.drain_queued() == []

    def test_release_bookkeeping(self):
        sched = MicroBatchScheduler(max_batch=1)
        for key in (KEY_A, KEY_B):
            sched.enqueue(_req(key, now=0.0))
            sched.take(key, now=0.0)
        assert sched.inflight(KEY_A) == sched.inflight(KEY_B) == 1
        assert sched.inflight() == 2
        sched.release(KEY_A)
        assert sched.inflight(KEY_A) == 0
        assert sched.inflight() == 1
        sched.release(KEY_B)
        assert sched.inflight() == 0

    def test_idle(self):
        sched = MicroBatchScheduler(max_batch=2)
        assert sched.idle()
        sched.enqueue(_req(KEY_A, now=0.0))
        assert not sched.idle()
        sched.take(KEY_A, now=0.0)
        assert not sched.idle()  # in flight
        sched.release(KEY_A)
        assert sched.idle()


class TestForceDrainEdgeCases:
    """due_keys(force=True) drain-path edges under the simulated clock.

    The drain/shutdown path treats every non-empty queue as due, but
    it must still skip queues with nothing in them (a model whose
    requests were all taken keeps an empty deque registered) and must
    still skip a model whose flush is in flight — forcing latency
    does not license a second concurrent flush.
    """

    def test_force_with_no_queues_at_all(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.due_keys(now=0.0, force=True) == []

    def test_force_skips_emptied_queues(self):
        sched = MicroBatchScheduler(max_batch=4)
        sched.enqueue(_req(KEY_A, now=0.0))
        sched.enqueue(_req(KEY_B, now=0.0))
        taken, _ = sched.take(KEY_A, now=0.0)
        assert len(taken) == 1
        sched.release(KEY_A)
        # KEY_A's deque still exists but is empty: force must not
        # resurrect it as due.
        assert sched.due_keys(now=0.0, force=True) == [KEY_B]

    def test_force_respects_inflight_cap(self):
        sched = MicroBatchScheduler(max_batch=1)
        sched.enqueue(_req(KEY_A, now=0.0))
        sched.take(KEY_A, now=0.0)  # model now busy
        sched.enqueue(_req(KEY_A, now=0.0, budget=0.0))
        # Force is about latency, not concurrency: the busy model
        # stays suppressed until the in-flight flush releases.
        assert sched.due_keys(now=100.0, force=True) == []
        sched.release(KEY_A)
        assert sched.due_keys(now=100.0, force=True) == [KEY_A]

    def test_force_with_every_model_inflight(self):
        sched = MicroBatchScheduler(max_batch=1)
        for key in (KEY_A, KEY_B):
            sched.enqueue(_req(key, now=0.0))
            sched.take(key, now=0.0)
            sched.enqueue(_req(key, now=0.0))
        assert sched.due_keys(now=50.0, force=True) == []
        assert sched.next_due(now=50.0) is None
        sched.release(KEY_B)
        assert sched.due_keys(now=50.0, force=True) == [KEY_B]

    def test_deadline_expiring_exactly_at_now_is_due(self):
        # The boundary is inclusive: deadline <= now means due, with
        # or without force — a request whose budget just reached zero
        # flushes on this poll, not the next one.
        sched = MicroBatchScheduler(max_batch=4)
        sched.enqueue(_req(KEY_A, now=10.0, budget=0.5))
        assert sched.due_keys(now=10.5 - 1e-9) == []
        assert sched.due_keys(now=10.5) == [KEY_A]
        assert sched.due_keys(now=10.5, force=True) == [KEY_A]
        assert sched.next_due(now=10.5) == 0.0

    def test_force_then_take_reports_drain_reason(self):
        sched = MicroBatchScheduler(max_batch=4)
        sched.enqueue(_req(KEY_A, now=0.0, budget=100.0))
        assert sched.due_keys(now=0.0) == []
        assert sched.due_keys(now=0.0, force=True) == [KEY_A]
        taken, reason = sched.take(KEY_A, now=0.0)
        assert len(taken) == 1
        assert reason == "drain"


class TestDepthCounter:
    """The O(1) depth counter vs the O(#models) scan it replaced.

    ``audit_depth()`` *raises* on drift, so asserting it after every
    mutation proves the counter tracks the queues exactly through
    enqueue / refusal / take / drain cycles.
    """

    def test_counter_tracks_queues_through_mixed_operations(self):
        sched = MicroBatchScheduler(max_batch=3)
        assert sched.audit_depth() == 0
        for _ in range(5):
            sched.enqueue(_req(KEY_A, 0.0))
            sched.audit_depth()
        for _ in range(4):
            sched.enqueue(_req(KEY_B, 0.0))
        assert sched.audit_depth() == 9
        taken, _ = sched.take(KEY_A, now=10.0)
        assert len(taken) == 5
        assert sched.audit_depth() == 4
        sched.release(KEY_A)
        sched.enqueue(_req(KEY_A, 1.0), max_depth=5)
        assert sched.audit_depth() == 5
        # A refusal at the bound must not drift the counter.
        assert sched.enqueue(_req(KEY_A, 1.0), max_depth=5) == -1
        assert sched.audit_depth() == 5
        assert len(sched.drain_queued()) == 5
        assert sched.audit_depth() == 0

    def test_counter_consistent_under_concurrent_mutation(self):
        import threading

        sched = MicroBatchScheduler(max_batch=4)
        keys = [KEY_A, KEY_B]

        def churn(key):
            for i in range(200):
                sched.enqueue(_req(key, float(i)), max_depth=64)
                if i % 3 == 0:
                    sched.take(key, now=1e9)
                    sched.release(key)

        threads = [threading.Thread(target=churn, args=(k,)) for k in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sched.audit_depth() == sched.depth()
        sched.drain_queued()
        assert sched.audit_depth() == 0

    def test_audit_raises_on_drift(self):
        sched = MicroBatchScheduler(max_batch=3)
        sched.enqueue(_req(KEY_A, 0.0))
        sched._depth = 5  # simulate a bookkeeping bug
        with pytest.raises(AssertionError, match="depth counter"):
            sched.audit_depth()
