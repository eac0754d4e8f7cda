"""Micro-batch scheduler policy.

Every decision is a pure function of the queues and the in-flight
set, so these tests drive it directly — no clock, no sleeps.
"""

import pytest

from repro.serve import MicroBatchScheduler, QueuedRequest

from ..helpers import parse_table

KEY_A = ("srresnet", "scales", 2)
KEY_B = ("edsr", "e2fif", 2)


def _req(key, now=0.0):
    return QueuedRequest(
        image=None,
        cache_key="",
        future=None,
        enqueued_at=now,
        model_key=key,
    )


def _enqueue(sched, key, n=1):
    assert sched.enqueue([_req(key) for _ in range(n)]) == n


class TestQueueing:
    def test_depth_and_pending(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.depth() == 0
        _enqueue(sched, KEY_A, 2)
        _enqueue(sched, KEY_B)
        assert sched.depth() == 3
        assert sched.pending(KEY_A) == 2
        assert sched.pending(KEY_B) == 1

    def test_max_depth_refusal_is_atomic_with_enqueue(self):
        sched = MicroBatchScheduler(max_batch=4)
        assert sched.enqueue([_req(KEY_A)], max_depth=2) == 1
        assert sched.enqueue([_req(KEY_A)], max_depth=2) == 1
        assert sched.enqueue([_req(KEY_A)], max_depth=2) == 0
        assert sched.depth() == 2

    def test_enqueue_admits_a_prefix_up_to_the_bound(self):
        sched = MicroBatchScheduler(max_batch=4)
        _enqueue(sched, KEY_B)
        batch = [_req(KEY_A) for _ in range(4)]
        assert sched.enqueue(batch, max_depth=3) == 2
        assert sched.pending(KEY_A) == 2
        taken, _ = sched.take(KEY_A)
        assert [id(r) for r in taken] == [id(r) for r in batch[:2]]
        assert sched.audit_depth() == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MicroBatchScheduler(max_batch=0)


def _state_empty(sched):
    pass


def _state_one_queued(sched):
    _enqueue(sched, KEY_A)


def _state_full(sched):
    _enqueue(sched, KEY_A, sched.max_batch)


def _state_over_full(sched):
    _enqueue(sched, KEY_A, sched.max_batch + 1)


def _state_busy_with_work(sched):
    _enqueue(sched, KEY_A)
    sched.take(KEY_A)
    _enqueue(sched, KEY_A)  # arrives while the flush runs


def _state_busy_released(sched):
    _state_busy_with_work(sched)
    sched.release(KEY_A)


def _state_emptied_deque(sched):
    _enqueue(sched, KEY_A)
    sched.take(KEY_A)
    sched.release(KEY_A)  # KEY_A keeps an empty deque registered


def _state_two_models(sched):
    _enqueue(sched, KEY_A)
    _enqueue(sched, KEY_B, sched.max_batch)


def _state_two_models_one_busy(sched):
    _state_two_models(sched)
    sched.take(KEY_B)
    _enqueue(sched, KEY_B)


#: One row per queue state, built by the ``_state_*`` function of the
#: same name on a ``max_batch=2`` scheduler: the keys ``due_keys()``
#: reports (in order, ``-`` for none) and, per model, what ``take()``
#: then returns — ``N:reason``, or ``0:-`` when nothing is taken.
DISPATCH = """
  state               | due  | take_a  | take_b
  --------------------+------+---------+--------
  empty               | -    | 0:-     | 0:-
  one_queued          | A    | 1:idle  | 0:-
  full                | A    | 2:full  | 0:-
  over_full           | A    | 3:full  | 0:-
  busy_with_work      | -    | 0:-     | 0:-
  busy_released       | A    | 1:idle  | 0:-
  emptied_deque       | -    | 0:-     | 0:-
  two_models          | A B  | 1:idle  | 2:full
  two_models_one_busy | A    | 1:idle  | 0:-
"""

_KEYS = {"A": KEY_A, "B": KEY_B}


class TestDispatchTable:
    @pytest.mark.parametrize(
        "row", parse_table(DISPATCH), ids=lambda row: row["state"])
    def test_due_keys_and_take(self, row):
        sched = MicroBatchScheduler(max_batch=2)
        globals()[f"_state_{row['state']}"](sched)
        due = [_KEYS[k] for k in row["due"].split() if k != "-"]
        assert sched.due_keys() == due
        depth = sched.depth()
        for name, key in _KEYS.items():
            count, reason = row[f"take_{name.lower()}"].split(":")
            busy = sched.inflight(key)
            taken, got = sched.take(key)
            assert (len(taken), got) == (
                int(count), None if reason == "-" else reason)
            depth -= len(taken)
            # A take starts a flush; an empty one (or one refused to a
            # busy model) leaves the model as it was.
            assert sched.inflight(key) == (1 if taken else busy)
        assert sched.audit_depth() == depth
        # Nothing is due while every taken model is still in flight.
        assert not set(sched.due_keys()) & {
            _KEYS[k] for k in row["due"].split() if k != "-"}


class TestFlushLifecycle:
    def test_take_coalesces_everything_queued(self):
        sched = MicroBatchScheduler(max_batch=2)
        _enqueue(sched, KEY_A, 5)
        taken, reason = sched.take(KEY_A)
        assert (len(taken), reason) == (5, "full")
        assert sched.pending(KEY_A) == 0

    def test_take_rechecks_cap_under_its_own_lock(self):
        # due_keys() and take() are not atomic: a second poller whose
        # due_keys snapshot predates another take() must not start a
        # second flush of a busy model.
        sched = MicroBatchScheduler(max_batch=1)
        _enqueue(sched, KEY_A)
        assert sched.due_keys() == [KEY_A]
        taken, _ = sched.take(KEY_A)
        assert len(taken) == 1
        _enqueue(sched, KEY_A)  # arrives while in flight
        stolen, reason = sched.take(KEY_A)
        assert (stolen, reason) == ([], None)
        assert sched.inflight(KEY_A) == 1
        assert sched.pending(KEY_A) == 1
        sched.release(KEY_A)
        taken, _ = sched.take(KEY_A)
        assert len(taken) == 1

    def test_drain_queued_pops_queued_but_not_inflight(self):
        sched = MicroBatchScheduler(max_batch=1)
        _enqueue(sched, KEY_A)
        sched.take(KEY_A)  # now in flight
        queued = [_req(KEY_A), _req(KEY_B)]
        assert sched.enqueue(queued) == 2
        drained = sched.drain_queued()
        assert sorted(id(r) for r in drained) == sorted(id(r) for r in queued)
        assert sched.depth() == 0
        assert sched.inflight(KEY_A) == 1  # untouched by the sweep
        assert sched.drain_queued() == []

    def test_release_bookkeeping(self):
        sched = MicroBatchScheduler(max_batch=1)
        for key in (KEY_A, KEY_B):
            _enqueue(sched, key)
            sched.take(key)
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
        _enqueue(sched, KEY_A)
        assert not sched.idle()
        sched.take(KEY_A)
        assert not sched.idle()  # in flight
        sched.release(KEY_A)
        assert sched.idle()


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
            _enqueue(sched, KEY_A)
            sched.audit_depth()
        _enqueue(sched, KEY_B, 4)
        assert sched.audit_depth() == 9
        taken, _ = sched.take(KEY_A)
        assert len(taken) == 5
        assert sched.audit_depth() == 4
        sched.release(KEY_A)
        sched.enqueue([_req(KEY_A, 1.0)], max_depth=5)
        assert sched.audit_depth() == 5
        # A refusal at the bound must not drift the counter.
        assert sched.enqueue([_req(KEY_A, 1.0)], max_depth=5) == 0
        assert sched.audit_depth() == 5
        assert len(sched.drain_queued()) == 5
        assert sched.audit_depth() == 0

    def test_counter_consistent_under_concurrent_mutation(self):
        import threading

        sched = MicroBatchScheduler(max_batch=4)
        keys = [KEY_A, KEY_B]

        def churn(key):
            for i in range(200):
                sched.enqueue([_req(key, float(i))], max_depth=64)
                if i % 3 == 0:
                    sched.take(key)
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
        _enqueue(sched, KEY_A)
        sched._depth = 5  # simulate a bookkeeping bug
        with pytest.raises(AssertionError, match="depth counter"):
            sched.audit_depth()
