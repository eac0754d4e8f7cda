"""StreamSession behavior over a controllable fake backend.

The fakes let these tests play adversarial scheduler: completion
order is shuffled across streams, tiles are withheld past deadlines,
and busy/error markers are injected — all without a real model, so
the ordering/deadline/shedding guarantees are exercised in
milliseconds.  The fake "SR" at ``scale=1`` is the identity, so a
correctly stitched frame equals its input exactly (overlap 0).
"""

import ast
import logging
import re
import threading
import time

import numpy as np
import pytest

from repro.serve import MetricsRegistry, lint_exposition
from repro.stream import StreamConfig, StreamError, StreamSession

from ..helpers import (
    FakeClock,
    check_fields,
    parse_counts,
    parse_table,
    record_resolves,
)

MODEL = ("srresnet", "scales", 2)


class FakeFuture:
    def __init__(self, image):
        self.image = np.asarray(image)
        self._event = threading.Event()
        self._value = None

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        if not self._event.wait(timeout):
            raise TimeoutError("tile not served within timeout")
        return self._value

    def resolve(self, value=None):
        """Default resolution: identity 'SR' of the submitted tile."""
        if value is None:
            value = np.asarray(self.image, dtype=np.float64)
        self._value = value
        self._event.set()


class FakeBackend:
    """Duck-typed serving surface; completion is driven by the test."""

    def __init__(self):
        self.lock = threading.Lock()
        self.pending = []
        self.submitted = 0
        self.arrived = threading.Condition(self.lock)

    def submit_many(self, images, model=None):
        futures = [FakeFuture(image) for image in images]
        with self.lock:
            self.pending.extend(futures)
            self.submitted += len(futures)
            self.arrived.notify_all()
        return futures

    def wait_for_submissions(self, n, timeout=5.0):
        deadline = time.monotonic() + timeout
        with self.lock:
            while self.submitted < n:
                remaining = deadline - time.monotonic()
                assert remaining > 0, (
                    f"only {self.submitted}/{n} submissions arrived"
                )
                self.arrived.wait(remaining)

    def pop_pending(self):
        with self.lock:
            out, self.pending = self.pending, []
        return out


def _session(backend, **cfg):
    defaults = dict(tile=8, overlap=0, tile_cache_bytes=0)
    defaults.update(cfg)
    return StreamSession(
        backend, MODEL, scale=1, config=StreamConfig(**defaults)
    )


def _frames(n, seed=0, h=16, w=16):
    rng = np.random.default_rng(seed)
    return [rng.random((h, w, 3)).astype(np.float32) for _ in range(n)]


class Busy:
    """A shed marker, duck-typed like ``ServerBusy``."""

    reason = "queue full"


#: One row per way a frame resolves, each run by the ``_frame_*``
#: scenario of the same name over ``FakeBackend`` under ``FakeClock``:
#: the status of its ``FrameResult``, the change it makes to
#: ``stats()["frames"]`` (``parse_counts``), the fields of its one
#: ``repro.stream`` "frame" line beyond ``stream``, ``model``, ``seq``
#: and ``outcome`` (``check_fields``), and the status of the stream's
#: next frame (``-``: the stream is closed).
FRAMES = """
  row         | status  | delta                               | log                                                                                           | next
  ------------+---------+-------------------------------------+-----------------------------------------------------------------------------------------------+------
  ok          | ok      | frames_in frames_out frames_ok      | total_s=0.0; late_s=0.0; tiles_total=4; tiles_reused=0                                        | ok
  deadline    | dropped | frames_in frames_out frames_dropped | total_s=2.0; late_s=1.0; tiles_total=4; tiles_reused=0; detail=deadline expired with 4 of 4 dirty tiles outstanding | ok
  undrained   | dropped | frames_in frames_out frames_dropped | total_s=0.0; late_s=0.0; tiles_total=0; tiles_reused=0; detail=session closed without drain    | -
  busy        | error   | frames_in frames_out frames_error   | total_s=0.0; late_s=0.0; tiles_total=0; tiles_reused=0; detail=tile request shed: queue full   | ok
  wrong_scale | error   | frames_in frames_out frames_error   | total_s=0.0; late_s=0.0; tiles_total=0; tiles_reused=0; detail~expected (16, 16) at scale 2   | error
  at_deadline | dropped | frames_in frames_out frames_dropped | total_s=1.0; late_s=0.0; tiles_total=4; tiles_reused=0; detail=deadline expired with 4 of 4 dirty tiles outstanding | ok
  unbounded   | ok      | frames_in frames_out frames_ok      | total_s=1000.0; late_s=0.0; tiles_total=4; tiles_reused=0                                     | ok
  expired     | dropped | frames_in frames_out frames_dropped | total_s=0.0; late_s=0.0; tiles_total=0; tiles_reused=0; detail=deadline expired before inference | ok
"""


def _serve_tiles(backend, n, first=None):
    """Wait for ``n`` tile submissions in all; resolve the pending ones
    as identity SR, the first with ``first`` when given."""
    backend.wait_for_submissions(n)
    for i, fut in enumerate(backend.pop_pending()):
        fut.resolve(first if i == 0 else None)


def _frame_ok(session, backend, clock):
    future = session.submit_frame(_frames(1, seed=20)[0])
    _serve_tiles(backend, 4)
    return future


def _withheld(session, backend, clock, seed, advance):
    """A frame with a 1 s deadline whose 4 tiles are withheld while the
    clock moves ``advance`` seconds."""
    future = session.submit_frame(_frames(1, seed=seed)[0], deadline_s=1.0)
    backend.wait_for_submissions(4)  # and withheld past the deadline
    clock.advance(advance)
    future.result(timeout=10.0)
    backend.pop_pending()
    return future


def _frame_deadline(session, backend, clock):
    return _withheld(session, backend, clock, seed=21, advance=2.0)


def _frame_at_deadline(session, backend, clock):
    # Expiry is inclusive: the frame drops the moment its deadline comes.
    return _withheld(session, backend, clock, seed=26, advance=1.0)


def _frame_unbounded(session, backend, clock):
    # No deadline_s and no frame_budget_s: a drop-late frame never drops.
    future = session.submit_frame(_frames(1, seed=27)[0])
    backend.wait_for_submissions(4)
    clock.advance(1000.0)
    _serve_tiles(backend, 4)
    return future


def _frame_expired(session, backend, clock):
    # No time left when the collector takes it: no tile is sent.
    future = session.submit_frame(_frames(1, seed=28)[0], deadline_s=0.0)
    future.result(timeout=10.0)
    assert backend.submitted == 0
    return future


def _frame_undrained(session, backend, clock):
    future = session.submit_frame(_frames(1, seed=22)[0])
    backend.wait_for_submissions(4)  # in flight, withheld
    session.close(drain=False)
    return future


def _frame_busy(session, backend, clock):
    future = session.submit_frame(_frames(1, seed=23)[0])
    _serve_tiles(backend, 4, first=Busy())
    return future


def _frame_wrong_scale(session, backend, clock):
    # Identity tiles are x1; this session stitches at x2.
    future = session.submit_frame(_frames(1, seed=24)[0])
    _serve_tiles(backend, 4)
    return future


class TestFrameOutcomeTable:
    @pytest.mark.parametrize(
        "row", parse_table(FRAMES), ids=lambda row: row["row"])
    def test_each_outcome_is_counted_logged_and_resolved_once(
        self, monkeypatch, caplog, row
    ):
        resolves = record_resolves(monkeypatch)
        backend = FakeBackend()
        clock = FakeClock()
        session = StreamSession(
            backend,
            MODEL,
            scale=2 if row["row"] == "wrong_scale" else 1,
            config=StreamConfig(tile=8, overlap=0, tile_cache_bytes=0,
                                policy="drop-late"),
            clock=clock,
        )
        before = session.stats()["frames"]
        scenario = globals()[f"_frame_{row['row']}"]
        try:
            with caplog.at_level(logging.INFO, logger="repro.stream"):
                future = scenario(session, backend, clock)
                result = future.result(timeout=10.0)
            assert result.status == row["status"] and result.seq == 0
            if not result.ok:
                with pytest.raises(
                        StreamError,
                        match="dropped" if result.dropped else "failed"):
                    result.unwrap()
            assert sum(f is future for f in resolves) == 1
            after = session.stats()["frames"]
            delta = {k: after[k] - before[k] for k in after
                     if after[k] != before[k]}
            assert delta == parse_counts(row["delta"])
            lines = [r.repro_fields for r in caplog.records
                     if r.name == "repro.stream"
                     and r.getMessage() == "frame"
                     and r.repro_fields["stream"] == session.stream_id]
            assert len(lines) == 1, lines
            fields = lines[0]
            assert (fields["model"], fields["seq"], fields["outcome"]) == (
                "srresnet/scales/x2", 0, row["status"])
            check_fields(fields, row["log"],
                         ("stream", "model", "seq", "outcome"))
            assert session.pending() == 0
            if row["next"] != "-":
                # The stream survives: its next frame runs as usual.
                following = session.submit_frame(_frames(1, seed=25)[0])
                _serve_tiles(backend, backend.submitted + 4)
                assert following.result(timeout=10.0).status == row["next"]
        finally:
            session.close(drain=False)


#: One row per deadline rule of ``StreamConfig``, under ``FakeClock``:
#: a frame submitted with ``deadline_s`` (``-``: none) to a session of
#: ``policy`` and ``budget`` (its ``frame_budget_s``), its 4 tiles held
#: while the clock moves ``advance`` seconds and then served unless the
#: frame has resolved; the frame's status and ``late_s``.
DEADLINES = """
  row           | policy      | budget | deadline_s | advance  | status  | late_s
  --------------+-------------+--------+------------+----------+---------+-------
  budget        | drop-late   | 0.5    | -          | 0.5      | dropped | 0.0
  within_budget | drop-late   | 0.5    | -          | 0.499999 | ok      | 0.0
  override      | drop-late   | 0.5    | 2.0        | 1.0      | ok      | 0.0
  override_late | drop-late   | 0.5    | 2.0        | 2.25     | dropped | 0.25
  best_effort   | best-effort | 0.5    | -          | 99.0     | ok      | 98.5
"""


class TestDeadlineTable:
    @pytest.mark.parametrize(
        "row", parse_table(DEADLINES), ids=lambda row: row["row"])
    def test_each_rule_decides_the_frame(self, row):
        backend = FakeBackend()
        clock = FakeClock()
        session = StreamSession(
            backend, MODEL, scale=1,
            config=StreamConfig(tile=8, overlap=0, tile_cache_bytes=0,
                                policy=row["policy"],
                                frame_budget_s=float(row["budget"])),
            clock=clock,
        )
        deadline_s = (None if row["deadline_s"] == "-"
                      else float(row["deadline_s"]))
        try:
            future = session.submit_frame(_frames(1, seed=30)[0],
                                          deadline_s=deadline_s)
            backend.wait_for_submissions(4)
            clock.advance(float(row["advance"]))
            if row["status"] == "dropped":
                future.result(timeout=10.0)
            # Served after the clock moved: the collector checks the
            # deadline again before each of tiles 2-4.
            for fut in backend.pop_pending():
                fut.resolve()
            result = future.result(timeout=10.0)
            assert result.status == row["status"], result.detail
            assert result.late_s == pytest.approx(float(row["late_s"]))
        finally:
            session.close(drain=False)


#: ``StreamConfig`` keyword arguments, one row each, and the message of
#: the ``ValueError`` it raises (``ok``: it builds).
CONFIGS = """
  args                   | error
  -----------------------+--------------------------------------
  tile=8 overlap=0       | ok
  tile=0                 | tile must be positive
  tile=8 overlap=8       | overlap 8 must be in [0, tile=8)
  overlap=-1             | overlap -1 must be in [0, tile=48)
  policy='never-late'    | unknown policy 'never-late'
  policy='best-effort'   | ok
  frame_budget_s=-0.1    | frame_budget_s must be >= 0
  frame_budget_s=0       | ok
  tile_cache_bytes=-1    | tile_cache_bytes must be >= 0
  tile_cache_bytes=0     | ok
  max_pending_frames=0   | max_pending_frames must be >= 1
  max_pending_frames=1   | ok
"""


class TestConfigTable:
    @pytest.mark.parametrize(
        "row", parse_table(CONFIGS), ids=lambda row: row["args"])
    def test_each_argument_is_checked_when_built(self, row):
        kwargs = {name: ast.literal_eval(value) for name, value in
                  (arg.split("=") for arg in row["args"].split())}
        if row["error"] == "ok":
            config = StreamConfig(**kwargs)
            assert {name: getattr(config, name) for name in kwargs} == kwargs
        else:
            with pytest.raises(ValueError, match=re.escape(row["error"])):
                StreamConfig(**kwargs)


class TestOrderingUnderAdversarialScheduler:
    def test_64_frames_4_streams_shuffled_completion(self):
        """The satellite scenario: 64 frames across 4 streams, tile
        completion order shuffled by a chaos resolver; every stream
        must still deliver strictly in sequence."""
        backend = FakeBackend()
        n_streams, n_frames = 4, 16
        streams = [_session(backend) for _ in range(n_streams)]
        clips = [_frames(n_frames, seed=s) for s in range(n_streams)]

        rng = np.random.default_rng(1234)
        stop = threading.Event()

        def chaos_resolver():
            # Resolve pending tiles in random order, a few at a time,
            # interleaving streams arbitrarily.
            while not stop.is_set():
                ready = backend.pop_pending()
                if not ready:
                    time.sleep(0.001)
                    continue
                rng.shuffle(ready)
                for fut in ready:
                    fut.resolve()

        resolver = threading.Thread(target=chaos_resolver, daemon=True)
        resolver.start()
        try:
            tickets = [
                [s.submit_frame(f) for f in clip]
                for s, clip in zip(streams, clips)
            ]
            # Wait on the *last* ticket of each stream first: ordered
            # delivery means its resolution implies all predecessors.
            for s_idx, stream_tickets in enumerate(tickets):
                last = stream_tickets[-1].result(timeout=30.0)
                assert last.ok
                done_flags = [t.done() for t in stream_tickets]
                assert all(done_flags), (
                    f"stream {s_idx}: frame {n_frames - 1} delivered "
                    f"before predecessors {done_flags}"
                )
            for s_idx, (stream_tickets, clip) in enumerate(
                zip(tickets, clips)
            ):
                for k, (ticket, frame) in enumerate(
                    zip(stream_tickets, clip)
                ):
                    res = ticket.result(timeout=1.0)
                    assert res.ok and res.seq == k
                    # Identity SR at scale 1: stitched == input.
                    np.testing.assert_array_equal(
                        res.image, np.asarray(frame, dtype=np.float64)
                    )
        finally:
            stop.set()
            resolver.join(timeout=5.0)
            for s in streams:
                s.close(drain=False)

    def test_no_cross_stream_head_of_line_blocking(self):
        """A stream wedged on its first tile must not delay siblings
        sharing the same backend."""
        backend = FakeBackend()
        stuck = _session(backend)
        flowing = _session(backend)
        stuck_frame = _frames(1, seed=7)[0]
        flow_frames = _frames(8, seed=8)
        try:
            stuck_ticket = stuck.submit_frame(stuck_frame)
            backend.wait_for_submissions(4)  # stuck's 4 tiles queued
            wedged = backend.pop_pending()  # ...and withheld

            flow_tickets = [flowing.submit_frame(f) for f in flow_frames]

            def serve_flowing():
                served = 0
                while served < 8 * 4:  # 8 frames x 4 tiles each
                    for fut in backend.pop_pending():
                        fut.resolve()
                        served += 1
                    time.sleep(0.001)

            server = threading.Thread(target=serve_flowing, daemon=True)
            server.start()
            for t in flow_tickets:
                assert t.result(timeout=10.0).ok
            server.join(timeout=5.0)
            # The wedged stream is still pending — and unblocking it
            # completes it.
            assert not stuck_ticket.done()
            for fut in wedged:
                fut.resolve()
            assert stuck_ticket.result(timeout=10.0).ok
        finally:
            stuck.close(drain=False)
            flowing.close(drain=False)


class TestDeadlines:
    def test_drop_late_drops_only_late_frames(self):
        """Timed drop-late gate: the frame whose tiles are withheld
        past its deadline resolves dropped; predecessors and
        successors deliver untouched."""
        backend = FakeBackend()
        session = _session(backend, policy="drop-late")
        frames = _frames(4, seed=3)
        try:
            # Serve every submission promptly except frame 1's tiles
            # (submissions 5..8), which are withheld forever.
            withheld = []
            stop = threading.Event()

            def resolver():
                seen = 0
                while not stop.is_set():
                    for fut in backend.pop_pending():
                        seen += 1
                        if 4 < seen <= 8:
                            withheld.append(fut)
                        else:
                            fut.resolve()
                    time.sleep(0.001)

            thread = threading.Thread(target=resolver, daemon=True)
            thread.start()
            t0 = session.submit_frame(frames[0])
            t1 = session.submit_frame(frames[1], deadline_s=0.15)
            t2 = session.submit_frame(frames[2])
            t3 = session.submit_frame(frames[3])
            r0 = t0.result(timeout=10.0)
            r1 = t1.result(timeout=10.0)
            r2 = t2.result(timeout=10.0)
            r3 = t3.result(timeout=10.0)
            stop.set()
            thread.join(timeout=5.0)
            assert r0.ok
            assert r1.dropped
            assert r1.late_s >= 0.0 and "deadline expired" in r1.detail
            assert r2.ok and r3.ok  # successors unaffected
            stats = session.stats()
            assert stats["frames"]["frames_dropped"] == 1
            assert stats["frames"]["frames_ok"] == 3
            with pytest.raises(Exception) as err:
                r1.unwrap()
            assert "dropped" in str(err.value)
        finally:
            session.close(drain=False)

    def test_expired_before_processing_drops_without_submitting(self):
        backend = FakeBackend()
        session = _session(backend, policy="drop-late")
        try:
            # Wedge the collector with a normal frame so the next one
            # expires while still queued.
            first = session.submit_frame(_frames(1, seed=1)[0])
            backend.wait_for_submissions(4)
            wedged = backend.pop_pending()
            late = session.submit_frame(
                _frames(1, seed=2)[0], deadline_s=0.01
            )
            time.sleep(0.05)
            for fut in wedged:
                fut.resolve()
            assert first.result(timeout=10.0).ok
            result = late.result(timeout=10.0)
            assert result.dropped
            assert "before inference" in result.detail
            # No tiles of the dropped frame ever reached the backend.
            assert backend.submitted == 4
        finally:
            session.close(drain=False)

    def test_best_effort_reports_lateness_but_completes(self):
        backend = FakeBackend()
        session = _session(backend, policy="best-effort")
        try:
            ticket = session.submit_frame(
                _frames(1, seed=4)[0], deadline_s=0.01
            )
            backend.wait_for_submissions(4)
            time.sleep(0.05)  # well past the deadline
            for fut in backend.pop_pending():
                fut.resolve()
            result = ticket.result(timeout=10.0)
            assert result.ok
            assert result.late_s > 0.0
        finally:
            session.close()


class TestTileReuse:
    def test_identical_frames_hit_the_tile_cache(self):
        backend = FakeBackend()
        session = _session(backend, tile_cache_bytes=1 << 20)
        frame = _frames(1, seed=5)[0]
        try:
            stop = threading.Event()

            def resolver():
                while not stop.is_set():
                    for fut in backend.pop_pending():
                        fut.resolve()
                    time.sleep(0.001)

            thread = threading.Thread(target=resolver, daemon=True)
            thread.start()
            results = [
                session.submit_frame(frame.copy()).result(timeout=10.0)
                for _ in range(3)
            ]
            stop.set()
            thread.join(timeout=5.0)
            assert all(r.ok for r in results)
            assert results[0].reuse_ratio == 0.0
            assert results[1].reuse_ratio == 1.0
            assert results[2].reuse_ratio == 1.0
            assert backend.submitted == 4  # only the first frame paid
            for r in results[1:]:
                np.testing.assert_array_equal(
                    r.image, results[0].image
                )
        finally:
            session.close(drain=False)

    def test_uniform_frame_dedupes_identical_tiles(self):
        backend = FakeBackend()
        session = _session(backend, tile_cache_bytes=1 << 20)
        frame = np.full((16, 16, 3), 0.25, dtype=np.float32)
        try:
            ticket = session.submit_frame(frame)
            backend.wait_for_submissions(1)
            time.sleep(0.05)  # no further submissions should arrive
            assert backend.submitted == 1  # 4 tiles, 1 distinct key
            for fut in backend.pop_pending():
                fut.resolve()
            result = ticket.result(timeout=10.0)
            assert result.ok
            np.testing.assert_array_equal(
                result.image, np.asarray(frame, dtype=np.float64)
            )
        finally:
            session.close(drain=False)


class TestSessionContract:
    def test_sequence_numbers_must_increase(self):
        backend = FakeBackend()
        session = _session(backend)
        frame = _frames(1)[0]
        try:
            session.submit_frame(frame, seq=5)
            with pytest.raises(StreamError, match="must increase"):
                session.submit_frame(frame, seq=5)
            with pytest.raises(StreamError, match="must increase"):
                session.submit_frame(frame, seq=3)
            ticket = session.submit_frame(frame, seq=9)
        finally:
            session.close(drain=False)
        # Dropped by the undrained close, still under its own seq.
        assert ticket.result(timeout=10.0).seq == 9

    def test_non_hwc_frame_rejected(self):
        backend = FakeBackend()
        session = _session(backend)
        try:
            with pytest.raises(StreamError, match="H, W, C"):
                session.submit_frame(np.zeros((16, 16), dtype=np.float32))
        finally:
            session.close(drain=False)

    def test_submit_after_close_rejected(self):
        backend = FakeBackend()
        session = _session(backend)
        session.close()
        with pytest.raises(StreamError, match="closed"):
            session.submit_frame(_frames(1)[0])

    def test_close_without_drain_drops_queued_frames(self):
        backend = FakeBackend()
        session = _session(backend)
        frames = _frames(3, seed=6)
        tickets = [session.submit_frame(f) for f in frames]
        backend.wait_for_submissions(4)  # frame 0 in flight, withheld
        session.close(drain=False)
        for t in tickets:
            result = t.result(timeout=10.0)
            assert result.dropped
            assert "closed" in result.detail

    def test_backpressure_blocks_submit_until_space(self):
        backend = FakeBackend()
        session = _session(backend, max_pending_frames=2)
        frames = _frames(4, seed=10)
        try:
            stop = threading.Event()

            def resolver():
                while not stop.is_set():
                    for fut in backend.pop_pending():
                        fut.resolve()
                    time.sleep(0.001)

            thread = threading.Thread(target=resolver, daemon=True)
            thread.start()
            tickets = [session.submit_frame(f) for f in frames]
            for t in tickets:
                assert t.result(timeout=10.0).ok
            stop.set()
            thread.join(timeout=5.0)
        finally:
            session.close(drain=False)

    def test_stats_and_metrics_families(self):
        backend = FakeBackend()
        session = _session(backend, tile_cache_bytes=1 << 20)
        frame = _frames(1, seed=11)[0]
        try:
            ticket = session.submit_frame(frame)
            backend.wait_for_submissions(4)
            for fut in backend.pop_pending():
                fut.resolve()
            assert ticket.result(timeout=10.0).ok
            stats = session.stats()
            assert stats["frames"]["frames_in"] == 1
            assert stats["frames"]["frames_ok"] == 1
            assert stats["tiles"]["computed_tiles"] == 4
            assert stats["latency"]["count"] == 1
            dump = session.metrics.dump()
            # The tile counts are the counter family's, and the store's
            # own sizes sit beside them.
            tiles, = [f for f in dump["families"]
                      if f["name"] == "repro_stream_tiles_total"]
            counted = {labels["outcome"]: value
                       for _, labels, value in tiles["samples"]
                       if labels["stream"] == session.stream_id}
            assert counted == {"reused": 0, "computed": 4}
            assert stats["tiles"] == {
                **session.tile_cache.stats(),
                "reused_tiles": counted["reused"],
                "computed_tiles": counted["computed"],
                "reuse_ratio": 0.0,
            }
            assert stats["tiles"]["entries"] == 4
            names = {f["name"] for f in dump["families"]}
            assert "repro_stream_frames_in_total" in names
            assert "repro_stream_frames_out_total" in names
            assert "repro_stream_tiles_total" in names
            assert "repro_stream_tile_reuse_ratio" in names
            assert "repro_stream_frame_latency_seconds" in names
            assert "repro_stream_frame_quantile_seconds" in names
            assert lint_exposition(session.metrics.render()) == []
        finally:
            session.close()

    def test_reused_stream_id_merges_stats(self):
        """stats() reads the registry's children for this stream_id, so
        two sessions sharing one id on one registry report the merged
        frame and tile counts and latency their /metrics series
        already merge."""
        backend = FakeBackend()
        registry = MetricsRegistry()
        config = StreamConfig(tile=8, overlap=0, tile_cache_bytes=0)
        sessions = [
            StreamSession(backend, MODEL, scale=1, config=config,
                          metrics=registry, stream_id="cam")
            for _ in range(2)
        ]
        try:
            for i, session in enumerate(sessions):
                ticket = session.submit_frame(_frames(1, seed=i)[0])
                backend.wait_for_submissions(4 * (i + 1))
                for fut in backend.pop_pending():
                    fut.resolve()
                assert ticket.result(timeout=10.0).ok
            for session in sessions:
                stats = session.stats()
                assert stats["frames"]["frames_in"] == 2
                assert stats["frames"]["frames_ok"] == 2
                assert stats["latency"]["count"] == 2
                assert stats["tiles"]["reused_tiles"] == 0
                assert stats["tiles"]["computed_tiles"] == 8
        finally:
            for session in sessions:
                session.close()
