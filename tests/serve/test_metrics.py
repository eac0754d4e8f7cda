"""The metrics store: histograms, families, rendering, linting, merging."""

import math
import re
import sys
import threading

import pytest

from repro.serve import (
    BUCKET_BOUNDS,
    EXPOSITION_CONTENT_TYPE,
    LatencyHistogram,
    MetricsRegistry,
    lint_exposition,
)
from repro.serve.metrics import families_from_dump, render_families


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(50) == 0.0
        assert hist.snapshot() == {"count": 0}

    def test_percentiles_are_monotone_and_bracketed(self):
        hist = LatencyHistogram()
        values = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for v in values:
            hist.record(v)
        p50, p95, p99 = (hist.percentile(p) for p in (50, 95, 99))
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # Log-bucketed: p50 of a uniform 1..100ms spread lands within
        # a factor-of-two bucket of the true median.
        assert 0.025 <= p50 <= 0.1

    def test_exact_count_sum_min_max(self):
        hist = LatencyHistogram()
        for v in (0.5, 0.25, 1.5):
            hist.record(v)
        assert hist.count == 3
        assert hist.min == 0.25
        assert hist.max == 1.5
        assert hist.mean == pytest.approx(2.25 / 3)

    def test_single_observation_is_every_percentile(self):
        hist = LatencyHistogram()
        hist.record(0.042)
        for p in (0, 50, 99, 100):
            assert hist.percentile(p) == pytest.approx(0.042)

    def test_invalid_percentile(self):
        hist = LatencyHistogram()
        hist.record(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_negative_latency_clamped(self):
        hist = LatencyHistogram()
        hist.record(-0.5)
        assert hist.min == 0.0

    def test_empty_histogram_every_percentile_is_zero(self):
        hist = LatencyHistogram()
        for p in (0, 50, 99, 100):
            assert hist.percentile(p) == 0.0
        assert hist.mean == 0.0
        assert hist.max == 0.0

    def test_single_sample_lands_in_exactly_one_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.003)
        assert sum(hist.counts) == 1
        assert hist.counts.count(1) == 1
        # ... and in the right one: the first bound >= the observation.
        index = hist.counts.index(1)
        assert BUCKET_BOUNDS[index] >= 0.003
        assert index == 0 or BUCKET_BOUNDS[index - 1] < 0.003

    def test_overflow_sample_lands_in_final_bucket(self):
        hist = LatencyHistogram()
        hist.record(BUCKET_BOUNDS[-1] * 10)  # beyond every bound
        assert hist.counts[-1] == 1
        assert hist.percentile(99) == pytest.approx(
            BUCKET_BOUNDS[-1] * 10)

    def test_merge_disjoint_bucket_ranges(self):
        fast, slow = LatencyHistogram(), LatencyHistogram()
        for _ in range(90):
            fast.record(1e-6)  # all in the first bucket
        for _ in range(10):
            slow.record(100.0)  # all near the last
        merged = LatencyHistogram().merge(fast).merge(slow)
        assert merged.count == 100
        assert merged.min == pytest.approx(1e-6)
        assert merged.max == pytest.approx(100.0)
        assert merged.total == pytest.approx(90 * 1e-6 + 10 * 100.0)
        # The p50 comes from the fast mass, the p99 from the slow tail.
        assert merged.percentile(50) == pytest.approx(1e-6)
        assert merged.percentile(99) == pytest.approx(100.0)

    def test_merge_empty_into_empty_stays_empty(self):
        merged = LatencyHistogram().merge(LatencyHistogram())
        assert merged.count == 0
        assert merged.percentile(99) == 0.0
        assert merged.snapshot() == {"count": 0}

    def test_merge_returns_self_for_reduce(self):
        import functools

        parts = []
        for seconds in (0.001, 0.01, 0.1):
            hist = LatencyHistogram()
            hist.record(seconds)
            parts.append(hist)
        total = functools.reduce(
            lambda a, b: a.merge(b), parts, LatencyHistogram())
        assert total.count == 3

    def test_counter_overflow_beyond_64_bits_is_exact(self):
        # Python ints never wrap: a merged fleet-wide count past 2**63
        # stays exact, and percentile() still terminates (bucket walk
        # is over counts, not observations).
        hist = LatencyHistogram()
        hist.record(0.001)
        big = LatencyHistogram()
        big.counts[5] = 2**63
        big.count = 2**63
        big.total = 1e12
        big.min, big.max = 1e-5, 2e-5
        hist.merge(big)
        assert hist.count == 2**63 + 1
        assert hist.count > 0  # no wraparound to negative
        assert hist.percentile(50) == pytest.approx(BUCKET_BOUNDS[5])



class TestValidation:
    def test_bad_metric_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("2bad", "starts with a digit")
        with pytest.raises(ValueError):
            registry.counter("has-dash", "dashes are not allowed")

    def test_bad_label_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("ok_total", "help", ("bad-label",))

    def test_reserved_label_names_rejected(self):
        registry = MetricsRegistry()
        for reserved in ("le", "quantile"):
            with pytest.raises(ValueError):
                registry.counter("ok_total", "help", (reserved,))

    def test_register_is_idempotent_same_shape(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help", ("model",))
        b = registry.counter("x_total", "help", ("model",))
        assert a is b

    def test_register_conflicting_shape_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("model",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", "help", ("model",))
        with pytest.raises(ValueError):
            registry.counter("x_total", "help", ("other",))

    def test_wrong_labels_on_use_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "help", ("model",))
        with pytest.raises(ValueError):
            family.labels(nope="y")
        with pytest.raises(ValueError):
            family.labels()


class TestFamilies:
    def test_counter_counts_and_refuses_negative(self):
        registry = MetricsRegistry()
        family = registry.counter("hits_total", "help", ("model",))
        family.labels(model="a").inc()
        family.labels(model="a").inc(4)
        family.labels(model="b").inc()
        with pytest.raises(ValueError):
            family.labels(model="a").inc(-1)
        samples = dict(
            ((name, labels["model"]), value)
            for name, labels, value in family.collect()
        )
        assert samples[("hits_total", "a")] == 5
        assert samples[("hits_total", "b")] == 1

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        family = registry.gauge("depth", "help")
        family.labels().set(7)
        family.labels().inc(2)
        family.labels().dec(4)
        ((_, _, value),) = family.collect()
        assert value == 5

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "help")
        for seconds in (1e-6, 0.001, 0.1, 200.0):
            family.observe(seconds)
        samples = family.collect()
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name == "lat_seconds_bucket"
        ]
        assert buckets[-1][0] == "+Inf"
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)  # cumulative
        count = next(
            value for name, _, value in samples
            if name == "lat_seconds_count"
        )
        total = next(
            value for name, _, value in samples
            if name == "lat_seconds_sum"
        )
        assert buckets[-1][1] == count == 4
        assert total == pytest.approx(1e-6 + 0.001 + 0.1 + 200.0)
        assert len(buckets) == len(BUCKET_BOUNDS) + 1

    def test_summary_quantiles_bracket_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("model_latency", "help", ("model",))
        family = registry.summary("model_seconds", "help", of=hist)
        for i in range(100):
            hist.labels(model="a").observe(0.001 * (i + 1))
        samples = family.collect()
        quantiles = {
            labels["quantile"]: value
            for name, labels, value in samples
            if name == "model_seconds"
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert 0.001 <= quantiles["0.5"] <= quantiles["0.99"] <= 0.1
        assert quantiles["0.99"] == hist.merged(model="a").percentile(99)

    def test_summary_is_a_view_of_its_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "help", ("model",))
        family = registry.summary("lat_quantiles", "help", of=hist)
        with pytest.raises(TypeError):
            family.labels(model="a")  # nothing to write to
        assert family.collect() == []
        hist.labels(model="a").observe(0.25)
        hist.labels(model="a").observe(0.5)
        samples = {name: value for name, _, value in family.collect()}
        assert samples["lat_quantiles_count"] == 2
        assert samples["lat_quantiles_sum"] == pytest.approx(0.75)

    def test_unlabeled_family_shows_at_zero_before_first_event(self):
        registry = MetricsRegistry()
        registry.counter("loads_total", "help")
        registry.counter("hits_total", "help", ("model",))
        text = registry.render()
        assert "\nloads_total 0\n" in text
        assert "hits_total{" not in text  # labeled: no child yet
        assert lint_exposition(text) == []

    def test_counter_total_sums_matching_children(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "help", ("model", "outcome"))
        family.labels(model="a", outcome="hit").inc(2)
        family.labels(model="a", outcome="miss").inc()
        family.labels(model="b", outcome="hit").inc(4)
        assert family.total() == 7
        assert family.total(outcome="hit") == 6
        assert family.total(model="a") == 3
        assert family.total(model="a", outcome="miss") == 1
        assert family.total(model="never") == 0
        with pytest.raises(ValueError):
            family.total(nope="x")

    def test_histogram_merged_folds_matching_children_losslessly(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat_seconds", "help", ("model",))
        family.labels(model="a").observe(0.001)
        family.labels(model="a").observe(0.004)
        family.labels(model="b").observe(2.0)
        everything = family.merged()
        assert everything.count == 3
        assert everything.min == pytest.approx(0.001)
        assert everything.max == pytest.approx(2.0)
        assert everything.total == pytest.approx(2.005)
        only_a = family.merged(model="a")
        assert only_a.count == 2
        assert only_a.max == pytest.approx(0.004)
        assert family.merged(model="never").snapshot() == {"count": 0}

    def test_bucket_le_labels_parse_back_exactly(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "help").observe(0.01)
        les = re.findall(r'lat_seconds_bucket\{le="([^"]+)"\}',
                         registry.render())
        assert les[-1] == "+Inf"
        assert [float(le) for le in les[:-1]] == BUCKET_BOUNDS

    def test_func_family_scalar_and_labelled(self):
        registry = MetricsRegistry()
        registry.func("depth", "help", "gauge", lambda: 3)
        registry.func(
            "alive", "help", "gauge",
            lambda: [({"worker": "0"}, 1.0), ({"worker": "1"}, 0.0)])
        text = registry.render()
        assert "depth 3" in text
        assert 'alive{worker="0"} 1' in text
        assert 'alive{worker="1"} 0' in text

    def test_func_family_rejects_histogram_kind(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.func("h", "help", "histogram", lambda: 0)


class TestConcurrency:
    def test_thread_safety_exact_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "help", ("model",))
        hist = registry.histogram("latency_seconds", "help", ("model",))
        n_threads, per_thread = 8, 2000

        def work(worker):
            model = f"m{worker % 2}"
            for _ in range(per_thread):
                counter.labels(model=model).inc()
                hist.labels(model=model).observe(0.001)

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch often: expose lost updates
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.total() == n_threads * per_thread
        assert counter.total(model="m0") == n_threads // 2 * per_thread
        assert hist.merged().count == n_threads * per_thread
        assert hist.merged(model="m1").count == n_threads // 2 * per_thread
        assert lint_exposition(registry.render()) == []


class TestRenderAndLint:
    def _populated(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "repro_requests_total", "Requests.", ("model",))
        counter.labels(model="srresnet/scales/x2").inc(3)
        hist = registry.histogram(
            "repro_latency_seconds", "Latency.", ("model",))
        hist.labels(model="srresnet/scales/x2").observe(0.01)
        registry.gauge("repro_queue_depth", "Depth.").labels().set(2)
        return registry

    def test_render_passes_lint(self):
        text = self._populated().render()
        assert lint_exposition(text) == []
        assert text.endswith("\n")
        assert "# TYPE repro_requests_total counter" in text
        assert "# HELP repro_latency_seconds Latency." in text

    def test_content_type_pins_exposition_version(self):
        assert "version=0.0.4" in EXPOSITION_CONTENT_TYPE

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "help", ("model",))
        family.labels(model='we"ird\\na\nme').inc()
        text = registry.render()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert lint_exposition(text) == []

    def test_special_float_values_rendered(self):
        registry = MetricsRegistry()
        registry.func("weird", "help", "gauge", lambda: float("nan"))
        registry.func("hot", "help", "gauge", lambda: float("inf"))
        text = registry.render()
        assert "weird NaN" in text
        assert "hot +Inf" in text

    def test_lint_flags_sample_without_type(self):
        problems = lint_exposition("orphan_metric 1\n")
        assert problems

    def test_lint_flags_duplicate_series(self):
        text = (
            "# HELP x_total help\n"
            "# TYPE x_total counter\n"
            'x_total{model="a"} 1\n'
            'x_total{model="a"} 2\n'
        )
        assert any("duplicate" in p for p in lint_exposition(text))

    def test_lint_flags_negative_counter(self):
        text = (
            "# HELP x_total help\n"
            "# TYPE x_total counter\n"
            "x_total -1\n"
        )
        assert any("negative" in p for p in lint_exposition(text))

    def test_lint_flags_illegal_suffix_for_kind(self):
        text = (
            "# HELP x help\n"
            "# TYPE x gauge\n"
            'x_bucket{le="+Inf"} 1\n'
        )
        assert lint_exposition(text)


class TestDumpAndMerge:
    def test_dump_roundtrip_renders_identically(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "help", ("model",)) \
            .labels(model="a").inc(2)
        registry.histogram("lat_seconds", "help").observe(0.02)
        direct = registry.render()
        rehydrated = render_families(
            families_from_dump(registry.dump(), {}))
        assert rehydrated == direct

    def test_worker_labels_merge_under_one_type_block(self):
        def worker(n):
            registry = MetricsRegistry()
            registry.counter("x_total", "help", ("model",)) \
                .labels(model="a").inc(n)
            return registry.dump()

        families = []
        for slot, n in enumerate((2, 5)):
            families.extend(
                families_from_dump(worker(n), {"worker": str(slot)}))
        text = render_families(families)
        assert lint_exposition(text) == []
        assert text.count("# TYPE x_total counter") == 1
        assert 'worker="0"' in text and 'worker="1"' in text

    def test_merge_conflicting_kinds_raises(self):
        a = MetricsRegistry()
        a.counter("x", "help").inc()
        b = MetricsRegistry()
        b.gauge("x", "help").labels().set(1)
        families = list(families_from_dump(a.dump(), {})) + list(
            families_from_dump(b.dump(), {}))
        with pytest.raises(ValueError):
            render_families(families)

    def test_dump_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "help").observe(0.5)
        encoded = json.dumps(registry.dump())
        assert "lat_seconds" in encoded
        assert not math.isnan(len(encoded))
