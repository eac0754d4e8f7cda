"""The serving tiers' one metrics store: registry, exposition, linter.

:class:`MetricsRegistry` is where :class:`repro.serve.ModelServer`,
:class:`repro.stream.StreamSession`, :class:`repro.jobs.JobRunner` and
the HTTP gateway record every count and latency, once.  Everything
else is a view computed from it when read: ``stats()`` and
``report()``, the SLO state, and the Prometheus plain-text exposition
(the ``text/plain; version=0.0.4`` dialect every scraper understands).

Design notes
------------

* **One bucket layout.**  :data:`BUCKET_BOUNDS` are geometric bounds
  from 1 us to ~134 s; :class:`LatencyHistogram` files observations
  into them with exact count/sum/min/max, in O(1) memory whatever the
  traffic.  Percentiles resolve to a bucket bound clamped into the
  observed ``[min, max]``.
* **Four metric kinds.**  ``counter`` (monotone totals), ``gauge``
  (point-in-time values), ``histogram`` (one :class:`LatencyHistogram`
  per label set, rendered as cumulative ``_bucket``/``_sum``/``_count``
  samples) and ``summary`` (p50/p95/p99 ``quantile`` samples computed
  from a histogram family's buckets at scrape time — a summary keeps
  no store of its own).  ``Counter.total`` and ``Histogram.merged``
  fold the children whose labels match into the numbers ``stats()``
  reports.
* **Callback families.**  :meth:`MetricsRegistry.func` registers a
  family whose samples are computed at scrape time from a callable —
  queue depth, loaded-model count and SLO state are read straight
  from their owners instead of being double-booked on every request.
* **Cross-process merging.**  A gateway aggregates its workers by
  fetching each worker's :meth:`MetricsRegistry.dump` (JSON-safe),
  relabelling it via :func:`families_from_dump` (``worker="0"``) and
  rendering everything in one pass with :func:`render_families` — one
  scrape surface over N processes, one ``# TYPE`` block per family.
* **A linter, not just a renderer.**  :func:`lint_exposition` parses
  exposition text back and checks the invariants scrapers rely on
  (sample/family name agreement, label syntax, cumulative bucket
  monotonicity, ``+Inf`` == ``_count``).  CI's metrics-smoke job and
  the unit tests both gate on it, so the rendered text can never
  silently drift from the format.

Everything is thread-safe: families and children take locks around
mutation, and ``collect()``/``render()`` work on snapshots.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "EXPOSITION_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyHistogram",
    "Summary",
    "MetricsRegistry",
    "families_from_dump",
    "lint_exposition",
    "render_families",
]

#: What a ``/metrics`` endpoint should put in ``Content-Type``.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Quantiles every ``summary`` family exposes (p50 / p95 / p99).
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

_KINDS = ("counter", "gauge", "histogram", "summary")
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: Label names the exposition format itself owns.
_RESERVED_LABELS = ("le", "quantile")

#: ``(sample name, labels, value)`` — one exposition line.
Sample = Tuple[str, Dict[str, str], float]
#: ``(family name, kind, help, samples)`` — one ``# TYPE`` block.
FamilySnapshot = Tuple[str, str, str, List[Sample]]


#: Geometric bucket upper bounds (seconds): 1 us doubling up to ~134 s.
BUCKET_BOUNDS: List[float] = [1e-6 * (2.0**i) for i in range(28)]


class LatencyHistogram:
    """Log-bucketed latency histogram with exact count/sum/min/max.

    ``record()`` files one observation (seconds) into a geometric
    bucket; ``percentile(p)`` walks the cumulative counts and returns
    the upper bound of the bucket containing the p-th observation,
    clamped to the exact observed ``[min, max]``.  Memory is O(1) in
    the number of observations.  Not locked: histogram families guard
    their children, and the jobs status presenter owns its copies.
    """

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s observations into this histogram.

        Bucket counts add elementwise (both sides share
        :data:`BUCKET_BOUNDS`), and the exact count/sum/min/max
        aggregates combine losslessly — merging N histograms is
        equivalent to having recorded every observation into one.
        Returns ``self`` so per-shard histograms reduce into per-model
        rollups with ``functools.reduce`` (the jobs status presenter
        does exactly this).
        """
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (p in [0, 100]) in seconds."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        target = max(1, int(round(self.count * p / 100.0)))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                bound = (
                    BUCKET_BOUNDS[i] if i < len(BUCKET_BOUNDS) else self.max
                )
                return min(max(bound, self.min), self.max)
        return self.max  # pragma: no cover - unreachable

    def snapshot(self) -> Dict[str, float]:
        """Summary dict (times in milliseconds, as served dashboards do)."""
        if self.count == 0:
            return {"count": 0}
        to_ms = 1e3
        return {
            "count": self.count,
            "mean_ms": self.mean * to_ms,
            "p50_ms": self.percentile(50) * to_ms,
            "p95_ms": self.percentile(95) * to_ms,
            "p99_ms": self.percentile(99) * to_ms,
            "min_ms": self.min * to_ms,
            "max_ms": self.max * to_ms,
        }


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus clients do."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    """Exact ``le=`` / ``quantile=`` rendering: parses back to ``bound``."""
    return repr(float(bound))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for name in names:
        if not _LABEL_RE.match(name) or name.startswith("__"):
            raise ValueError(f"invalid label name {name!r}")
        if name in _RESERVED_LABELS:
            raise ValueError(
                f"label name {name!r} is reserved by the exposition format"
            )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names}")
    return names


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up; inc({n})")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        self.inc(-n)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramChild:
    """One labeled histogram series over a :class:`LatencyHistogram`."""

    __slots__ = ("_lock", "hist")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hist = LatencyHistogram()

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.hist.record(seconds)

    def snapshot(self) -> LatencyHistogram:
        with self._lock:
            copy = LatencyHistogram()
            copy.merge(self.hist)
            return copy


class Family:
    """One metric family: a name, a kind, a help line, labeled children.

    ``labels(**labels)`` resolves (creating on first use) the child for
    one label-value combination; the no-label convenience methods on
    the concrete kinds (``inc`` / ``set`` / ``observe``) address the
    single unlabeled child, which exists (at 0) from registration so
    the series shows before its first event.
    """

    kind = "untyped"
    _child_type: Optional[type] = None

    def __init__(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = str(help)
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames and self._child_type is not None:
            self._children[()] = self._child_type()

    def labels(self, **labels: str):
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_type()
            return child

    def items(self) -> List[Tuple[Dict[str, str], object]]:
        """``(labels, child)`` for every child, snapshotted."""
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    def _matching(self, match: Dict[str, str]) -> List[object]:
        """Children whose labels include every ``match`` pair."""
        unknown = set(match) - set(self.labelnames)
        if unknown:
            raise ValueError(f"{self.name} has no labels {sorted(unknown)}")
        wanted = [
            (self.labelnames.index(name), str(value))
            for name, value in match.items()
        ]
        with self._lock:
            return [
                child
                for key, child in self._children.items()
                if all(key[i] == value for i, value in wanted)
            ]

    def collect(self) -> List[Sample]:
        raise NotImplementedError


class Counter(Family):
    kind = "counter"
    _child_type = _CounterChild

    def inc(self, n: float = 1) -> None:
        self.labels().inc(n)

    def total(self, **match: str) -> float:
        """Sum of the children whose labels include ``match``."""
        return sum(child.value for child in self._matching(match))

    def collect(self) -> List[Sample]:
        return [
            (self.name, labels, child.value)
            for labels, child in self.items()
        ]


class Gauge(Family):
    kind = "gauge"
    _child_type = _GaugeChild

    def set(self, value: float) -> None:
        self.labels().set(value)

    def collect(self) -> List[Sample]:
        return [
            (self.name, labels, child.value)
            for labels, child in self.items()
        ]


class Histogram(Family):
    """Log-bucketed latency histogram family (cumulative exposition)."""

    kind = "histogram"
    _child_type = _HistogramChild

    def observe(self, seconds: float) -> None:
        self.labels().observe(seconds)

    def merged(self, **match: str) -> LatencyHistogram:
        """One histogram folding the children whose labels include
        ``match`` (lossless: see :meth:`LatencyHistogram.merge`)."""
        merged = LatencyHistogram()
        for child in self._matching(match):
            merged.merge(child.snapshot())
        return merged

    def collect(self) -> List[Sample]:
        samples: List[Sample] = []
        for labels, child in self.items():
            hist = child.snapshot()
            acc = 0
            for bound, count in zip(BUCKET_BOUNDS, hist.counts):
                acc += count
                samples.append(
                    (
                        f"{self.name}_bucket",
                        {**labels, "le": _format_bound(bound)},
                        acc,
                    )
                )
            samples.append(
                (f"{self.name}_bucket", {**labels, "le": "+Inf"}, hist.count)
            )
            samples.append((f"{self.name}_sum", labels, hist.total))
            samples.append((f"{self.name}_count", labels, hist.count))
        return samples


class Summary(Family):
    """p50/p95/p99 quantiles of a :class:`Histogram` family, per child.

    Computed from the histogram's buckets at scrape time (so to bucket
    resolution); a summary keeps no store of its own and is never
    written to.
    """

    kind = "summary"

    def __init__(self, name: str, help: str, of: Histogram) -> None:
        super().__init__(name, help, of.labelnames)
        self.of = of

    def labels(self, **labels):
        raise TypeError(f"{self.name} is computed from {self.of.name}")

    def collect(self) -> List[Sample]:
        samples: List[Sample] = []
        for labels, child in self.of.items():
            hist = child.snapshot()
            for quantile in SUMMARY_QUANTILES:
                samples.append(
                    (
                        self.name,
                        {**labels, "quantile": _format_bound(quantile)},
                        hist.percentile(quantile * 100.0),
                    )
                )
            samples.append((f"{self.name}_sum", labels, hist.total))
            samples.append((f"{self.name}_count", labels, hist.count))
        return samples


class _FuncFamily(Family):
    """A family whose samples are computed by a callback at scrape time.

    The callback returns either a bare number (one unlabeled sample) or
    an iterable of ``(labels_dict, value)`` pairs.  Exceptions are the
    callback owner's bug — they propagate, because a scrape silently
    dropping a family is exactly the failure mode this module exists
    to prevent.
    """

    def __init__(
        self, name: str, help: str, kind: str, fn: Callable
    ) -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"func families are counter/gauge, not {kind}")
        super().__init__(name, help)
        self.kind = kind
        self._fn = fn

    def labels(self, **labels):
        raise TypeError(f"{self.name} is computed by a callback")

    def collect(self) -> List[Sample]:
        produced = self._fn()
        if isinstance(produced, (int, float)):
            return [(self.name, {}, float(produced))]
        samples: List[Sample] = []
        for labels, value in produced:
            for name in labels:
                _check_labelnames((name,))
            samples.append((self.name, dict(labels), float(value)))
        return samples


class MetricsRegistry:
    """The process-local set of metric families behind ``/metrics``.

    ``counter`` / ``gauge`` / ``histogram`` / ``summary`` register (or
    return the already-registered, identically-shaped) family — a
    summary is a view ``of`` a histogram family; ``func`` registers a
    scrape-time callback family.  ``render()``
    produces the exposition text; ``dump()`` a JSON-safe snapshot a
    front door can merge across processes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, Family] = {}

    def _register(self, family: Family) -> Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
            if (
                type(existing) is not type(family)
                or existing.kind != family.kind
                or existing.labelnames != family.labelnames
            ):
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{existing.kind} with labels {existing.labelnames}"
                )
            return existing

    def counter(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self, name: str, help: str, labelnames: Iterable[str] = ()
    ) -> Histogram:
        return self._register(Histogram(name, help, labelnames))

    def summary(self, name: str, help: str, *, of: Histogram) -> Summary:
        return self._register(Summary(name, help, of))

    def func(
        self, name: str, help: str, kind: str, fn: Callable
    ) -> Family:
        return self._register(_FuncFamily(name, help, kind, fn))

    def collect(self) -> List[FamilySnapshot]:
        with self._lock:
            families = list(self._families.values())
        return [
            (family.name, family.kind, family.help, family.collect())
            for family in families
        ]

    def render(self) -> str:
        return render_families(self.collect())

    def dump(self) -> Dict:
        """JSON-safe snapshot: what a worker hands its front door."""
        return {
            "families": [
                {
                    "name": name,
                    "kind": kind,
                    "help": help,
                    "samples": [
                        [sample_name, labels, value]
                        for sample_name, labels, value in samples
                    ],
                }
                for name, kind, help, samples in self.collect()
            ]
        }


def families_from_dump(
    dump: Dict, extra_labels: Optional[Dict[str, str]] = None
) -> List[FamilySnapshot]:
    """Rehydrate :meth:`MetricsRegistry.dump` output into family
    snapshots, attaching ``extra_labels`` (e.g. ``worker="0"``) to
    every sample so merged processes stay distinguishable."""
    extra = {
        str(k): str(v) for k, v in (extra_labels or {}).items()
    }
    for name in extra:
        _check_labelnames((name,))
    families: List[FamilySnapshot] = []
    for family in dump.get("families", []):
        name = _check_name(str(family["name"]))
        kind = str(family["kind"])
        if kind not in _KINDS:
            raise ValueError(f"dump family {name!r} has unknown kind {kind!r}")
        samples: List[Sample] = []
        for sample_name, labels, value in family.get("samples", []):
            merged = {str(k): str(v) for k, v in dict(labels).items()}
            merged.update(extra)
            samples.append((str(sample_name), merged, float(value)))
        families.append((name, kind, str(family.get("help", "")), samples))
    return families


def render_families(families: Iterable[FamilySnapshot]) -> str:
    """Render family snapshots as exposition text.

    Families with the same name (one per merged process) are folded
    into a single ``# TYPE`` block — the format forbids repeating one —
    after checking their kinds agree.
    """
    merged: "Dict[str, Tuple[str, str, List[Sample]]]" = {}
    for name, kind, help, samples in families:
        entry = merged.get(name)
        if entry is None:
            merged[name] = (kind, help, list(samples))
            continue
        if entry[0] != kind:
            raise ValueError(
                f"family {name!r} merged with conflicting kinds "
                f"{entry[0]!r} and {kind!r}"
            )
        entry[2].extend(samples)
    lines: List[str] = []
    for name, (kind, help, samples) in merged.items():
        lines.append(f"# HELP {name} {_escape_help(help)}")
        lines.append(f"# TYPE {name} {kind}")
        for sample_name, labels, value in samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape_label_value(str(labels[key]))}"'
                    for key in sorted(labels)
                )
                lines.append(
                    f"{sample_name}{{{rendered}}} {_format_value(value)}"
                )
            else:
                lines.append(f"{sample_name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Exposition lint
# ----------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?[ \t]+(\S+)(?:[ \t]+(\S+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)'
)


def _parse_labels(raw: str) -> Optional[Dict[str, str]]:
    """Parse a ``k="v",...`` label body; ``None`` when malformed."""
    labels: Dict[str, str] = {}
    rest = raw
    while rest:
        match = _LABEL_PAIR_RE.match(rest)
        if match is None:
            return None
        name, value = match.group(1), match.group(2)
        if name in labels:
            return None
        labels[name] = value
        rest = rest[match.end():]
    return labels


def _sample_suffixes(kind: str) -> Tuple[str, ...]:
    if kind == "histogram":
        return ("_bucket", "_sum", "_count", "")
    if kind == "summary":
        return ("_sum", "_count", "")
    return ("",)


def lint_exposition(text: str) -> List[str]:
    """Validate exposition text; returns problem strings (empty = ok).

    Checks the invariants a scraper depends on: HELP/TYPE syntax,
    known kinds, sample lines grouped under their family's TYPE block,
    sample-name suffixes legal for the kind, label syntax, parseable
    values, no duplicate series, counters non-negative, histogram
    buckets cumulative with a ``+Inf`` bucket equal to ``_count``.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    current_family: Optional[str] = None
    seen: set = set()
    buckets: Dict[Tuple[str, Tuple], List[Tuple[float, float]]] = {}
    counts: Dict[Tuple[str, Tuple], float] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                if parts[1:2] and parts[1] in ("HELP", "TYPE"):
                    problems.append(f"line {lineno}: truncated {parts[1]}")
                continue  # plain comment
            _, directive, name = parts[:3]
            if not _NAME_RE.match(name):
                problems.append(
                    f"line {lineno}: bad family name {name!r} in {directive}"
                )
                continue
            if directive == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _KINDS + ("untyped",):
                    problems.append(
                        f"line {lineno}: unknown TYPE {kind!r} for {name}"
                    )
                    continue
                if name in typed:
                    problems.append(
                        f"line {lineno}: duplicate TYPE for {name}"
                    )
                typed[name] = kind
                current_family = name
            continue

        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        sample_name, raw_labels, raw_value, _timestamp = match.groups()
        labels = _parse_labels(raw_labels) if raw_labels else {}
        if labels is None:
            problems.append(
                f"line {lineno}: malformed labels {{{raw_labels}}}"
            )
            continue
        try:
            value = float(raw_value)
        except ValueError:
            problems.append(
                f"line {lineno}: unparseable value {raw_value!r}"
            )
            continue
        family = None
        if current_family is not None:
            kind = typed[current_family]
            for suffix in _sample_suffixes(kind):
                if sample_name == current_family + suffix:
                    family = current_family
                    break
        if family is None:
            problems.append(
                f"line {lineno}: sample {sample_name!r} is not grouped "
                f"under a matching # TYPE block"
            )
            continue
        kind = typed[family]
        series = (sample_name, tuple(sorted(labels.items())))
        if series in seen:
            problems.append(
                f"line {lineno}: duplicate series {sample_name}{labels}"
            )
        seen.add(series)
        if kind == "counter" and value < 0:
            problems.append(
                f"line {lineno}: counter {sample_name} is negative"
            )
        if kind == "histogram":
            child = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            if sample_name == family + "_bucket":
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: bucket sample without le label"
                    )
                    continue
                try:
                    bound = float(labels["le"])
                except ValueError:
                    problems.append(
                        f"line {lineno}: bad le value {labels['le']!r}"
                    )
                    continue
                buckets.setdefault((family, child), []).append(
                    (bound, value)
                )
            elif sample_name == family + "_count":
                counts[(family, child)] = value

    for (family, child), pairs in buckets.items():
        bounds = [bound for bound, _ in pairs]
        if bounds != sorted(bounds):
            problems.append(f"{family}{dict(child)}: le bounds not sorted")
        values = [value for _, value in pairs]
        if values != sorted(values):
            problems.append(
                f"{family}{dict(child)}: bucket counts not cumulative"
            )
        if not pairs or not math.isinf(pairs[-1][0]):
            problems.append(f"{family}{dict(child)}: missing +Inf bucket")
        elif (family, child) in counts and (
            pairs[-1][1] != counts[(family, child)]
        ):
            problems.append(
                f"{family}{dict(child)}: +Inf bucket "
                f"{pairs[-1][1]} != _count {counts[(family, child)]}"
            )
    return problems
