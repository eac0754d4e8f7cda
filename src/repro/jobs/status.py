"""Journal presenter: collapse a journal into a progress table.

``python -m repro.jobs status journal.jsonl`` replays the journal and
renders one row per ``(model, shard)`` — items, done, retries,
quarantined, and per-item latency percentiles — plus a per-model
rollup, a run summary line, and any audit findings.  Latency comes
from :class:`repro.serve.metrics.LatencyHistogram`: one histogram
per shard, merged into per-model and run-wide rollups, so a journal of
a million items still presents from a few dozen integers per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..serve.metrics import LatencyHistogram
from .journal import JournalState, audit_journal, replay_journal

__all__ = ["ShardRow", "summarize", "render_status", "format_status"]


@dataclass
class ShardRow:
    """Aggregated journal state of one ``(model, shard)`` group."""

    model: str
    shard: str
    items: int = 0
    done: int = 0
    leased: int = 0
    #: journaled transient failures across the shard's items
    retries: int = 0
    quarantined: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)


def summarize(state: JournalState) -> List[ShardRow]:
    """One :class:`ShardRow` per ``(model, shard)``, stably sorted."""
    rows: Dict[Tuple[str, str], ShardRow] = {}
    for entry in state.items.values():
        key = (entry.model, entry.shard)
        row = rows.get(key)
        if row is None:
            row = rows[key] = ShardRow(model=entry.model, shard=entry.shard)
        row.items += 1
        row.retries += entry.failures
        if entry.status == "done":
            row.done += 1
        elif entry.status == "leased":
            row.leased += 1
        elif entry.status == "quarantined":
            row.quarantined += 1
        for seconds in entry.seconds:
            row.latency.record(seconds)
    return [rows[key] for key in sorted(rows)]


def _shard_sort_key(shard: str) -> Tuple:
    # "model#3" sorts numerically by shard index, not lexically.
    base, _, index = shard.rpartition("#")
    return (base, int(index)) if index.isdigit() else (shard, -1)


def render_status(state: JournalState) -> List[str]:
    """The status table as a list of lines (joined by the CLI)."""
    rows = summarize(state)
    rows.sort(key=lambda r: (r.model, _shard_sort_key(r.shard)))

    header = (f"{'model':<24} {'shard':>6} {'items':>6} {'done':>6} "
              f"{'retry':>6} {'quar':>5} {'p50 ms':>9} {'p95 ms':>9}")
    lines = [header, "-" * len(header)]

    def latency_cells(hist: LatencyHistogram) -> Tuple[str, str]:
        if hist.count == 0:
            return "-", "-"
        return (f"{hist.percentile(50) * 1e3:.1f}",
                f"{hist.percentile(95) * 1e3:.1f}")

    def emit(label: str, shard: str, row: ShardRow) -> None:
        p50, p95 = latency_cells(row.latency)
        lines.append(
            f"{label:<24} {shard:>6} {row.items:>6} {row.done:>6} "
            f"{row.retries:>6} {row.quarantined:>5} {p50:>9} {p95:>9}")

    current_model = None
    model_total: ShardRow = ShardRow(model="", shard="")
    run_total: ShardRow = ShardRow(model="", shard="")

    def flush_model() -> None:
        if current_model is not None and model_total.items:
            emit(f"{current_model} (all)", "", model_total)

    for row in rows:
        if row.model != current_model:
            flush_model()
            current_model = row.model
            model_total = ShardRow(model=row.model, shard="")
        shard_index = row.shard.rpartition("#")[2]
        emit(row.model, f"#{shard_index}", row)
        for total in (model_total, run_total):
            total.items += row.items
            total.done += row.done
            total.retries += row.retries
            total.quarantined += row.quarantined
            total.latency.merge(row.latency)
    flush_model()

    lines.append("-" * len(header))
    emit("total", "", run_total)

    counts = state.counts()
    progress = ", ".join(f"{counts[k]} {k}" for k in sorted(counts))
    lines.append("")
    lines.append(f"run: {'complete' if state.complete else 'in progress'}"
                 f" ({progress or 'no items'})"
                 + (f", resumed x{len(state.runs) - 1}"
                    if len(state.runs) > 1 else ""))
    findings = audit_journal(state)
    for finding in findings:
        lines.append(f"audit: {finding}")
    if not findings:
        lines.append("audit: clean (no duplicate processing)")
    return lines


def format_status(journal_path) -> str:
    """Replay ``journal_path`` and render the full status block."""
    return "\n".join(render_status(replay_journal(journal_path)))
