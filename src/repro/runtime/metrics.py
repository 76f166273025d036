"""Run metrics: the quantities the experiments report.

``RunMetrics`` is a plain summary computed once at the end of a run from
the protocol counters, the network, the oracle, and harness-level event
records.  Experiments print selected columns; tests assert on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple


def sample_mean(samples: Sequence[float]) -> float:
    """Arithmetic mean that is safe on degenerate windows.

    An empty window reports 0.0 instead of raising: latency accounting
    runs on every control tick and at the end of every run, including
    runs (or windows) that committed nothing.
    """
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def sample_percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an (unsorted) sample window.

    Degenerate windows are well-defined rather than errors: an empty
    window reports 0.0 and a single-sample window reports that sample
    for every q.  (:func:`repro.analysis.stats.percentile` raises on an
    empty sample by design — experiment aggregation treats an empty
    series as a bug; runtime latency windows must not.)
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def output_latency(now: float, record: Any, wait: float) -> float:
    """One committed output's latency sample: end-to-end (injection to
    commit) when the payload carries an open-loop injection stamp ``t0``,
    the output's buffer residence time ``wait`` otherwise."""
    payload = getattr(record, "payload", None)
    if isinstance(payload, dict):
        t0 = payload.get("t0")
        if isinstance(t0, (int, float)):
            return now - float(t0)
    return wait


def mean_recovery_span(crash_events: Iterable[Tuple[float, int]],
                       rollback_events: Iterable[Tuple[float, int]]) -> float:
    """Mean time from a crash to the last rollback it caused.

    Each rollback is attributed to the most recent crash at or before it:
    a crash's recovery window closes when the next crash opens, otherwise
    every late rollback would inflate the span of every earlier crash.
    Both arguments are ``(time, pid)`` pairs in any order; crashes without
    a rollback in their window do not count, and no span at all gives 0.
    """
    rollback_times = [t for t, _pid in rollback_events]
    crash_times = sorted({t for t, _pid in crash_events})
    spans = []
    for i, crash_time in enumerate(crash_times):
        window_end = (crash_times[i + 1] if i + 1 < len(crash_times)
                      else float("inf"))
        window = [t for t in rollback_times if crash_time <= t < window_end]
        if window:
            spans.append(max(window) - crash_time)
    return sum(spans) / len(spans) if spans else 0.0


@dataclass
class RunMetrics:
    """Aggregated results of one simulation run."""

    # -- identification -----------------------------------------------------
    n: int = 0
    k: int = 0
    duration: float = 0.0

    # -- failure-free behaviour -------------------------------------------
    messages_enqueued: int = 0
    messages_released: int = 0
    messages_delivered: int = 0
    mean_send_hold: float = 0.0
    max_send_hold: float = 0.0
    mean_delivery_wait: float = 0.0
    mean_piggyback_entries: float = 0.0
    max_piggyback_entries: int = 0
    sync_writes: int = 0
    async_writes: int = 0
    storage_cost: float = 0.0
    control_messages: int = 0
    outputs_committed: int = 0
    mean_output_latency: float = 0.0

    # -- output-commit latency SLO ------------------------------------------
    #: End-to-end output-commit latency percentiles.  Samples are measured
    #: from workload injection (payloads carrying ``t0``, e.g. the
    #: open-loop workload) or, for payloads without an injection stamp,
    #: from output enqueue to commit.
    output_latency_p50: float = 0.0
    output_latency_p95: float = 0.0
    output_latency_p99: float = 0.0
    output_latency_count: int = 0
    #: The configured latency target (0 disables SLO accounting) and the
    #: fraction of samples that met it (1.0 with no target or no samples).
    slo_target: float = 0.0
    slo_attained: float = 1.0

    # -- adaptive-K control ---------------------------------------------------
    adaptive_k: bool = False
    #: Total K changes across all per-process controllers.
    k_decisions: int = 0
    #: Mean K over every controller observation, and the mean final K.
    k_mean: float = 0.0
    k_final_mean: float = 0.0

    # -- recovery behaviour ---------------------------------------------------
    crashes: int = 0
    rollbacks: int = 0
    processes_rolled_back: int = 0
    intervals_undone: int = 0
    intervals_lost: int = 0
    orphans_discarded: int = 0
    outputs_discarded: int = 0
    messages_requeued: int = 0
    duplicates_dropped: int = 0
    app_messages_lost: int = 0
    retransmissions: int = 0
    gc_reclaimed: int = 0
    final_log_records: int = 0
    final_checkpoints: int = 0
    mean_recovery_span: float = 0.0

    # -- storage backend (file-log; zeros on the in-memory model) -------------
    storage_bytes_written: int = 0
    storage_bytes_fsynced: int = 0
    storage_fsyncs: int = 0
    storage_group_commits: int = 0
    storage_forced_commits: int = 0
    storage_io_errors: int = 0
    storage_io_retries: int = 0
    storage_fsync_lies: int = 0
    storage_recoveries: int = 0
    storage_recovered_records: int = 0
    storage_torn_dropped: int = 0
    storage_corrupt_dropped: int = 0
    #: Wall-clock seconds spent in REDO recovery scans (not virtual time).
    storage_recovery_wall_s: float = 0.0
    #: Times a backend declared itself dead (retry budget exhausted or an
    #: injected fsync-boundary crash).
    storage_dead_declared: int = 0
    #: Dead-backend events the runtime converted into fail-stop crashes.
    storage_deaths: int = 0

    # -- unreliable network ---------------------------------------------------
    app_drops: int = 0
    control_drops: int = 0
    partition_drops: int = 0
    duplicates_injected: int = 0
    partitions: int = 0
    partition_time: float = 0.0
    #: Timer-driven app-message retransmissions (sender timeout fired).
    timer_retransmissions: int = 0
    acks_received: int = 0
    retransmit_budget_exhausted: int = 0
    #: Control-plane (envelope) retransmission statistics.
    ctl_retransmits: int = 0
    ctl_acked: int = 0
    ctl_budget_exhausted: int = 0
    mean_ack_rtt: float = 0.0
    #: Outputs still waiting in some Output_buffer at the end of the run.
    outputs_pending: int = 0

    # -- ground truth -----------------------------------------------------------
    total_intervals: int = 0
    rolled_back_intervals: int = 0
    #: Largest oracle-computed potential-revoker set observed at any
    #: app-message release (Theorem 4 bounds this by K).
    max_release_revokers: int = 0
    violations: List[str] = field(default_factory=list)

    def throughput(self) -> float:
        """Delivered application messages per virtual time unit."""
        if self.duration <= 0:
            return 0.0
        return self.messages_delivered / self.duration

    def as_row(self) -> Dict[str, object]:
        """Flat dict for tabular reports."""
        return {
            "n": self.n,
            "K": self.k,
            "released": self.messages_released,
            "delivered": self.messages_delivered,
            "hold_mean": round(self.mean_send_hold, 3),
            "pgb_mean": round(self.mean_piggyback_entries, 3),
            "sync_w": self.sync_writes,
            "async_w": self.async_writes,
            "outputs": self.outputs_committed,
            "out_lat": round(self.mean_output_latency, 3),
            "crashes": self.crashes,
            "rollbacks": self.rollbacks,
            "procs_rb": self.processes_rolled_back,
            "undone": self.intervals_undone,
            "orphans": self.orphans_discarded,
        }


def format_table(rows: List[Dict[str, object]]) -> str:
    """Render a list of row dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), max(len(str(r.get(h, ""))) for r in rows)) for h in headers
    }
    lines = [
        "  ".join(str(h).rjust(widths[h]) for h in headers),
        "  ".join("-" * widths[h] for h in headers),
    ]
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).rjust(widths[h]) for h in headers))
    return "\n".join(lines)
