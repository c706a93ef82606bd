"""ASCII renderers for the paper's tables and the campaign telemetry report.

The first half renders the paper's evaluation tables (Table I/II, the
Section VI-C search-space comparison).  The second half renders what
``repro report`` shows for a recorded campaign: the throughput summary,
the slowest-run table, per-strategy timelines, and the state-transition
audit log — the paper's "manually inspect the packet captures" workflow,
reconstructed from the observability trace instead of a pcap.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.attacks_catalog import KNOWN_ATTACKS
from repro.core.baselines import SearchSpaceComparison
from repro.core.controller import CampaignResult
from repro.obs.metrics import histogram_mean, histogram_percentile


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    widths = [len(h) for h in headers]
    cells = [[str(value) for value in row] for row in rows]
    for row in cells:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    divider = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), divider]
    for row in cells:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(results: Iterable[CampaignResult]) -> str:
    """Table I: summary of SNAKE results, one row per implementation."""
    headers = (
        "Protocol",
        "Implementation",
        "Strategies Tried",
        "Attack Strategies Found",
        "On-path Attacks",
        "False Positives",
        "True Attack Strategies",
        "True Attacks",
    )
    rows: List[List[object]] = []
    for result in results:
        row = result.table1_row()
        rows.append([
            row["protocol"],
            row["implementation"] + (" (sampled)" if result.sampled else ""),
            row["strategies_tried"],
            row["attack_strategies_found"],
            row["on_path"],
            row["false_positives"],
            row["true_attack_strategies"],
            row["true_attacks"],
        ])
    return _render_table(headers, rows)


def render_table2(vulnerable: Mapping[str, Sequence[str]]) -> str:
    """Table II: discovered attacks x vulnerable implementations.

    ``vulnerable`` maps attack name -> list of implementation names found
    vulnerable (empty list = attack not reproduced).
    """
    headers = ("Protocol", "Attack", "Impact", "Known", "Found On")
    rows: List[List[object]] = []
    for attack in KNOWN_ATTACKS:
        found = vulnerable.get(attack.name, [])
        rows.append([
            attack.protocol.upper(),
            attack.name,
            attack.impact,
            attack.known_in_literature,
            ", ".join(found) if found else "-",
        ])
    return _render_table(headers, rows)


def render_searchspace(comparison: SearchSpaceComparison) -> str:
    """Section VI-C comparison table."""
    headers = (
        "Injection model",
        "Strategies",
        "CPU-hours @2min/test",
        "Wall-clock @5 executors",
        "Off-path attacks",
        "Note",
    )
    rows: List[List[object]] = []
    for cost in comparison.rows():
        if cost.wall_days_at_paper_parallelism >= 365:
            wall = f"{cost.wall_years:,.0f} years"
        else:
            wall = f"{cost.wall_days_at_paper_parallelism:,.1f} days"
        rows.append([
            cost.model,
            f"{cost.strategies:,}",
            f"{cost.cpu_hours:,.0f}",
            wall,
            "yes" if cost.supports_offpath else "NO",
            cost.note,
        ])
    return _render_table(headers, rows)


def render_campaign_health(result: CampaignResult) -> str:
    """Runtime-health summary: errors, watchdog timeouts, retries, resume.

    One table row of counters, followed by one line per permanent failure
    (strategy id, error type, message) so wedged or crashing strategies are
    visible without digging through the checkpoint journal.
    """
    health = result.health_row()
    headers = ("Errors", "Timed Out", "Retries", "Resumed", "Cache Hits", "Collapsed",
               "Quarantined", "Flaky")
    table = _render_table(
        headers,
        [[health["errors"], health["timed_out"], health["retries"],
          health["resumed"], health["cache_hits"], health["collapsed"],
          health["quarantined"], health["flaky"]]],
    )
    lines = [table]
    if result.supervisor and any(result.supervisor.values()):
        lines.append(
            "  supervisor: "
            + " ".join(f"{key}={value}" for key, value in result.supervisor.items())
        )
    if result.fabric:
        lines.append(
            "  fabric: "
            + " ".join(f"{key}={value}" for key, value in sorted(result.fabric.items()))
        )
    if result.snapshots and any(result.snapshots.values()):
        lines.append(
            "  snapshots: "
            + " ".join(f"{key}={value}" for key, value in sorted(result.snapshots.items()))
        )
    histograms = (result.metrics or {}).get("histograms", {})
    for label, name in (
        ("run wall seconds", "run.wall_seconds"),
        ("dispatch latency", "dispatch.latency_seconds"),
    ):
        data = histograms.get(name)
        if data and data.get("count"):
            lines.append(
                f"  {label}: "
                f"p50={histogram_percentile(data, 0.50):.3f}s "
                f"p95={histogram_percentile(data, 0.95):.3f}s "
                f"p99={histogram_percentile(data, 0.99):.3f}s "
                f"(n={data['count']:,})"
            )
    for error in result.errors:
        label = "timeout" if error.timed_out else error.error_type
        lines.append(
            f"  strategy {error.strategy_id}: {label} after "
            f"{error.attempts} attempt(s) — {error.message}"
        )
    return "\n".join(lines)


def render_flaky_detections(result: CampaignResult) -> str:
    """Confirm-stage detections that failed to reproduce, with evidence.

    One row per flaky strategy: the effects the sweep saw, and the target
    ratio in each stage's run so the non-reproduction is visible.
    """
    headers = ("Strategy", "Sweep Effects", "Sweep Ratio", "Confirm Ratio")
    rows: List[List[object]] = [
        [
            strategy.strategy_id,
            ", ".join(detection.unconfirmed_effects) or "-",
            f"{detection.sweep_target_ratio:.3f}",
            f"{detection.confirm_target_ratio:.3f}",
        ]
        for strategy, detection in result.flaky
    ]
    if not rows:
        return "(no flaky detections)"
    return _render_table(headers, rows)


def render_attack_clusters(result: CampaignResult) -> str:
    """Per-campaign cluster summary (which strategies map to which attack)."""
    headers = ("Attack", "Strategies", "Example")
    rows: List[List[object]] = []
    for name, members in sorted(result.attack_clusters.items()):
        example = members[0][0].describe() if members else "-"
        rows.append([name, len(members), example])
    return _render_table(headers, rows)


# ----------------------------------------------------------------------
# campaign telemetry (the ``repro report`` sections)
# ----------------------------------------------------------------------
def _fmt_num(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def render_throughput_summary(
    snapshot: Mapping[str, Any], runs: Sequence[Mapping[str, Any]]
) -> str:
    """Campaign throughput: runs, events, events/sec, run-time percentiles."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    lines = ["Campaign throughput"]
    total_runs = sum(
        counters.get(key, 0) for key in ("runs.completed", "runs.timed_out")
    )
    if total_runs or runs:
        lines.append(f"  runs executed        {total_runs or len(runs):,}"
                     f" ({counters.get('runs.timed_out', 0):,} timed out,"
                     f" {counters.get('runs.failed', 0):,} crashed,"
                     f" {counters.get('runs.retries', 0):,} retries)")
    events = counters.get("sim.events", 0)
    if events:
        lines.append(f"  simulator events     {events:,}")
    wall = histograms.get("run.wall_seconds")
    if wall and wall.get("count"):
        lines.append(
            "  run wall seconds     "
            f"mean={histogram_mean(wall):.3f} "
            f"p50={histogram_percentile(wall, 0.50):.3f} "
            f"p90={histogram_percentile(wall, 0.90):.3f} "
            f"p95={histogram_percentile(wall, 0.95):.3f} "
            f"p99={histogram_percentile(wall, 0.99):.3f} "
            f"max={wall.get('max') or 0:.3f}"
        )
        if wall.get("sum") and events:
            lines.append(f"  aggregate events/sec {events / wall['sum']:,.0f}")
    latency = histograms.get("dispatch.latency_seconds")
    if latency and latency.get("count"):
        lines.append(
            "  dispatch latency     "
            f"mean={histogram_mean(latency):.4f} "
            f"p50={histogram_percentile(latency, 0.50):.4f} "
            f"p95={histogram_percentile(latency, 0.95):.4f} "
            f"p99={histogram_percentile(latency, 0.99):.4f}"
        )
    rate = histograms.get("sim.events_per_sec")
    if rate and rate.get("count"):
        lines.append(
            "  per-run events/sec   "
            f"p50={histogram_percentile(rate, 0.50):,.0f} "
            f"p90={histogram_percentile(rate, 0.90):,.0f}"
        )
    if len(lines) == 1:
        lines.append("  (no metrics recorded — run the campaign with --metrics-out)")
    return "\n".join(lines)


def render_metrics_summary(snapshot: Mapping[str, Any]) -> str:
    """Every recorded counter/gauge, plus histogram percentiles."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    sections: List[str] = []
    scalar_rows: List[List[object]] = [
        [name, _fmt_num(value)] for name, value in sorted(counters.items())
    ] + [[name, _fmt_num(value)] for name, value in sorted(gauges.items())]
    if scalar_rows:
        sections.append(_render_table(("Metric", "Value"), scalar_rows))
    hist_rows: List[List[object]] = []
    for name, data in sorted(histograms.items()):
        if not data.get("count"):
            continue
        hist_rows.append([
            name,
            f"{data['count']:,}",
            f"{histogram_mean(data):.4g}",
            f"{histogram_percentile(data, 0.50):.4g}",
            f"{histogram_percentile(data, 0.90):.4g}",
            f"{histogram_percentile(data, 0.99):.4g}",
            f"{(data.get('max') or 0):.4g}",
        ])
    if hist_rows:
        sections.append(
            _render_table(("Histogram", "Count", "Mean", "p50", "p90", "p99", "Max"), hist_rows)
        )
    return "\n\n".join(sections) if sections else "(empty metrics snapshot)"


def render_snapshot_summary(snapshot: Mapping[str, Any]) -> str:
    """Snapshot/fork engine section of ``repro report`` (``snap.*`` counters).

    Shows the prefix-cache hit/miss/fork/elision counters, how many prefix
    events forking and elision skipped (next to the total simulator events,
    when recorded), the events the engine itself simulated for scouts,
    snapshot builds and verify runs, and the net of the two.
    """
    counters = snapshot.get("counters", {})
    stats = {
        name[len("snap."):]: value
        for name, value in sorted(counters.items())
        if name.startswith("snap.")
    }
    if not stats:
        return "  (no snapshot activity recorded)"
    lines = ["  " + " ".join(f"{key}={_fmt_num(value)}" for key, value in stats.items())]
    saved = stats.get("events_saved", 0)
    executed = counters.get("sim.events", 0)
    if saved:
        detail = f"  prefix events skipped by forking: {int(saved):,}"
        if executed:
            detail += f" (on top of {int(executed):,} executed)"
        lines.append(detail)
    phases = (("scouts", "scout_events"), ("builds", "build_events"),
              ("verify runs", "verify_events"))
    spent = sum(stats.get(key, 0) for _label, key in phases)
    if spent:
        split = ", ".join(f"{label} {int(stats.get(key, 0)):,}" for label, key in phases)
        lines.append(f"  events the engine spent: {int(spent):,} ({split})")
        lines.append(f"  net events saved (skipped - spent): {int(saved - spent):,}")
    return "\n".join(lines)


def render_slowest_runs(runs: Sequence[Mapping[str, Any]], limit: int = 10) -> str:
    """The slowest run attempts, from the trace's ``run`` spans."""
    headers = ("Stage", "Strategy", "Attempt", "Seed", "Wall s")
    ranked = sorted(runs, key=lambda r: r.get("dur", 0.0), reverse=True)[:limit]
    rows: List[List[object]] = [
        [
            run.get("stage", "?"),
            run.get("strategy_id", "-"),
            run.get("attempt", 0),
            run.get("seed", "-"),
            f"{run.get('dur', 0.0):.3f}",
        ]
        for run in ranked
    ]
    if not rows:
        return "(no run spans in trace)"
    return _render_table(headers, rows)


def _fields_str(event: Mapping[str, Any]) -> str:
    fields = event.get("fields") or {}
    return " ".join(f"{key}={value}" for key, value in fields.items())


def render_strategy_timeline(
    strategy_id: Optional[int], events: Sequence[Mapping[str, Any]]
) -> str:
    """One strategy's trace records as a wall-clock-relative timeline."""
    label = "baseline" if strategy_id is None else f"strategy {strategy_id}"
    if not events:
        return f"{label}: (no trace records)"
    t0 = events[0].get("ts", 0.0)
    lines = [f"{label} timeline ({len(events)} records)"]
    for event in events:
        offset = event.get("ts", t0) - t0
        attempt = event.get("attempt")
        tag = f"a{attempt}" if attempt is not None else "--"
        dur = f" dur={event['dur']:.3f}s" if "dur" in event else ""
        details = _fields_str(event)
        lines.append(
            f"  +{offset:8.3f}s [{tag}] {event.get('kind', '?'):5s} "
            f"{event.get('name', '?'):22s}{dur}"
            + (f"  {details}" if details else "")
        )
    return "\n".join(lines)


def render_supervision_report(
    kills: Sequence[Mapping[str, Any]], quarantines: Sequence[Mapping[str, Any]]
) -> str:
    """Supervised-pool section of ``repro report``: kills and quarantines.

    ``kills``/``quarantines`` are the trace's ``supervisor.kill`` /
    ``supervisor.quarantine`` events (see :mod:`repro.obs.store`).
    """
    if not kills and not quarantines:
        return "(no supervisor interventions in trace)"
    lines = [
        f"  worker kills/losses  {len(kills)}"
        + (
            "  ("
            + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(_count_by(kills, "reason").items())
            )
            + ")"
            if kills
            else ""
        )
    ]
    if quarantines:
        headers = ("Strategy", "Strikes", "Last Reason")
        rows: List[List[object]] = [
            [
                (event.get("fields") or {}).get("strategy_id", "?"),
                (event.get("fields") or {}).get("strikes", "?"),
                (event.get("fields") or {}).get("reason", "?"),
            ]
            for event in quarantines
        ]
        lines.append("  quarantined strategies:")
        lines.append(_render_table(headers, rows))
    return "\n".join(lines)


def _count_by(events: Sequence[Mapping[str, Any]], key: str) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for event in events:
        value = str((event.get("fields") or {}).get(key, "?"))
        counts[value] = counts.get(value, 0) + 1
    return counts


def render_verdicts(
    verdicts: Sequence[Mapping[str, Any]], baseline: Mapping[str, Any]
) -> str:
    """Confirm-verdict section of ``repro report``.

    ``verdicts`` are the trace's ``detector.confirm`` events; ``baseline``
    the ``detector.baseline`` fields (the noise band every detection had
    to clear), when the campaign recorded them.
    """
    if not verdicts:
        return "(no confirm verdicts in trace)"
    lines = []
    if baseline:
        lines.append(
            f"  baseline noise band  {baseline.get('runs', '?')} run(s), "
            f"target {_fmt_num(baseline.get('target_bytes', 0))}"
            f" ± {baseline.get('noise_sigmas', 0)}σ"
            f"·{_fmt_num(baseline.get('target_bytes_std', 0))} bytes"
        )
    headers = ("Strategy", "Verdict", "Confirmed Effects", "Unconfirmed",
               "Sweep Ratio", "Confirm Ratio")
    rows: List[List[object]] = []
    for event in verdicts:
        fields = event.get("fields") or {}
        rows.append([
            fields.get("strategy_id", "?"),
            fields.get("verdict", "?"),
            ", ".join(fields.get("effects", [])) or "-",
            ", ".join(fields.get("unconfirmed", [])) or "-",
            fields.get("sweep_target_ratio", "-"),
            fields.get("confirm_target_ratio", "-"),
        ])
    lines.append(_render_table(headers, rows))
    return "\n".join(lines)


def render_transition_log(
    transitions: Sequence[Mapping[str, Any]], limit: Optional[int] = 40
) -> str:
    """State-tracker audit log: every inferred transition, in order."""
    headers = ("Stage", "Strategy", "Role", "Sim Time", "From", "Event", "To")
    shown = list(transitions) if limit is None else list(transitions)[:limit]
    rows: List[List[object]] = []
    for event in shown:
        fields = event.get("fields") or {}
        rows.append([
            event.get("stage", "?"),
            event.get("strategy_id", "-"),
            fields.get("role", "?"),
            f"{fields.get('sim_time', 0.0):.3f}",
            fields.get("src", "?"),
            fields.get("event", "?"),
            fields.get("dst", "?"),
        ])
    if not rows:
        return "(no tracker transitions in trace)"
    table = _render_table(headers, rows)
    omitted = len(transitions) - len(shown)
    if omitted > 0:
        table += f"\n  ... {omitted} more transition(s); use --transitions to raise the cap"
    return table


# ----------------------------------------------------------------------
# fleet telemetry (the ``repro top`` / ``repro report --store`` section)
# ----------------------------------------------------------------------
def render_fleet(overview: Mapping[str, Any]) -> str:
    """One frame of the live fleet view, from a :func:`fleet_overview` dict.

    Campaign line, per-participant table (heartbeat age, progress,
    events/sec, straggler flag), lease-state counts, per-stage
    completion, fleet events/sec and the ETA.
    """
    lines: List[str] = []
    manifest = overview.get("manifest")
    if manifest:
        fingerprint = str(manifest.get("spec_fingerprint") or "?")[:12]
        lines.append(f"Campaign {fingerprint}  status={manifest.get('status', '?')}")
    else:
        lines.append("Campaign (no manifest in store)")
    workers = overview.get("workers") or []
    if workers:
        headers = ("Participant", "Host", "Role", "Phase", "HB Age",
                   "Units", "Commits", "Dups", "Events/s", "Stalled")
        rows: List[List[object]] = [
            [
                str(worker.get("worker_id", "?"))[:32],
                worker.get("host", "?"),
                worker.get("role", "?"),
                worker.get("phase", "?"),
                f"{worker.get('heartbeat_age', 0.0):.1f}s",
                worker.get("units_done", 0),
                worker.get("commits", 0),
                worker.get("duplicates", 0),
                f"{worker.get('events_per_sec', 0.0):,.0f}",
                worker.get("straggler_reason") or "-",
            ]
            for worker in workers
        ]
        lines.append(_render_table(headers, rows))
    else:
        lines.append("(no participant status records in the telemetry namespace)")
    leases = overview.get("leases") or {}
    if leases.get("total"):
        lines.append(
            f"  leases: pending={leases.get('pending', 0)} "
            f"leased={leases.get('leased', 0)} "
            f"done={leases.get('done', 0)}/{leases.get('total', 0)} "
            f"reclaims={leases.get('reclaims', 0)}"
        )
        for stage, bucket in sorted((leases.get("stages") or {}).items()):
            lines.append(
                f"  stage {stage}: {bucket.get('done', 0)}/{bucket.get('total', 0)} units"
            )
    summary = f"  fleet events/sec: {overview.get('events_per_sec', 0.0):,.0f}"
    eta = overview.get("eta_seconds")
    if eta is not None:
        summary += f"   eta: {eta:,.0f}s"
    lines.append(summary)
    return "\n".join(lines)
