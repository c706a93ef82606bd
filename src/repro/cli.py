"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``campaign``    — run a full SNAKE campaign against one implementation
* ``serve``       — run the multi-tenant campaign service (HTTP control plane)
* ``submit``      — submit a campaign to a running service over HTTP
* ``worker``      — serve leased work units from a shared fabric store
* ``top``         — live fleet view of a fabric campaign (from the store)
* ``baseline``    — run and print the non-attack baseline metrics
* ``report``      — inspect a recorded campaign's trace/metrics telemetry
* ``searchspace`` — the Section VI-C injection-model comparison
* ``variants``    — list the available implementation variants

Shared artifact stores are addressed by URL: ``dir://PATH`` (sharded JSON
directory), ``sqlite://PATH`` (one WAL database file) or ``memory://NAME``
(in-process, tests only).

Global ``-v/-vv`` and ``-q`` flags control the standard :mod:`logging`
output from the ``repro.*`` subsystem loggers (controller, parallel pool,
observability); they go to stderr so stdout stays parseable.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from typing import List, Optional

from repro.api import CampaignSpec, run_campaign
from repro.core import (
    ConfirmationPolicy,
    Executor,
    JournalMismatch,
    RetryPolicy,
    SupervisionConfig,
    TestbedConfig,
    compare_injection_models,
)
from repro.core.generation import StrategyGenerator
from repro.core.reporting import (
    render_attack_clusters,
    render_campaign_health,
    render_flaky_detections,
    render_fleet,
    render_metrics_summary,
    render_searchspace,
    render_slowest_runs,
    render_snapshot_summary,
    render_strategy_timeline,
    render_supervision_report,
    render_table1,
    render_throughput_summary,
    render_transition_log,
    render_verdicts,
)
from repro.dccpstack.variants import DCCP_VARIANTS
from repro.fabric.store import STORE_SCHEMES
from repro.obs import ObsConfig
from repro.obs.store import (
    baseline_stats,
    confirm_verdicts,
    has_baseline,
    load_metrics_snapshot,
    load_trace_dir,
    quarantine_events,
    run_spans,
    strategy_ids,
    strategy_timeline,
    supervisor_kills,
    transition_events,
)
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine
from repro.tcpstack.variants import TCP_VARIANTS


def _configure_logging(args: argparse.Namespace) -> None:
    """Map ``-q``/``-v``/``-vv`` to a root logging level on stderr."""
    if getattr(args, "quiet", False):
        level = logging.ERROR
    else:
        verbosity = getattr(args, "verbose", 0)
        level = {0: logging.WARNING, 1: logging.INFO}.get(verbosity, logging.DEBUG)
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        datefmt="%H:%M:%S",
    )


def _nonnegative_int(value: str) -> int:
    """Argparse type: an int >= 0 (``--retries``)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _positive_int(value: str) -> int:
    """Argparse type: an int >= 1 (``--batch-size``, ``--workers``, ...)."""
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    """Argparse type: a float > 0 (``--run-budget``, ``--slot-budget``)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _nonnegative_float(value: str) -> float:
    """Argparse type: a float >= 0 (``--retry-backoff``, ``--noise-sigmas``)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {parsed}")
    return parsed


def _store_url(value: str) -> str:
    """Argparse type: an artifact-store URL (``--store``, ``--snap-store``)."""
    scheme, sep, _ = value.partition("://")
    if not sep or scheme not in STORE_SCHEMES:
        raise argparse.ArgumentTypeError(
            f"{value!r} is not a store URL; expected one of "
            f"{', '.join(s + '://' for s in STORE_SCHEMES)}"
        )
    return value


def _fraction(value: str) -> float:
    """Argparse type: a float in [0, 1] (``--snap-verify-fraction``)."""
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {parsed}")
    return parsed


def _add_target_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", choices=("tcp", "dccp"), default="tcp")
    parser.add_argument("--variant", default=None,
                        help="implementation variant (default: linux-3.13 / linux-3.13-dccp)")


def _testbed_from_args(args: argparse.Namespace, **overrides: object) -> TestbedConfig:
    """The one place target flags become a :class:`TestbedConfig`.

    Every subcommand that takes ``--protocol``/``--variant`` goes through
    here; ``overrides`` carries subcommand-specific extras (watchdogs).
    """
    variant = args.variant
    if variant is None:
        variant = "linux-3.13" if args.protocol == "tcp" else "linux-3.13-dccp"
    return TestbedConfig(protocol=args.protocol, variant=variant, **overrides)  # type: ignore[arg-type]


def cmd_variants(args: argparse.Namespace) -> int:
    print("TCP variants:")
    for name, variant in sorted(TCP_VARIANTS.items()):
        print(f"  {name:14s} congestion={variant.congestion:10s} "
              f"invalid-flags={variant.invalid_flags_policy:12s} "
              f"close-wait={variant.close_wait_policy}")
    print("DCCP variants:")
    for name, variant in sorted(DCCP_VARIANTS.items()):
        print(f"  {name:22s} request-type-check-first={variant.request_type_check_first}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    result = Executor(_testbed_from_args(args)).run(None)
    print(f"target connection:    {result.target_bytes} bytes")
    print(f"competing connection: {result.competing_bytes} bytes")
    print(f"server1 census:       {result.server1_census or '{}'}")
    print(f"observed (state, packet type) pairs:")
    for state, ptype in result.observed_pairs:
        print(f"  {state:12s} {ptype}")
    return 0


def _obs_from_args(args: argparse.Namespace) -> Optional[ObsConfig]:
    """Build the campaign's observability config from CLI flags (or None)."""
    if not (args.trace_dir or args.metrics_out or args.profile):
        return None
    return ObsConfig(
        trace_dir=args.trace_dir,
        metrics=args.metrics_out is not None,
        profile_dir=args.profile,
        profile_keep=args.profile_keep,
    )


#: supervisor tuning flags that contradict an explicit ``--workers 1``
#: (one worker runs in-process, unsupervised); the argparse defaults are
#: ``None`` so explicit use is detectable
_SUPERVISION_FLAGS = (
    ("slot_budget", "--slot-budget"),
    ("quarantine_after", "--quarantine-after"),
    ("max_tasks_per_child", "--max-tasks-per-child"),
)

#: downstream default when --quarantine-after is not given
DEFAULT_QUARANTINE_AFTER = 3

#: snapshot tuning flags that require ``--snapshots``; argparse defaults
#: are ``None`` so explicit use is detectable
_SNAPSHOT_FLAGS = (
    ("snap_verify_fraction", "--snap-verify-fraction"),
    ("snap_store", "--snap-store"),
)


def _validate_campaign_flags(args: argparse.Namespace) -> Optional[str]:
    """Flag-combination checks, rejected at parse time like the scalar
    argparse types.  Returns an error message or ``None``."""
    if args.workers == 1:
        for attr, flag in _SUPERVISION_FLAGS:
            if getattr(args, attr) is not None:
                return f"{flag} has no effect with --workers 1 (runs in-process)"
    if args.snapshots and args.no_snapshots:
        return "--snapshots and --no-snapshots are mutually exclusive"
    if not args.snapshots:
        for attr, flag in _SNAPSHOT_FLAGS:
            if getattr(args, attr) is not None:
                return f"{flag} has no effect without --snapshots"
    if args.resume is True and not args.checkpoint:
        # bare --resume names no journal; require --checkpoint to supply it
        return "--resume without a journal requires --checkpoint"
    if isinstance(args.resume, str) and args.checkpoint and args.checkpoint != args.resume:
        return (
            f"--resume {args.resume} and --checkpoint {args.checkpoint} "
            "name different journals"
        )
    if args.fabric and not args.store:
        return "--fabric requires --store (the shared artifact store)"
    if not args.fabric:
        for attr, flag in (
            ("store", "--store"), ("lease_ttl", "--lease-ttl"), ("lease_size", "--lease-size"),
            ("telemetry_interval", "--telemetry-interval"), ("stall_window", "--stall-window"),
            ("store_retries", "--store-retries"), ("store_backoff", "--store-backoff"),
        ):
            if getattr(args, attr) is not None:
                return f"{flag} has no effect without --fabric"
    return None


def _spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    """Build the campaign's :class:`CampaignSpec` from CLI flags.

    ``--spec FILE`` loads the whole spec from one JSON artifact (written by
    ``--spec-out`` or by hand) and takes precedence over the per-field
    flags; ``--no-cache`` still applies on top so a cached spec can be
    forced to re-execute, ``--fabric --store`` still applies on top so
    a recorded spec can be re-run distributed, and
    ``--snapshots``/``--no-snapshots`` still apply on top (they are
    fingerprint-neutral, so toggling them never changes the campaign's
    identity).
    """
    resume_path = args.resume if isinstance(args.resume, str) else None
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = CampaignSpec.from_dict(json.load(fh))
    else:
        quarantine_after = (
            args.quarantine_after if args.quarantine_after is not None
            else DEFAULT_QUARANTINE_AFTER
        )
        spec = CampaignSpec(
            testbed=_testbed_from_args(
                args, max_events=args.max_events, run_budget=args.run_budget
            ),
            workers=1 if args.workers is None else args.workers,
            sample_every=args.sample_every,
            retry=RetryPolicy(retries=args.retries, backoff=args.retry_backoff),
            checkpoint=resume_path or args.checkpoint,
            resume=args.resume is not None,
            cache_dir=args.cache_dir,
            batch_size=args.batch_size,
            obs=_obs_from_args(args),
            supervision=SupervisionConfig(
                slot_budget=args.slot_budget,
                max_tasks_per_child=args.max_tasks_per_child,
                quarantine_after=quarantine_after,
            ),
            confirmation=ConfirmationPolicy(
                baseline_runs=args.baseline_runs,
                noise_sigmas=args.noise_sigmas,
            ),
        )
    if args.no_cache:
        spec = spec.with_overrides(cache_dir=None)
    if args.no_snapshots:
        spec = spec.with_overrides(snapshots=replace(spec.snapshots, enabled=False))
    elif args.snapshots:
        snap_overrides = {"enabled": True}
        if args.snap_verify_fraction is not None:
            snap_overrides["verify_fraction"] = args.snap_verify_fraction
        if args.snap_store is not None:
            snap_overrides["store"] = args.snap_store
        spec = spec.with_overrides(
            snapshots=replace(spec.snapshots, **snap_overrides)
        )
    if args.fabric:
        from repro.fabric.config import FabricConfig

        spec = spec.with_overrides(
            fabric=FabricConfig(
                store=args.store,
                lease_ttl=args.lease_ttl if args.lease_ttl is not None else 30.0,
                lease_size=args.lease_size if args.lease_size is not None else 4,
                telemetry_interval=(
                    args.telemetry_interval if args.telemetry_interval is not None else 1.0
                ),
                stall_window=args.stall_window if args.stall_window is not None else 15.0,
                store_retries=(
                    args.store_retries if args.store_retries is not None else 0
                ),
                store_backoff=(
                    args.store_backoff if args.store_backoff is not None else 0.05
                ),
            )
        )
    return spec


def cmd_campaign(args: argparse.Namespace) -> int:
    problem = _validate_campaign_flags(args)
    if problem is not None:
        args.parser.error(problem)  # exits with status 2, argparse-style
    try:
        spec = _spec_from_args(args)
    except (OSError, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: cannot build campaign spec: {exc}\n")
        return 2
    if args.spec_out:
        with open(args.spec_out, "w", encoding="utf-8") as fh:
            json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        sys.stderr.write(f"campaign spec written to {args.spec_out}\n")
    if args.dry_run:
        # the reproducibility artifact on stdout; identity on stderr
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        sys.stderr.write(f"spec fingerprint: {spec.fingerprint()}\n")
        return 0
    started = time.time()

    def progress(stage: str, done: int, total: int) -> None:
        if done == total or done % 50 == 0:
            sys.stderr.write(f"\r[{time.time() - started:6.1f}s] {stage}: {done}/{total}  ")
            sys.stderr.flush()

    from repro.fabric.coordinator import FabricMismatch

    try:
        result = run_campaign(spec, progress=progress)
    except (JournalMismatch, FabricMismatch) as exc:
        sys.stderr.write(f"\nerror: {exc}\n")
        return 2
    sys.stderr.write("\n")
    print(render_table1([result]))
    print()
    print(render_attack_clusters(result))
    print()
    print(render_campaign_health(result))
    if result.flaky:
        print()
        print("Flaky detections (did not reproduce in the confirm stage)")
        print(render_flaky_detections(result))
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(result.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
        sys.stderr.write(f"metrics snapshot written to {args.metrics_out}\n")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant campaign service (``repro serve``)."""
    from repro.service.app import CampaignService
    from repro.service.http import serve
    from repro.service.quota import TenantQuota, parse_quota_flag

    try:
        quotas = parse_quota_flag(args.quota) if args.quota else {}
        default_quota = TenantQuota(
            max_concurrent_campaigns=args.default_max_campaigns,
            max_leased_units=args.default_max_units,
        )
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    service = CampaignService(
        args.store,
        quotas=quotas,
        default_quota=default_quota,
        max_total_campaigns=args.max_campaigns,
        quarantine_after=args.quarantine_after,
        store_retries=args.store_retries,
        store_backoff=args.store_backoff,
    )
    # service HA: campaigns a previous (killed) serve process left running
    # on the store get their drive loops back before we accept traffic
    for record in service.reattach_detached():
        sys.stderr.write(
            f"re-attached campaign {record['campaign_id']} "
            f"(tenant {record['tenant']})\n"
        )
    serve(service, host=args.host, port=args.port)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a campaign to a running service (``repro submit``)."""
    from repro.service.client import ServiceClient, ServiceHTTPError

    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    else:
        spec = CampaignSpec(
            testbed=_testbed_from_args(args),
            sample_every=args.sample_every,
            workers=args.workers,
        )
        document = spec.to_dict()
    if args.tenant is not None:
        document["tenant"] = args.tenant

    client = ServiceClient(args.host, args.port)
    try:
        submitted = client.submit(document)
    except ServiceHTTPError as exc:
        sys.stderr.write(f"error: submit rejected: {exc}\n")
        return 2 if exc.status == 422 else 3
    except OSError as exc:
        sys.stderr.write(f"error: cannot reach service at "
                         f"{args.host}:{args.port}: {exc}\n")
        return 3
    campaign_id = submitted["campaign_id"]
    sys.stderr.write(f"campaign {campaign_id} submitted "
                     f"(tenant {submitted.get('tenant')})\n")
    if not args.wait:
        print(json.dumps(submitted, sort_keys=True))
        return 0
    try:
        final = client.wait(campaign_id, timeout=args.timeout)
    except TimeoutError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    sys.stderr.write(f"campaign {campaign_id} finished: {final.get('status')}\n")
    if args.report_out or final.get("status") == "complete":
        try:
            report = client.report(campaign_id)
        except ServiceHTTPError as exc:
            sys.stderr.write(f"error: report unavailable: {exc}\n")
            print(json.dumps(final, sort_keys=True))
            return 1
        if args.report_out:
            with open(args.report_out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            sys.stderr.write(f"report written to {args.report_out}\n")
        print(json.dumps(report, sort_keys=True))
    else:
        print(json.dumps(final, sort_keys=True))
    return 0 if final.get("status") == "complete" else 1


def cmd_worker(args: argparse.Namespace) -> int:
    """Serve leased fabric work units (``repro worker --store ...``)."""
    from repro.fabric.store import store_for
    from repro.fabric.worker import FabricWorker

    obs = None
    if args.trace_dir or args.metrics_out:
        obs = ObsConfig(trace_dir=args.trace_dir, metrics=args.metrics_out is not None)
    store = store_for(
        args.store, retries=args.store_retries, backoff=args.store_backoff
    )
    worker = FabricWorker(
        store, workers=args.workers, obs=obs, poll_interval=args.poll
    )
    sys.stderr.write(f"worker {worker.worker_id} serving store {args.store}\n")
    try:
        stats = worker.run(
            once=args.once,
            idle_exit=args.idle_exit,
            manifest_timeout=args.manifest_timeout,
        )
    finally:
        store.close()
    if args.metrics_out:
        from repro.obs.metrics import METRICS

        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(METRICS.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.stderr.write(
        f"worker {worker.worker_id} done: "
        + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        + "\n"
    )
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet view of a fabric campaign (``repro top --store ...``).

    Reads only the shared artifact store — no shared trace directory, no
    connection to any worker — so it works from any host that can see the
    store.  The refresh loop exits on its own once the campaign manifest
    goes complete/failed; ``--once`` renders one frame for scripts and CI.
    """
    from repro.fabric.store import StoreCorrupt, scoped_store, store_for
    from repro.obs.fleet import FleetAggregator, fleet_overview

    store = store_for(
        args.store, retries=args.store_retries, backoff=args.store_backoff
    )
    view = scoped_store(store, args.campaign)
    try:
        # one long-lived aggregator, so no-progress straggler detection
        # works across refreshes (heartbeat stalls need only one frame)
        aggregator = FleetAggregator(view, stall_window=args.stall_window)
        while True:
            try:
                overview = fleet_overview(
                    view, stall_window=args.stall_window, aggregator=aggregator
                )
            except (OSError, StoreCorrupt) as exc:
                # the store blinked (outage, torn record mid-rewrite):
                # keep the view alive instead of tracebacking — the next
                # frame usually reads clean
                sys.stderr.write(f"warning: store unreadable this frame: {exc}\n")
                if args.once:
                    return 1
                try:
                    time.sleep(args.interval)
                except KeyboardInterrupt:
                    return 0
                continue
            if args.json:
                print(json.dumps(overview, sort_keys=True))
            else:
                if not args.once and sys.stdout.isatty():
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear screen, home cursor
                print(render_fleet(overview))
                torn = overview.get("torn_records", 0)
                if torn:
                    print(f"warning: skipped {torn} torn telemetry record(s)")
            sys.stdout.flush()
            if args.once:
                return 0
            status = (overview.get("manifest") or {}).get("status")
            if status in ("complete", "failed", "cancelled"):
                return 0
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0
            if not sys.stdout.isatty() and not args.json:
                print()
    finally:
        store.close()


def _strategy_token(value: str) -> Optional[int]:
    """``--strategy`` value: a strategy id, or ``baseline`` (-> ``None``)
    for the non-attack baseline runs (which carry no strategy id)."""
    if value.lower() == "baseline":
        return None
    return int(value)


def cmd_report(args: argparse.Namespace) -> int:
    """Render a recorded campaign's telemetry (``repro report``).

    Sources compose: a trace directory gives run spans/timelines, a
    metrics snapshot gives the counter/histogram tables, and ``--store``
    reads the fleet telemetry namespace of a fabric store directly (no
    shared filesystem with the workers needed) — the merged cross-host
    registry stands in for the metrics snapshot when none is given.
    """
    if not args.trace_dir and not args.store:
        sys.stderr.write("error: report needs a TRACE_DIR and/or --store\n")
        return 2
    events: List[dict] = []
    if args.trace_dir:
        try:
            events = load_trace_dir(args.trace_dir)
        except FileNotFoundError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    snapshot = {}
    if args.metrics:
        try:
            snapshot = load_metrics_snapshot(args.metrics)
        except (OSError, ValueError) as exc:
            sys.stderr.write(f"error: cannot read metrics snapshot: {exc}\n")
            return 2
    overview = None
    if args.store:
        from repro.fabric.store import scoped_store, store_for
        from repro.obs.fleet import FleetAggregator, fleet_overview

        store = store_for(args.store)
        view = scoped_store(store, args.campaign)
        try:
            overview = fleet_overview(view)
            if not snapshot:
                # every participant publishes its cumulative registry, so
                # the merge covers coordinator + every worker host
                snapshot = FleetAggregator(view).merged_metrics(
                    include_roles=("worker", "coordinator")
                )
        finally:
            store.close()

    if overview is not None:
        print("Fleet")
        print(render_fleet(overview))
        print()
    runs = run_spans(events)
    print(render_throughput_summary(snapshot, runs))

    if any(key.startswith("snap.") for key in (snapshot.get("counters") or {})):
        print()
        print("Snapshots")
        print(render_snapshot_summary(snapshot))

    if args.trace_dir:
        print()
        print("Slowest runs")
        print(render_slowest_runs(runs, args.slowest))

        if args.strategy is not None:
            shown_ids: List[Optional[int]] = list(args.strategy)
        else:
            # default view: the baseline timeline (when traced) plus the
            # first few strategies
            shown_ids = [None] if has_baseline(events) else []
            shown_ids += list(strategy_ids(events))[: args.timelines]
        for sid in shown_ids:
            print()
            print(render_strategy_timeline(sid, strategy_timeline(events, sid)))

        if args.strategy:
            first = args.strategy[0]
            transitions = (
                transition_events(events, stage="baseline")
                if first is None
                else transition_events(events, first)
            )
        else:
            transitions = transition_events(events)
        print()
        print("State-transition audit log")
        print(render_transition_log(transitions, args.transitions))

        kills = supervisor_kills(events)
        quarantines = quarantine_events(events)
        if kills or quarantines:
            print()
            print("Supervision")
            print(render_supervision_report(kills, quarantines))

        verdicts = confirm_verdicts(events)
        if verdicts:
            print()
            print("Confirm verdicts")
            print(render_verdicts(verdicts, baseline_stats(events)))

    if snapshot:
        print()
        print(render_metrics_summary(snapshot))

    if args.export_prom:
        from repro.obs.fleet import prometheus_text

        if not snapshot:
            sys.stderr.write(
                "error: --export-prom needs metrics (a METRICS snapshot "
                "or --store with telemetry)\n"
            )
            return 2
        with open(args.export_prom, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(snapshot))
        sys.stderr.write(f"prometheus metrics written to {args.export_prom}\n")
    return 0


def cmd_searchspace(args: argparse.Namespace) -> int:
    if args.protocol == "tcp":
        generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
    else:
        generator = StrategyGenerator("dccp", DCCP_FORMAT, dccp_state_machine())
    baseline_run = Executor(_testbed_from_args(args)).run(None)
    print(render_searchspace(compare_injection_models(generator, baseline_run)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNAKE: state-machine-guided attack discovery (DSN 2015 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log INFO (-v) or DEBUG (-vv) to stderr")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("variants", help="list implementation variants")
    sub.set_defaults(handler=cmd_variants)

    sub = subparsers.add_parser("baseline", help="run the non-attack baseline")
    _add_target_arguments(sub)
    sub.set_defaults(handler=cmd_baseline)

    sub = subparsers.add_parser("campaign", help="run a full attack-finding campaign")
    _add_target_arguments(sub)
    sub.add_argument("--sample-every", type=_positive_int, default=25,
                     help="execute 1 in N strategies (1 = full sweep)")
    sub.add_argument("--workers", type=_positive_int, default=None,
                     help="worker processes (default 1: run in-process, "
                          "without supervisor deadlines)")
    sub.add_argument("--retries", type=_nonnegative_int, default=1,
                     help="retries (with derived seeds) before a failed/"
                          "timed-out run is classified as an error")
    sub.add_argument("--retry-backoff", type=_nonnegative_float, default=0.0,
                     help="base seconds slept before a retry, doubled per attempt")
    sub.add_argument("--run-budget", type=_positive_float, default=None,
                     help="wall-clock watchdog: real seconds allowed per simulation run")
    sub.add_argument("--max-events", type=_positive_int, default=None,
                     help="event watchdog: simulator events allowed per run")
    sub.add_argument("--checkpoint", metavar="JOURNAL", default=None,
                     help="journal completed runs to this JSONL file as they finish")
    sub.add_argument("--resume", metavar="JOURNAL", nargs="?", const=True, default=None,
                     help="resume from (and keep appending to) an existing journal, "
                          "skipping already-completed strategies (refused if the "
                          "journal was written under a different spec); with no "
                          "value, resumes the journal named by --checkpoint")
    sub.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="content-addressed run cache: restore any run already "
                          "on disk instead of simulating it, persist fresh runs")
    sub.add_argument("--no-cache", action="store_true",
                     help="ignore any cache directory (including one from --spec)")
    sub.add_argument("--batch-size", type=_positive_int, default=8,
                     help="most strategies dispatched per worker round-trip; "
                     "smaller dispatches are split evenly across workers")
    sub.add_argument("--slot-budget", type=_positive_float, default=None,
                     help="supervisor deadline: wall seconds a worker may spend "
                          "on one strategy before it is killed and respawned "
                          "(default: derived from --run-budget)")
    sub.add_argument("--quarantine-after", type=_positive_int, default=None,
                     help="worker kills/deaths a strategy may cause before it "
                          f"is quarantined (default {DEFAULT_QUARANTINE_AFTER})")
    sub.add_argument("--max-tasks-per-child", type=_positive_int, default=None,
                     help="recycle each worker after this many strategies")
    sub.add_argument("--baseline-runs", type=_positive_int, default=2,
                     help="no-attack baseline replicas (>= 2 gives the detector "
                          "a noise estimate)")
    sub.add_argument("--noise-sigmas", type=_nonnegative_float, default=3.0,
                     help="detections must clear this many baseline standard "
                          "deviations (0 disables the noise band)")
    sub.add_argument("--spec", metavar="JSON", default=None,
                     help="load the whole campaign from a spec file (see --spec-out); "
                          "overrides the per-field flags")
    sub.add_argument("--spec-out", metavar="JSON", default=None,
                     help="write the resolved campaign spec to this file")
    sub.add_argument("--dry-run", action="store_true",
                     help="print the resolved spec (and its fingerprint) "
                          "without running the campaign")
    sub.add_argument("--trace-dir", metavar="DIR", default=None,
                     help="record structured JSONL event traces into this directory "
                          "(one file per worker process)")
    sub.add_argument("--metrics-out", metavar="JSON", default=None,
                     help="collect campaign metrics (merged across workers) and "
                          "write the snapshot to this JSON file")
    sub.add_argument("--profile", metavar="DIR", default=None,
                     help="cProfile every run; keep .pstats for the N slowest")
    sub.add_argument("--profile-keep", type=int, default=5,
                     help="how many slowest-run profiles to keep (with --profile)")
    sub.add_argument("--snapshots", action="store_true",
                     help="amortize shared simulation prefixes: snapshot the "
                          "simulator world at each strategy's trigger state and "
                          "fork attack tails from it instead of replaying the "
                          "prefix (fingerprint-neutral; results are identical)")
    sub.add_argument("--no-snapshots", action="store_true",
                     help="force snapshotting off (including one enabled by --spec)")
    sub.add_argument("--snap-verify-fraction", type=_fraction, default=None,
                     help="determinism guard: fraction of forked runs also "
                          "executed in full and compared (default 0.05; "
                          "divergence disables snapshotting for that prefix)")
    sub.add_argument("--snap-store", metavar="URL", type=_store_url, default=None,
                     help="persist snapshots to this artifact store (dir://PATH "
                          "or sqlite://PATH) for cross-process reuse")
    sub.add_argument("--fabric", action="store_true",
                     help="distribute the sweep over a shared artifact store; "
                          "repro worker processes pointed at the same --store "
                          "help execute it (requires --store)")
    sub.add_argument("--store", metavar="URL", type=_store_url, default=None,
                     help="shared artifact store: dir://PATH, sqlite://PATH or "
                          "memory://NAME (with --fabric)")
    sub.add_argument("--lease-ttl", type=_positive_float, default=None,
                     help="seconds a claimed work unit may go without a heartbeat "
                          "before other workers may reclaim it (default 30)")
    sub.add_argument("--lease-size", type=_positive_int, default=None,
                     help="strategies per claimable work unit (default 4)")
    sub.add_argument("--telemetry-interval", type=_nonnegative_float, default=None,
                     help="seconds between fleet status publishes per participant "
                          "(default 1; 0 disables the telemetry plane; with --fabric)")
    sub.add_argument("--stall-window", type=_positive_float, default=None,
                     help="no heartbeat or no unit progress for this many seconds "
                          "flags a worker as a straggler (default 15; with --fabric)")
    sub.add_argument("--store-retries", type=_nonnegative_int, default=None,
                     help="retry transient store faults this many extra times per "
                          "operation, with exponential backoff and a circuit "
                          "breaker (default 0 = no retries; with --fabric)")
    sub.add_argument("--store-backoff", type=_nonnegative_float, default=None,
                     help="base seconds for store-retry exponential backoff "
                          "(default 0.05; with --fabric)")
    sub.set_defaults(handler=cmd_campaign, parser=sub)

    sub = subparsers.add_parser(
        "serve",
        help="run the multi-tenant campaign service (HTTP control plane)",
        description="An asyncio HTTP control plane multiplexing N concurrent "
                    "campaigns on one shared artifact store: POST /campaigns "
                    "submits a CampaignSpec JSON, GET /campaigns/{id} reports "
                    "status + fleet health, POST /campaigns/{id}/cancel stops "
                    "one, GET /campaigns/{id}/report returns the finished "
                    "report.  Point repro worker processes at the same store "
                    "to add execution capacity.",
    )
    sub.add_argument("--store", metavar="URL", type=_store_url, required=True,
                     help="shared artifact store: dir://PATH, sqlite://PATH or "
                          "memory://NAME")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    sub.add_argument("--port", type=_nonnegative_int, default=8642,
                     help="bind port (default 8642; 0 = ephemeral)")
    sub.add_argument("--quota", metavar="SPEC", default=None,
                     help="per-tenant quotas: tenant=campaigns:units[,...] "
                          "(e.g. alice=3:16,bob=1:4)")
    sub.add_argument("--default-max-campaigns", type=_positive_int, default=2,
                     help="concurrent campaigns per tenant without an explicit "
                          "quota (default 2)")
    sub.add_argument("--default-max-units", type=_positive_int, default=8,
                     help="live leased units per tenant without an explicit "
                          "quota (default 8)")
    sub.add_argument("--max-campaigns", type=_positive_int, default=8,
                     help="service-wide concurrent-campaign ceiling (default 8)")
    sub.add_argument("--quarantine-after", type=_positive_int, default=3,
                     help="consecutive failures before a spec fingerprint is "
                          "quarantined (default 3)")
    sub.add_argument("--store-retries", type=_nonnegative_int, default=0,
                     help="retry transient store faults this many extra times per "
                          "operation, with exponential backoff and a circuit "
                          "breaker (default 0 = no retries)")
    sub.add_argument("--store-backoff", type=_nonnegative_float, default=0.05,
                     help="base seconds for store-retry exponential backoff "
                          "(default 0.05)")
    sub.set_defaults(handler=cmd_serve)

    sub = subparsers.add_parser(
        "submit",
        help="submit a campaign to a running service over HTTP",
        description="POSTs a CampaignSpec to a repro serve control plane and "
                    "prints the submission (or, with --wait, the final status "
                    "and report) as JSON on stdout.",
    )
    _add_target_arguments(sub)
    sub.add_argument("--spec", metavar="JSON", default=None,
                     help="submit this spec file (see campaign --spec-out); "
                          "overrides the per-field flags")
    sub.add_argument("--tenant", default=None,
                     help="tenant the campaign is accounted under "
                          "(default: the spec's tenant, or 'default')")
    sub.add_argument("--sample-every", type=_positive_int, default=25,
                     help="execute 1 in N strategies (without --spec)")
    sub.add_argument("--workers", type=_positive_int, default=None,
                     help="worker-pool size hint for the coordinator "
                          "(without --spec)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="service address (default 127.0.0.1)")
    sub.add_argument("--port", type=_nonnegative_int, default=8642,
                     help="service port (default 8642)")
    sub.add_argument("--wait", action="store_true",
                     help="poll until the campaign finishes; exit 0 only on "
                          "'complete'")
    sub.add_argument("--timeout", type=_positive_float, default=600.0,
                     help="--wait deadline in seconds (default 600)")
    sub.add_argument("--report-out", metavar="JSON", default=None,
                     help="with --wait: also write the campaign report here")
    sub.set_defaults(handler=cmd_submit)

    sub = subparsers.add_parser(
        "worker",
        help="serve leased work units from a shared fabric store",
        description="Waits for a campaign manifest on the shared store, then "
                    "claims, executes and commits leased work units until the "
                    "campaign completes.  Start any number of these (on any "
                    "host sharing the store) next to a campaign run with "
                    "--fabric --store pointing at the same store.",
    )
    sub.add_argument("--store", metavar="URL", type=_store_url, required=True,
                     help="shared artifact store: dir://PATH, sqlite://PATH or "
                          "memory://NAME")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="local worker-pool processes for executing unit slots")
    sub.add_argument("--poll", type=_positive_float, default=0.2,
                     help="seconds between polls for a manifest / claimable work")
    sub.add_argument("--once", action="store_true",
                     help="serve at most one work unit, then exit")
    sub.add_argument("--idle-exit", type=_positive_float, default=None,
                     help="exit after this many seconds with no claimable work")
    sub.add_argument("--manifest-timeout", type=_positive_float, default=None,
                     help="give up if no campaign manifest appears in time "
                          "(default: wait forever)")
    sub.add_argument("--trace-dir", metavar="DIR", default=None,
                     help="record this worker's JSONL event traces here")
    sub.add_argument("--metrics-out", metavar="JSON", default=None,
                     help="write this worker's metrics snapshot here on exit")
    sub.add_argument("--store-retries", type=_nonnegative_int, default=0,
                     help="retry transient store faults this many extra times per "
                          "operation, with exponential backoff and a circuit "
                          "breaker (default 0 = no retries)")
    sub.add_argument("--store-backoff", type=_nonnegative_float, default=0.05,
                     help="base seconds for store-retry exponential backoff "
                          "(default 0.05)")
    sub.set_defaults(handler=cmd_worker)

    sub = subparsers.add_parser(
        "top",
        help="live fleet view of a fabric campaign",
        description="Tails the telemetry namespace of a shared fabric store "
                    "and renders workers (heartbeat age, progress, events/sec, "
                    "stragglers), lease states, per-stage completion and an "
                    "ETA.  Exits when the campaign manifest goes "
                    "complete/failed.",
    )
    sub.add_argument("--store", metavar="URL", type=_store_url, required=True,
                     help="shared artifact store: dir://PATH, sqlite://PATH or "
                          "memory://NAME")
    sub.add_argument("--campaign", metavar="ID", default=None,
                     help="watch one service campaign (campaigns/<ID>/... scope) "
                          "instead of the legacy root campaign")
    sub.add_argument("--interval", type=_positive_float, default=2.0,
                     help="seconds between refreshes (default 2)")
    sub.add_argument("--once", action="store_true",
                     help="render one frame and exit (for scripts and CI)")
    sub.add_argument("--json", action="store_true",
                     help="emit the overview as one JSON document per frame")
    sub.add_argument("--stall-window", type=_positive_float, default=15.0,
                     help="heartbeat/progress staleness that marks a worker "
                          "as a straggler (default 15)")
    sub.add_argument("--store-retries", type=_nonnegative_int, default=0,
                     help="retry transient store faults this many extra times per "
                          "read, with exponential backoff (default 0 = no retries)")
    sub.add_argument("--store-backoff", type=_nonnegative_float, default=0.05,
                     help="base seconds for store-retry exponential backoff "
                          "(default 0.05)")
    sub.set_defaults(handler=cmd_top)

    sub = subparsers.add_parser(
        "report", help="inspect a recorded campaign's telemetry"
    )
    sub.add_argument("trace_dir", metavar="TRACE_DIR", nargs="?", default=None,
                     help="trace directory written by campaign --trace-dir "
                          "(optional with --store)")
    sub.add_argument("metrics", metavar="METRICS", nargs="?", default=None,
                     help="metrics snapshot written by campaign --metrics-out")
    sub.add_argument("--strategy", type=_strategy_token, action="append", default=None,
                     help="show the timeline for this strategy id, or 'baseline' "
                          "for the non-attack baseline runs (repeatable); also "
                          "narrows the transition log to the first value given")
    sub.add_argument("--slowest", type=int, default=10,
                     help="rows in the slowest-runs table")
    sub.add_argument("--timelines", type=int, default=3,
                     help="without --strategy: how many strategy timelines to show")
    sub.add_argument("--transitions", type=int, default=40,
                     help="max rows in the state-transition audit log")
    sub.add_argument("--store", metavar="URL", type=_store_url, default=None,
                     help="also read fleet telemetry from this fabric store "
                          "(dir://PATH, sqlite://PATH or memory://NAME; merged "
                          "cross-host metrics stand in for METRICS when no "
                          "snapshot file is given)")
    sub.add_argument("--campaign", metavar="ID", default=None,
                     help="report on one service campaign (campaigns/<ID>/... "
                          "scope) instead of the legacy root campaign")
    sub.add_argument("--export-prom", metavar="FILE", default=None,
                     help="write the metrics snapshot in Prometheus text "
                          "exposition format to FILE")
    sub.set_defaults(handler=cmd_report)

    sub = subparsers.add_parser("searchspace", help="Section VI-C comparison")
    _add_target_arguments(sub)
    sub.set_defaults(handler=cmd_searchspace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
