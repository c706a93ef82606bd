"""The executor: runs one attack strategy in a fresh emulated testbed.

Mirrors the paper's executor, which "initializes the virtual machines from
snapshots, starts the network emulator, configures the attack proxy, and
starts the test", then reports performance data and a server socket census
back to the controller.

The testbed is the Figure 3 dumbbell.  For TCP the workload is a large HTTP
download on both client/server pairs, with the target client's downloader
killed partway through the run (the paper's tests end by tearing the
client down, which is what makes the CLOSE_WAIT family of attacks
observable through netstat).  For DCCP it is an iperf-like flood from each
client to its server, with the target sender finishing (closing) partway
through the run.

Scaling note: tests last seconds instead of the paper's one minute, over a
4 Mbit/s bottleneck instead of 100 Mbit/s.  The endpoints' initial-sequence-
number space is scaled down in the same proportion (``iss_space``), so
sequence-space sweep attacks keep the same relative economics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, fields
from typing import Any, Dict, Optional, Tuple, Union

from repro.apps.bulk import BulkClient, BulkServer
from repro.apps.iperf import IperfSender, IperfServer
from repro.core.strategy import KIND_HITSEQWINDOW, KIND_INJECT, KIND_PACKET, Strategy
from repro.dccpstack.endpoint import DccpEndpoint
from repro.dccpstack.variants import get_dccp_variant
from repro.netsim.chaos import ChaosConfig, ChaosTap
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Dumbbell
from repro.obs.bus import BUS
from repro.obs.metrics import METRICS, RATE_BUCKETS, TIME_BUCKETS
from repro.packets.dccp import dccp_packet_type
from repro.packets.tcp import tcp_packet_type
from repro.proxy.attacks import make_packet_action
from repro.proxy.combo import make_combo_action
from repro.proxy.injection import HitSeqWindowCampaign, InjectCampaign
from repro.proxy.proxy import AttackProxy
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine
from repro.statemachine.tracker import StateTracker
from repro.tcpstack.endpoint import TcpEndpoint
from repro.tcpstack.variants import get_variant


@dataclass
class TestbedConfig:
    """Everything needed to reconstruct a test run (picklable)."""

    protocol: str = "tcp"  # "tcp" | "dccp"
    variant: str = "linux-3.13"
    duration: float = 10.0
    #: when the target client is torn down (killed downloader for TCP,
    #: finished iperf sender for DCCP)
    client_stop_at: float = 3.0
    dccp_client_stop_at: float = 6.0
    file_size: int = 100_000_000
    seed: int = 7
    iss_space: int = 1 << 24
    server_port: int = 80
    dccp_server_port: int = 5001
    #: watchdogs: cap on simulator events per run / real seconds per run;
    #: a run that trips either budget is cut off and flagged ``timed_out``
    max_events: Optional[int] = None
    run_budget: Optional[float] = None
    #: optional network chaos injected on the bottleneck link (both
    #: directions), for validating detector stability under noisy baselines
    chaos: Optional[ChaosConfig] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump (nested :class:`ChaosConfig` becomes a dict;
        :meth:`repro.api.CampaignSpec.from_dict` reads it back)."""
        return asdict(self)


# keep pytest from trying to collect the dataclass as a test class
TestbedConfig.__test__ = False  # type: ignore[attr-defined]


@dataclass
class RunResult:
    """What one test run reports back to the controller (picklable)."""

    strategy_id: Optional[int]
    protocol: str
    variant: str
    duration: float
    target_bytes: int = 0
    competing_bytes: int = 0
    target_connected: bool = False
    target_reset: bool = False
    competing_reset: bool = False
    #: sockets still holding state at the servers after the test
    server1_lingering: int = 0
    server2_lingering: int = 0
    server1_census: Dict[str, int] = field(default_factory=dict)
    server2_census: Dict[str, int] = field(default_factory=dict)
    #: proxy feedback
    invalid_forwarded: int = 0
    invalid_responses: int = 0
    packets_injected: int = 0
    packets_matched: int = 0
    packets_observed: int = 0
    observed_pairs: Tuple[Tuple[str, str], ...] = ()
    events_processed: int = 0
    #: watchdog verdict: the run was cut off before its horizon
    timed_out: bool = False
    #: which budget fired ("max-events" / "wall-budget"), when timed_out
    truncated: Optional[str] = None
    #: how many executions this result took (1 = no retries)
    attempts: int = 1
    #: chaos-tap counters when the testbed ran under injected network chaos
    chaos_events: Dict[str, int] = field(default_factory=dict)
    #: identity in the observability trace ("<stage>-<strategy>-a<attempt>");
    #: also names this run's cProfile dump under ``--profile``
    run_id: str = ""
    #: real seconds this run took end to end (setup + simulate + collect)
    wall_seconds: float = 0.0
    #: this result was restored from the run cache instead of simulated
    cached: bool = False

    @property
    def invalid_response_rate(self) -> float:
        if self.invalid_forwarded == 0:
            return 0.0
        return self.invalid_responses / self.invalid_forwarded

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a checkpoint
        journal line); unknown keys are ignored for forward compatibility."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["observed_pairs"] = tuple(
            tuple(pair) for pair in kwargs.get("observed_pairs", ())
        )
        return cls(**kwargs)


@dataclass
class RunError:
    """A run that failed permanently: crashed or exceeded its watchdog budget.

    Produced by the parallel worker wrapper after retries are exhausted, in
    place of a :class:`RunResult`, so one wedged or crashing strategy never
    kills the sweep.  ``seeds`` records every seed tried (deterministically
    derived), which makes failures replayable.
    """

    strategy_id: Optional[int]
    error_type: str
    message: str
    traceback_summary: str = ""
    #: structured failure class: "crash" (exception), "timeout" (watchdog),
    #: "worker-lost" (pool died under the run), "quarantined" (the strategy
    #: repeatedly killed/hung its worker and was parked by the supervisor)
    kind: str = ""
    #: the failure was a watchdog cutoff rather than an exception
    timed_out: bool = False
    attempts: int = 1
    seeds: Tuple[Optional[int], ...] = ()
    #: trace/profile identity of the final failed attempt (same convention
    #: as :attr:`RunResult.run_id`), so its ``--profile`` dump can be kept
    run_id: str = ""
    #: real seconds the final failed attempt took before crashing/timing out
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunError":
        """Rebuild an error from :meth:`to_dict` output (journal line)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs["seeds"] = tuple(kwargs.get("seeds", ()))
        return cls(**kwargs)


#: what one sweep slot yields: a completed run or a structured failure
RunOutcome = Union[RunResult, RunError]


def _stop_bulk_client(client: BulkClient) -> None:
    """Tear the target downloader down at the end of its test slot.

    Module-level (scheduled with the client as an argument, not a closure)
    so a deep-copied simulator world carries no hidden references back to
    the world it was copied from.  Like wget being killed when the paper's
    executor stops a run.
    """
    if client.conn.state not in ("CLOSED", "TIME_WAIT"):
        client.conn.app_exit()


@dataclass
class SimWorld:
    """A fully built simulator world, before or mid-execution.

    This is the unit the snapshot engine deep-copies: every piece of run
    state lives here (scheduler heap, RNG, endpoints, apps, proxy, tracker,
    chaos taps).  Wall-clock accounting and observability handles are
    deliberately *not* part of the world — see ``docs/performance.md``.
    """

    protocol: str
    sim: Simulator
    dumbbell: Dumbbell
    endpoints: Dict[str, Any]
    tracker: StateTracker
    proxy: AttackProxy
    chaos_taps: Tuple[ChaosTap, ...]
    #: protocol-specific applications (tcp: target/competing BulkClients;
    #: dccp: server1/server2 IperfServers + sender1/sender2 IperfSenders)
    apps: Dict[str, Any] = field(default_factory=dict)


class Executor:
    """Runs strategies in fresh testbeds.

    A run decomposes into explicit phases — **build** the world (topology,
    endpoints, apps, proxy, strategy arming), **run** the simulation to its
    horizon, **collect** the :class:`RunResult` — so the snapshot engine can
    pause between build and horizon, deep-copy the world, arm an attack on
    the copy, and continue (see :mod:`repro.snap`).
    """

    def __init__(self, config: TestbedConfig):
        self.config = config

    # ------------------------------------------------------------------
    def run(
        self,
        strategy: Optional[Strategy] = None,
        seed: Optional[int] = None,
        observe: bool = True,
    ) -> RunResult:
        """Execute one test (no strategy = the non-attack baseline run)."""
        started = time.perf_counter()
        world = self.build_world(strategy, seed)
        self._run_sim(world.sim)
        return self.collect(world, strategy, started, observe=observe)

    # ------------------------------------------------------------------
    def build_world(
        self, strategy: Optional[Strategy] = None, seed: Optional[int] = None
    ) -> SimWorld:
        """Build (but do not run) a fresh testbed with the strategy armed."""
        with BUS.span("run.setup", protocol=self.config.protocol):
            if self.config.protocol == "tcp":
                return self._build_tcp(strategy, seed)
            if self.config.protocol == "dccp":
                return self._build_dccp(strategy, seed)
            raise ValueError(f"unknown protocol {self.config.protocol!r}")

    def collect(
        self,
        world: SimWorld,
        strategy: Optional[Strategy],
        started: float,
        observe: bool = True,
    ) -> RunResult:
        """Assemble the :class:`RunResult` for a finished world."""
        cfg = self.config
        sim, apps, endpoints = world.sim, world.apps, world.endpoints
        report = world.proxy.report()
        if world.protocol == "tcp":
            target, competing = apps["target"], apps["competing"]
            from_apps = dict(
                target_bytes=target.bytes_received,
                competing_bytes=competing.bytes_received,
                target_connected=target.connected,
                target_reset=target.reset_at is not None and target.reset_at < cfg.client_stop_at,
                competing_reset=competing.reset,
            )
        else:
            # (DCCP's clean close never fires on_reset; any reset is abnormal)
            from_apps = dict(
                target_bytes=apps["server1"].total_bytes,
                competing_bytes=apps["server2"].total_bytes,
                target_connected=apps["sender1"].connected,
                target_reset=apps["sender1"].reset,
                competing_reset=apps["sender2"].reset,
            )
        result = RunResult(
            strategy_id=strategy.strategy_id if strategy else None,
            protocol=world.protocol,
            variant=cfg.variant,
            duration=cfg.duration,
            server1_lingering=len(endpoints["server1"].lingering_sockets()),
            server2_lingering=len(endpoints["server2"].lingering_sockets()),
            server1_census=dict(endpoints["server1"].census()),
            server2_census=dict(endpoints["server2"].census()),
            invalid_forwarded=report.invalid_forwarded,
            invalid_responses=report.invalid_responses,
            packets_injected=report.injected,
            packets_matched=report.matched,
            packets_observed=world.tracker.packets_observed,
            observed_pairs=tuple(sorted(report.observed_pairs)),
            events_processed=sim.events_processed,
            timed_out=sim.truncated is not None,
            truncated=sim.truncated,
            chaos_events=self._chaos_events(world.chaos_taps),
            **from_apps,
        )
        result.wall_seconds = time.perf_counter() - started
        if observe:
            self._observe_run(sim, world.dumbbell, world.proxy, result)
        return result

    # ------------------------------------------------------------------
    def _install_strategy(self, proxy: AttackProxy, strategy: Optional[Strategy]) -> None:
        if strategy is None:
            return
        if strategy.kind == KIND_PACKET:
            if strategy.action == "combo":
                action = make_combo_action(strategy.params["steps"])
            else:
                action = make_packet_action(strategy.action, **strategy.params)
            proxy.add_packet_rule(strategy.state, strategy.packet_type, action)
        elif strategy.kind == KIND_INJECT:
            params = dict(strategy.params)
            params["trigger"] = tuple(params["trigger"])
            proxy.add_campaign(InjectCampaign(strategy.protocol, **params))
        elif strategy.kind == KIND_HITSEQWINDOW:
            params = dict(strategy.params)
            params["trigger"] = tuple(params["trigger"])
            proxy.add_campaign(HitSeqWindowCampaign(strategy.protocol, **params))
        else:  # pragma: no cover - Strategy validates kinds
            raise ValueError(f"unknown strategy kind {strategy.kind!r}")

    # ------------------------------------------------------------------
    def _install_chaos(self, sim: Simulator, dumbbell: Dumbbell) -> Tuple[ChaosTap, ...]:
        """Install chaos taps on both bottleneck directions, if configured."""
        if self.config.chaos is None:
            return ()
        taps = (self.config.chaos.make_tap(sim), self.config.chaos.make_tap(sim))
        dumbbell.bottleneck.ab.tap = taps[0]
        dumbbell.bottleneck.ba.tap = taps[1]
        return taps

    @staticmethod
    def _chaos_events(taps: Tuple[ChaosTap, ...]) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for tap in taps:
            for key, value in tap.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def _run_sim(self, sim: Simulator) -> None:
        """Run to the horizon under the configured watchdog budgets."""
        cfg = self.config
        with BUS.span("run.simulate"):
            sim.run(until=cfg.duration, max_events=cfg.max_events, wall_budget=cfg.run_budget)

    # ------------------------------------------------------------------
    def _observe_run(
        self, sim: Simulator, dumbbell: Dumbbell, proxy: AttackProxy, result: RunResult
    ) -> None:
        """Feed one finished run into the event bus and metrics registry.

        Called once per run (never per packet), so instrumentation cost is
        independent of simulation size; a single flag check when both the
        bus and the registry are off.
        """
        if BUS.enabled:
            BUS.emit(
                "run.result",
                protocol=result.protocol,
                target_bytes=result.target_bytes,
                competing_bytes=result.competing_bytes,
                packets_injected=result.packets_injected,
                packets_matched=result.packets_matched,
                events_processed=sim.events_processed,
                timed_out=result.timed_out,
                truncated=result.truncated,
                wall_seconds=round(result.wall_seconds, 6),
            )
        if not METRICS.enabled:
            return
        metrics = METRICS
        metrics.inc("runs.timed_out" if result.timed_out else "runs.completed")
        metrics.inc("sim.events", sim.events_processed)
        metrics.histogram("run.wall_seconds", TIME_BUCKETS).observe(result.wall_seconds)
        if sim.wall_seconds > 0:
            metrics.histogram("sim.events_per_sec", RATE_BUCKETS).observe(
                sim.events_processed / sim.wall_seconds
            )
        links = (
            dumbbell.client1_access,
            dumbbell.client2_access,
            dumbbell.server1_access,
            dumbbell.server2_access,
            dumbbell.bottleneck,
        )
        enqueued = dropped = bytes_sent = bytes_dropped = queue_peak = 0
        for link in links:
            for pipe in (link.ab, link.ba):
                stats = pipe.stats
                enqueued += stats.packets_enqueued
                dropped += stats.packets_dropped
                bytes_sent += stats.bytes_sent
                bytes_dropped += stats.bytes_dropped
                queue_peak = max(queue_peak, stats.queue_peak)
        metrics.inc("link.enqueued", enqueued)
        metrics.inc("link.dropped", dropped)
        metrics.inc("link.bytes_sent", bytes_sent)
        metrics.inc("link.bytes_dropped", bytes_dropped)
        metrics.gauge("link.queue_peak").set_max(queue_peak)
        metrics.inc("proxy.intercepted", proxy.tap.intercepted)
        metrics.inc("proxy.matched", proxy.matched)
        metrics.inc("proxy.dropped", proxy.tap.dropped)
        metrics.inc("proxy.injected", proxy.tap.injected)
        for action_name, count in proxy.matched_by_action.items():
            metrics.inc(f"proxy.matched.{action_name}", count)
        for campaign_name, fired in proxy.injection_counts().items():
            metrics.inc(f"proxy.injections.{campaign_name}", fired)
        tracker = proxy.tracker
        metrics.inc("tracker.transitions.client", len(tracker.client.transitions_taken))
        metrics.inc("tracker.transitions.server", len(tracker.server.transitions_taken))
        metrics.inc("tracker.packets_observed", tracker.packets_observed)
        metrics.inc("tracker.packets_unmatched", tracker.packets_unmatched)
        for key, value in result.chaos_events.items():
            metrics.inc(f"chaos.{key}", value)

    # ------------------------------------------------------------------
    def _build_tcp(self, strategy: Optional[Strategy], seed: Optional[int]) -> SimWorld:
        cfg = self.config
        sim = Simulator(seed=cfg.seed if seed is None else seed)
        dumbbell = Dumbbell(sim)
        variant = get_variant(cfg.variant)
        endpoints = {
            name: TcpEndpoint(dumbbell.host(name), variant, iss_space=cfg.iss_space)
            for name in ("client1", "client2", "server1", "server2")
        }
        BulkServer(endpoints["server1"], cfg.server_port, cfg.file_size)
        BulkServer(endpoints["server2"], cfg.server_port, cfg.file_size)
        tracker = StateTracker(tcp_state_machine(), "client1", "server1", tcp_packet_type)
        proxy = AttackProxy(sim, dumbbell.client1_access, dumbbell.client1, "tcp", tracker)
        self._install_strategy(proxy, strategy)
        target = BulkClient(endpoints["client1"], "server1", cfg.server_port)
        competing = BulkClient(endpoints["client2"], "server2", cfg.server_port)
        chaos_taps = self._install_chaos(sim, dumbbell)
        # only resets *before* this scheduled teardown are attack-relevant;
        # the kill itself always ends in resets
        sim.schedule_at(cfg.client_stop_at, _stop_bulk_client, target)
        return SimWorld(
            protocol="tcp",
            sim=sim,
            dumbbell=dumbbell,
            endpoints=endpoints,
            tracker=tracker,
            proxy=proxy,
            chaos_taps=chaos_taps,
            apps={"target": target, "competing": competing},
        )

    # ------------------------------------------------------------------
    def _build_dccp(self, strategy: Optional[Strategy], seed: Optional[int]) -> SimWorld:
        cfg = self.config
        sim = Simulator(seed=cfg.seed if seed is None else seed)
        dumbbell = Dumbbell(sim)
        variant = get_dccp_variant(cfg.variant)
        endpoints = {
            name: DccpEndpoint(dumbbell.host(name), variant, iss_space=cfg.iss_space)
            for name in ("client1", "client2", "server1", "server2")
        }
        server1 = IperfServer(endpoints["server1"], cfg.dccp_server_port)
        server2 = IperfServer(endpoints["server2"], cfg.dccp_server_port)
        tracker = StateTracker(dccp_state_machine(), "client1", "server1", dccp_packet_type)
        proxy = AttackProxy(sim, dumbbell.client1_access, dumbbell.client1, "dccp", tracker)
        self._install_strategy(proxy, strategy)
        sender1 = IperfSender(
            endpoints["client1"], "server1", cfg.dccp_server_port,
            stop_at=cfg.dccp_client_stop_at,
        )
        sender2 = IperfSender(
            endpoints["client2"], "server2", cfg.dccp_server_port, stop_at=cfg.duration + 1
        )
        chaos_taps = self._install_chaos(sim, dumbbell)
        return SimWorld(
            protocol="dccp",
            sim=sim,
            dumbbell=dumbbell,
            endpoints=endpoints,
            tracker=tracker,
            proxy=proxy,
            chaos_taps=chaos_taps,
            apps={
                "server1": server1,
                "server2": server2,
                "sender1": sender1,
                "sender2": sender2,
            },
        )
