"""The controller: baseline, sweep, confirm, classify, cluster.

Drives a full attack-finding campaign against one implementation, exactly
following Section V-A: run a non-attack test, generate strategies from the
observed packet types and protocol states, execute each strategy, compare
its metrics with the baseline, re-test apparent attacks to ensure
repeatability, then post-process into on-path attacks, false positives,
true attack strategies, and unique named attacks.

The campaign runtime is fault tolerant: worker crashes and watchdog
timeouts surface as :class:`~repro.core.executor.RunError` entries in
:attr:`CampaignResult.errors` instead of killing the sweep, failed runs are
retried with deterministically derived seeds, and every completed outcome
can be journaled to a checkpoint file so an interrupted campaign resumes
where it stopped (see :mod:`repro.core.checkpoint`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.attacks_catalog import cluster_attacks
from repro.core.cache import RunCache, run_fingerprint
from repro.core.checkpoint import CheckpointJournal, CompletedMap
from repro.core.classify import partition
from repro.core.detector import VERDICT_FLAKY, AttackDetector, BaselineMetrics, Detection
from repro.core.executor import Executor, RunError, RunOutcome, RunResult
from repro.core.generation import (
    EndpointInfo, GenerationConfig, StrategyGenerator, dedupe_strategies,
)
from repro.core.parallel import derive_seed, run_strategies
from repro.core.strategy import Strategy
from repro.core.supervisor import KIND_QUARANTINED, SupervisedWorkerPool
from repro.dccpstack.endpoint import DccpEndpoint
from repro.obs.bus import BUS
from repro.obs.config import configure_observability
from repro.obs.metrics import METRICS
from repro.obs.profiling import prune_profiles
from repro.packets.dccp import DCCP_FORMAT
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import dccp_state_machine, tcp_state_machine
from repro.tcpstack.endpoint import TcpEndpoint
from repro.tcpstack.variants import get_variant

if TYPE_CHECKING:
    # repro.api imports this module
    from repro.api import CampaignSpec

log = logging.getLogger("repro.core.controller")

BASELINE_SEEDS = (101, 202)
CONFIRM_SEED_OFFSET = 5000

STAGE_SWEEP = "sweep"
STAGE_CONFIRM = "confirm"


@dataclass
class CampaignResult:
    """Everything Table I needs for one implementation, plus the clusters."""

    protocol: str
    variant: str
    strategies_generated: int
    strategies_tried: int
    flagged: List[Tuple[Strategy, Detection]] = field(default_factory=list)
    on_path: List[Tuple[Strategy, Detection]] = field(default_factory=list)
    false_positives: List[Tuple[Strategy, Detection]] = field(default_factory=list)
    true_strategies: List[Tuple[Strategy, Detection]] = field(default_factory=list)
    attack_clusters: Dict[str, List[Tuple[Strategy, Detection]]] = field(default_factory=dict)
    baseline: Optional[BaselineMetrics] = None
    sampled: bool = False
    #: runs that failed permanently (crash or watchdog), partitioned out of
    #: detection rather than aborting the campaign
    errors: List[RunError] = field(default_factory=list)
    #: how many of those errors were watchdog cutoffs
    timed_out_count: int = 0
    #: extra executions spent on retries across all runs
    retries_performed: int = 0
    #: outcomes restored from a checkpoint journal instead of re-run
    resumed_count: int = 0
    #: runs restored from the content-addressed run cache (zero simulator
    #: executions spent), across baseline/sweep/confirm
    cache_hits: int = 0
    #: simulator executions actually performed for this campaign — fresh
    #: runs only, cache restores and journal-resumed results excluded.
    #: Counted from the run outcomes themselves, never from the
    #: process-wide metrics registry, so it stays exact when several
    #: campaigns share one process (the campaign service)
    runs_executed: int = 0
    #: parameter-equivalent strategies collapsed before execution
    strategies_collapsed: int = 0
    #: sweep detections whose confirm run reproduced nothing — kept out of
    #: ``flagged`` but preserved with their evidence for the report
    flaky: List[Tuple[Strategy, Detection]] = field(default_factory=list)
    #: strategies parked by the supervisor after repeatedly killing/hanging
    #: their worker (their ``RunError(kind="quarantined")`` also sits in
    #: ``errors``)
    quarantined_count: int = 0
    #: lifetime counters (kills/respawns/quarantines/...) of the
    #: campaign's :class:`SupervisedWorkerPool`; all zero for one worker
    supervisor: Dict[str, int] = field(default_factory=dict)
    #: merged metrics snapshot (parent + all workers) when the campaign ran
    #: with metrics enabled; empty otherwise.  The payload written by
    #: ``repro campaign --metrics-out``.
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: fabric lifetime counters (leases claimed/reclaimed, exactly-once
    #: commits/duplicates, ...) when the campaign ran distributed over a
    #: shared artifact store; empty dict for single-process campaigns
    fabric: Dict[str, int] = field(default_factory=dict)
    #: snapshot-engine counters (hits/misses/forks/elided/events_saved/
    #: divergence/...) when the campaign ran with ``--snapshots`` and
    #: metrics enabled; empty dict otherwise
    snapshots: Dict[str, int] = field(default_factory=dict)

    @property
    def unique_attacks(self) -> List[str]:
        return [name for name in self.attack_clusters if not name.startswith("uncataloged")]

    def table1_row(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol.upper(),
            "implementation": self.variant,
            "strategies_tried": self.strategies_tried,
            "attack_strategies_found": len(self.flagged),
            "on_path": len(self.on_path),
            "false_positives": len(self.false_positives),
            "true_attack_strategies": len(self.true_strategies),
            "true_attacks": len(self.unique_attacks),
        }

    def health_row(self) -> Dict[str, object]:
        """Runtime-health counters for the campaign (errors/timeouts/...)."""
        return {
            "errors": len(self.errors),
            "timed_out": self.timed_out_count,
            "retries": self.retries_performed,
            "resumed": self.resumed_count,
            "cache_hits": self.cache_hits,
            "collapsed": self.strategies_collapsed,
            "quarantined": self.quarantined_count,
            "flaky": len(self.flaky),
        }


class Controller:
    """Runs the one campaign a :class:`~repro.api.CampaignSpec` describes.

    The fabric plugs in through the other two arguments: ``cache``
    replaces the run cache built from ``spec.cache_dir``, and
    ``stage_runner`` replaces :func:`~repro.core.parallel.run_strategies`
    — called as ``stage_runner(stage=..., strategies=pending, seed=...,
    cache=..., pool=..., on_result=..., progress=...)``, it returns
    outcomes aligned with ``pending``.  Journaling and resume stay here.
    """

    def __init__(
        self,
        spec: "CampaignSpec",
        cache: Optional[RunCache] = None,
        stage_runner: Optional[Callable[..., List[RunOutcome]]] = None,
    ):
        self.spec = spec
        self.executor = Executor(spec.testbed)
        self.cache = cache
        self.stage_runner = stage_runner

    # ------------------------------------------------------------------
    def make_generator(self) -> StrategyGenerator:
        testbed = self.spec.testbed
        # sequence sweeps span the space the testbed's endpoints draw their
        # ISS from
        generation = replace(
            self.spec.generation or GenerationConfig(), sequence_space=testbed.iss_space
        )
        if testbed.protocol == "tcp":
            # the off-path attacker knows the target OS's default receive
            # window (nmap-style fingerprinting); sweep strides follow it
            generation = replace(
                generation, receive_window=get_variant(testbed.variant).receive_window
            )
            stack = ("tcp", TCP_FORMAT, tcp_state_machine())
            client_port, server_port = TcpEndpoint.EPHEMERAL_BASE, testbed.server_port
        else:
            stack = ("dccp", DCCP_FORMAT, dccp_state_machine())
            client_port, server_port = DccpEndpoint.EPHEMERAL_BASE, testbed.dccp_server_port
        # ...and the testbed's addressing: the server port, and each client's
        # first ephemeral port
        target = EndpointInfo("client1", "server1", client_port, server_port, tracked=True)
        competing = EndpointInfo("client2", "server2", client_port, server_port, tracked=False)
        return StrategyGenerator(*stack, generation, target, competing)

    # ------------------------------------------------------------------
    def baseline_seeds(self) -> Tuple[int, ...]:
        """Seeds for the no-attack replicas (historical pair first).

        A confirmation policy asking for more than two replicas extends
        the fixed pair with deterministically derived seeds, so existing
        run-cache entries for the pair stay valid.
        """
        wanted = self.spec.confirmation.baseline_runs
        seeds = list(BASELINE_SEEDS[:wanted])
        for extra in range(1, wanted - len(seeds) + 1):
            seeds.append(derive_seed(BASELINE_SEEDS[-1], None, extra))
        return tuple(seeds)

    def run_baseline(
        self, cache: Optional[RunCache] = None
    ) -> Tuple[BaselineMetrics, List[RunResult]]:
        runs: List[RunResult] = []
        testbed = self.spec.testbed
        for i, seed in enumerate(self.baseline_seeds()):
            fingerprint = run_fingerprint(testbed, None, seed) if cache is not None else None
            run = cache.get(fingerprint) if cache is not None else None
            if run is None:
                with BUS.scope(stage="baseline", attempt=0, seed=seed):
                    with BUS.span("run"):
                        run = self.executor.run(None, seed=seed)
                run.run_id = f"baseline-none-a{i}"
                if cache is not None:
                    cache.put(fingerprint, run)
            runs.append(run)
        return BaselineMetrics.from_runs(runs), runs

    # ------------------------------------------------------------------
    def _journal_meta(self) -> Dict[str, object]:
        spec = self.spec
        return {
            "protocol": spec.testbed.protocol,
            "variant": spec.testbed.variant,
            "seed": spec.testbed.seed,
            "sample_every": spec.sample_every,
            "spec_fingerprint": spec.fingerprint(),
        }

    def _run_stage(
        self,
        stage: str,
        strategies: Sequence[Strategy],
        completed: CompletedMap,
        journal: Optional[CheckpointJournal],
        report: Callable[[str, int, int], None],
        seed: Optional[int] = None,
        cache: Optional[RunCache] = None,
        pool: Optional[SupervisedWorkerPool] = None,
    ) -> Tuple[List[RunOutcome], int, int]:
        """Run one stage, skipping journaled outcomes and journaling new ones.

        Returns the outcomes aligned with ``strategies``, the number of
        slots restored from the journal, and how many of those restored
        slots were successful runs (``RunResult``) rather than errors.
        """
        pending = [s for s in strategies if (stage, s.strategy_id) not in completed]

        def on_result(index: int, outcome: RunOutcome) -> None:
            if journal is not None:
                journal.record(stage, outcome)

        if self.stage_runner is not None:
            fresh = self.stage_runner(
                stage=stage,
                strategies=pending,
                seed=seed,
                cache=cache,
                pool=pool,
                on_result=on_result,
                progress=lambda done, total: report(stage, done, total),
            )
        else:
            spec = self.spec
            fresh = run_strategies(
                spec.testbed,
                pending,
                workers=spec.workers,
                seed=seed,
                retries=spec.retry.retries,
                on_result=on_result,
                progress=lambda done, total: report(stage, done, total),
                obs=spec.obs,
                stage=stage,
                cache=cache,
                pool=pool,
                snapshots=spec.snapshots,
            )
        by_id = {s.strategy_id: outcome for s, outcome in zip(pending, fresh)}
        outcomes = [
            completed.get((stage, s.strategy_id), by_id.get(s.strategy_id))
            for s in strategies
        ]
        restored = len(strategies) - len(pending)
        restored_results = sum(
            1 for s in strategies
            if isinstance(completed.get((stage, s.strategy_id)), RunResult)
        )
        return outcomes, restored, restored_results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def run_campaign(
        self, progress: Optional[Callable[[str, int, int], None]] = None
    ) -> CampaignResult:
        def report(stage: str, done: int, total: int) -> None:
            if progress is not None:
                progress(stage, done, total)

        spec = self.spec
        if spec.obs is not None:
            configure_observability(spec.obs)
        journal: Optional[CheckpointJournal] = None
        completed: CompletedMap = {}
        if spec.checkpoint:
            journal = CheckpointJournal(spec.checkpoint)
            if spec.resume:
                completed = journal.load(expected_meta=self._journal_meta())
                log.info("resumed %d completed outcome(s) from %s",
                         len(completed), spec.checkpoint)
            journal.open(self._journal_meta())
        cache = self.cache
        if cache is None and spec.cache_dir:
            cache = RunCache(spec.cache_dir)
        try:
            with BUS.span("campaign", protocol=spec.testbed.protocol,
                          variant=spec.testbed.variant):
                # one pool shared by every stage (lazily spawned on first
                # dispatch with real work — a fully-cached campaign never
                # forks)
                with SupervisedWorkerPool(
                    workers=spec.workers, obs=spec.obs, supervision=spec.supervision
                ) as pool:
                    return self._run_campaign(report, completed, journal, cache, pool)
        finally:
            if journal is not None:
                journal.close()

    def _evaluate(
        self, detector: AttackDetector, strategy: Strategy, run: RunResult, stage: str
    ) -> Detection:
        """Detector evaluation plus the verdict's telemetry trail."""
        detection = detector.evaluate(run)
        if METRICS.enabled:
            METRICS.inc(
                "detector.verdict.attack" if detection.is_attack else "detector.verdict.normal"
            )
            for effect in detection.effects:
                METRICS.inc(f"detector.effect.{effect}")
        if BUS.enabled and detection.is_attack:
            BUS.emit(
                "detector.verdict",
                stage=stage,
                strategy_id=strategy.strategy_id,
                effects=list(detection.effects),
                target_ratio=round(detection.target_ratio, 4),
                competing_ratio=round(detection.competing_ratio, 4),
            )
        return detection

    def _run_campaign(
        self,
        report: Callable[[str, int, int], None],
        completed: CompletedMap,
        journal: Optional[CheckpointJournal],
        cache: Optional[RunCache],
        pool: SupervisedWorkerPool,
    ) -> CampaignResult:
        spec = self.spec
        testbed = spec.testbed
        baseline, baseline_runs = self.run_baseline(cache)
        report("baseline", 1, 1)

        generator = self.make_generator()
        strategies = generator.generate(baseline.observed_pairs, spec.sample_every)
        generated = generator.count(baseline.observed_pairs)
        dedup = dedupe_strategies(strategies)
        strategies = dedup.unique
        if dedup.collapsed_count:
            log.info("collapsed %d parameter-equivalent strategies", dedup.collapsed_count)
            if METRICS.enabled:
                METRICS.inc("generation.collapsed", dedup.collapsed_count)
        log.info("generated %d strategies, executing %d (%s/%s)",
                 generated, len(strategies), testbed.protocol, testbed.variant)

        noise_sigmas = spec.confirmation.noise_sigmas
        detector = AttackDetector(baseline, noise_sigmas=noise_sigmas)
        if BUS.enabled:
            # the noise band every detection had to clear, for `repro report`
            BUS.emit(
                "detector.baseline",
                runs=baseline.runs,
                noise_sigmas=noise_sigmas,
                target_bytes=round(baseline.target_bytes, 2),
                target_bytes_std=round(baseline.target_bytes_std, 2),
                competing_bytes=round(baseline.competing_bytes, 2),
                competing_bytes_std=round(baseline.competing_bytes_std, 2),
                lingering_std=round(baseline.lingering_std, 4),
            )
        outcomes, resumed, resumed_results = self._run_stage(
            STAGE_SWEEP, strategies, completed, journal, report, cache=cache, pool=pool
        )
        errors: List[RunError] = [o for o in outcomes if isinstance(o, RunError)]
        candidates: List[Tuple[Strategy, Detection]] = []
        for strategy, outcome in zip(strategies, outcomes):
            if not isinstance(outcome, RunResult):
                continue
            detection = self._evaluate(detector, strategy, outcome, STAGE_SWEEP)
            if detection.is_attack:
                candidates.append((strategy, detection))
        log.info("sweep flagged %d candidate(s), %d error(s)", len(candidates), len(errors))

        flagged: List[Tuple[Strategy, Detection]] = []
        flaky: List[Tuple[Strategy, Detection]] = []
        retries_performed = sum(o.attempts - 1 for o in outcomes)
        all_runs: List[RunResult] = [o for o in outcomes if isinstance(o, RunResult)]
        if spec.confirm and candidates:
            confirm_outcomes, confirm_resumed, confirm_resumed_results = self._run_stage(
                STAGE_CONFIRM,
                [strategy for strategy, _ in candidates],
                completed,
                journal,
                report,
                seed=testbed.seed + CONFIRM_SEED_OFFSET,
                cache=cache,
                pool=pool,
            )
            resumed += confirm_resumed
            resumed_results += confirm_resumed_results
            retries_performed += sum(o.attempts - 1 for o in confirm_outcomes)
            all_runs.extend(o for o in confirm_outcomes if isinstance(o, RunResult))
            for (strategy, first), rerun in zip(candidates, confirm_outcomes):
                if not isinstance(rerun, RunResult):
                    # the confirmation run itself failed: report it as an
                    # error and leave the strategy unconfirmed
                    errors.append(rerun)
                    continue
                second = self._evaluate(detector, strategy, rerun, STAGE_CONFIRM)
                confirmed = detector.confirm(first, second)
                if METRICS.enabled:
                    METRICS.inc(f"detector.{confirmed.verdict}")
                if BUS.enabled:
                    BUS.emit(
                        "detector.confirm",
                        strategy_id=strategy.strategy_id,
                        verdict=confirmed.verdict,
                        effects=list(confirmed.effects),
                        unconfirmed=list(confirmed.unconfirmed_effects),
                        sweep_target_ratio=round(confirmed.sweep_target_ratio, 4),
                        confirm_target_ratio=round(confirmed.confirm_target_ratio, 4),
                    )
                if confirmed.is_attack:
                    flagged.append((strategy, confirmed))
                elif confirmed.verdict == VERDICT_FLAKY:
                    flaky.append((strategy, confirmed))
            if flaky:
                log.info("%d detection(s) failed to reproduce (flaky)", len(flaky))
        else:
            flagged = candidates

        on_path, false_positives, true_strategies = partition(flagged)
        clusters = cluster_attacks(true_strategies)

        cache_hits = sum(1 for r in (*baseline_runs, *all_runs) if r.cached)
        # exact per-campaign execution count: everything in the result set
        # that was neither a cache restore nor a journal resume was run by
        # this campaign (locally or by its fabric fleet)
        runs_executed = (
            len(baseline_runs) + len(all_runs) - cache_hits - resumed_results
        )
        self._finish_profiles(all_runs, errors)
        metrics_snapshot = METRICS.snapshot() if METRICS.enabled else {}
        if BUS.enabled:
            BUS.emit(
                "campaign.summary",
                protocol=testbed.protocol,
                variant=testbed.variant,
                strategies_tried=len(strategies),
                flagged=len(flagged),
                errors=len(errors),
            )
        return CampaignResult(
            protocol=testbed.protocol,
            variant=testbed.variant,
            strategies_generated=generated,
            strategies_tried=len(strategies),
            flagged=flagged,
            on_path=on_path,
            false_positives=false_positives,
            true_strategies=true_strategies,
            attack_clusters=clusters,
            baseline=baseline,
            sampled=spec.sample_every > 1,
            errors=errors,
            timed_out_count=sum(1 for e in errors if e.timed_out),
            retries_performed=retries_performed,
            resumed_count=resumed,
            cache_hits=cache_hits,
            runs_executed=runs_executed,
            strategies_collapsed=dedup.collapsed_count,
            flaky=flaky,
            quarantined_count=sum(1 for e in errors if e.kind == KIND_QUARANTINED),
            supervisor={
                "kills": pool.kills,
                "worker_lost": pool.worker_lost,
                "respawns": pool.respawns,
                "redispatched": pool.redispatched,
                "quarantines": pool.quarantines,
            },
            metrics=metrics_snapshot,
            snapshots={
                key[len("snap."):]: value
                for key, value in (metrics_snapshot.get("counters") or {}).items()
                if key.startswith("snap.")
            },
        )

    # ------------------------------------------------------------------
    def _finish_profiles(
        self, runs: Sequence[RunResult], errors: Sequence[RunError] = ()
    ) -> None:
        """Keep profiles only for the N slowest runs (``--profile``).

        Failed and timed-out attempts rank alongside successes — the wedged
        runs that hit the watchdog are exactly the ones worth profiling.
        """
        obs = self.spec.obs
        if obs is None or not obs.profile_dir:
            return
        outcomes: List[RunOutcome] = [*runs, *errors]
        slowest = sorted(outcomes, key=lambda r: r.wall_seconds, reverse=True)
        keep = [r.run_id for r in slowest[: obs.profile_keep] if r.run_id]
        prune_profiles(obs.profile_dir, keep)
