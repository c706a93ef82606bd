"""SNAKE's core: the controller/executor architecture of Figure 2.

* :mod:`repro.core.strategy` — the attack-strategy model: (protocol state,
  packet type, basic attack, parameters) tuples plus off-path campaigns.
* :mod:`repro.core.generation` — state-aware strategy generation from the
  packet format and state machine, driven by feedback about the packet
  types and states observed in the baseline run.
* :mod:`repro.core.executor` — runs one test: builds the dumbbell testbed,
  installs the proxy, runs the workload, collects throughput, the netstat
  census, and proxy feedback.
* :mod:`repro.core.detector` — flags attacks: >=50% throughput change
  against the no-attack baseline, or server sockets not released.
* :mod:`repro.core.classify` — post-processing into on-path attacks, false
  positives, and true attack strategies (Section VI's accounting).
* :mod:`repro.core.attacks_catalog` — clusters true strategies into the
  named attacks of Table II.
* :mod:`repro.core.controller` — ties it together: baseline, sweep,
  repeat-to-confirm, classification, clustering.
* :mod:`repro.core.baselines` — the send-packet-based and
  time-interval-based injection baselines of Section VI-C.
* :mod:`repro.core.parallel` — batched strategy execution (the paper's
  parallel executors) with one pool per campaign, per-run crash isolation
  and deterministic retry.
* :mod:`repro.core.supervisor` — the one worker pool, hang-proof:
  parent-side deadlines, SIGKILL + respawn of wedged workers, slot
  re-dispatch, and poison-strategy quarantine.
* :mod:`repro.core.cache` — the content-addressed run cache: fingerprints
  of (strategy behaviour, config, seed) mapped to persisted results so
  repeated campaigns skip simulations already executed.
* :mod:`repro.core.checkpoint` — the JSONL checkpoint journal behind
  ``repro campaign --checkpoint`` / ``--resume``.
* :mod:`repro.core.reporting` — Table I / Table II renderers.

The stable entry point for running campaigns is :mod:`repro.api`
(:class:`~repro.api.CampaignSpec` + :func:`~repro.api.run_campaign`);
:mod:`repro.fabric` distributes campaigns over a shared artifact store.
"""

from repro.core.strategy import Strategy
from repro.core.generation import GenerationConfig, StrategyGenerator, dedupe_strategies
from repro.core.executor import Executor, RunError, RunResult, TestbedConfig
from repro.core.cache import RunCache, campaign_fingerprint, run_fingerprint
from repro.core.parallel import RetryPolicy
from repro.core.supervisor import SupervisedWorkerPool, SupervisionConfig
from repro.core.checkpoint import CheckpointJournal, JournalCorrupt, JournalMismatch
from repro.core.detector import (
    VERDICT_CONFIRMED,
    VERDICT_FLAKY,
    AttackDetector,
    BaselineMetrics,
    ConfirmationPolicy,
    Detection,
)
from repro.core.classify import CLASS_FALSE_POSITIVE, CLASS_ON_PATH, CLASS_TRUE, classify
from repro.core.attacks_catalog import KNOWN_ATTACKS, match_known_attack
from repro.core.controller import CampaignResult, Controller
from repro.core.baselines import SearchSpaceComparison, compare_injection_models
from repro.core.reporting import render_table1, render_table2

__all__ = [
    "Strategy",
    "GenerationConfig",
    "StrategyGenerator",
    "Executor",
    "RunError",
    "RunResult",
    "TestbedConfig",
    "RunCache",
    "RetryPolicy",
    "SupervisedWorkerPool",
    "SupervisionConfig",
    "campaign_fingerprint",
    "run_fingerprint",
    "dedupe_strategies",
    "CheckpointJournal",
    "JournalCorrupt",
    "JournalMismatch",
    "AttackDetector",
    "BaselineMetrics",
    "ConfirmationPolicy",
    "Detection",
    "VERDICT_CONFIRMED",
    "VERDICT_FLAKY",
    "classify",
    "CLASS_ON_PATH",
    "CLASS_FALSE_POSITIVE",
    "CLASS_TRUE",
    "KNOWN_ATTACKS",
    "match_known_attack",
    "Controller",
    "CampaignResult",
    "SearchSpaceComparison",
    "compare_injection_models",
    "render_table1",
    "render_table2",
]
