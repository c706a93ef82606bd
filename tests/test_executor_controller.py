"""Executor, controller, parallel pool, baselines, and reporting."""

import pickle

import pytest

from repro.api import CampaignSpec, run_campaign
from repro.core.baselines import (
    compare_injection_models,
    manipulation_strategies_per_packet,
)
from repro.core.controller import CampaignResult, Controller
from repro.core.detector import BaselineMetrics
from repro.core.executor import Executor, RunResult, TestbedConfig
from repro.core.generation import GenerationConfig, StrategyGenerator
from repro.core.parallel import default_worker_count, run_strategies
from repro.core.reporting import (
    render_attack_clusters,
    render_searchspace,
    render_table1,
    render_table2,
)
from repro.core.strategy import Strategy
from repro.packets.tcp import TCP_FORMAT
from repro.statemachine.specs import tcp_state_machine


class TestExecutor:
    def test_tcp_baseline_is_reasonable(self):
        result = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        assert result.target_bytes > 300_000
        assert result.competing_bytes > result.target_bytes  # longer window
        assert result.server1_lingering == 0
        assert not result.target_reset
        assert ("ESTABLISHED", "ACK") in result.observed_pairs

    def test_dccp_baseline_is_reasonable(self):
        result = Executor(TestbedConfig(protocol="dccp", variant="linux-3.13-dccp")).run(None)
        assert result.target_bytes > 500_000
        assert result.server1_lingering == 0

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            Executor(TestbedConfig(protocol="udp")).run(None)

    def test_determinism_same_seed(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        a = Executor(config).run(None, seed=5)
        b = Executor(config).run(None, seed=5)
        assert a.target_bytes == b.target_bytes
        assert a.competing_bytes == b.competing_bytes
        assert a.observed_pairs == b.observed_pairs

    def test_results_picklable(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        result = Executor(config).run(None)
        assert pickle.loads(pickle.dumps(result)).target_bytes == result.target_bytes
        strategy = Strategy(1, "tcp", "packet", state="ESTABLISHED",
                            packet_type="ACK", action="drop", params={"percent": 50})
        assert pickle.loads(pickle.dumps((config, strategy)))

    def test_strategy_changes_outcome(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        executor = Executor(config)
        baseline = executor.run(None)
        strategy = Strategy(1, "tcp", "packet", state="ESTABLISHED",
                            packet_type="ACK", action="drop", params={"percent": 100})
        attacked = executor.run(strategy)
        assert attacked.target_bytes < baseline.target_bytes * 0.5
        assert attacked.packets_matched > 0


class TestParallel:
    def _strategies(self, n=3):
        return [
            Strategy(i + 1, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                     action="drop", params={"percent": 10 * (i + 1)})
            for i in range(n)
        ]

    def test_serial_matches_input_order(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        results = run_strategies(config, self._strategies(), workers=1)
        assert [r.strategy_id for r in results] == [1, 2, 3]

    def test_parallel_matches_serial(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        serial = run_strategies(config, self._strategies(), workers=1)
        parallel = run_strategies(config, self._strategies(), workers=2)
        assert [r.strategy_id for r in parallel] == [r.strategy_id for r in serial]
        assert [r.target_bytes for r in parallel] == [r.target_bytes for r in serial]

    def test_progress_callback(self):
        config = TestbedConfig(protocol="tcp", variant="linux-3.13")
        calls = []
        run_strategies(config, self._strategies(2), workers=1,
                       progress=lambda done, total: calls.append((done, total)))
        assert calls == [(1, 2), (2, 2)]

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1


class TestController:
    def test_tiny_campaign_end_to_end(self):
        result = run_campaign(CampaignSpec(
            testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"),
            workers=1,
            sample_every=500,
        ))
        assert result.strategies_generated > 4000
        assert result.strategies_tried == len(range(0, result.strategies_generated, 500))
        assert result.sampled
        row = result.table1_row()
        assert row["strategies_tried"] == result.strategies_tried
        assert row["protocol"] == "TCP"

    def test_sample_every_validated(self):
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            CampaignSpec(sample_every=0)

    def test_baseline_runs(self):
        controller = Controller(
            CampaignSpec(testbed=TestbedConfig(protocol="tcp", variant="linux-3.13"))
        )
        baseline, runs = controller.run_baseline()
        assert len(runs) == 2
        assert baseline.target_bytes > 0

    @pytest.mark.parametrize("testbed, ports", [
        (TestbedConfig(server_port=8080), {8080, 40000}),
        (TestbedConfig(protocol="dccp", variant="linux-3.13-dccp", dccp_server_port=6001),
         {6001, 42000}),
    ], ids=["tcp", "dccp"])
    def test_offpath_strategies_address_the_testbeds_ports(self, testbed, ports):
        generator = Controller(CampaignSpec(testbed=testbed)).make_generator()
        offpath = generator.inject_strategies() + generator.hitseqwindow_strategies()
        assert offpath
        assert {s.strategy_id for s in offpath
                if {s.params["sport"], s.params["dport"]} != ports} == set()


class TestBaselinesComparison:
    def _generator(self):
        return StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())

    def test_per_packet_strategy_count(self):
        per_packet = manipulation_strategies_per_packet(self._generator())
        # same order as the paper's "about 53"
        assert 50 < per_packet < 300

    def test_orders_of_magnitude(self):
        generator = self._generator()
        baseline_run = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        comparison = compare_injection_models(generator, baseline_run)
        state = comparison.state_based
        send = comparison.send_packet_based
        interval = comparison.time_interval_based
        assert state.strategies < send.strategies < interval.strategies
        assert send.strategies > 10 * state.strategies
        assert interval.strategies > 100 * send.strategies
        assert not send.supports_offpath
        assert state.supports_offpath

    def test_cost_arithmetic(self):
        generator = self._generator()
        baseline_run = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        comparison = compare_injection_models(generator, baseline_run)
        for cost in comparison.rows():
            assert cost.cpu_hours == pytest.approx(cost.strategies * 2.0 / 60.0)


class TestReporting:
    def _fake_result(self):
        return CampaignResult(
            protocol="tcp", variant="linux-3.13",
            strategies_generated=5000, strategies_tried=5000,
            flagged=[None] * 100, on_path=[None] * 80,
            false_positives=[None] * 5, true_strategies=[None] * 15,
            attack_clusters={"Reset Attack": [], "SYN-Reset Attack": []},
        )

    def test_table1_renders(self):
        text = render_table1([self._fake_result()])
        assert "Strategies Tried" in text
        assert "5000" in text
        assert "linux-3.13" in text

    def test_table2_renders(self):
        text = render_table2({"Reset Attack": ["linux-3.13", "windows-8.1"]})
        assert "Reset Attack" in text
        assert "linux-3.13, windows-8.1" in text
        assert "REQUEST Connection Termination" in text

    def test_searchspace_renders(self):
        generator = StrategyGenerator("tcp", TCP_FORMAT, tcp_state_machine())
        baseline_run = Executor(TestbedConfig(protocol="tcp", variant="linux-3.13")).run(None)
        text = render_searchspace(compare_injection_models(generator, baseline_run))
        assert "state-based (SNAKE)" in text
        assert "time-interval-based" in text

    def test_cluster_rendering(self):
        strategy = Strategy(1, "tcp", "packet", state="ESTABLISHED", packet_type="ACK",
                            action="drop", params={"percent": 100})
        from repro.core.detector import Detection
        result = self._fake_result()
        result.attack_clusters = {"Reset Attack": [(strategy, Detection(1))]}
        text = render_attack_clusters(result)
        assert "Reset Attack" in text
