"""Tests for run metrics and the building-block executor."""

from __future__ import annotations

import pytest

from repro.core.state import QueryState
from repro.errors import SimulationError
from repro.scenarios.setups import make_strategy, run_single_source
from repro.simulation.executor import BuildingBlockExecutor, ExecutorConfig
from repro.simulation.metrics import EpochMetrics, RunMetrics
from repro.simulation.node import BudgetSchedule


def em(epoch, input_bytes=1000.0, goodput=1000.0, latency=0.5, state=QueryState.STABLE,
       offered_net=200.0, sent=200.0, queued=0.0):
    return EpochMetrics(
        epoch=epoch,
        input_bytes=input_bytes,
        goodput_bytes=goodput,
        network_bytes_offered=offered_net,
        network_bytes_sent=sent,
        network_queue_bytes=queued,
        cpu_used_seconds=0.5,
        cpu_budget_seconds=1.0,
        sp_cpu_seconds=0.1,
        source_backlog_records=0,
        latency_s=latency,
        query_state=state,
    )


class TestRunMetrics:
    def test_throughput_and_network_rates(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        for i in range(10):
            metrics.record(em(i))
        assert metrics.throughput_mbps() == pytest.approx(1000 * 8 / 1e6)
        assert metrics.offered_mbps() == pytest.approx(1000 * 8 / 1e6)
        assert metrics.network_mbps() == pytest.approx(200 * 8 / 1e6)
        assert metrics.network_sent_mbps() == pytest.approx(200 * 8 / 1e6)

    def test_warmup_epochs_excluded(self):
        metrics = RunMetrics(epoch_duration_s=1.0, warmup_epochs=5)
        for i in range(5):
            metrics.record(em(i, goodput=0.0))
        for i in range(5, 10):
            metrics.record(em(i, goodput=1000.0))
        assert metrics.throughput_mbps() == pytest.approx(1000 * 8 / 1e6)
        assert len(metrics.measured_epochs()) == 5

    def test_latency_bound_filters_late_epochs(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        metrics.record(em(0, latency=1.0))
        metrics.record(em(1, latency=30.0))
        unbounded = metrics.throughput_mbps()
        bounded = metrics.throughput_mbps(latency_bound_s=5.0)
        assert bounded == pytest.approx(unbounded / 2)

    def test_latency_statistics(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        for latency in (0.5, 1.0, 9.0):
            metrics.record(em(len(metrics.epochs), latency=latency))
        assert metrics.median_latency_s() == 1.0
        assert metrics.max_latency_s() == 9.0

    def test_cpu_utilization(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        metrics.record(em(0))
        assert metrics.mean_cpu_utilization() == pytest.approx(0.5)

    def test_empty_metrics_are_zero(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        assert metrics.throughput_mbps() == 0.0
        assert metrics.median_latency_s() == 0.0
        assert metrics.mean_cpu_utilization() == 0.0

    def test_convergence_epochs(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        states = [
            QueryState.STABLE,
            QueryState.CONGESTED,
            QueryState.CONGESTED,
            QueryState.STABLE,
            QueryState.STABLE,
            QueryState.STABLE,
        ]
        for i, state in enumerate(states):
            metrics.record(em(i, state=state))
        assert metrics.convergence_epochs(change_epoch=1) == 2

    def test_convergence_none_when_never_stable(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        for i in range(4):
            metrics.record(em(i, state=QueryState.CONGESTED))
        assert metrics.convergence_epochs(0) is None

    def test_summary_keys(self):
        metrics = RunMetrics(epoch_duration_s=1.0)
        metrics.record(em(0))
        summary = metrics.summary()
        for key in (
            "throughput_mbps",
            "offered_mbps",
            "network_mbps",
            "median_latency_s",
            "max_latency_s",
            "cpu_utilization",
        ):
            assert key in summary


class TestExecutor:
    def test_run_produces_requested_epochs(self, s2s_setup):
        metrics = run_single_source(s2s_setup, "Jarvis", 0.6, num_epochs=12, warmup_epochs=4)
        assert len(metrics) == 12
        assert metrics.metadata["strategy"] == "Jarvis"

    def test_run_rejects_zero_epochs(self, s2s_setup):
        strategy = make_strategy("All-SP", s2s_setup, 0.5)
        executor = BuildingBlockExecutor(
            s2s_setup.plan,
            s2s_setup.workload_factory(1),
            s2s_setup.cost_model,
            strategy,
            0.5,
            ExecutorConfig(config=s2s_setup.config),
        )
        with pytest.raises(SimulationError):
            executor.run(0)

    def test_all_sp_throughput_bounded_by_bandwidth(self, s2s_setup):
        metrics = run_single_source(s2s_setup, "All-SP", 1.0, num_epochs=20, warmup_epochs=5)
        assert metrics.throughput_mbps() <= s2s_setup.bandwidth_mbps * 1.15
        assert metrics.mean_cpu_utilization() == 0.0

    def test_all_src_throughput_bounded_by_cpu(self, s2s_setup):
        metrics = run_single_source(s2s_setup, "All-Src", 0.4, num_epochs=20, warmup_epochs=5)
        # The query needs ~0.93 of a core; at 0.4 it can only keep up with
        # roughly 43% of the offered input.
        assert metrics.throughput_mbps() < 0.6 * metrics.offered_mbps()
        # All-Src never drains raw records; only the aggregate output crosses
        # the network at window boundaries, far less than the ~90% of input a
        # filter-only partition would ship.
        assert metrics.network_mbps() < 0.45 * metrics.offered_mbps()

    def test_budget_schedule_is_respected(self, s2s_setup):
        schedule = BudgetSchedule([(0, 0.1), (5, 0.9)])
        metrics = run_single_source(s2s_setup, "Best-OP", schedule, num_epochs=10, warmup_epochs=0)
        early = metrics.epochs[1]
        late = metrics.epochs[9]
        assert early.cpu_budget_seconds == pytest.approx(0.1)
        assert late.cpu_budget_seconds == pytest.approx(0.9)

    def test_jarvis_uses_more_cpu_than_best_op_under_tight_budget(self, s2s_setup):
        jarvis = run_single_source(s2s_setup, "Jarvis", 0.6, num_epochs=25, warmup_epochs=12)
        best_op = run_single_source(s2s_setup, "Best-OP", 0.6, num_epochs=25, warmup_epochs=12)
        assert jarvis.mean_cpu_utilization() > best_op.mean_cpu_utilization()
        assert jarvis.network_mbps() < best_op.network_mbps()

    def test_load_factors_are_recorded_per_epoch(self, s2s_setup):
        metrics = run_single_source(s2s_setup, "Jarvis", 0.6, num_epochs=10, warmup_epochs=0)
        assert all(len(em.load_factors) == 3 for em in metrics.epochs)
