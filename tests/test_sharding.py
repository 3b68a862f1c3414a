"""Tests for the sharded (multi-building-block) cluster executor."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import AllSPStrategy, StaticLoadFactorStrategy
from repro.errors import SimulationError
from repro.scenarios.setups import make_setup, make_strategy
from repro.simulation.metrics import (
    ClusterEpochMetrics,
    ClusterMetrics,
    EpochMetrics,
    RunMetrics,
)
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
    homogeneous_sources,
)
from repro.simulation.node import StreamProcessorNode
from repro.simulation.sharding import (
    ByteRateBalancedPlacement,
    RoundRobinPlacement,
    ShardedClusterExecutor,
    StaticPlacement,
    estimated_rate_mbps,
    make_placement,
)


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


class _RateWorkload:
    """Stub workload with a declared rate and no records."""

    def __init__(self, rate_mbps):
        if rate_mbps is not None:
            self.input_rate_mbps = rate_mbps

    def records_for_epoch(self, epoch):
        return []


def rate_specs(rates):
    return [
        SourceSpec(
            name=f"s{i}",
            workload=_RateWorkload(rate),
            strategy=StaticLoadFactorStrategy([1.0], name=f"static-{i}"),
        )
        for i, rate in enumerate(rates)
    ]


def build_sharded(setup, specs, num_blocks, placement="round_robin",
                  ingress_mbps=100.0, sp_cores=64, sp_compute_share=1.0):
    return ShardedClusterExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=specs,
        num_blocks=num_blocks,
        placement=placement,
        cluster_config=MultiSourceConfig(
            config=setup.config,
            stream_processor=StreamProcessorNode(
                cores=sp_cores, ingress_bandwidth_mbps=ingress_mbps
            ),
            sp_compute_share=sp_compute_share,
        ),
    )


def all_sp_specs(setup, num_sources, seed=10):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: AllSPStrategy(),
        budget=1.0,
    )


class TestPlacementPolicies:
    def test_round_robin_deals_in_order(self):
        specs = rate_specs([1.0] * 5)
        assert RoundRobinPlacement().assign(specs, 2) == [0, 1, 0, 1, 0]

    def test_byte_rate_balanced_packs_heaviest_first(self):
        specs = rate_specs([10.0, 9.0, 2.0, 1.0])
        assignment = ByteRateBalancedPlacement().assign(specs, 2)
        # Heaviest-first greedy: 10 -> block 0, 9 -> block 1, 2 -> block 1
        # (load 9 < 10), 1 -> block 0 (load 10 < 11): both blocks end at 11.
        assert assignment == [0, 1, 1, 0]

    def test_byte_rate_balanced_falls_back_without_rate_attribute(self):
        specs = rate_specs([None, None, None, None])
        assignment = ByteRateBalancedPlacement().assign(specs, 2)
        assert sorted(assignment) == [0, 0, 1, 1]  # count-balanced

    def test_byte_rate_balanced_spreads_zero_rate_fleet(self):
        """Regression: all-zero rates must count-balance, not pile on block 0
        (which would crash the executor with an empty block)."""
        specs = rate_specs([0.0, 0.0, 0.0, 0.0])
        assignment = ByteRateBalancedPlacement().assign(specs, 2)
        assert sorted(assignment) == [0, 0, 1, 1]

    def test_estimated_rate_handles_missing_and_bad_values(self):
        assert estimated_rate_mbps(rate_specs([None])[0], default=7.0) == 7.0
        assert estimated_rate_mbps(rate_specs(["bogus"])[0], default=7.0) == 7.0
        assert estimated_rate_mbps(rate_specs([3.5])[0]) == 3.5

    def test_estimated_rate_rejects_negative_values(self):
        """Regression: negative rates used to clamp to 0.0 silently, so a
        buggy workload made every such source look free and the greedy
        bin-packer piled them all onto one block; they must fall back to the
        default like non-finite rates."""
        assert estimated_rate_mbps(rate_specs([-3.0])[0], default=7.0) == 7.0
        assert estimated_rate_mbps(rate_specs([-0.0])[0], default=7.0) == 0.0

    def test_byte_rate_balanced_spreads_negative_rate_fleet(self):
        """With the default fallback, an all-negative-rate fleet spreads
        across blocks instead of collapsing onto block 0."""
        specs = rate_specs([-1.0, -2.0, -3.0, -4.0])
        assignment = ByteRateBalancedPlacement().assign(specs, 2)
        assert sorted(assignment) == [0, 0, 1, 1]

    def test_estimated_rate_rejects_non_finite_values(self):
        """Regression: inf/nan rates must fall back to the default instead of
        poisoning the bin-packer's sort and load comparisons."""
        for bad in (float("nan"), float("inf"), float("-inf")):
            assert estimated_rate_mbps(rate_specs([bad])[0], default=7.0) == 7.0

    def test_byte_rate_balanced_survives_inf_rate(self):
        """An inf-rate workload degrades to the default rate, so the fleet
        still spreads across blocks instead of every block comparing equal."""
        specs = rate_specs([float("inf"), 1.0, 1.0, 1.0])
        assignment = ByteRateBalancedPlacement().assign(specs, 2)
        assert sorted(assignment) == [0, 0, 1, 1]

    def test_static_placement_uses_mapping(self):
        specs = rate_specs([1.0, 1.0, 1.0])
        policy = StaticPlacement({"s0": 1, "s1": 0, "s2": 1})
        assert policy.assign(specs, 2) == [1, 0, 1]

    def test_static_placement_missing_source_rejected(self):
        specs = rate_specs([1.0, 1.0])
        with pytest.raises(SimulationError):
            StaticPlacement({"s0": 0}).assign(specs, 2)

    def test_static_placement_out_of_range_rejected(self):
        specs = rate_specs([1.0])
        with pytest.raises(SimulationError):
            StaticPlacement({"s0": 3}).assign(specs, 2)

    def test_make_placement_coercions(self):
        assert isinstance(make_placement("round-robin"), RoundRobinPlacement)
        assert isinstance(make_placement("byte_rate_balanced"), ByteRateBalancedPlacement)
        assert isinstance(make_placement("balanced"), ByteRateBalancedPlacement)
        assert isinstance(make_placement({"s0": 0}), StaticPlacement)
        policy = RoundRobinPlacement()
        assert make_placement(policy) is policy
        with pytest.raises(SimulationError):
            make_placement("best-effort")
        with pytest.raises(SimulationError):
            make_placement(42)


class TestConstruction:
    def test_requires_sources_and_blocks(self, setup):
        with pytest.raises(SimulationError):
            build_sharded(setup, [], 1)
        with pytest.raises(SimulationError):
            build_sharded(setup, all_sp_specs(setup, 2), 0)

    def test_rejects_duplicate_names(self, setup):
        specs = all_sp_specs(setup, 2)
        specs[1].name = specs[0].name
        with pytest.raises(SimulationError):
            build_sharded(setup, specs, 2)

    def test_idle_blocks_allowed(self, setup):
        """Regression: K > fleet size used to be a hard SimulationError;
        idle blocks must construct, step zero-byte epochs, and keep their
        capacity counted in the fleet-wide merge (they can also receive
        migrated sources later)."""
        executor = build_sharded(setup, all_sp_specs(setup, 2), 3, ingress_mbps=5.0)
        assert executor.num_blocks == 3
        assert [len(group) for group in executor._groups].count(0) == 1
        metrics = executor.run(4, warmup_epochs=0)
        assert metrics.num_sources == 2
        # The idle block's link still contributes fleet capacity.
        assert metrics.cluster_epochs[0].network_capacity_bytes == pytest.approx(
            3 * 5.0 * 1e6 / 8.0
        )
        assert executor.verify_record_conservation() == []

    def test_assignment_is_exposed(self, setup):
        executor = build_sharded(setup, all_sp_specs(setup, 4), 2)
        assignment = executor.assignment()
        assert assignment == {
            "source-0": 0, "source-1": 1, "source-2": 0, "source-3": 1
        }
        assert executor.block_of("source-3") == 1
        with pytest.raises(SimulationError):
            executor.block_of("nope")
        assert executor.num_blocks == 2
        assert executor.num_sources == 4
        assert sorted(executor.source_names()) == sorted(assignment)

    def test_placement_report_balances_rates(self, setup):
        executor = build_sharded(
            setup, all_sp_specs(setup, 4), 2, placement="balanced"
        )
        report = executor.placement_report()
        assert report["policy"] == "byte-rate-balanced"
        assert report["sources_per_block"] == [2, 2]
        assert report["rate_imbalance_ratio"] == pytest.approx(1.0)
        assert report["rate_stdev_mbps"] == pytest.approx(0.0)


class TestSingleBlockEquivalence:
    def test_k1_matches_multisource_exactly(self, setup):
        """Acceptance: K=1 reproduces MultiSourceExecutor metrics exactly."""

        def specs():
            return homogeneous_sources(
                3,
                workload_factory=lambda i: setup.workload_factory(20 + i),
                strategy_factory=lambda i: make_strategy("Best-OP", setup, 0.5),
                budget=0.5,
            )

        def config():
            return MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=2.0),
            )

        direct = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs(),
            cluster_config=config(),
        ).run(15, warmup_epochs=4)
        sharded = ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs(),
            num_blocks=1,
            cluster_config=config(),
        ).run(15, warmup_epochs=4)

        assert sharded.summary() == direct.summary()
        assert sharded.source_names() == direct.source_names()
        for name in direct.source_names():
            assert (
                sharded.per_source[name].summary()
                == direct.per_source[name].summary()
            )
        for mine, theirs in zip(sharded.cluster_epochs, direct.cluster_epochs):
            assert mine == theirs


class TestShardedScaling:
    def test_goodput_scales_with_blocks_past_the_knee(self, setup):
        """Acceptance: aggregate goodput grows with K once one block saturates."""
        ingress = 1.3 * setup.input_rate_mbps  # one block carries ~1 source
        throughputs = []
        for k in (1, 2, 4):
            executor = build_sharded(
                setup, all_sp_specs(setup, 4), k, ingress_mbps=ingress
            )
            metrics = executor.run(16, warmup_epochs=4)
            throughputs.append(metrics.aggregate_throughput_mbps())
            assert executor.verify_record_conservation() == []
        assert throughputs[0] < throughputs[1] < throughputs[2]

    def test_fleet_metrics_sum_blocks(self, setup):
        executor = build_sharded(setup, all_sp_specs(setup, 4), 2, ingress_mbps=5.0)
        metrics = executor.run(8, warmup_epochs=0)
        assert metrics.num_sources == 4
        assert metrics.metadata["num_blocks"] == 2
        per_block = metrics.metadata["per_block_summary"]
        assert len(per_block) == 2
        assert sum(entry["aggregate_throughput_mbps"] for entry in per_block) == (
            pytest.approx(metrics.aggregate_throughput_mbps())
        )
        # Fleet capacity is the sum of the blocks' links.
        capacity = metrics.cluster_epochs[0].network_capacity_bytes
        assert capacity == pytest.approx(2 * 5.0 * 1e6 / 8.0)


class TestShardedConservation:
    @settings(max_examples=8, deadline=None)
    @given(
        num_sources=st.integers(min_value=2, max_value=5),
        num_blocks=st.integers(min_value=1, max_value=3),
        ingress=st.floats(min_value=0.0005, max_value=5.0),
        budget=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_sharded_runs_conserve_records(
        self, setup, num_sources, num_blocks, ingress, budget
    ):
        """Property: conservation holds for any fleet/block/link combination,
        including link slivers that force mid-record exhaustion every epoch."""
        if num_blocks > num_sources:
            num_blocks = num_sources
        specs = homogeneous_sources(
            num_sources,
            workload_factory=lambda i: setup.workload_factory(70 + i),
            strategy_factory=lambda i: AllSPStrategy(),
            budget=budget,
        )
        executor = build_sharded(setup, specs, num_blocks, ingress_mbps=ingress)
        executor.run(6, warmup_epochs=0)
        assert executor.verify_record_conservation() == []

    def test_congested_sharded_run_conserves_records(self, setup):
        specs = homogeneous_sources(
            4,
            workload_factory=lambda i: setup.workload_factory(80 + i),
            strategy_factory=lambda i: StaticLoadFactorStrategy(
                [1.0, 1.0, 1.0], name=f"static-{i}"
            ),
            budget=0.15,
        )
        executor = build_sharded(setup, specs, 2, ingress_mbps=0.2)
        executor.run(20, warmup_epochs=0)
        assert executor.verify_record_conservation() == []
        report = executor.record_conservation_report()
        assert set(report) == {f"source-{i}" for i in range(4)}


class TestShardedRunReuseGuard:
    def test_run_twice_raises(self, setup):
        executor = build_sharded(setup, all_sp_specs(setup, 2), 2)
        executor.run(3, warmup_epochs=0)
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)

    def test_run_after_run_epoch_raises(self, setup):
        executor = build_sharded(setup, all_sp_specs(setup, 2), 2)
        executor.run_epoch()
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)


class TestClusterMetricsMerging:
    def epoch(self, epoch=0, offered=100.0):
        return ClusterEpochMetrics(
            epoch=epoch,
            network_offered_bytes=offered,
            network_sent_bytes=80.0,
            network_queued_bytes=20.0,
            network_capacity_bytes=160.0,
            sp_cpu_used_seconds=0.25,
            sp_cpu_capacity_seconds=1.0,
            sp_backlog_records=3,
        )

    def test_epoch_merge_sums_fields(self):
        merged = ClusterEpochMetrics.merge([self.epoch(), self.epoch()])
        assert merged.network_offered_bytes == pytest.approx(200.0)
        assert merged.network_capacity_bytes == pytest.approx(320.0)
        assert merged.sp_backlog_records == 6
        assert merged.network_utilization == pytest.approx(0.5)
        assert merged.sp_cpu_utilization == pytest.approx(0.25)

    def test_epoch_merge_rejects_mismatched_epochs(self):
        with pytest.raises(SimulationError):
            ClusterEpochMetrics.merge([self.epoch(0), self.epoch(1)])
        with pytest.raises(SimulationError):
            ClusterEpochMetrics.merge([])

    def block(self, name, epochs=2):
        block = ClusterMetrics(epoch_duration_s=1.0)
        run = RunMetrics(epoch_duration_s=1.0)
        for e in range(epochs):
            run.record(
                EpochMetrics(
                    epoch=e,
                    input_bytes=1000.0,
                    goodput_bytes=900.0,
                    network_bytes_offered=100.0,
                    network_bytes_sent=100.0,
                    network_queue_bytes=0.0,
                    cpu_used_seconds=0.5,
                    cpu_budget_seconds=1.0,
                    sp_cpu_seconds=0.1,
                    source_backlog_records=0,
                    latency_s=1.0,
                )
            )
            block.record_cluster_epoch(self.epoch(e))
        block.register_source(name, run)
        return block

    def test_cluster_merged_combines_blocks(self):
        fleet = ClusterMetrics.merged(
            [self.block("a"), self.block("b")], metadata={"num_blocks": 2}
        )
        assert fleet.num_sources == 2
        assert fleet.metadata["num_blocks"] == 2
        assert len(fleet.cluster_epochs) == 2
        assert fleet.cluster_epochs[0].network_capacity_bytes == pytest.approx(320.0)
        single = self.block("a").aggregate_throughput_mbps()
        assert fleet.aggregate_throughput_mbps() == pytest.approx(2 * single)

    def test_cluster_merged_validations(self):
        with pytest.raises(SimulationError):
            ClusterMetrics.merged([])
        with pytest.raises(SimulationError):  # duplicate source names
            ClusterMetrics.merged([self.block("a"), self.block("a")])
        with pytest.raises(SimulationError):  # differing epoch counts
            ClusterMetrics.merged([self.block("a"), self.block("b", epochs=3)])
        other = self.block("b")
        other.epoch_duration_s = 2.0
        with pytest.raises(SimulationError):
            ClusterMetrics.merged([self.block("a"), other])


class TestHeterogeneousBlocks:
    """Per-block StreamProcessorNode overrides (heterogeneous deployments)."""

    def test_override_count_validated(self, setup):
        with pytest.raises(SimulationError, match="per-block stream processors"):
            ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=all_sp_specs(setup, 4),
                num_blocks=2,
                stream_processors=[StreamProcessorNode()],
            )

    def test_none_entries_keep_the_template(self, setup):
        template = StreamProcessorNode(cores=8, ingress_bandwidth_mbps=50.0)
        fast = StreamProcessorNode(cores=64, ingress_bandwidth_mbps=200.0)
        executor = ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=all_sp_specs(setup, 4),
            num_blocks=2,
            cluster_config=MultiSourceConfig(
                config=setup.config, stream_processor=template
            ),
            stream_processors=[None, fast],
        )
        assert executor.blocks[0].link.bandwidth_mbps == 50.0
        assert executor.blocks[1].link.bandwidth_mbps == 200.0
        assert executor.blocks[1].sp_compute_capacity_s == 64.0
        report = executor.placement_report()
        assert report["block_ingress_mbps"] == [50.0, 200.0]

    def test_faster_block_absorbs_more_byte_rate(self, setup):
        """Capacity-aware byte-rate balancing: a block with 2x the ingress
        bandwidth should carry ~2x the byte rate of a balanced fleet."""
        rates = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0]
        specs = rate_specs(rates)
        slow = StreamProcessorNode(ingress_bandwidth_mbps=100.0)
        fast = StreamProcessorNode(ingress_bandwidth_mbps=200.0)
        executor = ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            num_blocks=2,
            placement="byte_rate_balanced",
            cluster_config=MultiSourceConfig(
                config=setup.config, stream_processor=slow
            ),
            stream_processors=[None, fast],
        )
        report = executor.placement_report()
        slow_rate, fast_rate = report["estimated_block_rates_mbps"]
        assert fast_rate > slow_rate
        # The load split should track the 1:2 capacity split.
        assert fast_rate / slow_rate == pytest.approx(2.0, rel=0.25)

    def test_homogeneous_overrides_match_template_run(self, setup):
        """Overrides equal to the template must not change the simulation."""
        node = StreamProcessorNode(cores=16, ingress_bandwidth_mbps=80.0)
        def build(stream_processors):
            return ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=all_sp_specs(setup, 4),
                num_blocks=2,
                cluster_config=MultiSourceConfig(
                    config=setup.config, stream_processor=node
                ),
                stream_processors=stream_processors,
            )
        base = build(None).run(8, warmup_epochs=2)
        same = build([node, node]).run(8, warmup_epochs=2)
        assert (
            base.aggregate_throughput_mbps() == same.aggregate_throughput_mbps()
        )
