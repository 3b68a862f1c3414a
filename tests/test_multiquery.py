"""Tests for the co-located multi-query executor (Figure 11 at cluster scale)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import AllSPStrategy, StaticLoadFactorStrategy
from repro.config import JarvisConfig
from repro.errors import SimulationError
from repro.scenarios.setups import make_setup, make_strategy
from repro.simulation.metrics import ClusterMetrics, MultiQueryMetrics, RunMetrics
from repro.simulation.multiquery import (
    CoLocatedBlockExecutor,
    QuerySpec,
    single_query,
)
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
    homogeneous_sources,
)
from repro.simulation.node import StreamProcessorNode


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


def all_sp_fleet(setup, num_sources, seed=10, prefix="source"):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: AllSPStrategy(),
        budget=1.0,
        name_prefix=prefix,
    )


class _SilentWorkload:
    """A registered source that never produces records (zero demand)."""

    def records_for_epoch(self, epoch):
        return []


def silent_fleet(num_sources, prefix="silent"):
    """Sources with no input at all: zero link and compute demand."""
    return [
        SourceSpec(
            name=f"{prefix}-{i}",
            workload=_SilentWorkload(),
            strategy=StaticLoadFactorStrategy(
                [1.0, 1.0, 1.0], name=f"{prefix}-{i}"
            ),
            budget=1.0,
        )
        for i in range(num_sources)
    ]


def make_query(setup, name, sources, share=None, weight=1.0):
    return QuerySpec(
        name=name,
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=sources,
        sp_compute_share=share,
        ingress_weight=weight,
        config=setup.config,
    )


class TestQuerySpecValidation:
    def test_rejects_bad_share_and_weight(self, setup):
        with pytest.raises(SimulationError):
            make_query(setup, "q", all_sp_fleet(setup, 1), share=0.0)
        with pytest.raises(SimulationError):
            make_query(setup, "q", all_sp_fleet(setup, 1), share=1.5)
        with pytest.raises(SimulationError):
            make_query(setup, "q", all_sp_fleet(setup, 1), weight=0.0)
        with pytest.raises(SimulationError):
            make_query(setup, "", all_sp_fleet(setup, 1))


class TestConstruction:
    def test_requires_queries(self):
        with pytest.raises(SimulationError):
            CoLocatedBlockExecutor([])

    def test_rejects_duplicate_query_names(self, setup):
        queries = [
            make_query(setup, "q", all_sp_fleet(setup, 1, seed=10)),
            make_query(setup, "q", all_sp_fleet(setup, 1, seed=20)),
        ]
        with pytest.raises(SimulationError, match="unique"):
            CoLocatedBlockExecutor(queries)

    def test_rejects_over_committed_compute(self, setup):
        queries = [
            make_query(setup, "a", all_sp_fleet(setup, 1, seed=10), share=0.7),
            make_query(setup, "b", all_sp_fleet(setup, 1, seed=20), share=0.7),
        ]
        with pytest.raises(SimulationError, match="at most 1"):
            CoLocatedBlockExecutor(queries)

    def test_rejects_unset_share_with_no_headroom(self, setup):
        queries = [
            make_query(setup, "a", all_sp_fleet(setup, 1, seed=10), share=1.0),
            make_query(setup, "b", all_sp_fleet(setup, 1, seed=20)),
        ]
        with pytest.raises(SimulationError, match="no sp_compute_share"):
            CoLocatedBlockExecutor(queries)

    def test_rejects_mismatched_epoch_durations(self, setup):
        from dataclasses import replace as dc_replace
        from repro.config import EpochConfig

        other_config = JarvisConfig(epoch=EpochConfig(duration_s=2.0))
        queries = [
            make_query(setup, "a", all_sp_fleet(setup, 1, seed=10)),
            dc_replace(
                make_query(setup, "b", all_sp_fleet(setup, 1, seed=20)),
                config=other_config,
            ),
        ]
        with pytest.raises(SimulationError, match="epoch duration"):
            CoLocatedBlockExecutor(queries)

    def test_unset_shares_split_the_remainder(self, setup):
        queries = [
            make_query(setup, "a", all_sp_fleet(setup, 1, seed=10), share=0.5),
            make_query(setup, "b", all_sp_fleet(setup, 1, seed=20)),
            make_query(setup, "c", all_sp_fleet(setup, 1, seed=30)),
        ]
        executor = CoLocatedBlockExecutor(queries)
        shares = executor.compute_shares()
        assert shares["a"] == pytest.approx(0.5)
        assert shares["b"] == pytest.approx(0.25)
        assert shares["c"] == pytest.approx(0.25)


class TestSingleQueryEquivalence:
    def test_single_query_matches_multisource_exactly(self, setup):
        """Acceptance: one co-located query with sp_compute_share=1.0 is
        bit-identical to a standalone MultiSourceExecutor run."""

        def specs():
            return homogeneous_sources(
                3,
                workload_factory=lambda i: setup.workload_factory(20 + i),
                strategy_factory=lambda i: make_strategy("Best-OP", setup, 0.5),
                budget=0.5,
            )

        sp = lambda: StreamProcessorNode(ingress_bandwidth_mbps=2.0)
        direct = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs(),
            cluster_config=MultiSourceConfig(
                config=setup.config, stream_processor=sp()
            ),
        ).run(15, warmup_epochs=4)
        colocated = CoLocatedBlockExecutor(
            [
                single_query(
                    "q0",
                    setup.plan,
                    setup.cost_model,
                    specs(),
                    config=setup.config,
                    sp_compute_share=1.0,
                )
            ],
            stream_processor=sp(),
        ).run(15, warmup_epochs=4)

        mine = colocated.per_query["q0"]
        assert mine.summary() == direct.summary()
        assert mine.source_names() == direct.source_names()
        for name in direct.source_names():
            for a, b in zip(
                mine.per_source[name].epochs, direct.per_source[name].epochs
            ):
                assert a == b
        for a, b in zip(mine.cluster_epochs, direct.cluster_epochs):
            assert a == b


class TestHierarchicalLinkArbitration:
    def build(self, setup, queries, ingress_mbps, sp_cores=64, **kwargs):
        return CoLocatedBlockExecutor(
            queries,
            stream_processor=StreamProcessorNode(
                cores=sp_cores, ingress_bandwidth_mbps=ingress_mbps
            ),
            **kwargs,
        )

    def test_saturated_queries_split_by_ingress_weight(self, setup):
        """Two permanently backlogged queries share the link 2:1."""
        queries = [
            make_query(
                setup, "heavy", all_sp_fleet(setup, 2, seed=10, prefix="h"),
                share=0.5, weight=2.0,
            ),
            make_query(
                setup, "light", all_sp_fleet(setup, 2, seed=20, prefix="l"),
                share=0.5, weight=1.0,
            ),
        ]
        # Far below the two fleets' combined demand: both stay saturated.
        executor = self.build(setup, queries, ingress_mbps=setup.input_rate_mbps)
        metrics = executor.run(16, warmup_epochs=4)
        sent = {
            name: sum(
                em.network_sent_bytes
                for em in cluster.measured_cluster_epochs()
            )
            for name, cluster in metrics.per_query.items()
        }
        assert sent["heavy"] == pytest.approx(2.0 * sent["light"], rel=0.05)

    def test_idle_query_share_is_work_conserved(self, setup):
        """A query with no link demand leaves its weighted share to its
        backlogged neighbour: the neighbour gets ~the whole link, not half."""
        queries = [
            make_query(
                setup, "busy", all_sp_fleet(setup, 2, seed=10, prefix="b"),
                share=0.5, weight=1.0,
            ),
            make_query(
                setup, "quiet", silent_fleet(2, prefix="q"),
                share=0.5, weight=1.0,
            ),
        ]
        ingress = setup.input_rate_mbps  # busy alone can saturate this
        executor = self.build(setup, queries, ingress_mbps=ingress)
        metrics = executor.run(16, warmup_epochs=4)
        busy_sent_mbps = metrics.per_query["busy"].network_sent_mbps()
        # A strict weighted half-share would cap busy at 0.5x the link;
        # work conservation lets it take what quiet leaves idle.
        assert busy_sent_mbps > 0.95 * ingress
        assert executor.verify_record_conservation() == []


class TestComputeSharing:
    def build(self, setup, redistribute):
        queries = [
            make_query(
                setup, "starved", all_sp_fleet(setup, 2, seed=10, prefix="s"),
                share=0.0001, weight=1.0,
            ),
            make_query(
                setup, "idle", silent_fleet(1, prefix="i"),
                share=0.9, weight=1.0,
            ),
        ]
        return CoLocatedBlockExecutor(
            queries,
            stream_processor=StreamProcessorNode(
                cores=64, ingress_bandwidth_mbps=1000.0
            ),
            redistribute_idle_compute=redistribute,
        )

    def test_idle_compute_redistribution_unblocks_starved_query(self, setup):
        """With redistribution the starved query's SP backlog drains using
        the idle neighbour's compute; without it the backlog persists."""
        strict = self.build(setup, redistribute=False)
        shared = self.build(setup, redistribute=True)
        for _ in range(10):
            strict.run_epoch()
            shared.run_epoch()
        assert strict.sp_backlog_records() > 0
        assert shared.sp_backlog_records() == 0
        assert strict.verify_record_conservation() == []
        assert shared.verify_record_conservation() == []


class TestRunReuseGuard:
    def test_run_twice_raises(self, setup):
        executor = CoLocatedBlockExecutor(
            [make_query(setup, "q", all_sp_fleet(setup, 1))]
        )
        executor.run(3, warmup_epochs=0)
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)

    def test_run_after_run_epoch_raises(self, setup):
        executor = CoLocatedBlockExecutor(
            [make_query(setup, "q", all_sp_fleet(setup, 1))]
        )
        executor.run_epoch()
        with pytest.raises(SimulationError, match="fresh executor"):
            executor.run(3, warmup_epochs=0)


class TestColocatedConservation:
    @settings(max_examples=8, deadline=None)
    @given(
        num_queries=st.integers(min_value=1, max_value=3),
        sources_per_query=st.integers(min_value=1, max_value=3),
        ingress=st.floats(min_value=0.0005, max_value=5.0),
        budget=st.floats(min_value=0.1, max_value=1.0),
    )
    def test_colocated_runs_conserve_records_per_query(
        self, setup, num_queries, sources_per_query, ingress, budget
    ):
        """Property: every query of a co-located run conserves records, for
        any query/source/link/budget combination — including link slivers
        that force mid-record exhaustion every epoch."""
        queries = []
        for q in range(num_queries):
            fleet = homogeneous_sources(
                sources_per_query,
                workload_factory=lambda i, q=q: setup.workload_factory(
                    100 * q + i
                ),
                strategy_factory=lambda i: AllSPStrategy(),
                budget=budget,
                name_prefix=f"q{q}-src",
            )
            queries.append(
                make_query(setup, f"q{q}", fleet, weight=float(q + 1))
            )
        executor = CoLocatedBlockExecutor(
            queries,
            stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=ingress),
        )
        executor.run(6, warmup_epochs=0)
        assert executor.verify_record_conservation() == []


class TestMultiQueryMetrics:
    def cluster(self, latency=1.0, epochs=3):
        from repro.simulation.metrics import ClusterEpochMetrics, EpochMetrics

        cluster = ClusterMetrics(epoch_duration_s=1.0)
        run = RunMetrics(epoch_duration_s=1.0)
        for epoch in range(epochs):
            run.record(
                EpochMetrics(
                    epoch=epoch,
                    input_bytes=1000.0,
                    goodput_bytes=800.0,
                    network_bytes_offered=100.0,
                    network_bytes_sent=100.0,
                    network_queue_bytes=0.0,
                    cpu_used_seconds=0.5,
                    cpu_budget_seconds=1.0,
                    sp_cpu_seconds=0.1,
                    source_backlog_records=0,
                    latency_s=latency,
                )
            )
            cluster.record_cluster_epoch(
                ClusterEpochMetrics(
                    epoch=epoch,
                    network_offered_bytes=200.0,
                    network_sent_bytes=150.0,
                    network_queued_bytes=50.0,
                    network_capacity_bytes=300.0,
                    sp_cpu_used_seconds=0.2,
                    sp_cpu_capacity_seconds=0.5,
                    sp_backlog_records=0,
                )
            )
        cluster.register_source("src", run)
        return cluster

    def test_aggregates_sum_queries(self):
        metrics = MultiQueryMetrics(epoch_duration_s=1.0)
        metrics.register_query("a", self.cluster(latency=1.0))
        metrics.register_query("b", self.cluster(latency=3.0))
        single = self.cluster().aggregate_throughput_mbps()
        assert metrics.num_queries == 2
        assert metrics.aggregate_throughput_mbps() == pytest.approx(2 * single)
        assert metrics.per_query_throughput_mbps()["a"] == pytest.approx(single)
        assert metrics.median_latency_s() == pytest.approx(2.0)
        assert metrics.max_latency_s() == pytest.approx(3.0)
        # 0.2s used of each query's 0.5s entitlement per epoch -> 40% of the
        # combined entitlement.
        assert metrics.sp_cpu_utilization() == pytest.approx(0.4)
        summary = metrics.summary()
        assert summary["num_queries"] == 2.0
        assert set(summary["per_query_throughput_mbps"]) == {"a", "b"}

    def test_duplicate_query_rejected(self):
        metrics = MultiQueryMetrics(epoch_duration_s=1.0)
        metrics.register_query("a", self.cluster())
        with pytest.raises(SimulationError):
            metrics.register_query("a", self.cluster())
