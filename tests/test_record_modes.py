"""Batched/arena (columnar) vs object execution mode: bit-exact equivalence.

The simulators select their hot-path record representation through the
``record_mode`` knob (:class:`~repro.simulation.executor.ExecutorConfig` /
:class:`~repro.simulation.multisource.MultiSourceConfig`).  The batched and
arena modes exist purely for speed; these tests pin down that each
reproduces the object mode's metrics *bit-exactly* — not approximately — on
the configurations the evaluation figures run (Fig. 10 multi-source/sharded,
Fig. 11 co-located), that the :class:`~repro.query.records.FleetArena`
container honours its aliasing/ownership contract, that the columnar
containers survive empty inputs, and that record conservation holds in the
fast modes under arbitrary fleets (hypothesis property).
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import AllSPStrategy
from repro.query.aggregates import (
    AvgAggregate,
    CountAggregate,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
)
from repro.query.builder import (
    _bucketize,
    _matches_log_pattern,
    _normalize_log_line,
    _parse_job_stats,
)
from repro.query.operators import FilterOperator, MapOperator, make_tor_join
from repro.query.records import (
    FleetArena,
    IpToTorTable,
    LogRecord,
    PingmeshRecord,
    RecordBatch,
    RecordRowView,
    record_size_bytes,
)
from repro.scenarios import (
    FleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
)
from repro.scenarios.runner import _colocated_block
from repro.scenarios.setups import (
    CLUSTER_CAPACITY_INPUT_MULTIPLE,
    make_setup,
    make_strategy,
)
from repro.simulation.engine import EpochEngine, RECORD_MODES, validate_record_mode
from repro.simulation.executor import BuildingBlockExecutor, ExecutorConfig
from repro.simulation.multiquery import CoLocatedBlockExecutor, QuerySpec
from repro.simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
    homogeneous_sources,
)
from repro.simulation.network import plan_fifo_transfer
from repro.simulation.node import StreamProcessorNode
from repro.simulation.sharding import ShardedClusterExecutor
from repro.errors import SimulationError


@pytest.fixture(scope="module")
def setup():
    return make_setup("s2s_probe", records_per_epoch=120)


def fleet(setup, num_sources, strategy_name="Jarvis", seed=10, budget=0.55):
    return homogeneous_sources(
        num_sources,
        workload_factory=lambda i: setup.workload_factory(seed + i),
        strategy_factory=lambda i: make_strategy(strategy_name, setup, budget),
        budget=budget,
    )


def assert_epochs_identical(object_run, batched_run):
    """Every epoch metric of every source must match bit-for-bit."""
    assert object_run.source_names() == batched_run.source_names()
    for name in object_run.source_names():
        obj_epochs = object_run.per_source[name].epochs
        bat_epochs = batched_run.per_source[name].epochs
        assert len(obj_epochs) == len(bat_epochs)
        for obj, bat in zip(obj_epochs, bat_epochs):
            assert obj == bat, (name, obj, bat)


class TestRecordModeValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            validate_record_mode("vectorized")
        with pytest.raises(SimulationError):
            MultiSourceConfig(record_mode="columns")
        with pytest.raises(SimulationError):
            ExecutorConfig(record_mode="columns")

    def test_all_advertised_modes_accepted(self):
        assert RECORD_MODES == ("object", "batched", "arena")
        for mode in RECORD_MODES:
            validate_record_mode(mode)
            MultiSourceConfig(record_mode=mode)
            ExecutorConfig(record_mode=mode)


class TestRecordBatchContainer:
    def batch(self, n=10):
        workload = make_setup(
            "s2s_probe", records_per_epoch=n
        ).workload_factory(3)
        return workload.batch_for_epoch(0)

    def test_matches_materialized_records(self):
        batch = self.batch(16)
        records = batch.to_records()
        assert len(records) == len(batch) == 16
        for view, record in zip(batch, records):
            assert isinstance(record, PingmeshRecord)
            assert view.as_dict() == record.as_dict()
        assert record_size_bytes(batch) == record_size_bytes(records)
        assert record_size_bytes(batch, drain=True) == record_size_bytes(
            records, drain=True
        )

    def test_slicing_concat_take_compress(self):
        batch = self.batch(12)
        head, tail = batch[:5], batch[5:]
        assert len(head) == 5 and len(tail) == 7
        rejoined = head + tail
        assert [v.event_time for v in rejoined] == [v.event_time for v in batch]
        assert batch[0:12] is batch  # whole-batch slices alias
        taken = batch.take([0, 3, 4])
        assert [v.dst_ip for v in taken] == [
            batch.columns["dst_ip"][i] for i in (0, 3, 4)
        ]
        mask = [i % 2 == 0 for i in range(12)]
        assert len(batch.compress(mask)) == 6
        # Empty-list concatenation keeps the container columnar.
        assert ([] + batch) is batch
        assert (batch + []) is batch

    def test_from_records_round_trip(self):
        records = self.batch(8).to_records()
        rebuilt = RecordBatch.from_records(records)
        assert rebuilt.uniform_size_bytes == records[0].size_bytes
        assert [v.as_dict() for v in rebuilt] == [r.as_dict() for r in records]

    def test_row_view_attribute_access(self):
        batch = self.batch(4)
        view = RecordRowView(batch)
        assert view.at(2).err_code == batch.columns["err_code"][2]
        assert getattr(view, "no_such_field", "fallback") == "fallback"
        assert view.size_bytes == batch.uniform_size_bytes


class TestPlanFifoTransfer:
    def test_uniform_matches_sizes_walk(self):
        for budget in (0.0, 85.9, 86.0, 200.0, 86.0 * 7, 1e9):
            uniform = plan_fifo_transfer(7, budget, uniform_size=86)
            walked = plan_fifo_transfer(7, budget, sizes=[86] * 7)
            assert uniform == walked

    def test_partial_progress_resumes(self):
        first = plan_fifo_transfer(3, 100.0, uniform_size=90)
        assert first.completed_records == 1
        assert first.new_progress_bytes == pytest.approx(10.0)
        second = plan_fifo_transfer(
            2, 80.0, progress_bytes=first.new_progress_bytes, uniform_size=90
        )
        assert second.completed_records == 1
        assert second.completed_bytes == 90

    def test_zero_budget_ships_nothing(self):
        plan = plan_fifo_transfer(5, 0.0, uniform_size=86)
        assert plan.completed_records == 0
        assert plan.sent_bytes == 0.0
        assert plan.new_progress_bytes == 0.0


class TestMultiSourceEquivalence:
    """Fig. 10 configurations: the fast modes must equal object bit-for-bit."""

    @pytest.mark.parametrize("strategy_name", ["Jarvis", "Best-OP"])
    def test_fig10_multi_source_bit_exact(self, strategy_name):
        runs = {}
        for mode in RECORD_MODES:
            spec = ScenarioSpec(
                name="fig10-multi-source",
                kind="scaling",
                workload=WorkloadSpec(records_per_epoch=120),
                fleet=FleetSpec(budget=0.55),
                sweep=SweepSpec(sources=(6,), strategies=(strategy_name,)),
                epochs=14,  # crosses a 10-epoch window boundary
                warmup_epochs=4,
                record_mode=mode,
            )
            runs[mode] = ScenarioRunner().run(spec).raw[strategy_name][0]
        obj = runs["object"]
        for mode in ("batched", "arena"):
            fast = runs[mode]
            assert (
                obj.aggregate_throughput_mbps() == fast.aggregate_throughput_mbps()
            ), mode
            assert obj.aggregate_offered_mbps() == fast.aggregate_offered_mbps(), mode
            assert obj.network_utilization() == fast.network_utilization(), mode
            assert obj.median_latency_s() == fast.median_latency_s(), mode
            assert_epochs_identical(obj, fast)

    @pytest.mark.parametrize("record_mode", ["batched", "arena"])
    def test_fast_mode_run_conserves_records(self, setup, record_mode):
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=fleet(setup, 4),
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(ingress_bandwidth_mbps=30.0),
                record_mode=record_mode,
            ),
        )
        for _ in range(13):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []

    def test_sharded_fig10_bit_exact(self):
        runs = {}
        for mode in RECORD_MODES:
            spec = ScenarioSpec(
                name="fig10-sharded",
                kind="sharded",
                workload=WorkloadSpec(records_per_epoch=120),
                fleet=FleetSpec(sources=6, budget=0.55),
                tiling=TilingSpec(
                    blocks=2, sp_capacity_multiple=CLUSTER_CAPACITY_INPUT_MULTIPLE
                ),
                sweep=SweepSpec(strategies=("Jarvis",)),
                epochs=12,
                warmup_epochs=4,
                record_mode=mode,
            )
            runs[mode] = ScenarioRunner().run(spec).raw["Jarvis"][0]
        obj = runs["object"]
        for mode in ("batched", "arena"):
            fast = runs[mode]
            assert (
                obj.aggregate_throughput_mbps() == fast.aggregate_throughput_mbps()
            ), mode
            assert_epochs_identical(obj, fast)

    def test_generic_workload_falls_back_to_from_records(self, setup):
        """A workload without ``batch_for_epoch`` still runs batched mode."""

        class PlainWorkload:
            def __init__(self, inner):
                self.inner = inner

            def records_for_epoch(self, epoch):
                return self.inner.records_for_epoch(epoch)

        runs = {}
        for mode in RECORD_MODES:
            specs = homogeneous_sources(
                3,
                workload_factory=lambda i: PlainWorkload(
                    setup.workload_factory(20 + i)
                ),
                strategy_factory=lambda i: AllSPStrategy(),
                budget=1.0,
            )
            executor = MultiSourceExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=specs,
                cluster_config=MultiSourceConfig(
                    config=setup.config, record_mode=mode
                ),
            )
            runs[mode] = executor.run(8, warmup_epochs=2)
        for mode in ("batched", "arena"):
            assert (
                runs["object"].aggregate_throughput_mbps()
                == runs[mode].aggregate_throughput_mbps()
            ), mode
            assert_epochs_identical(runs["object"], runs[mode])


class TestBuildingBlockEquivalence:
    @pytest.mark.parametrize("strategy_name", ["Jarvis", "All-SP", "Best-OP"])
    def test_single_block_bit_exact(self, setup, strategy_name):
        runs = {}
        for mode in RECORD_MODES:
            executor = BuildingBlockExecutor(
                plan=setup.plan,
                workload=setup.workload_factory(5),
                cost_model=setup.cost_model,
                strategy=make_strategy(strategy_name, setup, 0.55),
                budget=0.55,
                executor_config=ExecutorConfig(
                    config=setup.config,
                    bandwidth_mbps=setup.bandwidth_mbps,
                    record_mode=mode,
                ),
            )
            runs[mode] = executor.run(14, warmup_epochs=4)
        obj = runs["object"]
        for mode in ("batched", "arena"):
            fast = runs[mode]
            assert obj.throughput_mbps() == fast.throughput_mbps(), mode
            assert obj.offered_mbps() == fast.offered_mbps(), mode
            for obj_epoch, fast_epoch in zip(obj.epochs, fast.epochs):
                assert obj_epoch == fast_epoch, mode


class TestColocatedEquivalence:
    """Fig. 11 configuration: the co-located sweep must be mode-agnostic."""

    def test_fig11_colocated_bit_exact(self, setup):
        runs = {}
        for mode in RECORD_MODES:
            spec = ScenarioSpec(
                name="fig11-colocated",
                kind="colocated",
                workload=WorkloadSpec(records_per_epoch=120),
                epochs=12,
                warmup_epochs=4,
                record_mode=mode,
            )
            runs[mode] = _colocated_block(
                spec, setup, count=3, budget=0.4, load_factors=[1.0, 1.0, 0.6]
            )
        obj = runs["object"]
        for mode in ("batched", "arena"):
            fast = runs[mode]
            assert (
                obj.aggregate_throughput_mbps() == fast.aggregate_throughput_mbps()
            ), mode
            assert obj.median_latency_s() == fast.median_latency_s(), mode
            assert sorted(obj.per_query.keys()) == sorted(fast.per_query.keys())
            for name, obj_cluster in obj.per_query.items():
                fast_cluster = fast.per_query[name]
                assert (
                    obj_cluster.aggregate_throughput_mbps()
                    == fast_cluster.aggregate_throughput_mbps()
                ), (mode, name)
                assert_epochs_identical(obj_cluster, fast_cluster)

    def test_fig11_sweep_rows_bit_exact(self):
        rows = {
            mode: ScenarioRunner().run(
                ScenarioSpec(
                    name="fig11-rows",
                    kind="colocated",
                    mode="simulated",
                    workload=WorkloadSpec(records_per_epoch=80),
                    sweep=SweepSpec(queries=(1, 2)),
                    epochs=8,
                    warmup_epochs=2,
                    record_mode=mode,
                )
            ).raw
            for mode in RECORD_MODES
        }
        assert rows["object"] == rows["batched"] == rows["arena"]


class TestFleetArenaContainer:
    """The arena's aliasing/ownership/recycling contract, in isolation."""

    def batch(self, setup, n, seed=3):
        return setup.workload_factory(seed).batch_for_epoch(0)[:n]

    def test_views_alias_block_buffers_and_spans_stack(self, setup):
        arena = FleetArena()
        arena.begin_epoch(0)
        a, b = self.batch(setup, 7, seed=3), self.batch(setup, 5, seed=4)
        assert arena.append_batch(0, a)
        assert arena.append_batch(1, b)
        assert arena.span(0) == (0, 7)
        assert arena.span(1) == (7, 12)
        view = arena.view(0)
        for name, column in view.columns.items():
            assert arena.aliases(column), name
            assert np.array_equal(column, np.asarray(a.columns[name])), name
        assert arena.source_ids[:12].tolist() == [0] * 7 + [1] * 5
        assert arena.epochs[:12].tolist() == [0] * 12

    def test_epoch_recycling_reuses_buffers(self, setup):
        arena = FleetArena()
        arena.begin_epoch(0)
        assert arena.append_batch(0, self.batch(setup, 9))
        base = arena.view(0).columns["event_time"].base
        assert base is not None
        arena.begin_epoch(1)
        # The idle source keeps an (empty) view — the schema survives the
        # epoch boundary even though the rows were recycled.
        assert arena.span(0) == (0, 0)
        assert len(arena.view(0)) == 0
        assert arena.append_batch(0, self.batch(setup, 9, seed=5))
        # Allocation-free steady state: the refill lands in the same buffer.
        assert arena.view(0).columns["event_time"].base is base

    def test_growth_preserves_earlier_rows(self, setup):
        arena = FleetArena()
        arena.begin_epoch(0)
        first = self.batch(setup, 3)
        assert arena.append_batch(0, first)
        big = self.batch(setup, 120, seed=6)
        for source_id in range(1, 40):  # force several _grow() doublings
            assert arena.append_batch(source_id, big)
        view = arena.view(0)
        for name, column in view.columns.items():
            assert np.array_equal(column, np.asarray(first.columns[name])), name

    def test_own_copies_only_aliasing_columns(self, setup):
        arena = FleetArena()
        arena.begin_epoch(0)
        assert arena.append_batch(0, self.batch(setup, 6))
        view = arena.view(0)
        owned = arena.own(view)
        assert owned is not view
        for name, column in owned.columns.items():
            assert not arena.aliases(column), name
            assert np.array_equal(column, view.columns[name]), name
        # Already-detached batches pass through untouched.
        assert arena.own(owned) is owned

    def test_schema_strictness_refuses_incompatible_batches(self, setup):
        arena = FleetArena()
        arena.begin_epoch(0)
        good = self.batch(setup, 4)
        assert arena.append_batch(0, good)
        # One reservation per source per epoch.
        assert not arena.append_batch(0, good)
        # Ragged per-record sizes stay out of the arena.
        ragged = RecordBatch(
            good.record_class,
            {k: np.asarray(v).copy() for k, v in good.columns.items()},
            sizes=[86, 86, 86, 86],
        )
        assert not arena.append_batch(1, ragged)
        # A source the arena has never seen still reads as an empty view
        # once a schema exists (migration-drained sources hit this path).
        unknown = arena.view(99)
        assert unknown is not None and len(unknown) == 0

    def test_fresh_arena_has_no_schema(self):
        arena = FleetArena()
        arena.begin_epoch(0)
        assert arena.view(0) is None
        assert arena.span(0) == (0, 0)


class TestEmptyInputEdgeCases:
    """Zero-row batches and empty folds must behave like their object
    equivalents (an idle epoch, a drained source, an empty window)."""

    def empty(self, setup):
        return setup.workload_factory(3).batch_for_epoch(0)[:0]

    def test_empty_batch_container_operations(self, setup):
        empty = self.empty(setup)
        full = setup.workload_factory(3).batch_for_epoch(0)
        assert len(empty) == 0
        assert empty.to_records() == []
        assert record_size_bytes(empty) == 0
        # Concat in both orders, on both sides of emptiness.
        assert len(empty + self.empty(setup)) == 0
        rejoined = empty + full
        assert [v.event_time for v in rejoined] == [v.event_time for v in full]
        rejoined = full + empty
        assert [v.event_time for v in rejoined] == [v.event_time for v in full]
        # take/compress on zero rows.
        assert len(empty.take([])) == 0
        assert len(empty.compress([])) == 0
        assert len(full.take([])) == 0
        assert len(full.compress([False] * len(full))) == 0

    def test_add_many_empty_sequence_is_identity(self):
        for aggregate in (
            SumAggregate("x"),
            CountAggregate("x"),
            MinAggregate("x"),
            MaxAggregate("x"),
            AvgAggregate("x"),
        ):
            state = aggregate.create()
            seeded = aggregate.add(aggregate.create(), 3.5)
            for empty_values in ([], np.asarray([], dtype=np.float64)):
                assert aggregate.add_many(state, empty_values) == state
                assert aggregate.add_many(seeded, empty_values) == seeded

    def test_arena_engine_steps_an_idle_source(self, setup):
        """A source whose workload produces no records still steps cleanly
        through the arena path (the migration-drain shape)."""

        class IdleWorkload:
            def records_for_epoch(self, epoch):
                return []

        engine = EpochEngine(
            cost_model=setup.cost_model,
            config=setup.config,
            record_mode="arena",
        )
        engine.add_source(
            name="busy",
            workload=setup.workload_factory(1),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        engine.add_source(
            name="idle",
            workload=IdleWorkload(),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        for _ in range(3):
            steps = {step.state.name: step for step in engine.step_sources()}
            assert steps["busy"].result.records_in == 120
            assert steps["idle"].result.records_in == 0


class TestFastModeConservationProperty:
    @pytest.mark.parametrize("record_mode", ["batched", "arena"])
    @given(
        num_sources=st.integers(min_value=1, max_value=4),
        records_per_epoch=st.integers(min_value=1, max_value=60),
        num_epochs=st.integers(min_value=1, max_value=12),
        budget=st.floats(min_value=0.0, max_value=1.0),
        ingress_mbps=st.sampled_from([0.5, 2.0, 30.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_record_conservation_in_fast_modes(
        self,
        record_mode,
        num_sources,
        records_per_epoch,
        num_epochs,
        budget,
        ingress_mbps,
    ):
        """Every injected record is accounted for exactly once, whatever the
        fleet shape, budget, or link capacity — in both fast modes."""
        setup = make_setup("s2s_probe", records_per_epoch=records_per_epoch)
        specs = homogeneous_sources(
            num_sources,
            workload_factory=lambda i: setup.workload_factory(40 + i),
            strategy_factory=lambda i: make_strategy("Jarvis", setup, max(budget, 0.05)),
            budget=budget,
        )
        executor = MultiSourceExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            cluster_config=MultiSourceConfig(
                config=setup.config,
                stream_processor=StreamProcessorNode(
                    ingress_bandwidth_mbps=ingress_mbps
                ),
                record_mode=record_mode,
            ),
        )
        for _ in range(num_epochs):
            executor.run_epoch()
        assert executor.verify_record_conservation() == []


class TestCrossModeMigrationProperty:
    @given(
        num_sources=st.integers(min_value=2, max_value=4),
        records_per_epoch=st.integers(min_value=5, max_value=40),
        moves=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # epoch of the move
                st.integers(min_value=0, max_value=3),  # source index (mod fleet)
            ),
            max_size=3,
        ),
        ingress_mbps=st.sampled_from([0.05, 0.5, 30.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_modes_identical_under_random_migration_schedules(
        self, num_sources, records_per_epoch, moves, ingress_mbps
    ):
        """All three record modes agree bit-for-bit on every per-source epoch
        metric under a random fleet and a random live-migration schedule, and
        each conserves records throughout."""
        schedule = sorted((epoch, index % num_sources) for epoch, index in moves)
        setup = make_setup("s2s_probe", records_per_epoch=records_per_epoch)
        runs = {}
        for mode in RECORD_MODES:
            executor = ShardedClusterExecutor(
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=fleet(setup, num_sources, seed=30),
                num_blocks=2,
                cluster_config=MultiSourceConfig(
                    config=setup.config,
                    stream_processor=StreamProcessorNode(
                        ingress_bandwidth_mbps=ingress_mbps
                    ),
                    record_mode=mode,
                ),
            )
            per_epoch = []
            for epoch in range(10):
                for move_epoch, index in schedule:
                    if move_epoch == epoch:
                        name = f"source-{index}"
                        executor.migrate(name, 1 - executor.block_of(name))
                per_epoch.append(executor.run_epoch())
            assert executor.verify_record_conservation() == [], mode
            runs[mode] = per_epoch
        for mode in ("batched", "arena"):
            for obj_epoch, fast_epoch in zip(runs["object"], runs[mode]):
                assert obj_epoch == fast_epoch, mode


class TestEngineSingleHome:
    """The accounting helpers must exist in exactly one module."""

    def test_executors_share_the_engine(self, setup):
        # Enforced AST-accurately by simlint's SL001 (accounting-single-home)
        # so this test and the linter can never disagree: no simulation/
        # module other than engine.py may construct EpochMetrics or
        # EpochObservation, call classify_query_state, re-derive the
        # half-epoch batching-delay term, or redefine the accountant helpers.
        import inspect

        from simlint import lint_source, rules_by_id
        from repro.simulation import engine, executor, multiquery, multisource

        engine_src = inspect.getsource(engine)
        assert "def goodput_bytes" in engine_src
        assert "def finish_source_epoch" in engine_src
        (sl001,) = rules_by_id(["SL001"])
        for module in (executor, multisource, multiquery):
            violations = lint_source(
                inspect.getsource(module),
                display_path=module.__file__,
                module_path="repro/simulation/"
                + module.__name__.rsplit(".", 1)[-1]
                + ".py",
                rules=[sl001],
            )
            assert violations == [], [v.render() for v in violations]

    def test_engine_steps_any_executor_source(self, setup):
        engine = EpochEngine(cost_model=setup.cost_model, config=setup.config)
        engine.add_source(
            name="s",
            workload=setup.workload_factory(1),
            strategy=AllSPStrategy(),
            budget=1.0,
            plan=setup.plan,
        )
        (step,) = engine.step_sources()
        assert step.result.records_in == 120
        assert engine.epochs_run == 1
        with pytest.raises(SimulationError):
            engine.ensure_fresh()


# -- T2TProbe and LogAnalytics: columnar operators --------------------------------

#: Per-source budgets spanning starved to comfortable, so Jarvis drains
#: records to the SP at every stage of both queries.
MIXED_BUDGETS = (0.05, 0.15, 0.3, 0.6)


@pytest.fixture(scope="module")
def t2t_setup():
    return make_setup("t2t_probe", records_per_epoch=120)


@pytest.fixture(scope="module")
def log_setup():
    return make_setup("log_analytics", records_per_epoch=120)


def run_mixed_fleet(setup, strategy_name, record_mode, num_epochs=14):
    """Per-epoch per-source metrics of a mixed-budget fleet, plus the set of
    stage indices at which drained records entered the SP."""
    specs = [
        SourceSpec(
            name=f"source-{index}",
            workload=setup.workload_factory(50 + index),
            strategy=make_strategy(strategy_name, setup, budget),
            budget=budget,
        )
        for index, budget in enumerate(MIXED_BUDGETS)
    ]
    executor = MultiSourceExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=specs,
        cluster_config=MultiSourceConfig(config=setup.config, record_mode=record_mode),
    )
    drained_stages = set()
    process_arrivals = executor.sp_pipeline.process_arrivals

    def spy(*args, **kwargs):
        drained_stages.update(index for index, _ in kwargs.get("drained", ()))
        return process_arrivals(*args, **kwargs)

    executor.sp_pipeline.process_arrivals = spy
    epochs = [executor.run_epoch() for _ in range(num_epochs)]  # crosses a window
    assert executor.verify_record_conservation() == [], record_mode
    return epochs, drained_stages


class TestT2TAndLogAnalyticsEquivalence:
    """The columnar join, log maps and log filter keep every mode bit-exact."""

    @pytest.mark.parametrize(
        "query, strategy_name",
        [
            ("t2t", "Best-OP"),
            ("t2t", "Jarvis"),
            ("log", "Filter-Src"),
            ("log", "Jarvis"),
        ],
    )
    def test_modes_bit_exact_per_epoch_per_source(
        self, t2t_setup, log_setup, query, strategy_name
    ):
        setup = t2t_setup if query == "t2t" else log_setup
        runs = {mode: run_mixed_fleet(setup, strategy_name, mode) for mode in RECORD_MODES}
        obj_epochs, obj_stages = runs["object"]
        for mode in ("batched", "arena"):
            epochs, stages = runs[mode]
            assert stages == obj_stages, mode
            assert epochs == obj_epochs, mode
        if strategy_name == "Jarvis":
            assert obj_stages == set(range(len(setup.plan.operators)))

    @pytest.mark.parametrize("query", ["t2t", "log"])
    def test_arena_run_never_materializes_records(
        self, t2t_setup, log_setup, query, monkeypatch
    ):
        """Arena mode stays on RecordBatch from the workload to the
        group-aggregate: no operator falls back to record objects."""
        setup = t2t_setup if query == "t2t" else log_setup

        def refuse(self):
            raise AssertionError(f"materialized a {self.record_class.__name__} batch")

        monkeypatch.setattr(RecordBatch, "to_records", refuse)
        _, stages = run_mixed_fleet(setup, "Jarvis", "arena")
        assert stages == set(range(len(setup.plan.operators)))

    def test_colocated_three_queries_bit_exact(self):
        setups = {
            name: make_setup(name, records_per_epoch=100, rate_scale=scale)
            for name, scale in (
                ("s2s_probe", 1.0),
                ("t2t_probe", 0.4),
                ("log_analytics", 0.5),
            )
        }
        strategies = {"s2s_probe": "Jarvis", "t2t_probe": "Best-OP", "log_analytics": "Jarvis"}
        runs = {}
        for mode in RECORD_MODES:
            queries = [
                QuerySpec(
                    name=name,
                    plan=setup.plan,
                    cost_model=setup.cost_model,
                    sources=[
                        SourceSpec(
                            name=f"{name}-{index}",
                            workload=setup.workload_factory(70 + index),
                            strategy=make_strategy(strategies[name], setup, budget),
                            budget=budget,
                        )
                        for index, budget in enumerate(MIXED_BUDGETS[1:])
                    ],
                    config=setup.config,
                )
                for name, setup in setups.items()
            ]
            nominal = sum(
                len(query.sources) * setups[query.name].input_rate_mbps
                for query in queries
            )
            executor = CoLocatedBlockExecutor(
                queries,
                stream_processor=StreamProcessorNode(
                    ingress_bandwidth_mbps=0.7 * nominal
                ),
                record_mode=mode,
            )
            runs[mode] = [executor.run_epoch() for _ in range(12)]
        for mode in ("batched", "arena"):
            assert runs[mode] == runs["object"], mode


# Log lines the generator emits, and the shapes a parser must survive.
_tenants = st.integers(min_value=0, max_value=999).map(lambda i: f"tenant_{i:03d}")
_stat_names = st.sampled_from(("job running time", "cpu util", "memory util"))
_stat_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-50.0, max_value=150.0).map(lambda v: f"{v:.2f}"),
    st.sampled_from(("100.0", "99.99", "-0.0", "1e400", "nan", "abc", "", "1.2.3", "1_000")),
)
_log_lines = st.one_of(
    st.builds(
        lambda tenant, name, value: (
            f"Tenant Name={tenant}; job_id=j00042; cluster=cosmos-east; {name}={value}"
        ),
        _tenants,
        _stat_names,
        _stat_text,
    ),
    st.builds(lambda tenant, name: f"Tenant Name={tenant}; {name}", _tenants, _stat_names),
    st.builds(
        lambda node: f"INFO scheduler heartbeat node={node:03d} queue_depth=7 status=ok",
        st.integers(min_value=0, max_value=999),
    ),
    st.text(alphabet=st.sampled_from(" =;.aAeTcpu01x\t"), max_size=40),
)


def log_batch(lines, start=3.0):
    return RecordBatch(
        LogRecord,
        {
            "event_time": start + np.arange(len(lines)) / max(1, len(lines)),
            "line": list(lines),
        },
        sizes=[max(1, len(line)) for line in lines],
    )


def rows(container):
    """(class, fields, size) per row of a batch or a record list; fields
    compare by ``repr`` so NaN equals NaN and -0.0 differs from 0.0."""
    records = container.to_records() if isinstance(container, RecordBatch) else container
    return [(type(r), repr(r.as_dict()), r.size_bytes) for r in records]


def mapped(fn, records):
    out = []
    for record in records:
        result = fn(record)
        if result is not None:
            out.append(result)
    return out


class TestColumnarTwins:
    """Each columnar twin equals mapping its ``__call__`` over the records."""

    @given(lines=st.lists(_log_lines, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_log_twins_match_per_record_calls(self, lines):
        batch = log_batch(lines)
        normalized = _normalize_log_line.columnar(batch)
        assert rows(normalized) == rows(mapped(_normalize_log_line, batch.to_records()))

        mask = _matches_log_pattern.columnar(normalized)
        assert list(mask) == [
            _matches_log_pattern(record) for record in normalized.to_records()
        ]
        matching = normalized.compress(mask)

        parsed = _parse_job_stats.columnar(matching)
        assert rows(parsed) == rows(mapped(_parse_job_stats, matching.to_records()))

        bucketized = _bucketize.columnar(parsed)
        try:
            expected = mapped(_bucketize, parsed.to_records())
        except ValueError:  # int(nan // 10): the twin must defer to this
            assert bucketized is None
        else:
            assert rows(bucketized) == rows(expected)

    def test_bucketize_edges(self):
        lines = [
            f"tenant name=t; cpu util={value}"
            for value in ("100.0", "99.99", "0.0", "-0.0", "-3.5", "1e300", "10.0")
        ]
        parsed = _parse_job_stats.columnar(log_batch(lines))
        buckets = _bucketize.columnar(parsed).columns["stat"].tolist()
        assert buckets == [10.0, 9.0, 0.0, 0.0, 0.0, 10.0, 1.0]
        assert all(math.copysign(1.0, bucket) == 1.0 for bucket in buckets)

    def test_twins_pass_foreign_record_types_through(self, setup):
        probes = setup.workload_factory(2).batch_for_epoch(0)
        assert _normalize_log_line.columnar(probes) is probes
        assert _bucketize.columnar(probes) is probes
        assert not any(_matches_log_pattern.columnar(probes))
        assert _parse_job_stats.columnar(probes) is None  # falls back: all dropped
        assert MapOperator("m", _parse_job_stats).process_batch(probes) == []

    @pytest.mark.parametrize("side", ["src", "dst"])
    def test_tor_join_twin_matches_per_record_join(self, t2t_setup, side):
        batch = t2t_setup.workload_factory(4).batch_for_epoch(0)
        ips = sorted(set(batch.columns["dst_ip"].tolist()))
        # A sparse table: every third IP is unknown, and ToR id 0 is used.
        table = IpToTorTable(
            {ip: index % 5 for index, ip in enumerate(ips) if index % 3}
            | {int(batch.columns["src_ip"][0]): 0}
        )
        join = make_tor_join("join", table, side)
        for rows_in in (batch, join.process_batch(batch)):  # raw and enriched input
            columnar = join.process_batch(rows_in)
            assert isinstance(columnar, RecordBatch)
            assert columnar.columns[f"{side}_tor"].dtype == np.int64
            assert rows(columnar) == rows(join.process(rows_in.to_records()))

    def test_opaque_callables_still_fall_back(self, setup):
        batch = setup.workload_factory(2).batch_for_epoch(0)
        keep_odd = FilterOperator("f", lambda record: record.dst_ip % 2 == 1)
        assert rows(keep_odd.process_batch(batch)) == rows(
            keep_odd.process(batch.to_records())
        )
        double = MapOperator("m", lambda record: [record, record])
        assert len(double.process_batch(batch)) == 2 * len(batch)


class TestPlanPickling:
    """Plans embedding the columnar callables cross process boundaries (the
    migration handoff and the worker pool pickle them)."""

    @pytest.mark.parametrize("query", ["t2t", "log"])
    def test_plan_round_trip_keeps_columnar_twins(self, t2t_setup, log_setup, query):
        setup = t2t_setup if query == "t2t" else log_setup
        plan = pickle.loads(pickle.dumps(setup.plan))
        workload = setup.workload_factory(9)
        original = [op.clone() for op in setup.plan.operators]
        restored = [op.clone() for op in plan.operators]
        current = restored_current = workload.batch_for_epoch(0)
        for before, after in zip(original, restored):
            assert type(before) is type(after)
            for attr in ("fn", "predicate", "key_fn", "combine_fn"):
                if hasattr(before, attr):
                    assert type(getattr(after, attr)) is type(getattr(before, attr))
            current = before.process_batch(current)
            restored_current = after.process_batch(restored_current)
            assert rows(current) == rows(restored_current)
