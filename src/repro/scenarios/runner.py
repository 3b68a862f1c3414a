"""Execute :class:`~repro.scenarios.spec.ScenarioSpec` against the simulators.

Every scenario kind is one :class:`ScenarioKind` entry in :data:`KINDS`:

* ``run(spec)`` executes the kind's runs, reading the spec directly, and
  returns the raw result (metrics objects included);
* ``tabulate(spec, raw)`` lays that result out as a benchmark-style text
  table, ``{label: {x: y}}`` chart series and headline extras;
* ``payload(result)`` shapes the ``BENCH_*.json`` data.

:class:`ScenarioRunner` and :meth:`ScenarioResult.bench_payload` are lookups
in that table.  The fleet kinds (``scaling``, ``sharded``, ``record_modes``
and ``parallel``) build their setup, stream-processor node and executors
through one :class:`_Fleet`; ``dynamic_replacement`` and ``colocated`` build
their hotspot and co-located blocks themselves.

The runner is the single entry point to the cluster-scale experiments
(Figures 10 and 11, record-mode and worker-pool timing).
``tests/data/scenario_golden.json`` pins the numbers every scenario kind
produced when the harness was introduced; ``tests/test_scenarios.py``
checks each one through the spec path.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..baselines import StaticLoadFactorStrategy
from ..config import PINGMESH_RECORD_BYTES
from ..errors import SimulationError
from ..query.records import DRAIN_HEADER_BYTES
from ..simulation.cluster import ClusterModel
from ..simulation.metrics import ClusterMetrics, MultiQueryMetrics, RunMetrics
from ..simulation.multiquery import CoLocatedBlockExecutor, QuerySpec
from ..simulation.multisource import (
    MultiSourceConfig,
    MultiSourceExecutor,
    SourceSpec,
)
from ..simulation.node import BudgetSchedule, StreamProcessorNode, as_budget_schedule
from ..simulation.parallel import ParallelBlockController
from ..simulation.sharding import (
    ByteRateBalancedPlacement,
    MigrationPolicy,
    NeverMigrate,
    SaturationMigrationPolicy,
    ShardedClusterExecutor,
)
from .setups import (
    CLUSTER_CAPACITY_INPUT_MULTIPLE,
    MULTI_QUERY_DEMAND,
    HotspotWorkload,
    QuerySetup,
    _cluster_sp_node,
    _homogeneous_fleet,
    ground_truth_profile,
    make_setup,
    make_strategy,
    run_single_source,
)
from .spec import MigrationSpec, ScenarioSpec

#: Default per-block ingress multiple for the sharded tiling sweep: small
#: enough that a CI-sized fleet saturates a single block (§VI-E scale-out).
SHARDED_CAPACITY_MULTIPLE = 3.0

#: Default ingress headroom for the dynamic re-placement scenario.
DYNAMIC_INGRESS_HEADROOM = 1.67


@dataclass
class ScenarioResult:
    """Everything one scenario run produced.

    ``raw`` keeps the kind's result shape (metrics objects included),
    ``table`` is the benchmark-style text table, ``series`` holds
    ``{label: {x: y}}`` line-chart data, and ``extras`` carries headline
    scalars (supported sources, gap recovered, speedups) the assertion shims
    check.
    """

    spec: ScenarioSpec
    raw: Any
    table: str
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)

    def bench_payload(self) -> Dict[str, Any]:
        """The ``BENCH_<name>.json`` data payload (existing schema per kind)."""
        return KINDS[self.spec.kind].payload(self)

    def render_report(self) -> str:
        """A self-contained HTML report for this scenario."""
        from ..analysis.reporting import render_report

        spec = self.spec
        subtitle = (
            f"kind={spec.kind} mode={spec.mode} epochs={spec.epochs} "
            f"warmup={spec.resolved_warmup()} record_mode={spec.record_mode} "
            f"seed={spec.seed}"
        )
        sections = [
            {
                "heading": "Results",
                "body": self.table,
                "series": self.series or None,
                "x_label": KINDS[spec.kind].x_label,
                "y_label": "throughput (Mbps)",
            }
        ]
        lines = [
            f"{key}: {value}"
            for key, value in sorted(self.extras.items())
            if key != "rows"
        ]
        if lines:
            sections.append({"heading": "Headline numbers", "body": "\n".join(lines)})
        return render_report(f"Scenario: {spec.name}", sections, subtitle=subtitle)

    def write(self, out_dir: "str | Path") -> Path:
        """Write ``REPORT_<name>.html`` under ``out_dir`` and return its path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"REPORT_{self.spec.name}.html"
        path.write_text(self.render_report())
        return path


@dataclass
class _Table:
    """What a kind's ``tabulate`` returns: the table's columns and rows, a
    free-text footer printed under it, chart series and headline extras."""

    headers: Sequence[str]
    rows: List[List[object]]
    footer: str = ""
    series: Dict[str, Dict[float, float]] = field(default_factory=dict)
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioKind:
    """One scenario kind: run it, tabulate its raw result, shape its payload."""

    run: Callable[[ScenarioSpec], Any]
    tabulate: Callable[[ScenarioSpec, Any], _Table]
    payload: Callable[[ScenarioResult], Dict[str, Any]]
    #: The x axis of the kind's chart series.
    x_label: str


class ScenarioRunner:
    """Run a :class:`ScenarioSpec` through its kind's :data:`KINDS` entry.

    Every knob comes from the spec itself.
    """

    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        # Analysis sits above the scenario layer: import it lazily.
        from ..analysis.reporting import format_table

        kind = KINDS[spec.kind]
        raw = kind.run(spec)
        out = kind.tabulate(spec, raw)
        parts = [format_table(out.headers, out.rows)] if out.headers else []
        if out.footer:
            parts.append(out.footer)
        return ScenarioResult(
            spec=spec,
            raw=raw,
            table="\n\n".join(parts),
            series=out.series,
            extras=out.extras,
        )


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------


def _setup(spec: ScenarioSpec) -> QuerySetup:
    return make_setup(
        spec.workload.query,
        records_per_epoch=spec.workload.records_per_epoch,
        rate_scale=spec.workload.rate_scale,
    )


def _initial_budget(spec: ScenarioSpec) -> float:
    return spec.fleet.budget_schedule().budget_at(0)


def _budget_arg(spec: ScenarioSpec) -> "float | BudgetSchedule":
    if isinstance(spec.fleet.budget, (int, float)):
        return float(spec.fleet.budget)
    return spec.fleet.budget_schedule()


def _check_conservation(
    executor: Union[ShardedClusterExecutor, CoLocatedBlockExecutor],
) -> None:
    violations = executor.verify_record_conservation()
    if violations:
        raise SimulationError(f"record conservation violated: {violations[:3]}")


def _summaries(raw: Dict[str, List[ClusterMetrics]]) -> Dict[str, List[Any]]:
    return {strategy: [m.summary() for m in runs] for strategy, runs in raw.items()}


def _run_config(spec: ScenarioSpec) -> Dict[str, Any]:
    """The payload ``config`` keys every simulated kind reports."""
    return {
        "records_per_epoch": spec.workload.records_per_epoch,
        "num_epochs": spec.epochs,
        "record_mode": spec.record_mode,
    }


class _Fleet:
    """The setup, stream-processor node and runs of one fleet kind.

    Serves ``scaling``, ``sharded``, ``record_modes`` and ``parallel``.  The
    node's ingress is ``tiling.sp_capacity_multiple`` (or the kind's
    calibrated ``capacity_multiple``) times one source's 10x input rate;
    every source gets its own workload (seeded ``seed + index``) and its own
    strategy instance (decentralized runtimes, Section IV-A), and shares
    ``fleet.sp_compute_share`` of the node's compute.
    """

    def __init__(self, spec: ScenarioSpec, capacity_multiple: float) -> None:
        self.spec = spec
        self.setup = _setup(spec)
        self.sp_node = _cluster_sp_node(
            spec.workload.records_per_epoch,
            sp_cores=spec.tiling.sp_cores,
            capacity_multiple=spec.tiling.sp_capacity_multiple or capacity_multiple,
        )

    def run(
        self,
        strategy: str,
        sources: int,
        blocks: Optional[int] = None,
        workers: int = 1,
        record_mode: Optional[str] = None,
    ) -> Tuple[ClusterMetrics, float]:
        """One run; returns its metrics and the wall time of its epochs.

        ``blocks=None`` steps the fleet on one block
        (:class:`MultiSourceExecutor`); otherwise it is tiled across
        ``blocks`` by ``tiling.placement``, on a
        :class:`ParallelBlockController` worker pool when ``workers > 1``
        (bit-identical metrics).  Fleet construction and pool start-up stay
        outside the timer, so the time isolates epoch stepping.
        """
        spec, setup = self.spec, self.setup
        warmup = spec.resolved_warmup()
        specs, cluster_config, initial_budget = _homogeneous_fleet(
            setup,
            strategy,
            _budget_arg(spec),
            sources,
            self.sp_node,
            spec.fleet.sp_compute_share,
            warmup,
            spec.seed,
            record_mode or spec.record_mode,
        )
        common: Dict[str, Any] = dict(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=specs,
            cluster_config=cluster_config,
        )
        executor: Union[MultiSourceExecutor, ShardedClusterExecutor]
        if blocks is None:
            executor = MultiSourceExecutor(**common)
        else:
            common.update(num_blocks=blocks, placement=spec.tiling.placement_arg())
            if workers > 1:
                executor = ParallelBlockController(**common, workers=workers)
            else:
                executor = ShardedClusterExecutor(**common)
        try:
            gc.collect()
            start = time.perf_counter()
            metrics = executor.run(spec.epochs, warmup_epochs=warmup)
            elapsed = time.perf_counter() - start
        finally:
            if isinstance(executor, ParallelBlockController):
                executor.close()
        metrics.metadata.update(
            strategy=strategy, query=setup.name, budget=initial_budget
        )
        return metrics, elapsed


# ---------------------------------------------------------------------------
# scaling: Figure 10, one block per source count.
# ---------------------------------------------------------------------------


def _source_counts(spec: ScenarioSpec) -> Tuple[int, ...]:
    return spec.sweep.sources or (spec.fleet.sources,)


def _run_scaling(spec: ScenarioSpec) -> Any:
    """Figure 10 per source count, closed form and/or simulated.

    ``analytic`` scales one representative source through
    :class:`~repro.simulation.cluster.ClusterModel` (plus the
    supported-sources search), ``simulated`` steps the whole fleet on one
    block, and ``comparison`` does both and reports their ratio.
    """
    fleet = _Fleet(spec, CLUSTER_CAPACITY_INPUT_MULTIPLE)
    strategies = spec.sweep.strategies or ("Jarvis", "Best-OP")
    counts = _source_counts(spec)
    if spec.mode == "simulated":
        return {s: [fleet.run(s, n)[0] for n in counts] for s in strategies}
    setup = fleet.setup
    cluster = ClusterModel(
        fleet.sp_node, epoch_duration_s=setup.config.epoch.duration_s
    )

    def per_source(strategy: str, epochs: int, warmup: int) -> RunMetrics:
        return run_single_source(
            setup,
            strategy,
            _budget_arg(spec),
            num_epochs=epochs,
            warmup_epochs=warmup,
            bandwidth_mbps=max(setup.bandwidth_mbps, 4.0 * setup.input_rate_mbps),
            seed=spec.seed,
        )

    raw: Dict[str, Any] = {}
    if spec.mode == "comparison":
        for strategy in strategies:
            single = per_source(strategy, spec.epochs, spec.resolved_warmup())
            rows: List[Dict[str, float]] = []
            for n in counts:
                analytic = cluster.scale(single, n)
                simulated = fleet.run(strategy, n)[0]
                expected = analytic.aggregate_throughput_mbps
                measured = simulated.aggregate_throughput_mbps()
                rows.append(
                    {
                        "sources": float(n),
                        "analytic_mbps": expected,
                        "simulated_mbps": measured,
                        "ratio": measured / expected if expected > 0 else 0.0,
                        "analytic_network_utilization": analytic.network_utilization,
                        "simulated_network_utilization": (
                            simulated.network_utilization()
                        ),
                        "simulated_median_latency_s": simulated.median_latency_s(),
                        "simulated_p95_latency_s": simulated.latency_percentile_s(0.95),
                        "simulated_max_latency_s": simulated.max_latency_s(),
                        "analytic_median_latency_s": analytic.median_latency_s,
                    }
                )
            raw[strategy] = rows
        return raw
    if spec.sweep.sources:
        raw["sweep"] = {}
        for strategy in strategies:
            single = per_source(strategy, spec.epochs, spec.resolved_warmup())
            raw["sweep"][strategy] = [
                cluster.scale(single, n) for n in spec.sweep.sources
            ]
    if spec.max_sources_limit > 0:
        # The supported-sources search keeps its historical 40-epoch
        # calibration run regardless of the sweep's epoch count, so the
        # headline "75% more sources" number is sweep-size independent.
        raw["supported"] = {
            strategy: cluster.max_supported_sources(
                per_source(strategy, 40, 12), limit=spec.max_sources_limit
            )
            for strategy in strategies
        }
    return raw


def _tabulate_scaling(spec: ScenarioSpec, raw: Any) -> _Table:
    if spec.mode == "analytic":
        return _tabulate_analytic(spec, raw)
    counts = _source_counts(spec)
    if spec.mode == "simulated":
        return _tabulate_fleet_sweep("sources", counts, raw)
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    for strategy, entries in raw.items():
        series[f"{strategy} analytic"] = {}
        series[f"{strategy} simulated"] = {}
        for entry in entries:
            rows.append(
                [
                    strategy,
                    int(entry["sources"]),
                    entry["analytic_mbps"],
                    entry["simulated_mbps"],
                    entry["ratio"],
                    entry["simulated_network_utilization"],
                    entry["simulated_median_latency_s"],
                ]
            )
            series[f"{strategy} analytic"][entry["sources"]] = entry["analytic_mbps"]
            series[f"{strategy} simulated"][entry["sources"]] = entry["simulated_mbps"]
    # VI-E latency distribution, read off the largest simulated source count
    # (no extra simulation: the comparison already measured it).
    footer = "VI-E latency at {} sources:".format(max(counts))
    for strategy, entries in raw.items():
        stats = max(entries, key=lambda entry: entry["sources"])
        footer += (
            f"\n  {strategy}: median={stats['simulated_median_latency_s']:.2f}s "
            f"p95={stats['simulated_p95_latency_s']:.2f}s "
            f"max={stats['simulated_max_latency_s']:.2f}s"
        )
    headers = [
        "strategy",
        "sources",
        "analytic_mbps",
        "simulated_mbps",
        "sim/analytic",
        "sim_link_util",
        "sim_med_lat_s",
    ]
    return _Table(headers, rows, footer, series)


def _tabulate_analytic(spec: ScenarioSpec, raw: Dict[str, Any]) -> _Table:
    headers: List[str] = []
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    extras: Dict[str, Any] = {}
    footer = ""
    if "sweep" in raw:
        sweep = raw["sweep"]
        if set(sweep) >= {"Jarvis", "Best-OP"}:
            headers = [
                "sources",
                "expected_mbps",
                "jarvis_mbps",
                "bestop_mbps",
                "jarvis_med_lat_s",
                "bestop_med_lat_s",
                "jarvis_max_lat_s",
                "bestop_max_lat_s",
            ]
            for n, jarvis, best_op in zip(
                spec.sweep.sources, sweep["Jarvis"], sweep["Best-OP"]
            ):
                rows.append(
                    [
                        n,
                        jarvis.expected_throughput_mbps,
                        jarvis.aggregate_throughput_mbps,
                        best_op.aggregate_throughput_mbps,
                        jarvis.median_latency_s,
                        best_op.median_latency_s,
                        jarvis.max_latency_s,
                        best_op.max_latency_s,
                    ]
                )
        else:
            headers = [
                "strategy",
                "sources",
                "expected_mbps",
                "goodput_mbps",
                "link_util",
                "med_lat_s",
                "max_lat_s",
            ]
            for strategy, results in sweep.items():
                for n, result in zip(spec.sweep.sources, results):
                    rows.append(
                        [
                            strategy,
                            n,
                            result.expected_throughput_mbps,
                            result.aggregate_throughput_mbps,
                            result.network_utilization,
                            result.median_latency_s,
                            result.max_latency_s,
                        ]
                    )
        extras["rows"] = rows
        for strategy, results in sweep.items():
            series[strategy] = {
                float(n): result.aggregate_throughput_mbps
                for n, result in zip(spec.sweep.sources, results)
            }
    if "supported" in raw:
        supported = raw["supported"]
        extras["supported_sources"] = supported
        footer = "max sources supported without degradation: "
        if {"Jarvis", "Best-OP"} <= set(supported):
            gain = 100.0 * (supported["Jarvis"] / max(1, supported["Best-OP"]) - 1)
            footer += (
                f"Jarvis={supported['Jarvis']}, Best-OP={supported['Best-OP']} "
                f"(Jarvis supports {gain:.0f}% more)"
            )
        else:
            footer += ", ".join(f"{name}={count}" for name, count in supported.items())
    return _Table(headers, rows, footer, series, extras)


def _tabulate_fleet_sweep(
    axis: str, values: Sequence[int], raw: Dict[str, List[ClusterMetrics]]
) -> _Table:
    """Goodput per strategy over a source- or block-count sweep."""
    sharded = axis == "blocks"
    rows: List[List[object]] = []
    series: Dict[str, Dict[float, float]] = {}
    for strategy, entries in raw.items():
        series[strategy] = {}
        for x, metrics in zip(values, entries):
            row: List[object] = [
                strategy,
                x,
                metrics.aggregate_offered_mbps(),
                metrics.aggregate_throughput_mbps(),
                metrics.network_utilization(),
                metrics.median_latency_s(),
            ]
            if sharded:
                row.append(max(metrics.metadata["placement"]["sources_per_block"]))
            rows.append(row)
            series[strategy][float(x)] = metrics.aggregate_throughput_mbps()
    headers = [
        "strategy", axis, "offered_mbps", "goodput_mbps", "link_util", "med_lat_s"
    ]
    if sharded:
        headers.append("max_srcs_per_block")
    return _Table(headers, rows, series=series)


def _scaling_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec, raw = result.spec, result.raw
    if spec.mode == "analytic":
        payload: Dict[str, Any] = {
            "config": {
                "rate_scale": spec.workload.rate_scale,
                "cpu_budget": _initial_budget(spec),
                "node_counts": list(spec.sweep.sources),
            },
        }
        if "supported" in raw:
            payload["supported_sources"] = raw["supported"]
        payload["rows"] = result.extras.get("rows", [])
        return payload
    return {
        "config": {
            "sources": list(_source_counts(spec)),
            **_run_config(spec),
        },
        "results": raw if spec.mode == "comparison" else _summaries(raw),
    }


# ---------------------------------------------------------------------------
# sharded: Figure 4b scale-out, one fixed fleet over several block counts.
# ---------------------------------------------------------------------------


def _block_counts(spec: ScenarioSpec) -> Tuple[int, ...]:
    return spec.sweep.blocks or (spec.tiling.blocks,)


def _run_sharded(spec: ScenarioSpec) -> Dict[str, List[ClusterMetrics]]:
    fleet = _Fleet(spec, SHARDED_CAPACITY_MULTIPLE)
    return {
        strategy: [
            fleet.run(strategy, spec.fleet.sources, k, spec.tiling.workers)[0]
            for k in _block_counts(spec)
        ]
        for strategy in spec.sweep.strategies or ("Jarvis", "Best-OP")
    }


def _tabulate_sharded(
    spec: ScenarioSpec, raw: Dict[str, List[ClusterMetrics]]
) -> _Table:
    return _tabulate_fleet_sweep("blocks", _block_counts(spec), raw)


def _sharded_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec = result.spec
    return {
        "config": {
            "blocks": list(_block_counts(spec)),
            "fleet_sources": spec.fleet.sources,
            **_run_config(spec),
        },
        "results": _summaries(result.raw),
    }


# ---------------------------------------------------------------------------
# dynamic_replacement: a mid-run hotspot under three placements.
# ---------------------------------------------------------------------------


def _migration_policy(migration: Optional[MigrationSpec]) -> MigrationPolicy:
    migration = migration or MigrationSpec()
    if migration.policy == "never":
        # Baseline sanity runs: the "dynamic" run keeps its placement.
        return NeverMigrate()
    return SaturationMigrationPolicy(
        saturation_pressure=migration.saturation_pressure,
        relief_pressure=migration.relief_pressure,
        hot_epochs=migration.hot_epochs,
        cooldown_epochs=migration.cooldown_epochs,
    )


def _run_dynamic(spec: ScenarioSpec) -> Dict[str, Any]:
    """Mid-run hotspot: static vs dynamic vs oracle placement, one scenario.

    The fleet is partitioned contiguously across ``tiling.blocks`` blocks
    (sources ``0..per_block-1`` on block 0, and so on); at the hotspot's
    ``shift_epoch`` every source on block 0 starts producing ``factor``x its
    records (:class:`HotspotWorkload` — the declared nominal rate stays
    stale).  The per-block ingress is ``tiling.ingress_headroom``x one
    block's nominal drained rate, so the fleet is comfortable until the
    shift and block 0 saturates after it while its neighbours keep headroom.

    Three runs of the identical scenario:

    * **static** — placement frozen at construction;
    * **dynamic** — same initial placement plus the ``[migration]`` policy
      (a :class:`~repro.simulation.sharding.SaturationMigrationPolicy` by
      default) live-migrating sources off the hot block;
    * **oracle** — placement re-balanced *at construction* with perfect
      knowledge of the post-shift rates (the upper bound a re-placement
      policy can approach, transient-free).

    Metrics are measured from the shift on (default warmup), so the
    headline numbers compare post-shift goodput; ``gap_recovered`` is the
    fraction of the static-to-oracle goodput gap the dynamic run recovered.
    """
    hotspot = spec.workload.hotspot
    assert hotspot is not None  # enforced by ScenarioSpec validation
    num_sources, num_blocks = spec.fleet.sources, spec.tiling.blocks
    warmup = spec.resolved_warmup()
    setup = _setup(spec)
    schedule = as_budget_schedule(_budget_arg(spec))

    per_block = (num_sources + num_blocks - 1) // num_blocks
    static_assignment = {
        f"source-{index}": min(index // per_block, num_blocks - 1)
        for index in range(num_sources)
    }
    hot_sources = {name for name, block in static_assignment.items() if block == 0}

    def build_specs() -> List[SourceSpec]:
        specs = []
        for index in range(num_sources):
            name = f"source-{index}"
            workload = setup.workload_factory(spec.seed + index)
            if name in hot_sources:
                workload = HotspotWorkload(
                    workload, shift_epoch=hotspot.shift_epoch, factor=hotspot.factor
                )
            strategy = make_strategy(spec.fleet.strategy, setup, schedule.budget_at(0))
            specs.append(
                SourceSpec(
                    name=name, workload=workload, strategy=strategy, budget=schedule
                )
            )
        return specs

    # All-SP drains every record with the per-record drain header, so the
    # nominal drained rate per source slightly exceeds the input rate.
    drain_factor = (PINGMESH_RECORD_BYTES + DRAIN_HEADER_BYTES) / PINGMESH_RECORD_BYTES
    block_rate = per_block * setup.input_rate_mbps * drain_factor
    headroom = spec.tiling.ingress_headroom or DYNAMIC_INGRESS_HEADROOM
    sp_node = StreamProcessorNode(ingress_bandwidth_mbps=headroom * block_rate)
    cluster_config = MultiSourceConfig(
        config=setup.config,
        stream_processor=sp_node,
        warmup_epochs=warmup,
        record_mode=spec.record_mode,
    )

    # Oracle: balanced bin-packing with perfect post-shift rate knowledge.
    true_rates = {
        f"source-{index}": setup.input_rate_mbps
        * (hotspot.factor if f"source-{index}" in hot_sources else 1.0)
        for index in range(num_sources)
    }
    oracle_specs = build_specs()
    oracle_blocks = ByteRateBalancedPlacement(
        rate_fn=lambda source: true_rates[source.name]
    ).assign(oracle_specs, num_blocks)
    oracle_assignment = {
        source.name: block for source, block in zip(oracle_specs, oracle_blocks)
    }

    def run(
        placement: Dict[str, int], policy: Optional[MigrationPolicy]
    ) -> ClusterMetrics:
        executor = ShardedClusterExecutor(
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=build_specs(),
            num_blocks=num_blocks,
            placement=placement,
            cluster_config=cluster_config,
            migration=policy,
        )
        metrics = executor.run(spec.epochs, warmup_epochs=warmup)
        _check_conservation(executor)
        return metrics

    static = run(static_assignment, None)
    dynamic = run(static_assignment, _migration_policy(spec.migration))
    oracle = run(oracle_assignment, None)

    static_mbps = static.aggregate_throughput_mbps()
    dynamic_mbps = dynamic.aggregate_throughput_mbps()
    oracle_mbps = oracle.aggregate_throughput_mbps()
    gap = oracle_mbps - static_mbps
    return {
        "scenario": {
            "num_sources": num_sources,
            "num_blocks": num_blocks,
            "shift_epoch": hotspot.shift_epoch,
            "hotspot_factor": hotspot.factor,
            "hot_sources": sorted(hot_sources),
            "ingress_mbps": sp_node.ingress_bandwidth_mbps,
            "record_mode": spec.record_mode,
            "strategy": spec.fleet.strategy,
            "static_assignment": static_assignment,
            "oracle_assignment": oracle_assignment,
        },
        "static": static,
        "dynamic": dynamic,
        "oracle": oracle,
        "static_mbps": static_mbps,
        "dynamic_mbps": dynamic_mbps,
        "oracle_mbps": oracle_mbps,
        "gap_recovered": (dynamic_mbps - static_mbps) / gap if gap > 0 else 1.0,
        "migrations": dynamic.migration_events(),
    }


def _tabulate_dynamic(spec: ScenarioSpec, raw: Dict[str, Any]) -> _Table:
    labels = ("static", "dynamic", "oracle")
    rows: List[List[object]] = [
        [
            label,
            raw[f"{label}_mbps"],
            raw[label].network_utilization(),
            raw[label].median_latency_s(),
            raw[label].num_migrations(),
        ]
        for label in labels
    ]
    footer = f"gap recovered by dynamic re-placement: {100 * raw['gap_recovered']:.0f}%"
    for event in raw["migrations"]:
        footer += (
            f"\n  epoch {event['epoch']}: {event['source']} "
            f"block {event['from_block']} -> {event['to_block']}"
        )
    extras = {
        "gap_recovered": raw["gap_recovered"],
        "num_migrations": len(raw["migrations"]),
        **{f"{label}_mbps": raw[f"{label}_mbps"] for label in labels},
    }
    headers = ["placement", "goodput_mbps", "link_util", "med_lat_s", "migrations"]
    return _Table(headers, rows, footer, extras=extras)


def _dynamic_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec, raw = result.spec, result.raw
    assert spec.workload.hotspot is not None
    return {
        "config": {
            "fleet": spec.fleet.sources,
            "epochs": spec.epochs,
            "shift_epoch": spec.workload.hotspot.shift_epoch,
            "records_per_epoch": spec.workload.records_per_epoch,
            "record_mode": spec.record_mode,
        },
        "scenario": raw["scenario"],
        "goodput_mbps": {
            label: raw[f"{label}_mbps"] for label in ("static", "dynamic", "oracle")
        },
        "gap_recovered": raw["gap_recovered"],
        "migrations": raw["migrations"],
    }


# ---------------------------------------------------------------------------
# colocated: Figure 11, co-located query instances on one source node.
# ---------------------------------------------------------------------------


def _query_counts(spec: ScenarioSpec) -> Tuple[int, ...]:
    return spec.sweep.queries or (1, 2, 3, 4, 5)


def _colocated_block(
    spec: ScenarioSpec,
    setup: QuerySetup,
    count: int,
    budget: float,
    load_factors: Sequence[float],
) -> MultiQueryMetrics:
    """``count`` co-located fixed-plan instances of the query on one SP.

    Each instance is an independent :class:`QuerySpec` — its own data
    source (seeded ``seed + index``), frozen ``load_factors`` and ``budget``
    of source CPU — and all share one stream-processor node: equal
    ``ingress_weight`` on the shared link and an equal split of the SP's
    compute.  Every instance brings the paper's per-source uplink share
    (Section VI-A), so the shared ingress grows with the count and each
    query's tier-1 fair share matches the analytic path's single-source
    bandwidth — agreement below the knee is then about the executors, not
    about mismatched link provisioning.
    """
    warmup = spec.resolved_warmup()
    queries = [
        QuerySpec(
            name=f"q{index}",
            plan=setup.plan,
            cost_model=setup.cost_model,
            sources=[
                SourceSpec(
                    name=f"q{index}-src",
                    workload=setup.workload_factory(spec.seed + index),
                    strategy=StaticLoadFactorStrategy(
                        list(load_factors), name=f"fixed-q{index}"
                    ),
                    budget=budget,
                )
            ],
            config=setup.config,
        )
        for index in range(count)
    ]
    executor = CoLocatedBlockExecutor(
        queries,
        stream_processor=StreamProcessorNode(
            ingress_bandwidth_mbps=count * setup.bandwidth_mbps
        ),
        warmup_epochs=warmup,
        record_mode=spec.record_mode,
    )
    metrics = executor.run(spec.epochs, warmup_epochs=warmup)
    metrics.metadata["query"] = setup.name
    _check_conservation(executor)
    return metrics


def _run_colocated(spec: ScenarioSpec) -> List[Dict[str, float]]:
    """Figure 11: aggregate throughput of co-located query instances.

    As in the paper, Jarvis derives the data-level plan for the per-query
    CPU demand once (55% / 30% / 5% of a core depending on the input
    scaling), and every instance then runs with those load factors *fixed*
    — the experiment measures interference, not adaptation.  The node's
    ``fleet.cores`` are shared max-min fairly, so each instance runs under
    ``min(demand, cores / count)``: past that knee instances are starved
    and aggregate throughput saturates.

    Per query count, ``analytic`` scales one frozen-plan single-source run
    by the count (throughput under the 5-second latency bound, which is
    what exposes saturation), ``simulated`` co-locates ``count`` instances
    on one stream processor (:func:`_colocated_block`), and ``comparison``
    does both and reports their ratio.
    """
    setup = _setup(spec)
    warmup = spec.resolved_warmup()
    cores = spec.fleet.cores
    demand = spec.per_query_demand
    if demand is None:
        demand = MULTI_QUERY_DEMAND.get(spec.workload.rate_scale)
    if demand is None:
        demand = min(1.0, ground_truth_profile(setup, 1.0).full_cost_fraction())
    calibration = run_single_source(
        setup,
        "Jarvis",
        demand,
        num_epochs=spec.epochs,
        warmup_epochs=warmup,
        seed=spec.seed,
    )
    factors = list(calibration.epochs[-1].load_factors)
    latency_bound = setup.config.epoch.latency_bound_s

    rows: List[Dict[str, float]] = []
    for count in _query_counts(spec):
        allocated = min(demand, float(cores) / count)
        row = {
            "queries": float(count),
            "cores": float(cores),
            "per_query_demand": float(demand),
            "per_query_budget": allocated,
        }
        rows.append(row)
        if spec.mode != "simulated":
            strategy = StaticLoadFactorStrategy(factors, name=f"fixed-{count}q")
            single = run_single_source(
                setup,
                strategy.name,
                allocated,
                num_epochs=spec.epochs,
                warmup_epochs=warmup,
                strategy=strategy,
                seed=spec.seed,
            )
            per_query = single.throughput_mbps(latency_bound_s=latency_bound)
            if spec.mode == "analytic":
                row["per_query_throughput_mbps"] = per_query
                row["per_query_unbounded_mbps"] = single.throughput_mbps()
                row["aggregate_throughput_mbps"] = per_query * count
                continue
        metrics = _colocated_block(spec, setup, count, allocated, factors)
        aggregate = metrics.aggregate_throughput_mbps(latency_bound_s=latency_bound)
        row["per_query_throughput_mbps"] = aggregate / count
        row["aggregate_throughput_mbps"] = aggregate
        row["aggregate_unbounded_mbps"] = metrics.aggregate_throughput_mbps()
        row["sp_cpu_utilization"] = metrics.sp_cpu_utilization()
        row["median_latency_s"] = metrics.median_latency_s()
        row["max_latency_s"] = metrics.max_latency_s()
        if spec.mode == "comparison":
            analytic = per_query * count
            row["analytic_mbps"] = analytic
            row["simulated_mbps"] = aggregate
            row["ratio"] = aggregate / analytic if analytic > 0 else 0.0
    return rows


def _tabulate_colocated(spec: ScenarioSpec, raw: List[Dict[str, float]]) -> _Table:
    comparison = spec.mode == "comparison"
    headers = ["queries", "budget/q", "aggregate_mbps", "med_lat_s"]
    series: Dict[str, Dict[float, float]] = {"aggregate": {}}
    if comparison:
        headers += ["analytic_mbps", "sim/analytic"]
        series["analytic"] = {}
    rows: List[List[object]] = []
    for row in raw:
        line: List[object] = [
            int(row["queries"]),
            row["per_query_budget"],
            row["aggregate_throughput_mbps"],
            row.get("median_latency_s", float("nan")),
        ]
        if comparison:
            line += [row["analytic_mbps"], row["ratio"]]
            series["analytic"][row["queries"]] = row["analytic_mbps"]
        series["aggregate"][row["queries"]] = row["aggregate_throughput_mbps"]
        rows.append(line)
    demand = raw[0]["per_query_demand"] if raw else float("nan")
    footer = f"per-query CPU demand: {demand:.2f} of a core"
    return _Table(headers, rows, footer, series, {"per_query_demand": demand})


def _colocated_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec = result.spec
    return {
        "config": {
            "query_counts": list(_query_counts(spec)),
            "mode": spec.mode,
            **_run_config(spec),
        },
        "rows": result.raw,
    }


# ---------------------------------------------------------------------------
# record_modes: one fleet timed in each record representation.
# ---------------------------------------------------------------------------


def _run_record_modes(spec: ScenarioSpec) -> Dict[str, Dict[str, float]]:
    fleet = _Fleet(spec, CLUSTER_CAPACITY_INPUT_MULTIPLE)
    raw: Dict[str, Dict[str, float]] = {}
    for strategy in spec.sweep.strategies or ("Best-OP", "Jarvis"):
        # Every mode pays identical construction cost (same specs, same
        # engine setup), so the measurement isolates what the record
        # representation changes: the epoch execution itself.
        row: Dict[str, float] = {}
        for mode in spec.resolved_record_modes():
            metrics, elapsed = fleet.run(strategy, spec.fleet.sources, record_mode=mode)
            row[f"{mode}_wall_s"] = elapsed
            row[f"{mode}_goodput_mbps"] = metrics.aggregate_throughput_mbps()
            row[f"{mode}_median_latency_s"] = metrics.median_latency_s()
            # Legacy key name: the object series' offered rate predates the
            # per-mode naming and stays for payload compatibility.
            offered_key = "offered_mbps" if mode == "object" else f"{mode}_offered_mbps"
            row[offered_key] = metrics.aggregate_offered_mbps()
        for key, slow, fast in (
            ("speedup", "object", "batched"),
            ("arena_speedup", "batched", "arena"),
        ):
            if f"{slow}_wall_s" in row and f"{fast}_wall_s" in row:
                fast_s = row[f"{fast}_wall_s"]
                slow_s = row[f"{slow}_wall_s"]
                row[key] = slow_s / fast_s if fast_s > 0 else float("inf")
        raw[strategy] = row
    return raw


def _tabulate_record_modes(
    spec: ScenarioSpec, raw: Dict[str, Dict[str, float]]
) -> _Table:
    modes = spec.resolved_record_modes()
    first = next(iter(raw.values()), {})
    headers = ["strategy"] + [f"{mode}_wall_s" for mode in modes]
    headers += [key for key in ("speedup", "arena_speedup") if key in first]
    headers += [f"{mode}_goodput_mbps" for mode in modes]
    rows = [
        [strategy] + [entry[key] for key in headers[1:]]
        for strategy, entry in raw.items()
    ]
    footer = (
        f"config: {spec.fleet.sources} sources x "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs (Fig. 10a: 10x input, 55% CPU)"
    )
    extras: Dict[str, Any] = {
        "min_speedup": spec.min_speedup,
        "record_modes": list(modes),
    }
    if "speedup" in first:
        extras["speedups"] = {s: e["speedup"] for s, e in raw.items()}
    if "arena_speedup" in first:
        extras["arena_min_speedup"] = spec.arena_min_speedup
        extras["arena_speedups"] = {s: e["arena_speedup"] for s, e in raw.items()}
    return _Table(headers, rows, footer, extras=extras)


def _record_modes_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec = result.spec
    return {
        "config": {
            "sources": spec.fleet.sources,
            "records_per_epoch": spec.workload.records_per_epoch,
            "num_epochs": spec.epochs,
            "rate_scale": spec.workload.rate_scale,
            "cpu_budget": _initial_budget(spec),
            "min_speedup": spec.min_speedup,
            "record_modes": list(spec.resolved_record_modes()),
            "arena_min_speedup": spec.arena_min_speedup,
        },
        "results": result.raw,
    }


# ---------------------------------------------------------------------------
# parallel: the worker pool timed against the serial lockstep.
# ---------------------------------------------------------------------------


def _cluster_metrics_identical(a: ClusterMetrics, b: ClusterMetrics) -> bool:
    """True when two runs produced bit-identical per-source epoch metrics."""
    if sorted(a.per_source) != sorted(b.per_source):
        return False
    return all(
        a.per_source[name].epochs == b.per_source[name].epochs for name in a.per_source
    )


def _run_parallel(spec: ScenarioSpec) -> Dict[str, Dict[str, Any]]:
    fleet = _Fleet(spec, SHARDED_CAPACITY_MULTIPLE)
    sources, blocks = spec.fleet.sources, spec.tiling.blocks
    raw: Dict[str, Dict[str, Any]] = {}
    for strategy in spec.sweep.strategies or ("Jarvis",):
        # Worker-pool run first, before any serial metrics bloat the heap:
        # the workers fork from this process, and forking a large heap taxes
        # the children with copy-on-write faults for the whole run (measured
        # ~3s of phantom overhead at 1024 sources when a serial run preceded
        # the fork).  The serial lockstep then runs on an identically
        # constructed fleet: the executor the pool must reproduce bit for bit.
        parallel, parallel_s = fleet.run(strategy, sources, blocks, spec.tiling.workers)
        serial, serial_s = fleet.run(strategy, sources, blocks)
        raw[strategy] = {
            "serial_wall_s": serial_s,
            "parallel_wall_s": parallel_s,
            "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
            "identical": _cluster_metrics_identical(serial, parallel),
            "serial_goodput_mbps": serial.aggregate_throughput_mbps(),
            "parallel_goodput_mbps": parallel.aggregate_throughput_mbps(),
        }
    return raw


def _tabulate_parallel(spec: ScenarioSpec, raw: Dict[str, Dict[str, Any]]) -> _Table:
    headers = [
        "strategy",
        "serial_wall_s",
        "parallel_wall_s",
        "speedup",
        "identical",
        "serial_goodput_mbps",
        "parallel_goodput_mbps",
    ]
    rows = [
        [strategy] + [entry[key] for key in headers[1:]]
        for strategy, entry in raw.items()
    ]
    cpus = os.cpu_count() or 1
    footer = (
        f"config: {spec.fleet.sources} sources x {spec.tiling.blocks} "
        f"blocks x {spec.tiling.workers} workers, "
        f"{spec.workload.records_per_epoch} records/epoch x "
        f"{spec.epochs} epochs, record_mode={spec.record_mode} "
        f"(host cpus: {cpus})"
    )
    extras: Dict[str, Any] = {
        "parallel_min_speedup": spec.parallel_min_speedup,
        "workers": spec.tiling.workers,
        "blocks": spec.tiling.blocks,
        "cpu_count": cpus,
        "speedups": {s: e["speedup"] for s, e in raw.items()},
        "identical": {s: e["identical"] for s, e in raw.items()},
    }
    return _Table(headers, rows, footer, extras=extras)


def _parallel_payload(result: ScenarioResult) -> Dict[str, Any]:
    spec = result.spec
    return {
        "config": {
            "sources": spec.fleet.sources,
            "blocks": spec.tiling.blocks,
            "workers": spec.tiling.workers,
            "parallel_min_speedup": spec.parallel_min_speedup,
            **_run_config(spec),
        },
        "results": result.raw,
    }


#: Every scenario kind, in :data:`~repro.scenarios.spec.SCENARIO_KINDS` order.
KINDS: Dict[str, ScenarioKind] = {
    "scaling": ScenarioKind(
        _run_scaling, _tabulate_scaling, _scaling_payload, "sources"
    ),
    "sharded": ScenarioKind(
        _run_sharded, _tabulate_sharded, _sharded_payload, "blocks"
    ),
    "dynamic_replacement": ScenarioKind(
        _run_dynamic, _tabulate_dynamic, _dynamic_payload, "placement"
    ),
    "colocated": ScenarioKind(
        _run_colocated, _tabulate_colocated, _colocated_payload, "queries"
    ),
    "record_modes": ScenarioKind(
        _run_record_modes, _tabulate_record_modes, _record_modes_payload, "strategy"
    ),
    "parallel": ScenarioKind(
        _run_parallel, _tabulate_parallel, _parallel_payload, "strategy"
    ),
}
