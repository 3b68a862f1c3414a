"""Which public calls of ``repro`` belong to which layer, and the per-layer metrics.

:func:`install` wraps each layer's public calls with the tracer; the span
name is the layer.  :func:`layer_metrics` turns one traced run's spans
into the per-layer metrics of :data:`PER_LAYER_METRICS`.  ``busy_s`` is a
layer's total span time (outermost spans only), ``self_s`` its span time
minus the part its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .trace import TRACER, Span, outermost, root_ns, self_times_ns

#: Operator kinds reported one by one (``operators.<kind>.self_s``).
OPERATOR_KINDS = ("group_aggregate", "join", "map", "filter", "window", "aggregate")

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup.import_s", "s"),
    ("setup.make_setup_s", "s"),
    ("setup.build_s", "s"),
    ("workloads.fill.busy_s", "s"),
    ("workloads.fill.calls", "count"),
    ("workloads.fill.native_share", "fraction"),
    ("workloads.objects.busy_s", "s"),
    ("records.own.busy_s", "s"),
    ("records.own.calls", "count"),
    ("records.own.bytes_copied", "bytes"),
    ("records.from_records.busy_s", "s"),
    *((f"operators.{kind}.self_s", "s") for kind in OPERATOR_KINDS),
    ("operators.object_fallback.calls", "count"),
    ("operators.columnar_share", "fraction"),
    ("pipeline.source.self_s", "s"),
    ("pipeline.source.calls", "count"),
    ("pipeline.sp.self_s", "s"),
    ("pipeline.sp.calls", "count"),
    ("strategy.feedback.self_s", "s"),
    ("core.lp.busy_s", "s"),
    ("core.lp.calls", "count"),
    ("core.lp.distinct_share", "fraction"),
    ("engine.step.self_s", "s"),
    ("engine.accounting.busy_s", "s"),
    ("network.arbitration.busy_s", "s"),
    ("multisource.self_s", "s"),
    ("multisource.carryover_mb_end", "MB"),
    ("multisource.sp_backlog_records_end", "count"),
    ("multiquery.self_s", "s"),
    ("sharding.self_s", "s"),
    ("sharding.decide.busy_s", "s"),
    ("sharding.migrate.busy_s", "s"),
    ("sharding.migrations", "count"),
    ("parallel.start_s", "s"),
    ("parallel.wall_s", "s"),
    ("parallel.worker_busy_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("parallel.overhead_s", "s"),
    ("parallel.migrate.busy_s", "s"),
    ("parallel.close_s", "s"),
    ("parallel.speedup", "ratio"),
    ("metrics.record.busy_s", "s"),
    ("trace.root_s", "s"),
    ("trace.overhead_share", "fraction"),
)

ROOT = "bench.run"


def _operator_layer(args: Tuple[Any, ...]) -> str:
    return f"operators.{args[0].kind}"


def _tag(tag: str):
    return lambda args, kwargs, result: tag


def _own_bytes_copied(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> int:
    before = args[1].columns
    return sum(
        getattr(column, "nbytes", 0)
        for name, column in result.columns.items()
        if column is not before.get(name)
    )


def _lp_input(args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any) -> str:
    budget = kwargs.get("compute_budget", args[1] if len(args) > 1 else None)
    return f"{args[0]!r}|{budget!r}"


def _subclasses(base: type) -> List[type]:
    found: List[type] = []
    pending = [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install() -> None:
    """Wrap every layer's public calls; call once per process."""
    import repro.baselines  # noqa: F401  (registers every strategy class)
    from repro.core import stepwise_adapt
    from repro.query import operators, records
    from repro.simulation import engine, metrics, multiquery, multisource, network
    from repro.simulation import parallel, pipeline, sharding
    from repro.workloads import dynamics, loganalytics, pingmesh
    from repro.baselines.base import PartitioningStrategy

    patch = TRACER.patch
    patch(pingmesh.PingmeshWorkload, "fill_arena", "workloads.fill",
          post=lambda args, kwargs, result: bool(result))
    patch(pingmesh.PingmeshWorkload, "batch_for_epoch", "workloads.fill")
    patch(dynamics.WorkloadBurst, "batch_for_epoch", "workloads.fill")
    patch(loganalytics.LogAnalyticsWorkload, "records_for_epoch", "workloads.objects")

    patch(records.FleetArena, "own", "records.own", post=_own_bytes_copied)
    patch(records.RecordBatch, "from_records", "records.from_records")

    for cls in _subclasses(operators.Operator):
        if "process" in cls.__dict__:
            patch(cls, "process", _operator_layer, post=_tag("object"))
        if "process_batch" in cls.__dict__:
            patch(cls, "process_batch", _operator_layer, post=_tag("batch"))

    patch(pipeline.SourcePipeline, "run_epoch", "pipeline.source")
    patch(pipeline.StreamProcessorPipeline, "process_arrivals", "pipeline.sp")
    patch(pipeline.StreamProcessorPipeline, "advance_epoch", "pipeline.sp")

    for cls in _subclasses(PartitioningStrategy):
        if "on_epoch_end" in cls.__dict__:
            patch(cls, "on_epoch_end", "strategy.feedback")
    patch(stepwise_adapt, "solve_data_level_lp", "core.lp", post=_lp_input)

    patch(engine.EpochEngine, "step_sources", "engine.step")
    patch(engine.EpochAccountant, "finish_source_epoch", "engine.accounting")

    for module, attr in (
        (network, "max_min_fair_share"),
        (network, "weighted_max_min_fair_share"),
        (network, "plan_fifo_transfer"),
        (multisource, "max_min_fair_share"),
        (multisource, "plan_fifo_transfer"),
        (multiquery, "weighted_max_min_fair_share"),
    ):
        patch(module, attr, "network.arbitration")
    patch(network.SharedLink, "transmit_epoch", "network.arbitration")

    patch(multisource.MultiSourceExecutor, "run_epoch", "multisource")
    patch(multiquery.CoLocatedBlockExecutor, "run_epoch", "multiquery")

    patch(sharding.ShardedClusterExecutor, "run_epoch", "sharding")
    patch(sharding.ShardedClusterExecutor, "migrate", "sharding.migrate")
    for cls in _subclasses(sharding.MigrationPolicy):
        if "decide" in cls.__dict__:
            patch(cls, "decide", "sharding.decide")

    patch(parallel.ParallelBlockController, "__init__", "parallel.start")
    patch(parallel.ParallelBlockController, "run_epoch", "parallel.run_epoch")
    patch(parallel.ParallelBlockController, "migrate", "parallel.migrate")
    patch(parallel.ParallelBlockController, "close", "parallel.close")

    patch(metrics.RunMetrics, "record", "metrics.record")
    patch(metrics.ClusterMetrics, "record_cluster_epoch", "metrics.record")


# -- metrics from spans -------------------------------------------------------------


class SpanTable:
    """Per-layer sums over one process's spans."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.self_ns = self_times_ns(spans)
        self._busy_ns: Dict[str, int] = defaultdict(int)
        self._own_ns: Dict[str, int] = defaultdict(int)
        self._infos: Dict[str, List[Any]] = defaultdict(list)
        for span, own, outer in zip(spans, self.self_ns, outermost(spans)):
            self._own_ns[span[0]] += own
            if outer:
                self._busy_ns[span[0]] += span[3] - span[2]
                self._infos[span[0]].append(span[4])

    def busy_s(self, layer: str) -> float:
        return 1e-9 * self._busy_ns.get(layer, 0)

    def self_s(self, layer: str) -> float:
        return 1e-9 * self._own_ns.get(layer, 0)

    def calls(self, layer: str) -> int:
        return len(self._infos.get(layer, ()))

    def outer_infos(self, layer: str) -> List[Any]:
        """The info of each outermost span of ``layer``."""
        return self._infos.get(layer, [])

    def operator_counts(self) -> Tuple[int, int, int]:
        """(object fallbacks, columnar calls, top-level operator calls).

        A fallback is an object-path ``process`` call made from inside a
        ``process_batch`` span: the batch was turned back into records.  A
        columnar call is a top-level ``process_batch`` span with no such
        child.
        """
        spans = self.spans
        fell_back = set()
        top_batches = []
        top_level = 0
        for index, span in enumerate(spans):
            if not span[0].startswith("operators."):
                continue
            parent = span[1]
            if parent >= 0 and spans[parent][0].startswith("operators."):
                if span[4] == "object" and spans[parent][4] == "batch":
                    fell_back.add(parent)
                continue
            top_level += 1
            if span[4] == "batch":
                top_batches.append(index)
        columnar = sum(1 for index in top_batches if index not in fell_back)
        return len(fell_back), columnar, top_level


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    spans: Sequence[Span],
    pool_spans: Optional[Sequence[Span]] = None,
    worker_spans: Optional[Dict[int, List[Span]]] = None,
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``spans`` is the single-process run whose layer split is reported (for
    the pool workload, the serial replay); ``pool_spans`` and
    ``worker_spans`` (pid -> spans) are the pool run's main-process and
    worker spans, the source of the ``parallel.*`` metrics.
    """
    table = SpanTable(spans)
    out: Dict[str, float] = {}

    fills = table.outer_infos("workloads.fill")
    out["workloads.fill.busy_s"] = table.busy_s("workloads.fill")
    out["workloads.fill.calls"] = len(fills)
    out["workloads.fill.native_share"] = _share(sum(1 for i in fills if i is True), len(fills))
    out["workloads.objects.busy_s"] = table.busy_s("workloads.objects")

    out["records.own.busy_s"] = table.busy_s("records.own")
    owns = table.outer_infos("records.own")
    out["records.own.calls"] = len(owns)
    out["records.own.bytes_copied"] = sum(owns)
    out["records.from_records.busy_s"] = table.busy_s("records.from_records")

    for kind in OPERATOR_KINDS:
        out[f"operators.{kind}.self_s"] = table.self_s(f"operators.{kind}")
    fallbacks, columnar, top_level = table.operator_counts()
    out["operators.object_fallback.calls"] = fallbacks
    out["operators.columnar_share"] = _share(columnar, top_level)

    out["pipeline.source.self_s"] = table.self_s("pipeline.source")
    out["pipeline.source.calls"] = table.calls("pipeline.source")
    out["pipeline.sp.self_s"] = table.self_s("pipeline.sp")
    out["pipeline.sp.calls"] = table.calls("pipeline.sp")

    out["strategy.feedback.self_s"] = table.self_s("strategy.feedback")
    lp_inputs = table.outer_infos("core.lp")
    out["core.lp.busy_s"] = table.busy_s("core.lp")
    out["core.lp.calls"] = len(lp_inputs)
    out["core.lp.distinct_share"] = _share(len(set(lp_inputs)), len(lp_inputs))

    out["engine.step.self_s"] = table.self_s("engine.step")
    out["engine.accounting.busy_s"] = table.busy_s("engine.accounting")
    out["network.arbitration.busy_s"] = table.busy_s("network.arbitration")
    out["multisource.self_s"] = table.self_s("multisource")
    out["multiquery.self_s"] = table.self_s("multiquery")
    out["sharding.self_s"] = table.self_s("sharding")
    out["sharding.decide.busy_s"] = table.busy_s("sharding.decide")
    out["sharding.migrate.busy_s"] = table.busy_s("sharding.migrate")
    out["metrics.record.busy_s"] = table.busy_s("metrics.record")
    out["trace.root_s"] = 1e-9 * root_ns(spans)

    pool = SpanTable(pool_spans or [])
    out["parallel.start_s"] = pool.busy_s("parallel.start")
    out["parallel.wall_s"] = pool.busy_s("parallel.run_epoch")
    out["parallel.migrate.busy_s"] = pool.busy_s("parallel.migrate")
    out["parallel.close_s"] = pool.busy_s("parallel.close")
    busy = [1e-9 * root_ns(s) for s in (worker_spans or {}).values()]
    out["parallel.worker_busy_s"] = sum(busy)
    if busy and max(busy) > 0:
        out["parallel.imbalance"] = max(busy) / statistics.fmean(busy)
        out["parallel.overhead_s"] = out["parallel.wall_s"] - max(busy)
    else:
        out["parallel.imbalance"] = 0.0
        out["parallel.overhead_s"] = 0.0
    return out
