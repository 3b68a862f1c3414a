"""The benchmark's three workloads, built only through the public API of ``repro``.

A workload is a fixed input size: a fleet of sources, their queries and
strategies, the stream-processor node they share, and a fixed number of
epochs per repetition.  Source ``i`` of a workload is seeded
``seed + i`` from the benchmark's ``--seed``; nothing else is random.

Every workload runs in arena record mode, the fast path users run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import calibrate

#: Records per epoch of every query (the paper's 10x setting at 2500).
RECORDS_PER_EPOCH = 2500
#: CPU budget of every source in the Jarvis-style workloads.
SOURCE_BUDGET = 0.55
#: SP cores of every building block (the paper's SP node has 64).
SP_CORES = 64
#: Epochs per repetition and repetitions per run at the reference run length,
#: the same for every workload: 120 timed epochs.  On ``jarvis_block`` 12 of
#: them are window flushes or the LP burst, so the tail percentile with 10
#: epochs beyond it (p91) falls inside that group, not on its edge.
EPOCHS = 40
REPETITIONS = 3
#: Run length (``--seconds``) at which a run makes ``REPETITIONS`` repetitions.
REFERENCE_SECONDS = 20


def repetitions(seconds: int) -> int:
    """Repetitions for a run of ``seconds``: :data:`REPETITIONS` at
    :data:`REFERENCE_SECONDS`, scaled, so the amount of work depends only on
    the arguments and never on how fast the host is."""
    return max(1, round(REPETITIONS * seconds / REFERENCE_SECONDS))


@dataclass
class Fleet:
    """One built executor plus the accessors the benchmark needs.

    ``executor`` is a ``MultiSourceExecutor``, ``CoLocatedBlockExecutor``,
    ``ShardedClusterExecutor`` or ``ParallelBlockController``; all of them
    expose ``run(num_epochs, warmup_epochs=...)`` driving ``run_epoch()``.
    """

    executor: Any
    num_sources: int

    @property
    def pooled(self) -> bool:
        return hasattr(self.executor, "map_blocks")

    def run(self, epochs: int, warmup: int) -> Any:
        return self.executor.run(epochs, warmup_epochs=warmup)

    def kernel(self) -> float:
        """Calibration kernel time where this fleet does its work."""
        if self.pooled:
            return calibrate.pool_kernel(self.executor.map_blocks)
        return calibrate.kernel()

    def close(self) -> None:
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def carryover_bytes(self) -> float:
        """Bytes still queued at the sources for the shared link, all blocks."""
        executor = self.executor
        if self.pooled:
            return float(sum(executor.map_blocks(block_remaining_demand).values()))
        if hasattr(executor, "blocks"):
            blocks = executor.blocks
        elif hasattr(executor, "engine"):
            blocks = [executor.engine(name) for name in executor.query_names()]
        else:
            blocks = [executor]
        return float(sum(block.total_remaining_demand() for block in blocks))


def block_remaining_demand(index: int, block: Any) -> float:
    """``map_blocks`` probe: one worker-owned block's queued link demand."""
    return float(block.total_remaining_demand())


@dataclass
class Workload:
    name: str
    warmup: int
    input_size: Dict[str, Any]
    make_setups: Callable[[], Dict[str, Any]]
    build: Callable[[Dict[str, Any], int], Fleet]
    #: Wall seconds of one repetition of ``EPOCHS`` epochs, build included,
    #: on the reference host (median of ten runs; sizes the run's deadline).
    repetition_s: float
    #: First and third quartile of the per-run mean epoch kernel time (ms,
    #: as ``Fleet.kernel`` reports it) over twenty runs on the reference host.
    kernel_ms_quartiles: Tuple[float, float]
    #: Builds the same fleet on the serial executor (pool workloads only).
    build_replay: Optional[Callable[[Dict[str, Any], int], Fleet]] = None


# -- jarvis_block ---------------------------------------------------------------

JARVIS_SOURCES = 128
JARVIS_WARMUP = 10


def _jarvis_setups() -> Dict[str, Any]:
    from repro.scenarios.setups import make_setup

    return {"s2s_probe": make_setup("s2s_probe", records_per_epoch=RECORDS_PER_EPOCH)}


def _jarvis_build(setups: Dict[str, Any], seed: int) -> Fleet:
    from repro.scenarios.setups import make_strategy
    from repro.simulation import (
        MultiSourceConfig,
        MultiSourceExecutor,
        StreamProcessorNode,
        homogeneous_sources,
    )

    setup = setups["s2s_probe"]
    # Ingress equals the fleet's nominal input rate: the default cluster
    # node puts 128 sources past the knee, carryover then grows without
    # bound and per-epoch cost depends on run length.
    node = StreamProcessorNode(
        cores=SP_CORES,
        ingress_bandwidth_mbps=JARVIS_SOURCES * setup.input_rate_mbps,
    )
    sources = homogeneous_sources(
        JARVIS_SOURCES,
        workload_factory=lambda index: setup.workload_factory(seed + index),
        strategy_factory=lambda index: make_strategy("Jarvis", setup, SOURCE_BUDGET),
        budget=SOURCE_BUDGET,
    )
    executor = MultiSourceExecutor(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=sources,
        cluster_config=MultiSourceConfig(
            config=setup.config,
            stream_processor=node,
            warmup_epochs=JARVIS_WARMUP,
            record_mode="arena",
        ),
    )
    return Fleet(executor, JARVIS_SOURCES)


# -- colocated_mix --------------------------------------------------------------

#: (query, source count, strategy, rate_scale) of the three co-located queries.
COLOCATED_QUERIES: Tuple[Tuple[str, int, str, float], ...] = (
    ("s2s_probe", 32, "Jarvis", 1.0),
    ("t2t_probe", 8, "Best-OP", 0.4),
    ("log_analytics", 8, "Filter-Src", 0.5),
)
COLOCATED_INGRESS_SHARE = 0.7
COLOCATED_WARMUP = 10


def _colocated_setups() -> Dict[str, Any]:
    from repro.scenarios.setups import make_setup

    return {
        query: make_setup(query, records_per_epoch=RECORDS_PER_EPOCH, rate_scale=scale)
        for query, _, _, scale in COLOCATED_QUERIES
    }


def _colocated_build(setups: Dict[str, Any], seed: int) -> Fleet:
    from repro.scenarios.setups import make_strategy
    from repro.simulation import (
        CoLocatedBlockExecutor,
        QuerySpec,
        StreamProcessorNode,
        homogeneous_sources,
    )

    queries = []
    nominal_mbps = 0.0
    for query, count, strategy, _ in COLOCATED_QUERIES:
        setup = setups[query]
        nominal_mbps += count * setup.input_rate_mbps
        queries.append(
            QuerySpec(
                name=query,
                plan=setup.plan,
                cost_model=setup.cost_model,
                sources=homogeneous_sources(
                    count,
                    workload_factory=lambda index, s=setup: s.workload_factory(seed + index),
                    strategy_factory=lambda index, s=setup, n=strategy: make_strategy(
                        n, s, SOURCE_BUDGET
                    ),
                    budget=SOURCE_BUDGET,
                    name_prefix=query,
                ),
                config=setup.config,
            )
        )
    node = StreamProcessorNode(
        cores=SP_CORES,
        ingress_bandwidth_mbps=COLOCATED_INGRESS_SHARE * nominal_mbps,
    )
    executor = CoLocatedBlockExecutor(
        queries,
        stream_processor=node,
        warmup_epochs=COLOCATED_WARMUP,
        record_mode="arena",
    )
    return Fleet(executor, sum(count for _, count, _, _ in COLOCATED_QUERIES))


# -- hotspot_pool ---------------------------------------------------------------

HOTSPOT_SOURCES = 256
HOTSPOT_BLOCKS = 16
HOTSPOT_RECORDS = 1000
HOTSPOT_SHIFT_EPOCH = 8
HOTSPOT_FACTOR = 2.0
HOTSPOT_WORKERS = 2


def _hotspot_setups() -> Dict[str, Any]:
    from repro.scenarios.setups import make_setup

    return {"s2s_probe": make_setup("s2s_probe", records_per_epoch=HOTSPOT_RECORDS)}


def _hotspot_parts(setups: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Constructor arguments shared by the pool run and its serial replay."""
    from repro.config import PINGMESH_RECORD_BYTES
    from repro.query.records import DRAIN_HEADER_BYTES
    from repro.scenarios.runner import DYNAMIC_INGRESS_HEADROOM
    from repro.scenarios.setups import HotspotWorkload, make_strategy
    from repro.simulation import (
        MultiSourceConfig,
        SaturationMigrationPolicy,
        SourceSpec,
        StreamProcessorNode,
    )

    setup = setups["s2s_probe"]
    per_block = HOTSPOT_SOURCES // HOTSPOT_BLOCKS
    sources = []
    for index in range(HOTSPOT_SOURCES):
        workload = setup.workload_factory(seed + index)
        if index // per_block == 0:
            workload = HotspotWorkload(
                workload, shift_epoch=HOTSPOT_SHIFT_EPOCH, factor=HOTSPOT_FACTOR
            )
        sources.append(
            SourceSpec(
                name=f"source-{index}",
                workload=workload,
                strategy=make_strategy("All-SP", setup, 1.0),
                budget=1.0,
            )
        )
    # All-SP drains every record with the per-record drain header.
    drain_factor = (PINGMESH_RECORD_BYTES + DRAIN_HEADER_BYTES) / PINGMESH_RECORD_BYTES
    block_rate = per_block * setup.input_rate_mbps * drain_factor
    return dict(
        plan=setup.plan,
        cost_model=setup.cost_model,
        sources=sources,
        num_blocks=HOTSPOT_BLOCKS,
        placement={spec.name: index // per_block for index, spec in enumerate(sources)},
        cluster_config=MultiSourceConfig(
            config=setup.config,
            stream_processor=StreamProcessorNode(
                cores=SP_CORES,
                ingress_bandwidth_mbps=DYNAMIC_INGRESS_HEADROOM * block_rate,
            ),
            warmup_epochs=HOTSPOT_SHIFT_EPOCH,
            record_mode="arena",
        ),
        migration=SaturationMigrationPolicy(
            saturation_pressure=0.95,
            relief_pressure=0.92,
            hot_epochs=2,
            cooldown_epochs=2,
        ),
    )


def _hotspot_build(setups: Dict[str, Any], seed: int) -> Fleet:
    from repro.simulation import ParallelBlockController

    controller = ParallelBlockController(
        workers=HOTSPOT_WORKERS, **_hotspot_parts(setups, seed)
    )
    return Fleet(controller, HOTSPOT_SOURCES)


def _hotspot_replay(setups: Dict[str, Any], seed: int) -> Fleet:
    from repro.simulation import ShardedClusterExecutor

    executor = ShardedClusterExecutor(**_hotspot_parts(setups, seed))
    return Fleet(executor, HOTSPOT_SOURCES)


WORKLOADS: Dict[str, Workload] = {
    "jarvis_block": Workload(
        name="jarvis_block",
        warmup=JARVIS_WARMUP,
        input_size={
            "executor": "MultiSourceExecutor",
            "sources": JARVIS_SOURCES,
            "query": "s2s_probe",
            "strategy": "Jarvis",
            "records_per_epoch": RECORDS_PER_EPOCH,
            "budget": SOURCE_BUDGET,
            "sp_ingress": "1.0x fleet nominal input rate",
        },
        make_setups=_jarvis_setups,
        build=_jarvis_build,
        repetition_s=5.2,
        kernel_ms_quartiles=(5.41, 6.25),
    ),
    "colocated_mix": Workload(
        name="colocated_mix",
        warmup=COLOCATED_WARMUP,
        input_size={
            "executor": "CoLocatedBlockExecutor",
            "queries": [
                {"query": q, "sources": n, "strategy": s, "rate_scale": r}
                for q, n, s, r in COLOCATED_QUERIES
            ],
            "records_per_epoch": RECORDS_PER_EPOCH,
            "budget": SOURCE_BUDGET,
            "sp_ingress": f"{COLOCATED_INGRESS_SHARE}x summed nominal input rate",
        },
        make_setups=_colocated_setups,
        build=_colocated_build,
        repetition_s=16.8,
        kernel_ms_quartiles=(5.61, 6.40),
    ),
    "hotspot_pool": Workload(
        name="hotspot_pool",
        warmup=HOTSPOT_SHIFT_EPOCH,
        input_size={
            "executor": f"ParallelBlockController(workers={HOTSPOT_WORKERS})",
            "sources": HOTSPOT_SOURCES,
            "blocks": HOTSPOT_BLOCKS,
            "query": "s2s_probe",
            "strategy": "All-SP",
            "records_per_epoch": HOTSPOT_RECORDS,
            "budget": 1.0,
            "hotspot": f"block 0 x{HOTSPOT_FACTOR} from epoch {HOTSPOT_SHIFT_EPOCH}",
            "sp_ingress": "DYNAMIC_INGRESS_HEADROOM x block nominal drained rate",
            "migration": "SaturationMigrationPolicy(0.95, 0.92, hot 2, cooldown 2)",
        },
        make_setups=_hotspot_setups,
        build=_hotspot_build,
        repetition_s=3.3,
        kernel_ms_quartiles=(4.43, 4.85),
        build_replay=_hotspot_replay,
    ),
}


# -- simulated outputs ----------------------------------------------------------

#: Relative slack of the byte and CPU accounting checks: sums taken in
#: another order may differ in the last bits.
ACCOUNTING_RTOL = 1e-9
#: ``EpochMetrics`` fields that must be finite and non-negative.
EPOCH_FLOAT_FIELDS = (
    "input_bytes",
    "goodput_bytes",
    "network_bytes_offered",
    "network_bytes_sent",
    "network_queue_bytes",
    "cpu_used_seconds",
    "cpu_budget_seconds",
    "sp_cpu_seconds",
    "latency_s",
)


def clusters(metrics: Any) -> Iterator[Tuple[str, Any]]:
    """Every ``(key prefix, ClusterMetrics)`` of a run: one per co-located
    query, or the run itself."""
    if hasattr(metrics, "per_query"):
        for query in sorted(metrics.per_query):
            yield f"{query}/", metrics.per_query[query]
    else:
        yield "", metrics


def source_epochs(metrics: Any) -> Iterator[Tuple[str, Any]]:
    """Every ``(source key, EpochMetrics)`` of a run, in a fixed order."""
    for prefix, cluster in clusters(metrics):
        for name in sorted(cluster.per_source):
            for epoch in cluster.per_source[name].epochs:
                yield prefix + name, epoch


def epoch_fields(epoch: Any) -> Tuple[Any, ...]:
    """An ``EpochMetrics`` as a tuple that compares NaN-safely and exactly."""
    return (
        epoch.epoch,
        *(float(getattr(epoch, name)).hex() for name in EPOCH_FLOAT_FIELDS[:-1]),
        int(epoch.source_backlog_records),
        float(epoch.latency_s).hex(),
        str(epoch.query_state),
        str(epoch.runtime_phase),
        tuple(float(f).hex() for f in epoch.load_factors),
    )


def measured_latencies(metrics: Any) -> List[float]:
    """Simulated latency of every source-epoch after warm-up."""
    return [
        epoch.latency_s
        for _, cluster in clusters(metrics)
        for run in cluster.per_source.values()
        for epoch in run.measured_epochs()
    ]


def _within(value: float, limit: float) -> bool:
    """``value <= limit`` up to rounding; False when either is NaN."""
    return value <= limit + ACCOUNTING_RTOL * max(1.0, abs(limit))


def _same(a: float, b: float) -> bool:
    return _within(a, b) and _within(b, a)


def source_epoch_problems(epoch: Any, prev_queue_bytes: float) -> List[str]:
    """What is impossible about one source-epoch, given the source's link
    queue at the end of its previous epoch."""
    bad_fields = [
        name
        for name in EPOCH_FLOAT_FIELDS
        if not (math.isfinite(getattr(epoch, name)) and getattr(epoch, name) >= 0.0)
    ]
    if bad_fields:
        return [f"{name} = {getattr(epoch, name)!r}, not finite and >= 0" for name in bad_fields]
    problems = []
    if epoch.source_backlog_records < 0:
        problems.append(f"source backlog {epoch.source_backlog_records} records")
    if not epoch.goodput_bytes <= epoch.input_bytes:
        problems.append(f"goodput {epoch.goodput_bytes!r} > input {epoch.input_bytes!r}")
    if not _within(epoch.network_bytes_sent, epoch.network_bytes_offered + prev_queue_bytes):
        problems.append(
            f"sent {epoch.network_bytes_sent!r} bytes, more than offered "
            f"{epoch.network_bytes_offered!r} + queued {prev_queue_bytes!r}"
        )
    if not _within(epoch.network_queue_bytes, prev_queue_bytes + epoch.network_bytes_offered):
        problems.append(
            f"link queue grew from {prev_queue_bytes!r} to {epoch.network_queue_bytes!r} "
            f"bytes with only {epoch.network_bytes_offered!r} offered"
        )
    if not _within(epoch.cpu_used_seconds, epoch.cpu_budget_seconds):
        problems.append(
            f"used {epoch.cpu_used_seconds!r} CPU s of a {epoch.cpu_budget_seconds!r} s budget"
        )
    return problems


def check_epochs(metrics: Any) -> Tuple[int, List[str]]:
    """Source-epochs whose simulated accounting is impossible, and (the
    first few of) what is wrong with them.

    Per source-epoch: every float field is finite and non-negative, goodput
    is at most the input, the link sent no more than was offered plus
    queued, the link queue grew by no more than was offered, and the source
    used no more CPU than its budget.  Per epoch: the per-source bytes sent
    and offered add up to the link's own figures, and the block's link sent
    no more than its capacity.  A failed epoch-level check fails every
    source-epoch of that epoch.
    """
    bad: set = set()
    problems: List[str] = []

    def fail(keys: List[Tuple[str, int]], problem: str) -> None:
        bad.update(keys)
        if len(problems) < 3:
            problems.append(problem)

    keys_by_epoch: Dict[int, List[Tuple[str, int]]] = {}
    link: Dict[int, List[float]] = {}
    for prefix, cluster in clusters(metrics):
        sums: Dict[int, List[float]] = {}
        for name in sorted(cluster.per_source):
            key, queue = prefix + name, 0.0
            for epoch in cluster.per_source[name].epochs:
                for problem in source_epoch_problems(epoch, queue):
                    fail([(key, epoch.epoch)], f"{key} epoch {epoch.epoch}: {problem}")
                queue = epoch.network_queue_bytes
                keys_by_epoch.setdefault(epoch.epoch, []).append((key, epoch.epoch))
                total = sums.setdefault(epoch.epoch, [0.0, 0.0])
                total[0] += epoch.network_bytes_sent
                total[1] += epoch.network_bytes_offered
        for shared in cluster.cluster_epochs:
            sent, offered = sums.get(shared.epoch, (0.0, 0.0))
            if not (
                _same(sent, shared.network_sent_bytes)
                and _same(offered, shared.network_offered_bytes)
            ):
                fail(
                    keys_by_epoch.get(shared.epoch, []),
                    f"{prefix}epoch {shared.epoch}: sources sent/offered {sent!r}/{offered!r} "
                    f"bytes, the link {shared.network_sent_bytes!r}/"
                    f"{shared.network_offered_bytes!r}",
                )
            block = link.setdefault(shared.epoch, [0.0, 0.0])
            block[0] += shared.network_sent_bytes
            block[1] += shared.network_capacity_bytes
    for index, (sent, capacity) in sorted(link.items()):
        if not _within(sent, capacity):
            fail(
                keys_by_epoch.get(index, []),
                f"epoch {index}: the link sent {sent!r} bytes of a {capacity!r}-byte capacity",
            )
    return len(bad), problems
