"""Co-locating several monitoring queries on one stream processor.

The paper's stream processors are shared: Figure 11 co-locates ~20 query
instances on one node.  This example uses the co-located multi-query executor
to answer the two questions an operator faces when packing queries together:

* how is a query's throughput and latency affected by its neighbours'
  ``ingress_weight`` and ``sp_compute_share`` entitlements?
* how many instances of one query fit on a node before aggregate throughput
  saturates (the Figure 11 sweep, measured instead of extrapolated)?

Run with::

    python examples/multi_query_colocation.py
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.reporting import format_table
from repro.scenarios import ScenarioRunner, load_scenario
from repro.scenarios.setups import make_setup
from repro.baselines import AllSPStrategy, StaticLoadFactorStrategy
from repro.simulation import (
    CoLocatedBlockExecutor,
    QuerySpec,
    SourceSpec,
    StreamProcessorNode,
    homogeneous_sources,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def heterogeneous_colocation() -> None:
    """Two different queries share one SP node's link and compute.

    The probe query drains everything (All-SP) and is given twice the ingress
    weight; the log-analytics query processes locally (full load factors) and
    only ships partial state, so most of its link entitlement is idle — the
    work-conserving arbitration hands that surplus to the probe query.
    """
    probe = make_setup("s2s_probe", records_per_epoch=300)
    logs = make_setup("log_analytics", records_per_epoch=300)

    probe_sources = homogeneous_sources(
        3,
        workload_factory=lambda i: probe.workload_factory(10 + i),
        strategy_factory=lambda i: AllSPStrategy(),
        budget=1.0,
        name_prefix="probe-src",
    )
    log_sources = [
        SourceSpec(
            name=f"log-src-{i}",
            workload=logs.workload_factory(50 + i),
            strategy=StaticLoadFactorStrategy(
                [1.0] * len(logs.plan.operators), name=f"local-{i}"
            ),
            budget=1.0,
        )
        for i in range(2)
    ]
    executor = CoLocatedBlockExecutor(
        queries=[
            QuerySpec(
                name="s2s_probe",
                plan=probe.plan,
                cost_model=probe.cost_model,
                sources=probe_sources,
                sp_compute_share=0.6,
                ingress_weight=2.0,
                config=probe.config,
            ),
            QuerySpec(
                name="log_analytics",
                plan=logs.plan,
                cost_model=logs.cost_model,
                sources=log_sources,
                sp_compute_share=0.4,
                ingress_weight=1.0,
                config=logs.config,
            ),
        ],
        stream_processor=StreamProcessorNode(
            cores=8, ingress_bandwidth_mbps=1.5 * probe.input_rate_mbps
        ),
    )
    metrics = executor.run(30, warmup_epochs=8)
    assert executor.verify_record_conservation() == []

    rows = []
    for name, cluster in metrics.per_query.items():
        rows.append(
            [
                name,
                len(cluster.per_source),
                cluster.aggregate_offered_mbps(),
                cluster.aggregate_throughput_mbps(),
                f"{100 * cluster.network_utilization():.0f}%",
                cluster.median_latency_s(),
            ]
        )
    print("two queries co-located on one stream processor:")
    print(
        format_table(
            [
                "query",
                "sources",
                "offered (Mbps)",
                "goodput (Mbps)",
                "link-slice use",
                "med lat (s)",
            ],
            rows,
        )
    )
    print()


def figure11_sweep() -> None:
    """Figure 11 measured: co-located instances until the node saturates.

    Reuses the benchmark's scenario config (``configs/fig11_colocated.toml``)
    with one extra sweep point.
    """
    spec = load_scenario(
        CONFIG_DIR / "fig11_colocated.toml",
        overrides=["sweep.queries=1,2,3,4,5"],
    )
    rows_out = []
    for row in ScenarioRunner().run(spec).raw:
        rows_out.append(
            [
                int(row["queries"]),
                row["per_query_budget"],
                row["aggregate_throughput_mbps"],
                row["analytic_mbps"],
                f"{100 * row['ratio']:.1f}%",
                row["median_latency_s"],
            ]
        )
    print("co-located S2SProbe instances on a one-core source node (10x input):")
    print(
        format_table(
            [
                "queries",
                "budget/q",
                "measured agg (Mbps)",
                "analytic agg (Mbps)",
                "agreement",
                "med lat (s)",
            ],
            rows_out,
        )
    )
    print()
    print(
        "Aggregate throughput saturates once the per-query CPU demand exceeds"
        " the fair share of the node's cores; the measured path additionally"
        " shows the latency cost of contending for the shared ingress link."
    )


def main() -> None:
    heterogeneous_colocation()
    figure11_sweep()


if __name__ == "__main__":
    main()
