"""Quickstart: define a monitoring query, run it under Jarvis, inspect results.

This walks through the library's three layers in ~60 lines:

1. declare a monitoring query with the fluent ``Stream`` builder,
2. generate a synthetic Pingmesh workload for one data source,
3. execute the query with the Jarvis partitioning strategy on the epoch
   simulator and print throughput / network / adaptation statistics.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import Stream, JarvisConfig
from repro.analysis.reporting import format_table
from repro.scenarios.setups import make_setup, run_single_source


def build_custom_query():
    """The paper's S2SProbe query (Listing 1), written out explicitly."""
    return (
        Stream("my_s2s_probe")
        .window(10.0)                                   # 10-second tumbling windows
        .filter(lambda e: e.err_code == 0)              # drop failed probes
        .group_apply(lambda e: (e.src_ip, e.dst_ip))    # group by server pair
        .aggregate("avg:rtt", "max:rtt", "min:rtt")     # RTT statistics per pair
        .build()
    )


def main() -> None:
    query = build_custom_query()
    print("query pipeline:", " -> ".join(query.operator_names()))

    plan = query.logical_plan().physical_plan()
    print(plan.describe())
    print()

    # A ready-made setup bundles the query, a calibrated cost model, the
    # synthetic Pingmesh workload, and the paper's network configuration.
    setup = make_setup("s2s_probe", records_per_epoch=600)
    print(
        f"one data source offers {setup.input_rate_mbps:.3f} Mbps of probe records; "
        f"its uplink share is {setup.bandwidth_mbps:.3f} Mbps"
    )

    rows = []
    for budget in (0.2, 0.6, 1.0):
        metrics = run_single_source(
            setup, "Jarvis", budget, num_epochs=40, warmup_epochs=12
        )
        summary = metrics.summary()
        rows.append(
            [
                f"{int(budget * 100)}%",
                summary["throughput_mbps"],
                summary["network_mbps"],
                summary["cpu_utilization"],
                summary["median_latency_s"],
            ]
        )
    print()
    print("Jarvis on a single data source, varying the CPU budget:")
    print(
        format_table(
            ["CPU budget", "throughput (Mbps)", "network (Mbps)", "CPU used", "median latency (s)"],
            rows,
        )
    )
    print()
    print(
        "More compute at the source lets Jarvis process a larger share of each"
        " operator's records locally, cutting the data drained to the stream"
        " processor without losing any accuracy."
    )


if __name__ == "__main__":
    main()
