"""Figure 3: coarse-grained operator-level vs fine-grained data-level partitioning.

Paper numbers (S2SProbe on a data source with an 80% CPU budget):
operator-level partitioning drains ~22.5 Mbps of the 26.2 Mbps input (86%)
while using only the filter's 13% of CPU; data-level partitioning drains
~9.4 Mbps (36%) while fully using the budget — a 2.4x network reduction.
"""

from __future__ import annotations

from repro.analysis.experiments import partitioning_mode_comparison
from repro.scenarios.setups import make_setup
from repro.analysis.reporting import format_table

from .conftest import write_result

BUDGET = 0.80
EPOCHS = 45
WARMUP = 15
RECORDS_PER_EPOCH = 800


def run_fig3():
    setup = make_setup("s2s_probe", records_per_epoch=RECORDS_PER_EPOCH)
    return setup, partitioning_mode_comparison(
        setup, budget=BUDGET, num_epochs=EPOCHS, warmup_epochs=WARMUP
    )


def test_fig3_partitioning_modes(benchmark):
    setup, results = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    rows = []
    for mode, summary in results.items():
        rows.append(
            [
                mode,
                summary["throughput_mbps"],
                summary["network_mbps"],
                summary["network_fraction_of_input"],
                summary["cpu_utilization"],
            ]
        )
    table = format_table(
        ["partitioning", "throughput_mbps", "network_mbps", "network/input", "cpu_util"],
        rows,
    )
    reduction = (
        results["operator-level"]["network_mbps"]
        / max(1e-9, results["data-level"]["network_mbps"])
    )
    table += (
        f"\n\nnetwork reduction of data-level over operator-level: {reduction:.2f}x"
        f" (paper: ~2.4x; 22.5 Mbps vs 9.4 Mbps at 80% CPU)"
    )
    write_result("fig3_partitioning_modes", table)

    assert results["data-level"]["network_mbps"] < results["operator-level"]["network_mbps"]
    assert reduction > 1.7
