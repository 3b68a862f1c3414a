"""Figure 7: query throughput over varying CPU budgets (a: S2SProbe,
b: T2TProbe, c: LogAnalytics) for all six partitioning strategies.

Paper shape: All-SP is flat and network-bound; All-Src collapses at low
budgets; Filter-Src stays network-bound; Best-OP improves in operator-sized
steps; LB-DP tracks Jarvis but ships more raw data; Jarvis wins or ties across
the constrained-budget range (gains of 1.2-4.4x over the baselines).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import throughput_sweep
from repro.scenarios.setups import make_setup
from repro.analysis.reporting import series_table, summarize_sweep

from .conftest import write_result

BUDGETS = (0.2, 0.4, 0.6, 0.8, 1.0)
STRATEGIES = ("All-Src", "All-SP", "Filter-Src", "Best-OP", "LB-DP", "Jarvis")
EPOCHS = 40
WARMUP = 12
RECORDS_PER_EPOCH = 600


def run_sweep(query_name):
    setup = make_setup(query_name, records_per_epoch=RECORDS_PER_EPOCH)
    sweep = throughput_sweep(
        setup=setup,
        budgets=BUDGETS,
        strategies=STRATEGIES,
        num_epochs=EPOCHS,
        warmup_epochs=WARMUP,
    )
    return setup, sweep


def _emit(name, setup, sweep):
    tput = summarize_sweep(sweep, "throughput_mbps")
    net = summarize_sweep(sweep, "network_mbps")
    table = (
        f"offered input per source: {setup.input_rate_mbps:.3f} Mbps, "
        f"uplink: {setup.bandwidth_mbps:.3f} Mbps\n\n"
        "throughput (Mbps) vs CPU budget\n"
        + series_table(tput, x_label="cpu_budget")
        + "\n\nnetwork traffic (Mbps) vs CPU budget\n"
        + series_table(net, x_label="cpu_budget")
    )
    write_result(name, table)
    return tput


@pytest.mark.parametrize(
    "query_name,figure",
    [
        ("s2s_probe", "fig7a_s2sprobe"),
        ("t2t_probe", "fig7b_t2tprobe"),
        ("log_analytics", "fig7c_loganalytics"),
    ],
)
def test_fig7_throughput(benchmark, query_name, figure):
    setup, sweep = benchmark.pedantic(run_sweep, args=(query_name,), rounds=1, iterations=1)
    tput = _emit(figure, setup, sweep)

    # Shape assertions: Jarvis never loses to All-Src, and wins clearly in the
    # constrained-budget regime the paper highlights.
    for budget in BUDGETS:
        assert tput["Jarvis"][budget] >= 0.95 * tput["All-Src"][budget]
    constrained = 0.4
    assert tput["Jarvis"][constrained] >= tput["All-Src"][constrained]
    assert tput["Jarvis"][constrained] >= 0.95 * tput["Best-OP"][constrained]
