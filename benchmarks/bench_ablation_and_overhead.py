"""Section VI-B/VI-C inline claims: adaptation overhead and the operator-count
convergence study, plus an ablation of the StepWise-Adapt design choices.

* Overhead: Jarvis spends less than 1% of a single core in its Profile and
  Adapt phases (Section VI-B).
* Operator-count study: the pure model-agnostic search needs up to ~21 epochs
  to converge in the worst case with four operators (Section VI-C), which is
  why the LP initialisation is a valuable part of the design.
* Ablation: LP-only and w/o-LP-init are compared against full Jarvis on the
  same resource-change scenario (the design choices DESIGN.md calls out).
"""

from __future__ import annotations

from repro.analysis.experiments import (
    adaptation_overhead,
    convergence_run,
    operator_count_convergence,
)
from repro.analysis.reporting import format_table
from repro.scenarios.setups import make_setup
from repro.simulation.node import BudgetSchedule

from .conftest import write_result


def run_overhead():
    return adaptation_overhead(num_epochs=30, records_per_epoch=600)


def test_adaptation_overhead(benchmark):
    overhead = benchmark.pedantic(run_overhead, rounds=1, iterations=1)
    table = format_table(
        ["adaptation_seconds", "wall_clock_seconds", "core_fraction"],
        [[overhead["adaptation_seconds"], overhead["wall_clock_seconds"], overhead["core_fraction"]]],
        precision=6,
    )
    table += "\n\npaper: Jarvis consumes less than 1% of a single core during Profile/Adapt"
    write_result("overhead_adaptation", table)
    assert overhead["core_fraction"] < 0.01


def run_operator_count():
    return operator_count_convergence(operator_counts=(2, 3, 4, 5), samples_per_count=80)


def test_operator_count_convergence(benchmark):
    results = benchmark.pedantic(run_operator_count, rounds=1, iterations=1)
    rows = [
        [count, data["mean_iterations"], data["max_iterations"], data["samples"]]
        for count, data in sorted(results.items())
    ]
    table = format_table(
        ["operators", "mean epochs to converge", "worst case", "configs"], rows
    )
    table += "\n\npaper: worst-case convergence of the model-agnostic search reaches ~21 epochs at 4 operators"
    write_result("vic_operator_count_convergence", table)
    counts = sorted(results)
    assert results[counts[-1]]["max_iterations"] >= results[counts[0]]["max_iterations"]


def run_ablation():
    setup = make_setup("s2s_probe", records_per_epoch=600)
    schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.55)])
    return convergence_run(
        setup=setup,
        strategies=("Jarvis", "LP only", "w/o LP-init"),
        schedule=schedule,
        num_epochs=34,
    )


def test_stepwise_adapt_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = []
    for strategy, data in results.items():
        convergence = data["convergence_epochs"]
        summary = data["summary"]
        rows.append(
            [
                strategy,
                convergence.get(3) if convergence.get(3) is not None else "never",
                convergence.get(18) if convergence.get(18) is not None else "never",
                summary["throughput_mbps"],
                summary["network_mbps"],
            ]
        )
    table = format_table(
        ["variant", "conv after +80%", "conv after -35%", "throughput_mbps", "network_mbps"],
        rows,
    )
    write_result("ablation_stepwise_adapt", table)
    assert results["Jarvis"]["convergence_epochs"][3] is not None
