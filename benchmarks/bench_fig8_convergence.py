"""Figure 8: convergence analysis after resource-condition changes.

Paper shape (epoch duration = 1 s, three epochs needed to detect a change):

* S2SProbe (Fig. 8a): budget 10% -> 90% at epoch 3, 90% -> 60% at epoch 18.
  Jarvis stabilizes within 1-2 epochs of each change thanks to the LP
  initialisation; the pure model-agnostic search (w/o LP-init) needs 4-6.
* T2TProbe (Fig. 8b): budget 10% -> 100% at epoch 3, then the join table grows
  10x causing congestion.  Inaccurate profiling of the expensive join keeps
  "LP only" from stabilizing; Jarvis needs its fine-tuning step.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    convergence_run,
    reset_jarvis_plan,
    swap_join_table,
)
from repro.analysis.reporting import format_table
from repro.query.records import IpToTorTable
from repro.scenarios.setups import make_setup
from repro.simulation.node import BudgetSchedule

from .conftest import write_result

STRATEGIES = ("Jarvis", "LP only", "w/o LP-init")
RECORDS_PER_EPOCH = 600


def _format(results, change_epochs):
    rows = []
    for strategy, data in results.items():
        convergence = data["convergence_epochs"]
        rows.append(
            [strategy]
            + [
                convergence.get(change) if convergence.get(change) is not None else "never"
                for change in change_epochs
            ]
        )
    table = format_table(
        ["strategy"] + [f"epochs after change@{c}" for c in change_epochs], rows
    )
    timelines = "\n".join(
        f"{strategy:12s} states: {' '.join(s[:4] if s else '----' for s in data['states'])}"
        for strategy, data in results.items()
    )
    return table + "\n\nper-epoch query states:\n" + timelines


def run_fig8a():
    setup = make_setup("s2s_probe", records_per_epoch=RECORDS_PER_EPOCH)
    schedule = BudgetSchedule([(0, 0.10), (3, 0.90), (18, 0.60)])
    return convergence_run(
        setup=setup, strategies=STRATEGIES, schedule=schedule, num_epochs=32
    )


def test_fig8a_s2sprobe_convergence(benchmark):
    results = benchmark.pedantic(run_fig8a, rounds=1, iterations=1)
    write_result("fig8a_s2sprobe_convergence", _format(results, [3, 18]))
    jarvis = results["Jarvis"]["convergence_epochs"]
    no_lp = results["w/o LP-init"]["convergence_epochs"]
    assert jarvis[3] is not None
    assert no_lp[3] is None or jarvis[3] <= no_lp[3]


def run_fig8b():
    setup = make_setup("t2t_probe", records_per_epoch=RECORDS_PER_EPOCH, table_size=500)
    schedule = BudgetSchedule([(0, 0.10), (3, 1.00)])
    big_table = IpToTorTable.dense(5000)
    events = {
        12: swap_join_table(big_table),
        22: reset_jarvis_plan(),
    }
    return convergence_run(
        setup=setup,
        strategies=STRATEGIES,
        schedule=schedule,
        num_epochs=32,
        events=events,
    )


def test_fig8b_t2tprobe_convergence(benchmark):
    results = benchmark.pedantic(run_fig8b, rounds=1, iterations=1)
    write_result("fig8b_t2tprobe_convergence", _format(results, [3, 12]))
    jarvis = results["Jarvis"]["convergence_epochs"]
    assert jarvis[3] is not None


def run_fig8c():
    setup = make_setup("log_analytics", records_per_epoch=RECORDS_PER_EPOCH)
    schedule = BudgetSchedule([(0, 0.05), (3, 0.60), (16, 0.20)])
    return convergence_run(
        setup=setup, strategies=STRATEGIES, schedule=schedule, num_epochs=28
    )


def test_fig8c_loganalytics_convergence(benchmark):
    results = benchmark.pedantic(run_fig8c, rounds=1, iterations=1)
    write_result("fig8c_loganalytics_convergence", _format(results, [3, 16]))
    assert results["Jarvis"]["convergence_epochs"][3] is not None
