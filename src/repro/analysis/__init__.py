"""Experiment harness: canned runners for the single-block figures.

The functions in :mod:`repro.analysis.experiments` reproduce the experiments
behind Figures 3 and 7-9 (plus the inline claims of Sections VI-B/C);
:mod:`repro.analysis.reporting` formats results as the tables, series and
HTML reports printed by the benchmark harness.  The cluster-scale figures
(10 and 11) run through :mod:`repro.scenarios`.
"""

from .experiments import (
    throughput_sweep,
    convergence_run,
    partitioning_mode_comparison,
    synopsis_comparison,
    operator_count_convergence,
    adaptation_overhead,
)
from .reporting import format_table, series_table, summarize_sweep

__all__ = [
    "throughput_sweep",
    "convergence_run",
    "partitioning_mode_comparison",
    "synopsis_comparison",
    "operator_count_convergence",
    "adaptation_overhead",
    "format_table",
    "series_table",
    "summarize_sweep",
]
