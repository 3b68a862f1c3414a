"""Declarative scenario harness: specs, loader, runner, and CLI.

This package owns everything between "a figure-style experiment described as
data" and "metrics out of the simulators", and is the only way to run the
cluster-scale experiments:

* :mod:`~repro.scenarios.spec` — frozen, validated dataclasses describing a
  scenario (workload, fleet, tiling, migration, sweep axes, run knobs), and
  the fields each kind reads (a field the kind does not read is an error);
* :mod:`~repro.scenarios.loader` — TOML/dict loading with strict unknown-key
  checking and ``--set section.key=value`` overrides;
* :mod:`~repro.scenarios.setups` — query setups, strategy factories, and
  fleet construction shared by every run;
* :mod:`~repro.scenarios.runner` — one table entry per scenario kind (run,
  tabulate, payload) and the
  :class:`~repro.scenarios.runner.ScenarioRunner` that runs a spec through
  its kind's entry and renders tables/reports;
* :mod:`~repro.scenarios.cli` — ``python -m repro.scenarios CONFIG --set
  ...``.

Values arrive only through a config file and ``--set`` overrides; nothing
here reads the process environment (simlint SL009).

Layering rule (checked by the import graph, not convention): nothing in this
package imports :mod:`repro.analysis` at module scope — analysis sits *above*
the harness.
"""

from .loader import apply_overrides, load_scenario, parse_override, spec_from_dict
from .runner import ScenarioResult, ScenarioRunner
from .spec import (
    FleetSpec,
    HotspotSpec,
    MigrationSpec,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
)

__all__ = [
    "FleetSpec",
    "HotspotSpec",
    "MigrationSpec",
    "ScenarioResult",
    "ScenarioRunner",
    "ScenarioSpec",
    "SweepSpec",
    "TilingSpec",
    "WorkloadSpec",
    "apply_overrides",
    "load_scenario",
    "parse_override",
    "spec_from_dict",
]
