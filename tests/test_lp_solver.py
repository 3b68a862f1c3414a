"""Unit tests for the LP formulation of the data-level partitioning problem."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import pytest

from repro.config import AdaptationConfig
from repro.core.lp_solver import (
    cumulative_relay,
    plan_cpu_fraction,
    plan_drain_fraction,
    solve_data_level_lp,
)
from repro.core.profiler import OperatorProfile, PipelineProfile
from repro.errors import PartitioningError, SolverError


def make_profile(costs, relays, budget, records=1000.0):
    operators = [
        OperatorProfile(
            name=f"op{i}",
            cost_per_record=c,
            relay_ratio=r,
            records_observed=1000,
            trusted=True,
        )
        for i, (c, r) in enumerate(zip(costs, relays))
    ]
    return PipelineProfile(
        operators=operators,
        compute_budget=budget,
        records_per_epoch=records,
        epoch_duration_s=1.0,
    )


def s2s_like_profile(budget):
    """Costs/relays shaped like the paper's S2SProbe query at 1000 rec/s."""
    costs = [0.0, 0.13 / 1000.0, 0.80 / 860.0]
    relays = [1.0, 0.86, 0.30]
    return make_profile(costs, relays, budget)


class TestHelpers:
    def test_cumulative_relay(self):
        assert cumulative_relay([0.5, 0.5, 1.0]) == pytest.approx([1.0, 0.5, 0.25])

    def test_plan_cpu_fraction_full_load(self):
        profile = s2s_like_profile(1.0)
        cpu = plan_cpu_fraction([1.0, 1.0, 1.0], profile.costs, profile.relay_ratios, 1000.0)
        assert cpu == pytest.approx(0.93, rel=0.02)

    def test_plan_drain_fraction_zero_when_everything_local(self):
        assert plan_drain_fraction([1.0, 1.0, 1.0], [1.0, 0.86, 0.3]) == pytest.approx(0.0)

    def test_plan_drain_fraction_one_when_everything_drained(self):
        assert plan_drain_fraction([0.0, 0.0, 0.0], [1.0, 0.86, 0.3]) == pytest.approx(1.0)


class TestSolve:
    def test_generous_budget_keeps_everything_local(self):
        plan = solve_data_level_lp(s2s_like_profile(1.0))
        assert plan.load_factors == pytest.approx([1.0, 1.0, 1.0], abs=1e-6)
        assert plan.expected_drain_fraction == pytest.approx(0.0, abs=1e-6)

    def test_zero_budget_drains_everything(self):
        plan = solve_data_level_lp(s2s_like_profile(0.0))
        assert plan.solver == "zero"
        assert plan.expected_drain_fraction == pytest.approx(1.0)
        assert all(p == 0.0 for p in plan.load_factors)

    def test_constrained_budget_respects_cpu_constraint(self):
        profile = s2s_like_profile(0.6)
        plan = solve_data_level_lp(profile)
        assert plan.expected_cpu_fraction <= 0.6 + 1e-6
        # Cheap filter should run fully; the expensive G+R partially.
        assert plan.load_factors[1] == pytest.approx(1.0, abs=1e-6)
        assert 0.3 < plan.load_factors[2] < 0.9

    def test_partial_plan_beats_operator_level_on_drain(self):
        """Data-level plans drain strictly less than the best all-or-nothing plan."""
        profile = s2s_like_profile(0.6)
        plan = solve_data_level_lp(profile)
        # Operator-level best at 0.6 budget: run window+filter only.
        operator_level_drain = plan_drain_fraction([1.0, 1.0, 0.0], profile.relay_ratios)
        assert plan.expected_drain_fraction < operator_level_drain

    def test_monotone_effective_factors(self):
        plan = solve_data_level_lp(s2s_like_profile(0.45))
        effective = plan.effective_load_factors
        assert all(effective[i] >= effective[i + 1] - 1e-9 for i in range(len(effective) - 1))

    def test_drain_decreases_with_budget(self):
        drains = [
            solve_data_level_lp(s2s_like_profile(budget)).expected_drain_fraction
            for budget in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(drains[i] >= drains[i + 1] - 1e-9 for i in range(len(drains) - 1))

    def test_budget_override_argument(self):
        profile = s2s_like_profile(1.0)
        plan = solve_data_level_lp(profile, compute_budget=0.2)
        assert plan.expected_cpu_fraction <= 0.2 + 1e-6

    def test_empty_profile_rejected(self):
        with pytest.raises(SolverError):
            solve_data_level_lp(make_profile([], [], 1.0))

    def test_negative_costs_rejected_at_profile_construction(self):
        with pytest.raises(PartitioningError):
            make_profile([-1.0], [0.5], 1.0)

    def test_zero_cost_operators_get_full_load(self):
        plan = solve_data_level_lp(make_profile([0.0, 0.0], [1.0, 0.5], 0.5))
        assert plan.load_factors == pytest.approx([1.0, 1.0])

    def test_plan_len(self):
        assert len(solve_data_level_lp(s2s_like_profile(0.5))) == 3

    def test_tie_keeps_the_most_local_work(self):
        """The zero-cost, relay-1.0 window drains the same run or drained.

        ``[t, t, 0]`` and ``[1, t, 0]`` have the same objective at budget
        0.05; the tie rule keeps the lexicographically largest plan.
        """
        plan = solve_data_level_lp(s2s_like_profile(0.05))
        assert plan.solver == "lp"
        assert plan.effective_load_factors == pytest.approx([1.0, 0.05 / 0.13, 0.0], abs=1e-12)

    def test_infinite_budget_keeps_everything_local(self):
        plan = solve_data_level_lp(s2s_like_profile(math.inf))
        assert plan.solver == "lp"
        assert plan.load_factors == [1.0, 1.0, 1.0]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_cost_rejected(self, value):
        with pytest.raises(PartitioningError, match="cost_per_record"):
            make_profile([0.0, value], [1.0, 0.5], 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_relay_rejected(self, value):
        with pytest.raises(PartitioningError, match="relay_ratio"):
            make_profile([0.0, 1e-4], [1.0, value], 0.5)

    def test_nan_budget_rejected(self):
        with pytest.raises(SolverError, match="compute_budget"):
            solve_data_level_lp(s2s_like_profile(math.nan))
        with pytest.raises(SolverError, match="compute_budget"):
            solve_data_level_lp(s2s_like_profile(0.5), compute_budget=math.nan)

    @pytest.mark.parametrize("field", ["records_per_epoch", "epoch_duration_s"])
    def test_nan_epoch_shape_rejected(self, field):
        profile = s2s_like_profile(0.5)
        setattr(profile, field, math.nan)
        with pytest.raises(SolverError, match=field):
            solve_data_level_lp(profile)


def test_runtime_runs_without_scipy():
    """Every ``import scipy`` fails in the child; the LP and a Jarvis run still work."""
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import repro
        from repro.core.lp_solver import solve_data_level_lp
        from repro.core.profiler import OperatorProfile, PipelineProfile
        from repro.scenarios.setups import make_setup, run_single_source

        operators = [
            OperatorProfile(f"op{i}", c, r, 1000, True)
            for i, (c, r) in enumerate(zip([0.0, 0.13e-3, 0.80 / 860e3], [1.0, 0.86, 0.30]))
        ]
        plan = solve_data_level_lp(PipelineProfile(operators, 0.6, 1000.0))
        assert plan.solver == "lp", plan.solver
        setup = make_setup("s2s_probe", records_per_epoch=200)
        metrics = run_single_source(setup, "Jarvis", 0.6, num_epochs=3, warmup_epochs=0)
        assert len(metrics.epochs) == 3, len(metrics.epochs)
        loaded = [name for name, module in sys.modules.items() if module is not None]
        assert not [name for name in loaded if name.split(".")[0] == "scipy"]
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
