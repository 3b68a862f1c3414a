"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.control_proxy import (
    ControlProxy,
    effective_load_factors,
    load_factors_from_effective,
)
from repro.core.lp_solver import (
    cumulative_relay,
    plan_cpu_fraction,
    plan_drain_fraction,
    solve_data_level_lp,
)
from repro.core.partitioner import boundary_to_load_factors, operator_level_boundary
from repro.core.profiler import OperatorProfile, PipelineProfile
from repro.core.state import OperatorState, QueryState, classify_query_state
from repro.query.aggregates import AvgAggregate, MaxAggregate, MinAggregate, SumAggregate
from repro.simulation.network import NetworkLink


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

load_factors_st = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)

relays_st = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False), min_size=1, max_size=5
)

costs_st = st.lists(
    st.floats(min_value=0.0, max_value=1e-3, allow_nan=False), min_size=1, max_size=5
)

values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


def make_profile(costs, relays, budget):
    n = min(len(costs), len(relays))
    operators = [
        OperatorProfile(f"op{i}", costs[i], relays[i], 1000, True) for i in range(n)
    ]
    return PipelineProfile(operators, compute_budget=budget, records_per_epoch=1000.0)


def non_negative_st(max_value):
    """Finite floats in ``[0, max_value]``, with 0 and 1 drawn often."""
    return st.sampled_from([0.0, min(1.0, max_value)]) | st.floats(
        min_value=0.0, max_value=max_value
    )


@st.composite
def exact_tie_profiles(draw):
    """Eq. 3 instances that hit the LP's ties: zero-cost operators, relay
    ratios of exactly 1.0, and budgets at some ``A_k`` (the per-record cost
    of running operators ``1..k``).  Costs and relays stay well inside the
    range where HiGHS' feasibility tolerance cannot shift its vertex.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    costs = draw(st.lists(
        st.just(0.0) | st.floats(min_value=1e-5, max_value=1e-3), min_size=n, max_size=n
    ))
    relays = draw(st.lists(
        st.just(1.0) | st.floats(min_value=0.1, max_value=1.0), min_size=n, max_size=n
    ))
    spent = [0.0]
    for upstream, cost in zip(cumulative_relay(relays), costs):
        spent.append(spent[-1] + upstream * cost)
    budget = draw(
        st.sampled_from(spent[1:]) | st.floats(min_value=0.0, max_value=1.5 * spent[-1])
    )
    return costs, relays, budget


def per_record_profile(costs, relays, budget):
    """A profile whose ``compute_budget`` is the per-record budget ``C / N_r``."""
    operators = [
        OperatorProfile(f"op{i}", c, r, 1000, True) for i, (c, r) in enumerate(zip(costs, relays))
    ]
    return PipelineProfile(operators, compute_budget=budget, records_per_epoch=1.0)


@pytest.fixture(scope="module")
def highs():
    return pytest.importorskip("scipy.optimize").linprog


def highs_effective(linprog, costs, relays, budget):
    """Eq. 3 solved by scipy's HiGHS, the budget row scaled to ``<= 1``."""
    n = len(costs)
    if budget <= 1e-15:
        return [0.0] * n
    upstream = cumulative_relay(relays)
    objective = [upstream[i + 1] - upstream[i] for i in range(n - 1)] + [-upstream[-1]]
    rows = [[upstream[i] * costs[i] / budget for i in range(n)]]
    for i in range(1, n):
        rows.append([1.0 if j == i else -1.0 if j == i - 1 else 0.0 for j in range(n)])
    result = linprog(
        objective,
        A_ub=rows,
        b_ub=[1.0] + [0.0] * (n - 1),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.success, result.message
    return [float(e) for e in result.x]


# ---------------------------------------------------------------------------
# Load factor algebra
# ---------------------------------------------------------------------------


class TestLoadFactorProperties:
    @given(load_factors_st)
    def test_effective_factors_are_monotone_and_bounded(self, factors):
        effective = effective_load_factors(factors)
        assert all(0.0 <= e <= 1.0 for e in effective)
        assert all(effective[i] >= effective[i + 1] for i in range(len(effective) - 1))

    @given(load_factors_st)
    def test_effective_round_trip(self, factors):
        effective = effective_load_factors(factors)
        recovered = load_factors_from_effective(effective)
        # Where the effective factor upstream is zero, the original p is lost
        # (anything times zero is zero); compare the effective vectors instead.
        assert effective_load_factors(recovered) == [
            0.0 if e < 1e-12 else e for e in effective
        ] or all(
            math.isclose(a, b, abs_tol=1e-9)
            for a, b in zip(effective_load_factors(recovered), effective)
        )

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=100),
           st.floats(min_value=0.0, max_value=1.0))
    def test_proxy_routing_conserves_records(self, values, load_factor):
        proxy = ControlProxy("op", load_factor=load_factor)
        forwarded, drained = proxy.route(values)
        assert len(forwarded) + len(drained) == len(values)
        assert forwarded + drained == values


# ---------------------------------------------------------------------------
# LP solver invariants
# ---------------------------------------------------------------------------


class TestLPSolverProperties:
    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_plans_are_feasible_and_monotone(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        plan = solve_data_level_lp(profile)
        assert len(plan.load_factors) == n
        assert all(0.0 <= p <= 1.0 for p in plan.load_factors)
        effective = plan.effective_load_factors
        assert all(effective[i] >= effective[i + 1] - 1e-6 for i in range(n - 1))
        # The plan never exceeds the budget it was given (up to rounding).
        assert plan.expected_cpu_fraction <= budget * (1.0 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_drain_fraction_within_bounds(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        plan = solve_data_level_lp(profile)
        assert -1e-9 <= plan.expected_drain_fraction <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(costs_st, relays_st,
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    def test_more_budget_never_increases_drain(self, costs, relays, b1, b2):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        low, high = sorted((b1, b2))
        drain_low = solve_data_level_lp(make_profile(costs[:n], relays[:n], low)).expected_drain_fraction
        drain_high = solve_data_level_lp(make_profile(costs[:n], relays[:n], high)).expected_drain_fraction
        assert drain_high <= drain_low + 1e-6

    @settings(max_examples=200, deadline=None)
    @given(exact_tie_profiles())
    def test_closed_form_matches_highs(self, highs, case):
        """HiGHS is the reference: same objective, same vertex up to ties.

        Where HiGHS returns another optimal vertex (a tie), the closed form
        must return the lexicographically larger one: its tie rule.  The
        objective is compared relative to its scale (a drain fraction of at
        most 1): where the drain is ``1 - t`` for ``t`` near 1, HiGHS' own
        rounding of ``t`` is a few ulps of 1, not of the drain.
        """
        costs, relays, budget = case
        plan = solve_data_level_lp(per_record_profile(costs, relays, budget))
        reference = highs_effective(highs, costs, relays, budget)
        ours = plan.effective_load_factors
        reference_drain = plan_drain_fraction(reference, relays)
        assert math.isclose(
            plan.expected_drain_fraction, reference_drain, rel_tol=1e-12, abs_tol=1e-12
        )
        first_difference = next(
            (a - b for a, b in zip(ours, reference) if abs(a - b) > 1e-12), 0.0
        )
        assert first_difference >= 0.0, (ours, reference)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(non_negative_st(1.0), min_size=1, max_size=6),
        st.lists(non_negative_st(2.0), min_size=1, max_size=6),
        non_negative_st(1e3),
    )
    def test_solve_has_no_failure_mode_on_finite_input(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        plan = solve_data_level_lp(make_profile(costs[:n], relays[:n], budget))
        assert plan.solver in ("lp", "zero")
        effective = plan.effective_load_factors
        assert all(0.0 <= e <= 1.0 for e in effective)
        assert all(effective[i] >= effective[i + 1] for i in range(n - 1))
        assert plan.expected_cpu_fraction <= budget * (1.0 + 1e-12)

    @given(relays_st)
    def test_cumulative_relay_is_non_increasing(self, relays):
        cumulative = cumulative_relay(relays)
        assert all(cumulative[i] >= cumulative[i + 1] - 1e-12 for i in range(len(cumulative) - 1))
        assert cumulative[0] == 1.0


# ---------------------------------------------------------------------------
# Operator-level partitioning invariants
# ---------------------------------------------------------------------------


class TestPartitionerProperties:
    @settings(max_examples=40, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.0, max_value=2.0))
    def test_boundary_prefix_always_fits_budget(self, costs, relays, budget):
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        boundary = operator_level_boundary(profile)
        assert 0 <= boundary <= n
        factors = boundary_to_load_factors(boundary, n)
        effective = effective_load_factors(factors)
        cpu = plan_cpu_fraction(effective, profile.costs, profile.relay_ratios, 1000.0)
        assert cpu <= budget + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(costs_st, relays_st, st.floats(min_value=0.05, max_value=1.0))
    def test_data_level_plan_never_drains_more_than_operator_level(self, costs, relays, budget):
        """Data-level partitioning dominates operator-level partitioning."""
        n = min(len(costs), len(relays))
        assume(n >= 1)
        profile = make_profile(costs[:n], relays[:n], budget)
        boundary = operator_level_boundary(profile)
        op_level = plan_drain_fraction(
            effective_load_factors(boundary_to_load_factors(boundary, n)),
            profile.relay_ratios,
        )
        data_level = solve_data_level_lp(profile).expected_drain_fraction
        assert data_level <= op_level + 1e-6


# ---------------------------------------------------------------------------
# Aggregates: merge == union
# ---------------------------------------------------------------------------


class TestAggregateProperties:
    @settings(max_examples=60, deadline=None)
    @given(values_st, st.integers(min_value=0, max_value=59))
    def test_merge_equals_union_for_all_basic_aggregates(self, values, split_at):
        split = min(split_at, len(values))
        left, right = values[:split], values[split:]
        for agg_cls in (SumAggregate, AvgAggregate, MinAggregate, MaxAggregate):
            agg = agg_cls("x")
            state_l = agg.create()
            for v in left:
                state_l = agg.add(state_l, v)
            state_r = agg.create()
            for v in right:
                state_r = agg.add(state_r, v)
            merged = agg.merge(state_l, state_r)
            whole = agg.create()
            for v in values:
                whole = agg.add(whole, v)
            a, b = agg.result(merged), agg.result(whole)
            if math.isnan(a) or math.isnan(b):
                assert math.isnan(a) and math.isnan(b)
            else:
                assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


# ---------------------------------------------------------------------------
# Query-state classification and network conservation
# ---------------------------------------------------------------------------


class TestMiscProperties:
    @given(st.lists(st.sampled_from(list(OperatorState)), min_size=1, max_size=8))
    def test_classification_matches_paper_rule(self, states):
        result = classify_query_state(states)
        if any(s is OperatorState.CONGESTED for s in states):
            assert result is QueryState.CONGESTED
        elif all(s is OperatorState.IDLE for s in states):
            assert result is QueryState.IDLE
        else:
            assert result is QueryState.STABLE

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_network_link_conserves_bytes(self, offers, bandwidth):
        link = NetworkLink(bandwidth_mbps=bandwidth)
        total_sent = 0.0
        for offered in offers:
            link.offer(offered)
            total_sent += link.transmit_epoch().sent_bytes
        assert total_sent + link.queued_bytes == (
            sum(offers)
        ) or math.isclose(total_sent + link.queued_bytes, sum(offers), rel_tol=1e-9)
        assert link.queued_bytes >= 0.0
