"""Model-based step of StepWise-Adapt: the linear program of Eq. 3.

The data-level partitioning problem (Eq. 2 in the paper) minimizes the number
of drained records subject to the compute budget.  It is non-convex in the
per-proxy load factors ``p_i``, but the change of variables

    e_i = Π_{j<=i} p_j        (the *effective* load factor of proxy i)

turns it into a linear program (Eq. 3):

    minimize    Σ_i  R_{i-1} (e_{i-1} - e_i)
    subject to  Σ_i  R_{i-1} c_i e_i  <=  C / N_r
                0 <= e_i <= e_{i-1},   e_0 = 1

where ``R_{i-1} = Π_{j<i} r_j`` is the cumulative relay ratio, ``c_i`` the
per-record cost of operator ``i``, ``C`` the compute budget, and ``N_r`` the
number of records entering the query in an epoch.

This module solves the LP in closed form.  Substitute the level drops
``d_k = e_k - e_{k+1}`` (``k = 0..n``, with ``e_0 = 1`` and ``e_{n+1} = 0``).
The chain constraints become ``d_k >= 0`` with ``Σ_k d_k = 1``, a simplex
whose vertex ``k`` runs operators ``1..k`` on every record and drains the
rest.  Writing ``A_k = Σ_{i<=k} R_{i-1} c_i`` for the per-record cost of that
vertex, the budget is one more row, ``Σ_k A_k d_k <= b`` with ``b = C / N_r``.
A simplex cut by one row has vertices with at most two nonzero ``d_k``, so
some optimal ``e`` takes at most two levels besides 0: ``e = 1`` on operators
``<= j``, ``e = t`` on ``j < i <= k`` and ``e = 0`` after.  The candidates
are

* the all-drain vector;
* for each ``k``, ``e = t`` on operators ``<= k`` with ``t = min(1, b / A_k)``;
* for each ``j < k`` with ``A_j <= b < A_k``, ``e = 1`` on operators
  ``<= j`` and ``t = (b - A_j) / (A_k - A_j)`` on the rest up to ``k``.

That is O(n²) vectors for ``n`` operators, and the solver keeps the one with
the smallest drain.  Ties are real: a zero-cost operator with relay ratio 1
drains the same whether it runs or not.  Among candidates whose drain equals
the best up to rounding (``1e-12`` relative), the lexicographically largest
``e`` wins, i.e. the plan that does the most work locally, earliest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import SolverError
from .control_proxy import load_factors_from_effective
from .profiler import PipelineProfile

#: Relative drain difference below which two candidate plans are tied.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class DataLevelPlan:
    """A data-level partitioning plan: the optimal vertex of Eq. 3.

    Attributes:
        load_factors: Per-proxy load factors ``p_i``.
        effective_load_factors: Effective factors ``e_i = Π p_j``.
        expected_cpu_fraction: Predicted CPU utilisation of the plan, as a
            fraction of the budget-providing core (uses the model's costs).
        expected_drain_fraction: Predicted fraction of input records drained.
        solver: ``"lp"`` for a solved plan, ``"zero"`` when there was no
            compute budget and the plan drains everything.
    """

    load_factors: List[float]
    effective_load_factors: List[float]
    expected_cpu_fraction: float
    expected_drain_fraction: float
    solver: str = "lp"

    def __len__(self) -> int:
        return len(self.load_factors)


def cumulative_relay(relay_ratios: Sequence[float]) -> List[float]:
    """Return ``R_i = Π_{j<=i} r_j`` with ``R_{-1}`` implied as 1.

    ``cumulative_relay(r)[i-1]`` is the paper's ``R_{i-1}`` for operator ``i``
    (1-indexed): the fraction of input data that survives to the input of
    operator ``i`` when all upstream operators run at full load.
    """
    result: List[float] = []
    running = 1.0
    for r in relay_ratios:
        result.append(running)
        running *= r
    return result


def plan_cpu_fraction(
    effective: Sequence[float],
    costs: Sequence[float],
    relay_ratios: Sequence[float],
    records_per_epoch: float,
    epoch_duration_s: float = 1.0,
) -> float:
    """CPU fraction consumed by a plan according to the cost model.

    Operator ``i`` processes ``N_r * R_{i-1} * e_i`` records at cost ``c_i``
    each.
    """
    upstream = cumulative_relay(relay_ratios)
    total = 0.0
    for e_i, c_i, r_up in zip(effective, costs, upstream):
        total += records_per_epoch * r_up * e_i * c_i
    return total / max(epoch_duration_s, 1e-12)


def plan_drain_fraction(
    effective: Sequence[float], relay_ratios: Sequence[float]
) -> float:
    """Fraction of input records drained under a plan (the Eq. 3 objective)."""
    upstream = cumulative_relay(relay_ratios)
    drained = 0.0
    previous = 1.0
    for e_i, r_up in zip(effective, upstream):
        drained += r_up * (previous - e_i)
        previous = e_i
    return drained


def solve_data_level_lp(
    profile: PipelineProfile,
    compute_budget: Optional[float] = None,
) -> DataLevelPlan:
    """Solve Eq. 3 for the given pipeline profile.

    Args:
        profile: Profiled operator costs/relay ratios, records per epoch, and
            the available compute budget.
        compute_budget: Optional override for the budget (fraction of a core).
            An infinite budget is legal and keeps every operator local.

    Returns:
        The optimal :class:`DataLevelPlan` (``solver="lp"``), picked by the
        tie rule of the module docstring, or the all-drain plan
        (``solver="zero"``) when there is no budget.

    Raises:
        SolverError: If the profile is empty, or the budget, records per
            epoch or epoch duration is NaN.
    """
    costs = profile.costs
    relays = profile.relay_ratios
    n_ops = len(costs)
    if n_ops == 0:
        raise SolverError("cannot partition an empty pipeline")
    budget = profile.compute_budget if compute_budget is None else compute_budget
    for name, value in (
        ("compute_budget", budget),
        ("records_per_epoch", profile.records_per_epoch),
        ("epoch_duration_s", profile.epoch_duration_s),
    ):
        if math.isnan(value):
            raise SolverError(f"{name} must not be NaN")

    budget = max(0.0, float(budget))
    records = max(profile.records_per_epoch, 1e-9)
    epoch = max(profile.epoch_duration_s, 1e-9)
    # Per-record budget (the paper's C / N_r), in core-seconds per record.
    per_record_budget = budget * epoch / records

    # A per-record budget of at most a femto-core-second is no budget: the
    # plan drains every record.
    if per_record_budget <= 1e-15:
        return _plan_from_effective([0.0] * n_ops, costs, relays, records, epoch, "zero")
    effective = _optimal_effective(costs, relays, per_record_budget)
    return _plan_from_effective(effective, costs, relays, records, epoch, "lp")


def _optimal_effective(
    costs: Sequence[float], relays: Sequence[float], budget: float
) -> List[float]:
    """The optimal ``e`` of Eq. 3 by vertex enumeration (module docstring)."""
    n_ops = len(costs)
    # spent[k] is A_k: the per-record cost of running operators 1..k.
    spent = [0.0]
    for upstream, cost in zip(cumulative_relay(relays), costs):
        spent.append(spent[-1] + upstream * cost)
    candidates = [[0.0] * n_ops]
    for k in range(1, n_ops + 1):
        drained = [0.0] * (n_ops - k)
        if spent[k] <= budget:
            candidates.append([1.0] * k + drained)
            continue
        candidates.append([budget / spent[k]] * k + drained)
        for j in range(1, k):
            if spent[j] <= budget:
                level = (budget - spent[j]) / (spent[k] - spent[j])
                candidates.append([1.0] * j + [level] * (k - j) + drained)
    scored = [(plan_drain_fraction(e, relays), e) for e in candidates]
    best = min(drain for drain, _ in scored)
    return max(e for drain, e in scored if drain - best <= _TIE_RTOL * best)


def _plan_from_effective(
    effective: List[float],
    costs: Sequence[float],
    relays: Sequence[float],
    records: float,
    epoch: float,
    solver: str,
) -> DataLevelPlan:
    cpu = plan_cpu_fraction(effective, costs, relays, records, epoch)
    drain = plan_drain_fraction(effective, relays)
    if math.isnan(cpu) or math.isnan(drain):
        raise SolverError("plan evaluation produced NaN")
    return DataLevelPlan(
        load_factors=load_factors_from_effective(effective),
        effective_load_factors=effective,
        expected_cpu_fraction=cpu,
        expected_drain_fraction=drain,
        solver=solver,
    )
