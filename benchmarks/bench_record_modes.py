"""Object vs batched vs arena record mode on the Figure 10 building block.

A thin assertion shim over ``configs/record_modes.toml`` and
``configs/record_modes_arena_gate.toml`` (see
``benchmarks/bench_fig10_scaling.py`` for the pattern); tune a run with
pytest ``--set SECTION.KEY=VALUE`` overrides.

The record-mode fast paths exist so the Fig. 10 simulated sweep can reach
hundreds of sources in CI time; these benchmarks pin down both halves of
that contract on the Fig. 10a configuration (10x input scaling, 55% CPU
budget, both of the figure's strategies):

* every mode produces *identical* goodput and latency metrics,
* batched mode is at least ``run.min_speedup``x faster than object mode at
  64 sources (measured ~10x for Best-OP's drain-heavy path, ~6-7x for
  Jarvis' adaptive source-side processing), and
* arena mode is at least ``run.arena_min_speedup``x faster than batched
  mode at 128 sources for Jarvis, whose source-side group aggregation is
  exactly the per-source Python work the arena vectorizes (measured
  ~4.5x).  Best-OP drains raw records to the SP at this budget, leaving
  batched mode no source-side loop to lose, so it rides along only in the
  identity assertions.

Set the corresponding floor to 0 to skip a wall-clock assertion on noisy
machines (``--set run.min_speedup=0`` / ``--set run.arena_min_speedup=0``).
"""

from __future__ import annotations

from repro.scenarios import ScenarioRunner, load_scenario

from .conftest import CONFIG_DIR, write_result


def _assert_identical_metrics(result) -> None:
    """Every timed mode reports the same goodput/latency/offered numbers."""
    modes = result.spec.resolved_record_modes()
    reference = modes[0]
    for strategy, entry in result.raw.items():
        for mode in modes[1:]:
            assert (
                entry[f"{reference}_goodput_mbps"] == entry[f"{mode}_goodput_mbps"]
            ), (strategy, mode)
            assert (
                entry[f"{reference}_median_latency_s"]
                == entry[f"{mode}_median_latency_s"]
            ), (strategy, mode)
            reference_offered = entry[
                "offered_mbps" if reference == "object"
                else f"{reference}_offered_mbps"
            ]
            assert reference_offered == entry[f"{mode}_offered_mbps"], (
                strategy,
                mode,
            )


def test_record_mode_speedup_and_equivalence(benchmark, scenario_overrides):
    spec = load_scenario(
        CONFIG_DIR / "record_modes.toml", overrides=scenario_overrides
    )
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result("record_modes", result.table, data=result.bench_payload())

    # Identical metrics: the fast paths are optimizations, never model changes.
    _assert_identical_metrics(result)

    # The fast path must stay fast: >= min_speedup on the Best-OP drain-heavy
    # configuration (measured ~10x; Jarvis' adaptive source-side processing
    # keeps more per-record work, measured ~6-7x, floored at min_speedup too).
    if spec.min_speedup > 0:
        for strategy, entry in result.raw.items():
            assert entry["speedup"] >= spec.min_speedup, (strategy, entry)


def test_arena_gate_speedup_and_equivalence(benchmark, scenario_overrides):
    spec = load_scenario(
        CONFIG_DIR / "record_modes_arena_gate.toml", overrides=scenario_overrides
    )
    result = benchmark.pedantic(
        ScenarioRunner().run, args=(spec,), rounds=1, iterations=1
    )
    write_result(
        "record_modes_arena_gate", result.table, data=result.bench_payload()
    )

    _assert_identical_metrics(result)

    # The fleet arena is the 128-source regression tripwire: whole-block
    # stepping plus columnar group folds must stay >= arena_min_speedup x
    # faster than per-source batched execution on the gated (source-side
    # heavy) strategies from the config's sweep.
    if spec.arena_min_speedup > 0:
        for strategy, entry in result.raw.items():
            assert entry["arena_speedup"] >= spec.arena_min_speedup, (
                strategy,
                entry,
            )
