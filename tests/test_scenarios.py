"""Tests for the declarative scenario harness (``repro.scenarios``).

Three layers are covered:

* **spec/loader** — dataclass validation, dict/TOML loading with strict
  unknown-key checking, and ``--set`` override parsing and deep-merge;
* **equivalence** — fixed-seed results must match the golden numbers bit
  for bit.  ``tests/data/scenario_golden.json`` pins what every scenario kind
  produced when the declarative harness was introduced; each key is checked
  through a dict-config run of :class:`ScenarioRunner`;
* **reporting** — the text-table helpers (including the ``ratio(0, 0)`` and
  ``series_table`` ordering fixes) and the self-contained HTML report, with
  golden files for the BENCH JSON and REPORT HTML artifacts.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from repro.analysis.reporting import (
    flatten_rows,
    format_table,
    ratio,
    render_chart,
    render_report,
    series_table,
    speedup_table,
    summarize_sweep,
)
from repro.errors import ConfigurationError
from repro.scenarios import (
    FleetSpec,
    HotspotSpec,
    MigrationSpec,
    ScenarioRunner,
    ScenarioSpec,
    SweepSpec,
    TilingSpec,
    WorkloadSpec,
    apply_overrides,
    load_scenario,
    parse_override,
    spec_from_dict,
)
from repro.scenarios import loader as scenario_loader
from repro.scenarios.runner import KINDS
from repro.scenarios.spec import SCENARIO_KINDS

DATA_DIR = Path(__file__).resolve().parent / "data"
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

requires_tomllib = pytest.mark.skipif(
    scenario_loader.tomllib is None, reason="tomllib needs Python >= 3.11"
)


@pytest.fixture(scope="module")
def golden():
    return json.loads((DATA_DIR / "scenario_golden.json").read_text())


# ---------------------------------------------------------------------------
# Spec validation.
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_minimal_spec_defaults(self):
        spec = ScenarioSpec(name="s", kind="scaling")
        assert spec.mode == "simulated"
        assert spec.record_mode == "batched"
        assert spec.enabled is True
        assert spec.fleet.strategy == "Jarvis"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"kind": "quantum"},
            {"mode": "oracle"},
            {"record_mode": "columnar"},
            {"epochs": 0},
            {"warmup_epochs": 25},  # == default epochs: warmup must be inside
            {"max_sources_limit": -1},
            {"min_speedup": float("nan")},
        ],
    )
    def test_bad_top_level_knobs(self, kwargs):
        base = {"name": "s", "kind": "scaling"}
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(**base)

    def test_dynamic_replacement_requires_hotspot(self):
        with pytest.raises(ConfigurationError, match="hotspot"):
            ScenarioSpec(name="s", kind="dynamic_replacement")

    def test_hotspot_factor_must_amplify(self):
        with pytest.raises(ConfigurationError):
            HotspotSpec(shift_epoch=4, factor=0.5)
        with pytest.raises(ConfigurationError):
            HotspotSpec(shift_epoch=-1)

    def test_migration_policy_names(self):
        assert MigrationSpec(policy="never").policy == "never"
        with pytest.raises(ConfigurationError):
            MigrationSpec(policy="sometimes")

    def test_sweep_axes_positive(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(sources=(1, 0))

    def test_static_placement_needs_map(self):
        with pytest.raises(ConfigurationError, match="placement_map"):
            TilingSpec(placement="static")
        tiling = TilingSpec(placement="static", placement_map={"src-0": 1})
        assert tiling.placement_arg() == {"src-0": 1}

    def test_budget_schedule_validation(self):
        fleet = FleetSpec(budget=((0, 0.3), (10, 0.6)))
        assert fleet.budget_schedule().budget_at(12) == 0.6
        with pytest.raises(ConfigurationError):
            FleetSpec(budget=())
        with pytest.raises(ConfigurationError):
            FleetSpec(budget=((0, float("nan")),))

    def test_resolved_warmup_defaults(self):
        steady = ScenarioSpec(name="s", kind="scaling", epochs=25)
        assert steady.resolved_warmup() == 8  # max(2, 25 // 3)
        timing = ScenarioSpec(name="s", kind="record_modes", epochs=12)
        assert timing.resolved_warmup() == 3  # max(1, 12 // 4)
        dynamic = ScenarioSpec(
            name="s",
            kind="dynamic_replacement",
            workload=WorkloadSpec(hotspot=HotspotSpec(shift_epoch=7)),
            tiling=TilingSpec(blocks=2),
            epochs=30,
        )
        assert dynamic.resolved_warmup() == 7  # the hotspot's shift epoch
        explicit = ScenarioSpec(name="s", kind="scaling", epochs=25, warmup_epochs=1)
        assert explicit.resolved_warmup() == 1

    def test_empty_record_modes_resolve_to_object_and_batched(self):
        spec = ScenarioSpec(name="s", kind="record_modes")
        assert spec.record_modes == ()
        assert spec.resolved_record_modes() == ("object", "batched")
        arena = ScenarioSpec(
            name="s", kind="record_modes", record_modes=("batched", "arena")
        )
        assert arena.resolved_record_modes() == ("batched", "arena")

    @requires_tomllib
    def test_min_speedup_needs_object_and_batched_timed(self):
        # The arena gate times batched+arena only: a batched-over-object
        # floor there could never be checked, and the shim used to raise
        # KeyError on entry["speedup"] after the whole timed run.
        with pytest.raises(ConfigurationError, match="min_speedup"):
            load_scenario(
                CONFIG_DIR / "record_modes_arena_gate.toml",
                overrides=["run.min_speedup=5"],
            )

    def test_arena_min_speedup_needs_batched_and_arena_timed(self):
        # Empty record_modes means object+batched, so no arena series exists
        # (the shim used to raise KeyError on entry["arena_speedup"]).
        with pytest.raises(ConfigurationError, match="arena_min_speedup"):
            load_scenario(
                {
                    "scenario": {"name": "x", "kind": "record_modes"},
                    "run": {"arena_min_speedup": 3},
                }
            )

    @requires_tomllib
    @pytest.mark.parametrize(
        "path", sorted(CONFIG_DIR.glob("*.toml")), ids=lambda path: path.name
    )
    def test_shipped_configs_load(self, path):
        # Including the two speedup gates, whose floors name timed pairs.
        assert load_scenario(path).name == path.stem

    def test_with_overrides_revalidates(self):
        spec = ScenarioSpec(name="s", kind="scaling")
        assert spec.with_overrides(epochs=9).epochs == 9
        with pytest.raises(ConfigurationError):
            spec.with_overrides(epochs=0)


# ---------------------------------------------------------------------------
# Spec fields a kind does not read.
# ---------------------------------------------------------------------------

#: The smallest valid config of each kind.
_MINIMAL = {
    "scaling": {},
    "sharded": {},
    "dynamic_replacement": {
        "workload": {"hotspot": {"shift_epoch": 4}},
        "tiling": {"blocks": 2},
    },
    "colocated": {},
    "record_modes": {},
    "parallel": {"tiling": {"blocks": 2, "workers": 2}},
}


def _minimal(kind):
    return {"scenario": {"name": "x", "kind": kind}, **_MINIMAL[kind]}


class TestKindFields:
    def test_runner_table_covers_every_kind(self):
        assert tuple(KINDS) == SCENARIO_KINDS

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_sweep_budgets_is_an_unknown_key(self, kind):
        with pytest.raises(ConfigurationError, match=r"unknown key sweep\.'budgets'"):
            load_scenario(_minimal(kind), overrides=["sweep.budgets=0.3,0.6"])

    @pytest.mark.parametrize(
        "kind, override, name",
        [
            ("scaling", "fleet.strategy=All-SP", "fleet.strategy"),
            ("sharded", "migration.policy=never", "migration"),
            ("sharded", "workload.hotspot.shift_epoch=3", "workload.hotspot"),
            ("colocated", "workload.query=t2t_probe", "workload.query"),
            ("colocated", "fleet.budget=0.3", "fleet.budget"),
            ("dynamic_replacement", "workload.query=t2t_probe", "workload.query"),
            ("dynamic_replacement", "tiling.sp_cores=8", "tiling.sp_cores"),
            ("record_modes", "run.record_mode=arena", "record_mode"),
            ("record_modes", "tiling.blocks=2", "tiling.blocks"),
            ("parallel", "scenario.mode=analytic", "mode"),
        ],
    )
    def test_field_the_kind_does_not_read_is_rejected(self, kind, override, name):
        message = f"kind {kind!r} does not read {name};"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_scenario(_minimal(kind), overrides=[override])

    @pytest.mark.parametrize(
        "kind, sections",
        [
            ("scaling", {"sweep": {"sources": [2]}}),
            ("sharded", {"fleet": {"sources": 4}, "tiling": {"blocks": 2}}),
        ],
    )
    def test_sp_compute_share_is_honoured(self, kind, sections):
        def best_op_run(share):
            data = {
                **_minimal(kind),
                **sections,
                "run": {"epochs": 6, "warmup_epochs": 1},
                "workload": {"records_per_epoch": 60},
                "sweep": {**sections.get("sweep", {}), "strategies": ["Best-OP"]},
            }
            spec = load_scenario(data, overrides=[f"fleet.sp_compute_share={share}"])
            return ScenarioRunner().run(spec).raw["Best-OP"][0]

        full, starved = best_op_run(1.0), best_op_run(0.001)
        assert starved.aggregate_throughput_mbps() < full.aggregate_throughput_mbps()
        assert starved.median_latency_s() > full.median_latency_s()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["tiling.blocks=1"], "tiling.blocks >= 2"),
            (["tiling.blocks=4", "fleet.sources=3"], "3 sources for 4 blocks"),
            (["run.epochs=4"], "shift_epoch must fall inside the run"),
        ],
    )
    def test_dynamic_replacement_checks_run_at_load(self, overrides, message):
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_scenario(_minimal("dynamic_replacement"), overrides=overrides)


# ---------------------------------------------------------------------------
# Dict/TOML loading.
# ---------------------------------------------------------------------------


class TestLoader:
    def test_minimal_dict(self):
        spec = spec_from_dict({"scenario": {"name": "x", "kind": "scaling"}})
        assert spec.name == "x"
        assert spec.workload.query == "s2s_probe"

    def test_scenario_must_declare_name_and_kind(self):
        with pytest.raises(ConfigurationError, match="'name' and 'kind'"):
            spec_from_dict({"scenario": {"name": "x"}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling"}, "cluster": {}}
            )

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigurationError, match=r"run\.'epoch'"):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling"}, "run": {"epoch": 9}}
            )

    def test_hotspot_requires_shift_epoch(self):
        with pytest.raises(ConfigurationError, match="shift_epoch"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "dynamic_replacement"},
                    "workload": {"hotspot": {"factor": 2.0}},
                }
            )

    def test_numeric_coercion_accepts_strings(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "run": {"epochs": "8"},
                "workload": {"rate_scale": "0.5"},
                "fleet": {"sources": 4.0},
            }
        )
        assert spec.epochs == 8
        assert spec.workload.rate_scale == 0.5
        assert spec.fleet.sources == 4

    @pytest.mark.parametrize(
        "run",
        [{"epochs": 8.5}, {"epochs": True}, {"epochs": "eight"}, {"epochs": None}],
    )
    def test_non_integer_epochs_rejected(self, run):
        data = {"scenario": {"name": "x", "kind": "scaling"}, "run": run}
        with pytest.raises(ConfigurationError):
            spec_from_dict(data)

    def test_boolean_coercion(self):
        for raw, expected in (("no", False), ("on", True), (0, False), (True, True)):
            spec = spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling", "enabled": raw}}
            )
            assert spec.enabled is expected
        with pytest.raises(ConfigurationError):
            spec_from_dict(
                {"scenario": {"name": "x", "kind": "scaling", "enabled": "maybe"}}
            )

    def test_scalar_axes_promote_to_tuples(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "sweep": {"sources": 4, "strategies": "Jarvis"},
            }
        )
        assert spec.sweep.sources == (4,)
        assert spec.sweep.strategies == ("Jarvis",)

    def test_budget_schedule_from_pairs(self):
        spec = spec_from_dict(
            {
                "scenario": {"name": "x", "kind": "scaling"},
                "fleet": {"budget": [[0, 0.3], [10, 0.6]]},
            }
        )
        assert spec.fleet.budget == ((0, 0.3), (10, 0.6))
        with pytest.raises(ConfigurationError, match="pairs"):
            spec_from_dict(
                {
                    "scenario": {"name": "x", "kind": "scaling"},
                    "fleet": {"budget": [[0, 0.3, 1.0]]},
                }
            )

    @requires_tomllib
    def test_toml_round_trip(self, tmp_path):
        config = tmp_path / "s.toml"
        config.write_text(
            "[scenario]\n"
            'name = "toml_case"\n'
            'kind = "sharded"\n'
            "[fleet]\n"
            "sources = 4\n"
            "[sweep]\n"
            "blocks = [1, 2]\n"
        )
        spec = load_scenario(config)
        assert spec.name == "toml_case"
        assert spec.sweep.blocks == (1, 2)

    @requires_tomllib
    def test_invalid_toml_reports_path(self, tmp_path):
        config = tmp_path / "broken.toml"
        config.write_text("[scenario\n")
        with pytest.raises(ConfigurationError, match="invalid TOML"):
            load_scenario(config)

    def test_missing_file_is_configuration_error(self):
        if scenario_loader.tomllib is None:
            with pytest.raises(ConfigurationError, match="tomllib"):
                load_scenario("no/such/scenario.toml")
        else:
            with pytest.raises(ConfigurationError, match="cannot read"):
                load_scenario("no/such/scenario.toml")


class TestOverrides:
    def test_parse_scalar_coercion(self):
        assert parse_override("run.epochs=8") == (("run", "epochs"), 8)
        assert parse_override("run.min_speedup=5.0") == (("run", "min_speedup"), 5.0)
        assert parse_override("scenario.enabled=false") == (
            ("scenario", "enabled"),
            False,
        )
        assert parse_override("workload.query=s2s_probe") == (
            ("workload", "query"),
            "s2s_probe",
        )

    def test_parse_lists_and_deep_paths(self):
        assert parse_override("sweep.sources=1,2,4") == (
            ("sweep", "sources"),
            [1, 2, 4],
        )
        assert parse_override("workload.hotspot.shift_epoch=4") == (
            ("workload", "hotspot", "shift_epoch"),
            4,
        )

    @pytest.mark.parametrize("entry", ["epochs8", "epochs=8", ".x=1", "a..b=1"])
    def test_malformed_overrides_rejected(self, entry):
        with pytest.raises(ConfigurationError):
            parse_override(entry)

    def test_apply_overrides_is_a_deep_copy(self):
        data = {"scenario": {"name": "x", "kind": "scaling"}, "run": {"epochs": 3}}
        merged = apply_overrides(data, ["run.epochs=9", "fleet.sources=2"])
        assert merged["run"]["epochs"] == 9
        assert merged["fleet"] == {"sources": 2}
        assert data["run"]["epochs"] == 3  # input untouched
        assert "fleet" not in data

    def test_override_through_scalar_rejected(self):
        with pytest.raises(ConfigurationError, match="non-table"):
            apply_overrides({"run": {"epochs": 3}}, ["run.epochs.x=1"])

    def test_overrides_validate_like_file_values(self):
        data = {"scenario": {"name": "x", "kind": "scaling"}}
        assert load_scenario(data, overrides=["run.epochs=9"]).epochs == 9
        assert load_scenario(data, overrides=["scenario.enabled=false"]).enabled is False
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_scenario(data, overrides=["run.bogus=1"])


# ---------------------------------------------------------------------------
# Fixed-seed equivalence with the golden numbers.
# ---------------------------------------------------------------------------


def _tiny_comparison_dict():
    return {
        "scenario": {"name": "tiny_comparison", "kind": "scaling", "mode": "comparison"},
        "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "batched"},
        "workload": {"records_per_epoch": 120},
        "fleet": {"budget": 0.55},
        "sweep": {"sources": [1, 2], "strategies": ["Jarvis"]},
    }


@pytest.fixture(scope="module")
def tiny_comparison_result():
    return ScenarioRunner().run(load_scenario(_tiny_comparison_dict()))


class TestGoldenEquivalence:
    """Every scenario kind reproduces the pre-refactor numbers exactly."""

    def test_scaling_comparison_via_config(self, golden, tiny_comparison_result):
        assert tiny_comparison_result.raw == golden["scaling_comparison"]

    def test_scaling_analytic_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2, "max_sources_limit": 0},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"sources": [1, 4], "strategies": ["Jarvis", "Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for strategy, entries in golden["scaling_sweep"].items():
            for want, got in zip(entries, raw["sweep"][strategy]):
                for key, value in want.items():
                    assert getattr(got, key) == value, (strategy, key)

    def test_max_supported_sources(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2, "max_sources_limit": 64},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"strategies": ["Jarvis", "Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        assert raw["supported"] == golden["max_supported_sources"]

    def test_simulated_scaling_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "scaling", "mode": "simulated"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "batched"},
                "workload": {"records_per_epoch": 120},
                "fleet": {"budget": 0.55},
                "sweep": {"sources": [1, 2], "strategies": ["Best-OP"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for want, got in zip(golden["simulated_scaling_sweep"]["Best-OP"], raw["Best-OP"]):
            summary = got.summary()
            for key, value in want.items():
                assert summary[key] == value, key

    def test_sharded_scaling_sweep(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "sharded"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "batched"},
                "workload": {"records_per_epoch": 120},
                "fleet": {"sources": 4, "budget": 0.55},
                "sweep": {"blocks": [1, 2], "strategies": ["Jarvis"]},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for want, got in zip(golden["sharded_scaling_sweep"]["Jarvis"], raw["Jarvis"]):
            summary = got.summary()
            for key, value in want.items():
                assert summary[key] == value, key

    def test_dynamic_replacement(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "dynamic_replacement"},
                "run": {"epochs": 16, "record_mode": "batched"},
                "workload": {
                    "records_per_epoch": 150,
                    "hotspot": {"shift_epoch": 4},
                },
                "fleet": {"sources": 8, "budget": 1.0, "strategy": "All-SP"},
                "tiling": {"blocks": 2},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        want = golden["dynamic_replacement_sweep"]
        assert raw["static_mbps"] == want["static_mbps"]
        assert raw["dynamic_mbps"] == want["dynamic_mbps"]
        assert raw["oracle_mbps"] == want["oracle_mbps"]
        assert raw["gap_recovered"] == want["gap_recovered"]
        assert len(raw["migrations"]) == want["num_migrations"]
        assert raw["scenario"]["ingress_mbps"] == want["scenario_ingress_mbps"]

    def test_colocated_analytic(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "colocated", "mode": "analytic"},
                "run": {"epochs": 8, "warmup_epochs": 2},
                "workload": {"records_per_epoch": 100},
                "fleet": {"cores": 1},
                "sweep": {"queries": [1, 2]},
            }
        )
        assert ScenarioRunner().run(spec).raw == golden["multi_query_sweep"]

    def test_colocated_comparison(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "colocated", "mode": "comparison"},
                "run": {"epochs": 8, "warmup_epochs": 2, "record_mode": "batched"},
                "workload": {"records_per_epoch": 100},
                "fleet": {"cores": 1},
                "sweep": {"queries": [1, 2]},
            }
        )
        assert ScenarioRunner().run(spec).raw == golden["multi_query_colocation_sweep"]

    def test_record_modes(self, golden):
        spec = load_scenario(
            {
                "scenario": {"name": "g", "kind": "record_modes"},
                "run": {"epochs": 8, "warmup_epochs": 2},
                "workload": {"records_per_epoch": 200},
                "fleet": {"sources": 4, "budget": 0.55},
            }
        )
        raw = ScenarioRunner().run(spec).raw
        for strategy, want in golden["record_modes"].items():
            got = raw[strategy]
            for mode in ("object", "batched"):
                assert got[f"{mode}_goodput_mbps"] == want[mode]["goodput_mbps"]
                assert (
                    got[f"{mode}_median_latency_s"] == want[mode]["median_latency_s"]
                )
            assert got["offered_mbps"] == want["object"]["offered_mbps"]


# ---------------------------------------------------------------------------
# Text-table reporting helpers.
# ---------------------------------------------------------------------------


class TestRatio:
    def test_zero_over_zero_is_nan_not_inf(self):
        assert math.isnan(ratio(0.0, 0.0))
        assert math.isnan(ratio(float("nan"), 0.0))

    def test_signed_infinity_over_zero(self):
        assert ratio(2.0, 0.0) == float("inf")
        assert ratio(-2.0, 0.0) == float("-inf")

    def test_plain_division(self):
        assert ratio(6.0, 3.0) == 2.0


class TestTables:
    def test_format_table_needs_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ConfigurationError, match="2 cells"):
            format_table(["a", "b", "c"], [[1, 2]])

    def test_format_table_formats_floats(self):
        table = format_table(["x"], [[float("nan")], [1234.5], [0.12345]])
        lines = table.splitlines()
        assert lines[2].strip() == "nan"
        assert lines[3].strip() == "1,234"  # thousands grouping, no decimals
        assert lines[4].strip() == "0.123"

    def test_series_table_sorts_the_shared_axis(self):
        table = series_table({"b": {4: 1.0, 1: 2.0}, "a": {2: 3.0}}, x_label="n")
        first_column = [line.split("|")[0].strip() for line in table.splitlines()[2:]]
        assert first_column == ["1", "2", "4"]
        assert "nan" in table  # missing (series, x) points render as nan

    def test_series_table_keeps_insertion_order_for_mixed_axes(self):
        table = series_table({"s": {1: 1.0, "a": 2.0}})
        first_column = [line.split("|")[0].strip() for line in table.splitlines()[2:]]
        assert first_column == ["1", "a"]

    def test_series_table_needs_a_series(self):
        with pytest.raises(ConfigurationError):
            series_table({})

    def test_summarize_sweep_missing_metric_is_nan(self):
        sweep = {"A": {0.5: {"throughput_mbps": 2.0}}}
        out = summarize_sweep(sweep, metric="latency_s")
        assert math.isnan(out["A"][0.5])

    def test_speedup_table_relative_to_reference(self):
        sweep = {
            "A": {0.5: {"throughput_mbps": 2.0}},
            "B": {0.5: {"throughput_mbps": 1.0}},
        }
        table = speedup_table(sweep, reference="B")
        assert "2.000" in table
        with pytest.raises(ConfigurationError, match="reference"):
            speedup_table(sweep, reference="C")

    def test_flatten_rows_projects_columns(self):
        rows = flatten_rows([{"a": 1, "b": 2}, {"a": 3}], columns=["a", "b"])
        assert rows == [[1, 2], [3, ""]]


# ---------------------------------------------------------------------------
# Self-contained HTML reports.
# ---------------------------------------------------------------------------


class TestHtmlReport:
    def test_title_and_headings_required(self):
        with pytest.raises(ConfigurationError, match="title"):
            render_report("", [])
        with pytest.raises(ConfigurationError, match="heading"):
            render_report("t", [{"body": "text"}])

    def test_markup_is_escaped(self):
        html = render_report(
            "<script>alert(1)</script>",
            [{"heading": "a & b", "body": "<pre> injection"}],
        )
        assert "<script>" not in html
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
        assert "a &amp; b" in html

    def test_chart_skips_non_finite_points(self):
        html = render_chart({"s": {1: float("nan"), 2: float("inf")}})
        assert html == "<p><em>(no plottable data)</em></p>"

    def test_chart_draws_lines_points_and_legend(self):
        html = render_chart({"jarvis": {1: 1.0, 2: 4.0}}, x_label="n", y_label="mbps")
        assert "<polyline" in html
        assert "<circle" in html
        assert ">jarvis</text>" in html
        assert ">n</text>" in html and ">mbps</text>" in html

    def test_single_point_series_has_no_line(self):
        html = render_chart({"s": {3: 1.5}})
        assert "<polyline" not in html
        assert "<circle" in html

    def test_report_is_self_contained(self, tiny_comparison_result):
        html = tiny_comparison_result.render_report()
        assert html.startswith("<!DOCTYPE html>")
        # No external assets: nothing fetched, nothing executed.  (The SVG
        # xmlns URL is a namespace identifier, not a resource reference.)
        for marker in ("<link", "<script", "src=", "href="):
            assert marker not in html, marker
        assert "Scenario: tiny_comparison" in html
        assert "kind=scaling mode=comparison" in html

    def test_report_html_matches_golden(self, tiny_comparison_result):
        golden_html = (DATA_DIR / "report_golden.html").read_text()
        assert tiny_comparison_result.render_report() == golden_html

    def test_bench_json_matches_golden(self, tiny_comparison_result):
        want = json.loads((DATA_DIR / "bench_golden.json").read_text())
        result = tiny_comparison_result
        payload = {
            "name": result.spec.name,
            "table": result.table,
            **result.bench_payload(),
        }
        assert json.loads(json.dumps(payload, sort_keys=True, default=str)) == want

    def test_write_emits_report_file(self, tiny_comparison_result, tmp_path):
        path = tiny_comparison_result.write(tmp_path / "out")
        assert path == tmp_path / "out" / "REPORT_tiny_comparison.html"
        assert path.read_text() == tiny_comparison_result.render_report()


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------


@requires_tomllib
class TestCli:
    def _write_config(self, tmp_path):
        config = tmp_path / "cli_case.toml"
        config.write_text(
            "[scenario]\n"
            'name = "cli_case"\n'
            'kind = "scaling"\n'
            'mode = "comparison"\n'
            "[run]\n"
            "epochs = 4\n"
            "warmup_epochs = 1\n"
            "[workload]\n"
            "records_per_epoch = 60\n"
            "[sweep]\n"
            "sources = [1]\n"
            'strategies = ["Jarvis"]\n'
        )
        return config

    def test_cli_writes_bench_and_report(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out_dir = tmp_path / "out"
        code = main(
            [
                str(self._write_config(tmp_path)),
                "--set",
                "run.epochs=5",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        bench = json.loads((out_dir / "BENCH_cli_case.json").read_text())
        assert bench["config"]["num_epochs"] == 5  # the --set override landed
        html = (out_dir / "REPORT_cli_case.html").read_text()
        assert "Scenario: cli_case" in html
        assert "sources" in capsys.readouterr().out

    def test_cli_skips_disabled_scenarios(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        out_dir = tmp_path / "out"
        code = main(
            [
                str(self._write_config(tmp_path)),
                "--set",
                "scenario.enabled=false",
                "--out",
                str(out_dir),
            ]
        )
        assert code == 0
        assert not out_dir.exists()
        assert "disabled" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override, message",
        [("run.bogus=1", "unknown key"), ("run.epochs", "section.key=value")],
    )
    def test_cli_reports_bad_override_without_traceback(
        self, tmp_path, capsys, override, message
    ):
        from repro.scenarios.cli import main

        out_dir = tmp_path / "out"
        code = main(
            [
                str(self._write_config(tmp_path)),
                "--set",
                override,
                "--out",
                str(out_dir),
            ]
        )
        assert code == 2
        assert not out_dir.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert "error:" in lines[0] and message in lines[0]
        assert "Traceback" not in captured.err

    def test_cli_rejects_a_dynamic_config_with_one_block(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = tmp_path / "dynamic.toml"
        config.write_text(
            "[scenario]\n"
            'name = "dynamic"\n'
            'kind = "dynamic_replacement"\n'
            "[workload.hotspot]\n"
            "shift_epoch = 4\n"
        )
        code = main([str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "tiling.blocks >= 2" in capsys.readouterr().err

    def test_cli_reports_missing_file_without_traceback(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        code = main([str(tmp_path / "missing.toml"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("python -m repro.scenarios: error: ")
        assert "missing.toml" in err and len(err.splitlines()) == 1
