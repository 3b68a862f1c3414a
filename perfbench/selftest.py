"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's own test collection:
the smoke runs start real workloads and take about a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

from repro.simulation.metrics import (  # noqa: E402
    ClusterEpochMetrics,
    ClusterMetrics,
    EpochMetrics,
    RunMetrics,
)

from perfbench import stats  # noqa: E402
from perfbench.child import TAIL_PCT  # noqa: E402
from perfbench.fleets import EPOCHS, REPETITIONS, WORKLOADS, check_epochs  # noqa: E402
from perfbench.layers import PER_LAYER_METRICS, SpanTable  # noqa: E402
from perfbench.run import END_TO_END_METRICS, deadline_s, kernel_note  # noqa: E402
from perfbench.trace import Tracer, outermost, self_times_ns, union_ns  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------------------


def test_union_merges_overlaps_and_clips():
    assert union_ns([(0, 10), (5, 15), (20, 30)], 0, 100) == 25
    assert union_ns([(0, 10), (5, 15), (20, 30)], 8, 25) == 12
    assert union_ns([], 0, 10) == 0
    assert union_ns([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_of_nested_spans():
    spans = [
        ["root", -1, 0, 100, None],
        ["a", 0, 10, 40, None],
        ["b", 1, 15, 25, None],
        ["c", 0, 50, 90, None],
    ]
    assert self_times_ns(spans) == [30, 20, 10, 40]
    assert sum(self_times_ns(spans)) == 100


def test_self_time_of_overlapping_children_counts_the_union():
    # Two children overlapping each other (as concurrent work would) and one
    # running past its parent's end.
    spans = [
        ["root", -1, 0, 100, None],
        ["x", 0, 10, 60, None],
        ["y", 0, 40, 80, None],
        ["z", 0, 90, 120, None],
    ]
    assert self_times_ns(spans)[0] == 100 - 70 - 10


def test_outermost_skips_recursive_spans_of_the_same_layer():
    spans = [
        ["fill", -1, 0, 10, None],
        ["fill", 0, 1, 5, None],
        ["own", 1, 2, 3, None],
        ["fill", 2, 2, 3, None],
    ]
    assert outermost(spans) == [True, False, True, False]
    table = SpanTable(spans)
    assert table.busy_s("fill") == pytest.approx(10e-9)
    assert table.calls("fill") == 1


def test_operator_fallbacks_and_columnar_share():
    spans = [
        ["bench.run", -1, 0, 100, None],
        ["operators.map", 0, 0, 10, "batch"],
        ["operators.map", 1, 1, 9, "object"],
        ["operators.filter", 0, 10, 20, "batch"],
        ["operators.join", 0, 20, 30, "object"],
    ]
    assert SpanTable(spans).operator_counts() == (1, 1, 3)


def test_tracer_records_parents_and_restores_patches():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Box.__dict__["outer"]
    tracer = Tracer()
    tracer.patch(Box, "outer", "outer")
    tracer.patch(Box, "inner", "inner", post=lambda args, kwargs, result: result)
    tracer.enabled = True
    with tracer.span("root"):
        assert Box().outer() == 2
    spans = tracer.take()
    assert [(s[0], s[1], s[4]) for s in spans] == [
        ("root", -1, None), ("outer", 0, None), ("inner", 1, 1),
    ]
    assert sum(self_times_ns(spans)) == spans[0][3] - spans[0][2]
    tracer.unpatch_all()
    assert Box.__dict__["outer"] is original


# -- the tail rule -----------------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(120) == 91
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(10) == 0
    values = list(range(100))
    assert stats.beyond(values, 90) == 10
    assert stats.nearest_rank(values, 90) == 89
    assert stats.nearest_rank(values, 50) == 49


def test_the_reported_tail_is_the_rule_percentile_of_a_reference_run():
    assert TAIL_PCT == stats.tail_percentile(EPOCHS * REPETITIONS) == 91
    assert f"epoch_ms_p{TAIL_PCT}" in dict(END_TO_END_METRICS)


# -- correctness checks ------------------------------------------------------------


def _epoch(index, **changes):
    fields = dict(
        epoch=index, input_bytes=100.0, goodput_bytes=90.0, network_bytes_offered=60.0,
        network_bytes_sent=50.0, network_queue_bytes=10.0 * (index + 1),
        cpu_used_seconds=0.5, cpu_budget_seconds=0.6, sp_cpu_seconds=0.1,
        source_backlog_records=0, latency_s=0.5,
    )
    fields.update(changes)
    return EpochMetrics(**fields)


def _cluster(epochs_by_source, capacity=1000.0):
    """A two-epoch cluster run whose link figures match its sources."""
    cluster = ClusterMetrics(epoch_duration_s=1.0)
    for name, epochs in epochs_by_source.items():
        run = RunMetrics(epoch_duration_s=1.0)
        for epoch in epochs:
            run.record(epoch)
        cluster.register_source(name, run)
    for index in range(2):
        epochs = [run.epochs[index] for run in cluster.per_source.values()]
        cluster.record_cluster_epoch(ClusterEpochMetrics(
            epoch=index,
            network_offered_bytes=sum(e.network_bytes_offered for e in epochs),
            network_sent_bytes=sum(e.network_bytes_sent for e in epochs),
            network_queued_bytes=sum(e.network_queue_bytes for e in epochs),
            network_capacity_bytes=capacity,
            sp_cpu_used_seconds=0.0, sp_cpu_capacity_seconds=1.0, sp_backlog_records=0,
        ))
    return cluster


def test_epoch_checks_pass_a_consistent_run():
    run = _cluster({"a": [_epoch(0), _epoch(1)], "b": [_epoch(0), _epoch(1)]})
    assert check_epochs(run) == (0, [])


@pytest.mark.parametrize("change, text", [
    (dict(latency_s=float("nan")), "latency_s"),
    (dict(sp_cpu_seconds=float("inf")), "sp_cpu_seconds"),
    (dict(network_queue_bytes=-1.0), "network_queue_bytes"),
    (dict(network_bytes_sent=75.0), "more than offered"),
    (dict(network_queue_bytes=80.0), "link queue grew"),
    (dict(cpu_used_seconds=0.7), "CPU s"),
])
def test_epoch_checks_catch_one_impossible_source_epoch(change, text):
    run = _cluster({"a": [_epoch(0), _epoch(1, **change)], "b": [_epoch(0), _epoch(1)]})
    bad, problems = check_epochs(run)
    assert bad == 1 and text in problems[0]


def test_epoch_checks_compare_sources_with_the_link():
    run = _cluster({"a": [_epoch(0), _epoch(1)], "b": [_epoch(0), _epoch(1)]})
    # A source-epoch that the link never saw.
    run.per_source["b"].epochs[1] = _epoch(1, network_bytes_sent=40.0)
    bad, problems = check_epochs(run)
    assert bad == 2 and "the link" in problems[0]
    # The link sending more than its capacity fails every source of the epoch.
    bad, problems = check_epochs(_cluster({"a": [_epoch(0), _epoch(1)]}, capacity=45.0))
    assert bad == 2 and "capacity" in problems[0]


# -- deadline and host-speed diagnostics -----------------------------------------------


def test_the_deadline_grows_with_the_work():
    workload = WORKLOADS["colocated_mix"]
    short, long = (deadline_s(workload, seconds, 0) for seconds in (20, 60))
    assert long > short > 170
    assert long > 2.5 * short  # three times the repetitions, the same set-up
    assert deadline_s(WORKLOADS["hotspot_pool"], 1, 0, epochs=12) == 170


def test_a_kernel_outside_its_fences_is_flagged():
    workload = WORKLOADS["jarvis_block"]
    q1, q3 = workload.kernel_ms_quartiles
    assert not kernel_note(workload, {"setup": q1, "epoch_mean": (q1 + q3) / 2})["flagged"]
    assert kernel_note(workload, {"setup": q1, "epoch_mean": q3 + 2 * (q3 - q1)})["flagged"]
    assert not kernel_note(workload, {"setup": q1, "epoch_mean": None})["flagged"]


# -- names and the benchmark description ----------------------------------------------


def test_metric_names_are_well_formed():
    names = [n for n, _ in END_TO_END_METRICS] + [n for n, _ in PER_LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER_METRICS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# -- smoke runs ----------------------------------------------------------------------


def _benchmark_processes() -> set:
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes()
            except OSError:
                continue
            if b"perfbench.child" in cmdline:
                found.add(int(entry.name))
    return found


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run_is_correct_and_leaves_nothing_behind(workload, trace):
    shm = Path("/dev/shm")
    before = set(os.listdir(shm)) if shm.is_dir() else set()
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--epochs", "12")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER_METRICS if trace == "1" else END_TO_END_METRICS
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == list(expected)
    after = set(os.listdir(shm)) if shm.is_dir() else set()
    assert after <= before, f"left shared memory behind: {sorted(after - before)}"
    assert not _benchmark_processes()


#: Lines appended to a copy of ``repro/__init__.py`` that break the program.
FAULTS = {
    "conservation": """
from repro.simulation.multisource import MultiSourceExecutor as _Executor
_Executor.verify_record_conservation = lambda self: ["injected: a record went missing"]
""",
    "nan_latency": """
import dataclasses as _dataclasses
from repro.simulation.engine import EpochAccountant as _Accountant
_finish = _Accountant.finish_source_epoch
_Accountant.finish_source_epoch = staticmethod(
    lambda *args, **kwargs: _dataclasses.replace(_finish(*args, **kwargs), latency_s=float("nan"))
)
""",
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_broken_program_fails_the_run(tmp_path, fault):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    with open(tmp_path / "src" / "repro" / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write(FAULTS[fault])
    proc = _run("--workload", "jarvis_block", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--epochs", "12", cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED" in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "jarvis_block", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
