"""One benchmark process: a fresh interpreter that sets a workload up and runs it.

    python -m perfbench.child --role setup|measure --workload NAME --seed N
        --seconds S --trace 0|1 [--epochs E]

``setup`` times import, setup and fleet construction and stops.  ``measure``
does the same, then runs the workload: untraced repetitions for the
end-to-end metrics (``--trace 0``) or one untraced and one traced run for
the per-layer metrics (``--trace 1``).  The last stdout line is one JSON
object; ``perfbench/run.py`` starts these processes and reads it.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import calibrate, stats  # noqa: E402
from perfbench.fleets import (  # noqa: E402
    EPOCHS,
    REFERENCE_SECONDS,
    REPETITIONS,
    WORKLOADS,
    Fleet,
    Workload,
    check_epochs,
    epoch_fields,
    measured_latencies,
    repetitions,
    source_epochs,
)

OUT_DIR = ROOT / "perfbench" / "out"
#: ``prctl`` option: the signal this process gets when its parent ends.
PR_SET_PDEATHSIG = 1
#: The tail percentile reported: 10 of the reference run's epochs lie beyond it.
TAIL_PCT = stats.tail_percentile(EPOCHS * REPETITIONS)


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """A process's resident-set high-water mark (``VmHWM``) in MB, or 0."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def fresh_setup(workload: Workload, seed: int) -> Tuple[Dict[str, Any], Fleet, Dict[str, float]]:
    start = perf_counter()
    import repro  # noqa: F401

    imported = perf_counter()
    setups = workload.make_setups()
    made = perf_counter()
    fleet = workload.build(setups, seed)
    built = perf_counter()
    kernel_s = calibrate.kernel_median()
    return setups, fleet, {
        "setup_s": calibrate.to_reference(built - _T0, kernel_s),
        "setup_raw_s": built - _T0,
        "kernel_s": kernel_s,
        "import_s": imported - start,
        "make_setup_s": made - imported,
        "build_s": built - made,
    }


def timed_run(fleet: Fleet, epochs: int, warmup: int) -> Tuple[Any, List[float], List[float]]:
    """Run the fleet, timing every ``run_epoch()`` call and the calibration
    kernel right after it; returns the metrics and both lists of times."""
    times: List[float] = []
    kernels: List[float] = []
    inner = fleet.executor.run_epoch

    def run_epoch() -> Any:
        start = perf_counter()
        result = inner()
        times.append(perf_counter() - start)
        kernels.append(fleet.kernel())
        return result

    fleet.executor.run_epoch = run_epoch
    return fleet.run(epochs, warmup), times, kernels


def sim_digest(metrics: Any) -> str:
    digest = hashlib.sha256()
    for key, epoch in source_epochs(metrics):
        digest.update(repr((key, epoch_fields(epoch))).encode())
    return digest.hexdigest()


def check(fleet: Fleet, metrics: Any, epochs: int) -> Tuple[int, List[str]]:
    """Failed source-epochs of one run, and what failed."""
    bad, problems = check_epochs(metrics)
    violations = fleet.executor.verify_record_conservation()
    if violations:
        problems = [f"record conservation: {v}" for v in violations[:3]] + problems
        bad = epochs * fleet.num_sources
    return bad, problems


def sim_metrics(metrics: Any) -> Dict[str, float]:
    return {
        "sim_goodput_mbps": metrics.aggregate_throughput_mbps(),
        "sim_latency_mean_s": statistics.fmean(measured_latencies(metrics)),
        "sim_latency_p50_s": metrics.median_latency_s(),
    }


def workers_hwm_mb() -> float:
    return sum(vm_hwm_mb(child.pid) for child in multiprocessing.active_children())


# -- roles ------------------------------------------------------------------------


def role_setup(workload: Workload, args: argparse.Namespace) -> Dict[str, Any]:
    _, fleet, parts = fresh_setup(workload, args.seed)
    fleet.close()
    return parts


def role_measure(workload: Workload, args: argparse.Namespace) -> Dict[str, Any]:
    setups, fleet, parts = fresh_setup(workload, args.seed)
    epochs = args.epochs or EPOCHS
    sources = fleet.num_sources
    attempted = failed = 0
    problems: List[str] = []
    epoch_s: List[float] = []
    raw_epoch_s: List[float] = []
    kernel_s: List[float] = []
    worker_mb = 0.0
    digests: List[str] = []
    sim: Dict[str, float] = {}
    for rep in range(repetitions(args.seconds)):
        if rep:
            fleet = workload.build(setups, args.seed)
        attempted += epochs * sources
        try:
            metrics, times, kernels = timed_run(fleet, epochs, workload.warmup)
            bad, rep_problems = check(fleet, metrics, epochs)
            worker_mb = max(worker_mb, workers_hwm_mb())
        except Exception:
            failed += epochs * sources
            problems.append(traceback.format_exc(limit=4))
            break
        finally:
            fleet.close()
        digests.append(sim_digest(metrics))
        if digests[-1] != digests[0]:
            bad = epochs * sources
            rep_problems.append(f"repetition {rep} simulated a different run")
        failed += bad
        problems.extend(rep_problems)
        epoch_s.extend(calibrate.scale_epochs(times, kernels))
        raw_epoch_s.extend(times)
        kernel_s.extend(kernels)
        if rep == 0:
            sim = sim_metrics(metrics)
        # Drop this repetition before building the next, so two fleets
        # never share the peak.
        fleet = metrics = None
        gc.collect()
    result: Dict[str, Any] = {
        "setup": parts,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repetitions": len(digests),
        "epochs_per_repetition": epochs,
        "epoch_ms": [round(1000.0 * t, 3) for t in epoch_s],
        "raw_epoch_ms": [round(1000.0 * t, 3) for t in raw_epoch_s],
        "sim": sim,
        "sim_digest": digests[0] if digests else None,
        "kernel_ms": {
            "setup": 1000.0 * parts["kernel_s"],
            "epoch_mean": 1000.0 * statistics.fmean(kernel_s) if kernel_s else None,
        },
    }
    if epoch_s:
        source_epochs_done = len(epoch_s) * sources
        result["metrics"] = {
            "source_epochs_per_s": source_epochs_done / sum(epoch_s),
            "epoch_ms_p50": 1000.0 * statistics.median(epoch_s),
            f"epoch_ms_p{TAIL_PCT}": 1000.0 * stats.nearest_rank(epoch_s, TAIL_PCT),
            "peak_rss_mb": vm_hwm_mb() + worker_mb,
            "sim_goodput_mbps": sim["sim_goodput_mbps"],
            "sim_latency_mean_s": sim["sim_latency_mean_s"],
        }
        result["raw_source_epochs_per_s"] = source_epochs_done / sum(raw_epoch_s)
        result["epoch_samples"] = len(epoch_s)
        result["epochs_beyond_tail"] = stats.beyond(epoch_s, TAIL_PCT)
    return result


def role_trace(workload: Workload, args: argparse.Namespace) -> Dict[str, Any]:
    """One untraced and one traced run; for a pool workload also the serial
    replay of the same fleet, untraced and traced.  Every run must simulate
    the same per-source, per-epoch outputs."""
    from perfbench import layers
    from perfbench.trace import TRACER, root_ns, self_times_ns, worker_spans

    setups, fleet, parts = fresh_setup(workload, args.seed)
    epochs = args.epochs or EPOCHS
    outcome: Dict[str, Any] = {"attempted": 0, "failed": 0, "problems": []}
    digests: Dict[str, str] = {}

    def run_in_root(label: str, fleet: Fleet) -> Tuple[Any, float, float, list]:
        """Run under a root span and check the outputs.  Returns the metrics,
        the summed epoch times (host seconds, then reference seconds) and the
        spans.  The calibration kernel after each epoch runs inside the root
        span but outside every layer span."""
        TRACER.take()
        with TRACER.span(layers.ROOT):
            metrics, times, kernels = timed_run(fleet, epochs, workload.warmup)
        spans = TRACER.take()
        bad, found = check(fleet, metrics, epochs)
        outcome["attempted"] += epochs * fleet.num_sources
        outcome["failed"] += bad
        outcome["problems"].extend(f"{label}: {p}" for p in found)
        digests[label] = sim_digest(metrics)
        return metrics, sum(times), sum(calibrate.scale_epochs(times, kernels)), spans

    def replay_run(label: str) -> Tuple[float, list]:
        _, seconds, _, spans = run_in_root(label, workload.build_replay(setups, args.seed))
        return seconds, spans

    try:
        _, untraced_host_s, untraced_s, _ = run_in_root("untraced", fleet)
    finally:
        fleet.close()
    replay_s = replay_run("replay")[0] if workload.build_replay else 0.0

    layers.install()
    TRACER.enabled = True
    TRACER.take()
    fleet = workload.build(setups, args.seed)
    workers: Dict[int, list] = {}
    try:
        build_spans = TRACER.take()
        metrics, _, traced_s, run_spans = run_in_root("traced", fleet)
        if fleet.pooled:
            for pid, spans in fleet.executor.map_blocks(worker_spans).values():
                workers.setdefault(pid, []).extend(spans)
        carryover_mb = fleet.carryover_bytes() / 1e6
        backlog = fleet.executor.sp_backlog_records()
        migrations = len(getattr(metrics, "migration_events", list)())
        TRACER.take()
    finally:
        fleet.close()
    close_spans = TRACER.take()

    layer_spans, pool_spans = run_spans, []
    if workload.build_replay:
        pool_spans = build_spans + run_spans + close_spans
        layer_spans = replay_run("traced replay")[1]
    TRACER.enabled = False

    if len(set(digests.values())) != 1:
        outcome["failed"] = outcome["attempted"]
        outcome["problems"].append(f"simulated outputs differ between runs: {digests}")
    if sum(self_times_ns(layer_spans)) != root_ns(layer_spans):
        outcome["failed"] = outcome["attempted"]
        outcome["problems"].append("self times do not sum to the root span")

    values = layers.layer_metrics(layer_spans, pool_spans, workers)
    values.update(
        {
            "setup.import_s": parts["import_s"],
            "setup.make_setup_s": parts["make_setup_s"],
            "setup.build_s": parts["build_s"],
            "multisource.carryover_mb_end": carryover_mb,
            "multisource.sp_backlog_records_end": backlog,
            "sharding.migrations": migrations,
            "parallel.speedup": replay_s / untraced_host_s if replay_s else 0.0,
            "trace.overhead_share": traced_s / untraced_s - 1.0,
        }
    )
    span_sets = {"layers": layer_spans, "pool": pool_spans}
    span_sets.update((f"worker-{pid}", spans) for pid, spans in workers.items())
    trace_file = write_spans(workload.name, args.seed, span_sets)
    return {
        **outcome,
        "setup": parts,
        "epochs_per_repetition": epochs,
        "sim_digest": digests["untraced"],
        "trace_file": str(trace_file.relative_to(ROOT)),
        "span_count": sum(map(len, span_sets.values())),
        "metrics": values,
    }


def write_spans(workload: str, seed: int, span_sets: Dict[str, list]) -> Path:
    """Write every recorded span, one JSON object a line, gzip-compressed."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz"
    run_id = uuid.uuid4().hex
    with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
        for label, spans in span_sets.items():
            for index, (name, parent, start, end, info) in enumerate(spans):
                handle.write(
                    json.dumps(
                        {
                            "run": run_id,
                            "set": label,
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "info": info,
                        }
                    )
                    + "\n"
                )
    return path


def die_with_parent() -> None:
    """Have Linux kill this process when ``run.py`` ends, however it ends,
    so that no measurement outlives the command."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass


def main(argv: "List[str] | None" = None) -> int:
    die_with_parent()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.role == "setup":
        result = role_setup(workload, args)
    elif args.trace:
        result = role_trace(workload, args)
    else:
        result = role_measure(workload, args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
