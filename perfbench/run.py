"""Benchmark of the ``repro`` simulator: one workload, one seed, one run.

    python3 perfbench/run.py --workload jarvis_block --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (the package is imported from
``src``; nothing is installed).  With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric of a traced
run.  Each metric prints on its own line with its unit, the correctness
checks run on every simulated run, and the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full record
with provenance is written under ``perfbench/out/``.  The exit code is 0
only when every check passed.

Every measurement runs in a fresh interpreter (``perfbench/child.py``):
``setup_s`` is the median over several of them.  See
``perfbench/README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.fleets import EPOCHS, WORKLOADS, Workload, repetitions  # noqa: E402
from perfbench.layers import PER_LAYER_METRICS  # noqa: E402

#: Every end-to-end metric, with its unit.
END_TO_END_METRICS = (
    ("source_epochs_per_s", "source-epochs/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p91", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_mbps", "sim_Mbps"),
    ("sim_latency_mean_s", "sim_s"),
)
#: Fresh interpreters timed from start to first epoch, per untraced run.
SETUP_SAMPLES = 5
#: Wall seconds of one set-up interpreter on the reference host (the
#: slowest of the fifty timed in ten runs per workload was 1.9 s).
SETUP_CHILD_S = 2.0
#: Repetitions' worth of work in a traced run: an untraced and a traced
#: run, and for a pool workload also both again on the serial executor.
TRACE_REPETITIONS = 6
#: A run is stopped, and fails, once it takes this many times its reference
#: wall time (or ``DEADLINE_FLOOR_S``, if longer): long enough that a
#: slowdown is measured as one, not reported as a failure.
DEADLINE_FACTOR = 6.0
DEADLINE_FLOOR_S = 170.0


def deadline_s(workload: Workload, seconds: int, trace: int, epochs: int = 0) -> float:
    """Wall seconds after which the command gives up: a multiple of the
    reference wall time of the work that ``seconds`` and ``epochs`` ask for."""
    runs = TRACE_REPETITIONS if trace else repetitions(seconds)
    setups = 1 if trace else SETUP_SAMPLES
    expected = runs * workload.repetition_s * (epochs or EPOCHS) / EPOCHS
    return max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * (expected + setups * SETUP_CHILD_S))


def kernel_note(workload: Workload, kernel_ms: Dict[str, Any]) -> Dict[str, Any]:
    """The run's host-speed kernel next to the reference quartiles.

    Host times are divided by the kernel's time, so whatever slows the
    kernel and the program alike cancels out, the program's own side
    effects included.  A run whose mean epoch kernel lies beyond the
    reference quartiles by more than 1.5 interquartile ranges is flagged:
    then the scale factor, not the program, may have moved the host-time
    metrics (compare ``raw_source_epochs_per_s`` in the record)."""
    q1, q3 = workload.kernel_ms_quartiles
    low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    mean = kernel_ms.get("epoch_mean")
    return dict(kernel_ms, fence_ms=[low, high],
                flagged=mean is not None and not low <= mean <= high)


class ChildFailed(RuntimeError):
    pass


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``perfbench/child.py`` in its own session; return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {' '.join(args)} ran past the deadline")
    finally:
        # Reap anything the child left in its session (pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"child {' '.join(args)} failed:\n{err[-4000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise ChildFailed(f"child {' '.join(args)} printed nothing:\n{err[-4000:]}")
    return json.loads(lines[-1])


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_fingerprint() -> Dict[str, Any]:
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--epochs", type=int, default=0,
        help="override epochs per repetition (steadiness checks, smoke tests)",
    )
    args = parser.parse_args(argv)
    if args.epochs and args.epochs <= WORKLOADS[args.workload].warmup:
        parser.error(f"--epochs must exceed the warm-up ({WORKLOADS[args.workload].warmup})")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + deadline_s(workload, args.seconds, args.trace, args.epochs)
    # Ending on a signal still runs run_child's clean-up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--epochs", str(args.epochs),
    ]
    try:
        result = run_child(["--role", "measure", "--trace", str(args.trace), *common], deadline)
        setups = [result["setup"]]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(["--role", "setup", *common], deadline))
        setup_samples = [setup["setup_s"] for setup in setups]
    except ChildFailed as error:
        print(error, file=sys.stderr)
        return 1

    if args.trace:
        names = PER_LAYER_METRICS
        values = result["metrics"]
    else:
        names = END_TO_END_METRICS
        values = dict(result.get("metrics", {}), setup_s=statistics.median(setup_samples))
    missing = [name for name, _ in names if name not in values]
    correct = result["failed"] == 0 and not missing
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names if name in values}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "commit": git_commit(),
        "input_size": workload.input_size,
        "setup_samples_s": setup_samples,
        "setup_raw_samples_s": [setup["setup_raw_s"] for setup in setups],
        "kernel_ms": kernel_note(workload, result["kernel_ms"]) if "kernel_ms" in result else None,
        "child": result,
        "metrics": metrics,
    }
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    host = record["host"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"  host: nproc={host['nproc']} python={host['python']} numpy={host['numpy']} "
          f"scipy={host['scipy']} commit={record['commit'] or 'unknown'}")
    print(f"  input: {json.dumps(workload.input_size)}")
    if not args.trace and "epoch_samples" in result:
        print(f"  epochs timed: {result['epoch_samples']} in {result['repetitions']} "
              f"repetition(s); {result['epochs_beyond_tail']} beyond the tail percentile")
        print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in setup_samples)}")
        print(f"  sim_latency_p50_s (sim s): {result['sim'].get('sim_latency_p50_s')}")
        kernel = record["kernel_ms"]
        if kernel["epoch_mean"] is not None:
            low, high = kernel["fence_ms"]
            print(f"  host-speed kernel (ms): {kernel['setup']:.3f} at set-up, "
                  f"{kernel['epoch_mean']:.3f} mean over epochs "
                  f"(expected {low:.2f}-{high:.2f})")
            if kernel["flagged"]:
                print("  FLAG: the epoch kernel is outside its expected range; the "
                      "scale factor, not the program, may have moved the host times "
                      f"(raw source_epochs_per_s {result['raw_source_epochs_per_s']:.6g})")
    for name, unit in names:
        if name in values:
            print(f"  {name:<38} {values[name]:>16.6g} {unit}")
    print(f"  sim digest: {result.get('sim_digest')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  correctness: {attempted} source-epochs attempted, {failed} failed "
          f"(failed_share {failed / attempted if attempted else 0:.4g})")
    for problem in result["problems"][:10]:
        print(f"  FAILED: {problem}")
    for name in missing:
        print(f"  MISSING: {name}")
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
