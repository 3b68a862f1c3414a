"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload jarvis_block --runs 10 [--first-seed 1]

Runs ``perfbench/run.py`` once per seed (seeds ``first-seed`` onwards),
then prints each end-to-end metric's median and the distance between its
first and third quartile as a share of the median, next to the bound
``BENCHMARK.json`` gives it, and how many runs had their host-speed kernel
flagged.  Every run's JSON line is kept in
``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import iqr_share  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = ROOT / "perfbench" / "out" / f"spread-{args.workload}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    values: dict = {}
    flagged = 0
    with out.open("w") as handle:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            handle.write(line + "\n")
            result = json.loads(line)
            if proc.returncode != 0 or not result.get("correct"):
                print(f"seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            record = out.parent / f"result-{args.workload}-seed{seed}-trace0.json"
            kernel = json.loads(record.read_text())["kernel_ms"]
            flagged += kernel["flagged"]
            print(f"seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
            ) + f" kernel_ms={kernel['epoch_mean']:.3f}" + " FLAG" * kernel["flagged"],
                flush=True)
    print(f"{'metric':<22} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for name, series in values.items():
        share = iqr_share(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or share <= bound / 3 else "  (above bound/3)"
        print(f"{name:<22} {statistics.median(series):>12.5g} {share:>11.4f} {bound!s:>6}{flag}")
    print(f"host-speed kernel flagged in {flagged} of {args.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
