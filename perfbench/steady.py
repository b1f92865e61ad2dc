"""Run the benchmark over several seeds and report each metric's median and quartile spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workloads paper-sweeps qutrit-batch --seeds 1-10

Runs are sequential, one process at a time. For every end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json, and writes the table to ``.bench_run/steady-<first
workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": vals}
            print(f"  {name:>12}: median {statistics.median(vals):.5g}  Q1 {q1:.5g}  Q3 {q3:.5g}  "
                  f"spread {spread:.4f}  bound {bounds[name]} (third {bounds[name] / 3:.4f})")
        table[workload] = {"metrics": rows, "runs": runs}
    out = ROOT / ".bench_run" / f"steady-{args.workloads[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
