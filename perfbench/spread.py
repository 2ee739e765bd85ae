"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload battery --seeds 1-10

Runs perfbench/run.py untraced for run_seconds of BENCHMARK.json, once per
seed, one run at a time, from the root of the checkout, and prints per
metric the median, the quartiles and the distance between them as a share
of the median (``statistics.quantiles(values, n=4)``), next to the bound in
BENCHMARK.json. The raw results are appended
to .perfbench-out/spread-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '1,4,9'")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    results = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        log = proc.stderr.strip().splitlines()
        with open(out_dir / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(json.dumps({"seed": seed, **result,
                                 "log": log[-1] if log else ""}) + "\n")
        print(f"seed {seed}: correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed, "
              + ", ".join(f"{k} {v['value']:.6g}"
                          for k, v in result["metrics"].items()))
    print(f"\n{args.workload}: {len(results)} runs, all correct: "
          f"{all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = stats.quartiles(vals)
        bound = bounds.get(name)
        spread = stats.relative_spread(vals)
        flag = "" if bound is None else (
            f"  bound {bound}  spread/bound {spread / bound:.2f}")
        print(f"{name:36s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
