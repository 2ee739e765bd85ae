"""lyocert benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 60 --trace 0

Run from the root of a checkout. The program is imported from ./src and
driven in-process through ``lyocert.cli.main`` on configs generated from the
seed. A round runs each of the workload's reports once, in a fixed order.
Before each round the run starts three fresh interpreters that import
lyocert and load the configs (setup_s). Rounds repeat until the next one,
with its starts, would end after --seconds (at least two rounds). Every
report is timed from outside and checked after its round, outside the timed
section. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over rounds);
with --trace 1 rounds alternate untraced and traced, the per-layer metrics
of BENCHMARK.json come from the traced rounds, and the spans are written to
.perfbench-out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import stats
from tracing import Tracer
from workloads import WORKLOADS, count_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_STARTS_PER_ROUND = 3
MIN_ROUNDS = 2

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import lyocert.cli
for path in sys.argv[2:]:
    lyocert.cli.load_config(path)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(configs) -> float:
    """Wall time of a fresh interpreter importing lyocert and loading and
    validating the workload's configs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *configs],
                   check=True, cwd=ROOT)
    return time.perf_counter() - t0


def run_report(cli, report):
    """(exit code or None on an exception, stdout text, wall seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(report.argv))
    except Exception:  # a crash is a failed report, not a benchmark error
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, buf.getvalue(), time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lyocert" / "cli.py").is_file():
        print(f"error: no lyocert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lyocert.cli as cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"configs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "per_layer"]

        setups = []
        cycles = []
        tracer = Tracer() if args.trace else None
        walls = {False: [], True: []}
        cpus = []
        report_walls = {r.label: [] for r in workload.reports}
        layer_rounds = []
        attempted = failed = 0
        problems = []
        rnd = 0
        while True:
            cycle_start = time.perf_counter()
            setups.extend(setup_seconds(workload.configs)
                          for _ in range(SETUP_STARTS_PER_ROUND))
            traced = bool(args.trace) and rnd % 2 == 1
            if traced:
                tracer.round = rnd
                layers.install(tracer)
            results = []
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                for report in workload.reports:
                    results.append(run_report(cli, report))
            finally:
                wall = time.perf_counter() - w0
                cpu = time.process_time() - c0
                if traced:
                    tracer.uninstall()
            walls[traced].append(wall)
            if not traced:
                cpus.append(cpu)

            done = {}
            for report, (code, text, secs) in zip(workload.reports, results):
                attempted += 1
                if not traced:
                    report_walls[report.label].append(secs)
                if code != 0:
                    failed += 1
                    print(f"round {rnd} {report.label}: exit code {code}",
                          file=sys.stderr)
                    continue
                try:
                    out = json.loads(text)
                    found = report.check(code, out, done)
                except Exception as exc:  # a malformed report is incorrect
                    found = [f"check raised {type(exc).__name__}: {exc}"]
                    out = None
                done[report.label] = out
                problems.extend(f"round {rnd} {report.label}: {p}"
                                for p in found)
            if traced:
                spans = [s for s in tracer.spans if s.round == rnd]
                layer_rounds.append(layers.round_metrics(
                    spans, count_checks(done)))

            rnd += 1
            cycles.append(time.perf_counter() - cycle_start)
            if (rnd >= MIN_ROUNDS
                    and sum(cycles) + stats.median(cycles) > args.seconds):
                break

        for p in problems:
            print(p, file=sys.stderr)
        if args.trace:
            metrics = {}
            for m in per_layer:
                name = m["name"]
                if name == "trace.overhead_s":
                    val = (stats.median(walls[True])
                           - stats.median(walls[False]))
                else:
                    val = stats.median(r[name] for r in layer_rounds)
                metrics[name] = {"value": val, "unit": m["unit"]}
            tracer.write_jsonl(
                OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl")
        else:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": {"value": stats.median(setups), "unit": "s"},
                "round_s": {"value": stats.median(walls[False]), "unit": "s"},
                "round_cpu_s": {"value": stats.median(cpus), "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        print(f"{args.workload} seed {args.seed}: {rnd} rounds, "
              f"round walls {[round(w, 3) for w in walls[False]]} untraced, "
              f"{[round(w, 3) for w in walls[True]]} traced, "
              f"setup median {stats.median(setups):.3f} s of "
              f"{len(setups)}, report medians "
              + ", ".join(f"{k} {stats.median(v):.3f} s"
                          for k, v in report_walls.items() if v),
              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
