"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads gen,dense,sparse]
        [--seeds 1-10] [--trace 0|1] [--out FILE]

For every workload and metric it prints the median over the seeds and
the spread (third minus first quartile, as a share of the median),
and with ``--out`` writes the runs and the summary as JSON.  Each run
measures ``run_seconds`` from BENCHMARK.json.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spec_seconds() -> int:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=HERE.parent, timeout=600)
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    result["failures"] = [ln for ln in lines if ln.startswith("failed (")]
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _q2, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="gen,dense,sparse")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = spec_seconds()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, seconds, args.trace)
            r["seed"] = seed
            runs.append(r)
            print(f"{workload} seed {seed}: attempted {r['attempted']} "
                  f"failed {r['failed']} correct {r['correct']} "
                  f"wall {r['wall_s']:.1f} s", flush=True)
        summary = summarise(runs)
        for name, s in summary.items():
            print(f"  {name:40s} median {s['median']:14.6f} {s['unit']:9s}"
                  f" spread {s['spread']:.4f}", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
