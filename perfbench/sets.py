"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sets.py --seeds 1-10 [--workload NAME ...] [--trace 1]
        [--label set1]

Runs ``perfbench/run.py`` once per workload and seed, one process at a time,
with the run length from ``BENCHMARK.json``. Prints, per workload and metric,
the median, the quartiles and the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``). With ``--label`` the raw result
lines are also written to ``perfbench/results/<label>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out.update(workload=workload, seed=seed, trace=trace, summary=lines[-2])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workload", action="append")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sink = None
    if args.label:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        sink = open(os.path.join(HERE, "results", args.label + ".jsonl"), "a")
    try:
        for workload in workloads:
            runs = []
            for seed in seed_list(args.seeds):
                res = run_once(workload, seed, spec["run_seconds"], args.trace)
                runs.append(res)
                print(res["summary"], flush=True)
                if sink:
                    sink.write(json.dumps(res) + "\n")
                    sink.flush()
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"## {workload}: correct={all(r['correct'] for r in runs)} "
                  f"failed={failed}/{attempted}")
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) \
                    if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / med if med else float("nan")
                print(f"{workload:20s} {name:30s} median={med:<12.6g} "
                      f"q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.3f}",
                      flush=True)
    finally:
        if sink:
            sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
