#!/usr/bin/env python3
"""Run the benchmark on several seeds and record how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 20 \\
        --workloads php-local,rwr-global,serve-zipf,churn --out steadiness.json

For every workload and metric: the values of each run, their median,
quartiles (``statistics.quantiles(values, n=4)``), the quartile distance
as a share of the median (the spread ``BENCHMARK.json`` bounds are set
against) and max - min.  Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "min": min(values),
        "max": max(values),
        "max_minus_min": max(values) - min(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="php-local,rwr-global,serve-zipf,churn")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
            result["seed"] = seed
            result["exit"] = proc.returncode
            result["calibration_s"] = record["calibration_s"]
            runs.append(result)
            status |= proc.returncode
            print(f"{workload} seed={seed} exit={proc.returncode} "
                  f"gather={result['calibration_s'][0]['numpy_gather']:.3f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {
            name: spread([run["metrics"][name]["value"] for run in runs])
            for name in runs[0]["metrics"]
        }
        report["workloads"][workload] = {
            "runs": [
                {k: run[k] for k in (
                    "seed", "exit", "correct", "attempted", "failed", "calibration_s"
                )}
                for run in runs
            ],
            "metrics": metrics,
        }
        for name, s in metrics.items():
            bound = bounds.get(name)
            print(f"  {workload:<11} {name:<24} median={s['median']:.5g} "
                  f"q1={s['q1']:.5g} q3={s['q3']:.5g} iqr/median={s['iqr_share']:.3f} "
                  f"max-min={s['max_minus_min']:.4g}"
                  + (f" bound={bound}" if bound is not None else ""), flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
