#!/usr/bin/env python3
"""Repository benchmark: one seeded workload, one run, oracle-gated.

    python3 perfbench/run.py --workload php-local --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Generates (or reuses) the workload's
seeded inputs, measures a closed loop for ``--seconds`` in a separate
process, checks the answers against a whole-graph oracle outside the
timed region, prints every metric with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the traced variant and reports its per-layer metrics.  Exits 1 on
any failed read or oracle mismatch, 2 when the program is missing.
"""

from __future__ import annotations

import os

#: BLAS/OpenMP pools pinned to one thread, before numpy is imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: The measurement process must finish well inside the run limit.
CHILD_TIMEOUT_S = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graphs, for the benchmark's own tests only",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure ({ROOT / 'src' / 'repro'} missing)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import numpy as np
    import scipy

    from perfbench import gate
    from perfbench.workloads import WORKLOADS, prepare_inputs, smoke

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke(workload)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    started = time.perf_counter()
    inputs = prepare_inputs(ROOT, workload, args.seed)
    prepared = time.perf_counter()

    out_dir = ROOT / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    command = [
        sys.executable, "-m", "perfbench.driver",
        "--workload", workload.name,
        "--inputs", str(inputs.directory),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(stem),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    speed_before = calibration_s()
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: measurement process timed out", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: measurement process exited {child.returncode}", file=sys.stderr)
        return 1
    payload = json.loads(stem.with_suffix(".json").read_text())
    measured = time.perf_counter()
    speed_after = calibration_s()

    with np.load(stem.with_suffix(".npz")) as answers:
        verdict = gate.check(workload, inputs, dict(answers))
    checked = time.perf_counter()

    values = payload["layer_metrics"] if args.trace else payload["metrics"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in values:
            print(f"error: metric {spec['name']} not measured", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_revision": git_revision(ROOT),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "phases_s": {
            "inputs": prepared - started,
            "measure": measured - prepared,
            "oracle": checked - measured,
        },
        "calibration_s": [speed_before, speed_after],
        "oracle": verdict.summary(),
        "all_metrics": values,
        **payload["record"],
    }
    (stem.with_suffix(".record.json")).write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    units = {spec["name"]: spec["unit"] for spec in wanted}
    for name, value in sorted(values.items()):
        print(f"  {name:<26} {value:>14.6g} {units.get(name) or unit_of(name)}")
    print(
        f"  {'error_rate':<26} {verdict.error_rate:>14.6g} ratio  "
        f"({verdict.failed} failed / {verdict.attempted} attempted, "
        f"{verdict.oracle_checked} oracle-checked)"
    )
    for problem in verdict.problems[:10]:
        print(f"  mismatch: {problem}")
    print("record " + json.dumps(record, default=float))
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0 if verdict.failed == 0 else 1


def calibration_s() -> dict:
    """Seconds a fixed pure-Python loop and a fixed random gather take.

    Recorded before and after the measurement, they show when another
    tenant of the machine slowed it (the gather catches contention for
    memory bandwidth and cache, which the loop does not feel)."""
    import numpy as np

    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    looped = time.perf_counter()
    rng = np.random.default_rng(0)
    values = rng.random(1 << 22)
    index = rng.integers(0, len(values), 1 << 22)
    gather_started = time.perf_counter()
    values[index].sum()
    return {
        "python_loop": looped - started,
        "numpy_gather": time.perf_counter() - gather_started,
    }


def unit_of(name: str) -> str:
    """Unit of a metric that ``BENCHMARK.json`` does not declare."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "imbalance")):
        return "ratio"
    return "count"


def git_revision(root: Path) -> str | None:
    """HEAD's commit id, read from ``.git`` (None outside a repository)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
