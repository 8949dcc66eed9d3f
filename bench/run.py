"""gbmlab benchmark: one workload per call, each in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` of the checkout
that holds this file.  Set-up time is taken on several fresh processes
(PROBES of them plus the measuring one) and reported as their median.
The measuring process runs the workload closed-loop for S seconds,
checks every operation's output, and reports its operation times and
peak RSS.  The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A full record of the run goes to .gbmbench_results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
#: every run ends within this many seconds
LIMIT_S = 170.0
#: set-up-only processes started before the measuring one
PROBES = 2
#: no process runs more threads than this machine has cores; one keeps runs steady
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def _child(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker; returns (monotonic time it was started, its last-line JSON)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env={**os.environ, **THREAD_ENV},
                          timeout=max(1.0, deadline - started))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv[:2])} exited with {proc.returncode}")
    return started, json.loads(lines[-1])


def _p90(values: list[float]) -> float:
    """The 90th percentile when at least ten samples lie beyond it; else the median,
    since a run with fewer than 100 operations has no tail to report."""
    if len(values) < 100:
        return statistics.median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "gbmlab" / "__init__.py").is_file():
        print(f"run.py: no gbmlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.monotonic()
    deadline = t_start + LIMIT_S
    workdir = ROOT / ".gbmbench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--workdir", str(workdir)]
    try:
        setup = []
        if not args.trace:
            for _ in range(PROBES):
                started, probe = _child(common + ["--probe"], deadline)
                setup.append(probe["ready"] - started)
        budget = deadline - time.monotonic() - 10.0
        started, res = _child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                        "--trace", str(args.trace), "--budget", str(budget)],
                              deadline)
        setup.append(res["ready"] - started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        if "per_layer" not in res:
            print("run.py: the traced run completed no traced operation", file=sys.stderr)
            return 1
        values, wanted = res["per_layer"], spec["per_layer"]
    else:
        times = res["op_times"]
        if not times:
            print("run.py: no operation completed", file=sys.stderr)
            return 1
        values = {"setup_s": statistics.median(setup),
                  "op_p50_s": statistics.median(times),
                  "op_p90_s": _p90(times),
                  "peak_rss_mb": res["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"correct": not res["problems"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}

    out_dir = ROOT / ".gbmbench_results"
    out_dir.mkdir(exist_ok=True)
    record = {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup, "op_times_s": res["op_times"],
              "problems": res["problems"], "notes": res["notes"], "absent": res.get("absent"),
              "check_s": res["check_s"], "wall_s": time.monotonic() - t_start}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for note in res["notes"]:
        print(f"{args.workload}: note: {note}", file=sys.stderr)
    print(f"{args.workload}: {len(res['op_times'])} operations measured, "
          f"{res['failed']} failed, {len(res['problems'])} check problems", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
