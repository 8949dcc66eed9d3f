"""One run of one workload in a fresh process: set-up, closed-loop operations, checks.

Started by run.py, which reads the JSON object this prints last.  With
--probe the process stops once set-up is done and reports only when that
was.  With --trace 1 every round runs three passes: one untraced, one
recording spans, and one also taking tracemalloc peaks, so that the
peaks cost the span times nothing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--workdir", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--budget", type=float, default=150.0,
                   help="start no round that would end later than this many seconds")
    args = p.parse_args()

    wl = WORKLOADS[args.workload](args.workdir)
    wl.setup()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    rec = absent = None
    passes = ["plain"]
    if args.trace:
        import spans
        rec = spans.Recorder()
        _, absent = spans.install(rec)
        passes = ["plain", "spans", "peaks"]

    times = {p: [] for p in passes}
    traces = {p: [] for p in passes}
    attempted = failed = 0
    problems: list[str] = []
    i = rounds = 0
    check_s = 0.0
    while True:
        round_start = time.monotonic()
        for mode in passes:
            for k in range(wl.ops_per_round):
                seed = args.seed * 100000 + i
                i += 1
                # garbage of the previous operation and check is not collected inside this one
                gc.collect()
                if mode != "plain":
                    rec.begin(peaks=mode == "peaks")
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = wl.run(k, seed)
                except Exception as exc:  # a failed operation is counted, and the run goes on
                    out = None
                    failed += 1
                    print(f"{wl.name}: operation seed {seed} failed: {exc!r}", file=sys.stderr)
                dt = time.perf_counter() - t0
                if mode != "plain":
                    tr = rec.end()
                if out is None:
                    continue
                times[mode].append(dt)
                if mode != "plain":
                    traces[mode].append(tr)
                t0 = time.perf_counter()
                found = wl.check(out)
                check_s += time.perf_counter() - t0
                del out
                for msg in found:
                    print(f"{wl.name}: operation seed {seed}: {msg}", file=sys.stderr)
                problems += found
        rounds += 1
        now = time.monotonic()
        if (args.trace or rounds >= wl.min_rounds) and now - ready >= args.seconds:
            break
        if now + (now - round_start) - ready > args.budget:
            print(f"{wl.name}: stopping after {rounds} rounds to end within the time limit",
                  file=sys.stderr)
            break

    result = {"ready": ready, "attempted": attempted, "failed": failed,
              "problems": problems, "notes": wl.notes, "op_times": times["plain"],
              "check_s": check_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace and traces["spans"] and traces["peaks"]:
        result["per_layer"] = spans.per_layer(traces["spans"], traces["peaks"], times["plain"],
                                              absent)
        result["absent"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
