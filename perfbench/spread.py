"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload overlay-wan --seeds 0-9

For every end-to-end metric: the median of the runs and the distance
between the first and third quartile as a share of the median (the
figure BENCHMARK.json's bounds are set against).  Runs are untraced
and sequential, one fresh process each; a run that fails or prints no
result stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, ROOT, write_json
from measure import spread


def parse_seeds(text: str):
    if "-" in text:
        low, high = (int(part) for part in text.split("-", 1))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-4")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args(argv)

    values = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        command = [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", f"{args.seconds:g}",
            "--trace", "0",
        ]
        began = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.perf_counter() - began)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, payload in result["metrics"].items():
            values.setdefault(name, []).append(payload["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, failed {result['failed']}/{result['attempted']}")

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    rows = {}
    for name, series in values.items():
        row = {"median": statistics.median(series), "values": series}
        if len(series) >= 2 and row["median"]:
            row["spread"] = spread(series)
        rows[name] = row
        bound = bounds.get(name)
        note = ""
        if bound is not None and "spread" in row:
            note = f"  bound {bound}  ({row['spread'] / bound:.2f} of it)"
        print(f"{name:40s} median {row['median']:.6g}  spread {row.get('spread', float('nan')):.4f}{note}")
    print(f"run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    write_json(
        f"spread-{args.workload}.json",
        {"seeds": args.seeds, "seconds": args.seconds, "rows": rows, "run_walls": walls},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
