"""The AVMON benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 12 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``paper-sweep``  -- the bench-scale SYNTH figure grid through the fleet;
* ``overlay-wan``  -- a 100-node in-memory overlay under the WAN plan;
* ``query-fanout`` -- §3.3 verified queries against a warmed overlay.

With ``--trace 0`` nothing is instrumented and the run reports the
end-to-end metrics.  With ``--trace 1`` it also repeats the workload's
timed core under ``cProfile`` plus entry-point spans, and reports the
per-layer metrics instead.  Every run checks the program's outputs; a run that
fails a check prints ``"correct": false`` with no numbers and exits 1.
The last line of standard output is always the JSON result.  Outputs
(results, traces, determinism records) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import signal
import sys
import time

from common import COUNT_METRICS, SRC, TIMING_METRICS, check_record, stamp, write_json
from tracing import LAYERS, Tracer, fold_profile

WORKLOADS = ("paper-sweep", "overlay-wan", "query-fanout")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

#: Units of per-layer metrics that are neither counts nor ``*_s`` seconds.
LAYER_UNITS = {
    "live.codec.bytes_per_datagram": "B",
    "apps.query.verified_frac": "frac",
    "fleet.idle_frac": "frac",
    "trace.overhead": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def report_unit(name: str) -> str:
    """Unit of a workload report entry, read off its name."""
    if name.endswith(("_per_s", "_per_cpu_s")) or name.startswith("query_qps"):
        return "vs/s" if name.startswith("overlay_vsec") else "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return ""


def load_workload(name: str):
    if name == "paper-sweep":
        import sweep_workload as module
    elif name == "overlay-wan":
        import overlay_workload as module
    else:
        import query_workload as module
    return module


def per_layer_metrics(result: dict, self_times: dict, tracer) -> dict:
    values = {name: result["counts"].get(name, 0) for name in COUNT_METRICS}
    values.update({name: result["timings"].get(name, 0.0) for name in TIMING_METRICS})
    scrape = tracer.totals.get("live.control.scrape")
    values["live.control.scrape_s"] = scrape[1] if scrape else 0.0
    values["trace.overhead"] = result["overhead"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run unwinds like an interrupted one, so the fleet's
    # workers and the overlays' child processes are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    trace = bool(args.trace)
    profiler = cProfile.Profile() if trace else None
    tracer = Tracer() if trace else None
    module = load_workload(args.workload)
    began = time.perf_counter()
    result = module.run(args.seed, args.seconds, trace, profiler=profiler, tracer=tracer)
    elapsed = time.perf_counter() - began

    key = f"{args.workload}-seed{args.seed}-s{args.seconds:g}"
    problems = list(result.get("problems", []))
    if result.get("record") is not None:
        problems += [
            f"differs from an earlier run of {key}: {line}"
            for line in check_record(key, result["record"])
        ]
    correct = bool(result.get("correct")) and not problems

    if not correct:
        metrics = {}
    elif trace:
        other: dict = {}
        self_times = fold_profile(pstats.Stats(profiler).stats, other=other)
        values = per_layer_metrics(result, self_times, tracer)
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in values.items()}
        write_json(
            f"trace-{key}.json",
            {
                "stamp": stamp(),
                "workload": args.workload,
                "seed": args.seed,
                "trace.overhead": result["overhead"],
                "layer_self_s": self_times,
                "other_top": dict(
                    sorted(other.items(), key=lambda kv: -kv[1])[:25]
                ),
                "span_table": tracer.table(),
                "spans_dropped": tracer.dropped,
                "spans": tracer.spans_json(),
            },
        )
    else:
        metrics = {
            name: {"value": result["e2e"][name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    write_json(
        f"result-{key}-trace{args.trace}.json",
        {
            "stamp": stamp(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "elapsed_s": elapsed,
            "correct": correct,
            "problems": problems,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result.get("e2e"),
            "report": result.get("report"),
            "counts": result.get("counts"),
            "timings": result.get("timings"),
            "metrics": metrics,
        },
    )

    print(f"workload {args.workload} seed {args.seed} ({elapsed:.1f} s)")
    for line in problems:
        print(f"CHECK FAILED: {line}")
    for name, value in sorted((result.get("report") or {}).items()):
        if not isinstance(value, (dict, list)):
            print(f"  {name} = {value} {report_unit(name)}".rstrip())
    for name, payload in metrics.items():
        print(f"  {name} = {payload['value']} {payload['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
