"""``overlay-wan``: a 100-node in-memory overlay under the WAN fault plan.

One node is crashed and respawned inside the timed window.  Set-up is
``MemoryOverlay.run()`` until every node has booted (the moment the
overlay starts its workload hook); the timed part is the steady state
after that, cut into quarter-virtual-second slices with a reference
job between them (see ``measure.SpeedScale``).
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
from typing import List, Tuple

import fabric
import measure
from common import diff_counts

NODES = 100
#: Virtual seconds the steady state advances per wall second on the
#: reference machine; sizes the virtual window from ``--seconds``.
NOMINAL_VSEC_PER_S = 1.25
#: Crash one node this far into the window, respawn it after the downtime.
CRASH_AFTER = 0.5
CRASH_DOWNTIME = 1.0
MIN_WINDOW = 4.0
#: Virtual seconds per timed slice; the reference job of
#: :class:`measure.SpeedScale` runs between slices.
SLICE_VSEC = 0.25

#: The ``LiveReport`` fields a run keeps and checks.
AUDITED = (
    "violations",
    "discovery_ratio",
    "crashes",
    "victim_recovery",
    "expected_pairs",
    "discovered_pairs",
)

MIN_DISCOVERY = 0.99
MIN_RECOVERY = 0.9


def window(seconds: float, reps: int = fabric.REPS) -> float:
    """Virtual seconds of steady state per overlay."""
    return max(MIN_WINDOW, round(seconds * NOMINAL_VSEC_PER_S / reps, 1))


def overlay_config(config_seed: int, vsec: float):
    from repro.live.supervisor import LiveConfig

    return LiveConfig(
        nodes=NODES,
        fault="WAN",
        duration=vsec,
        seed=config_seed,
        crash_after=CRASH_AFTER,
        crash_downtime=CRASH_DOWNTIME,
        control_port=-1,
        label="perfbench-overlay-wan",
    )


def one_overlay(config, vsec: float, trace=None) -> dict:
    """Boot, run the steady window, audit; returns measurements.

    Durations are ``(wall, cpu)`` pairs (see :func:`measure.now`).
    """
    marks: dict = {}

    async def steady(overlay, counters, setup_done) -> None:
        loop = asyncio.get_running_loop()
        marks["booted"] = setup_done()
        before = counters()
        end = loop.time() + vsec
        # Per slice: (wall, CPU, virtual seconds).
        slices: List[Tuple[float, float, float]] = []
        scale = measure.SpeedScale() if trace is None else None

        async def window_slices() -> None:
            if scale is not None:
                scale.mark()
            while loop.time() < end - 1e-9:
                tick, virtual = measure.now(), loop.time()
                await asyncio.sleep(min(SLICE_VSEC, end - loop.time()))
                slices.append((*measure.elapsed(tick, measure.now()), loop.time() - virtual))
                # The reference job runs between slices, untimed; the
                # virtual clock stands still while it does.
                if scale is not None:
                    scale.mark()

        await fabric.phase(window_slices(), "perfbench.overlay_window", trace)
        marks["factors"] = [scale.factor(i) for i in range(len(slices))] if scale else None
        marks["slices"] = slices
        marks["counts"] = fabric.layer_counts(before, counters())

    report, started, setup = fabric.run_overlay(config, steady, trace is None)
    summary = report.summary.to_json()
    return {
        "setup": measure.elapsed(started, marks["booted"]),
        "setup_scaled": setup.scaled_cpu_s() if setup else None,
        "steady": tuple(sum(piece[i] for piece in marks["slices"]) for i in (0, 1)),
        "slices": marks["slices"],
        "factors": marks["factors"],
        "counts": marks["counts"],
        # Only the audited fields come back from the overlay's child
        # process, not the full report with 100 nodes' status replies.
        "report": {name: getattr(report, name) for name in AUDITED},
        "summary_sha256": hashlib.sha256(summary.encode("utf-8")).hexdigest(),
    }


def check(rep: dict, number: int) -> List[str]:
    report = rep["report"]
    problems = []
    if report["violations"] != 0:
        problems.append(f"overlay {number}: {report['violations']} violations")
    if report["discovery_ratio"] < MIN_DISCOVERY:
        problems.append(
            f"overlay {number}: discovery {report['discovery_ratio']:.4f} < {MIN_DISCOVERY}"
        )
    if report["crashes"] != 1:
        problems.append(f"overlay {number}: {report['crashes']} crashes, expected 1")
    recovery = report["victim_recovery"]
    if recovery is None or recovery < MIN_RECOVERY:
        problems.append(f"overlay {number}: victim recovery {recovery} < {MIN_RECOVERY}")
    return problems


def run(seed: int, seconds: float, trace: bool, profiler=None, tracer=None) -> dict:
    vsec = window(seconds)
    seeds = fabric.overlay_seeds(seed, 1 if trace else fabric.REPS)
    configs = [overlay_config(s, vsec) for s in seeds]
    reps, peaks = zip(*(fabric.in_child(one_overlay, config, vsec) for config in configs))

    problems: List[str] = []
    for number, rep in enumerate(reps):
        problems.extend(check(rep, number))
    attempted = sum(rep["report"]["expected_pairs"] for rep in reps)
    failed = sum(
        rep["report"]["expected_pairs"] - rep["report"]["discovered_pairs"] for rep in reps
    )
    steady_wall, steady_cpu = (sum(rep["steady"][i] for rep in reps) for i in (0, 1))
    slices = [s for rep in reps for s in rep["slices"]]
    # Slice CPU times at the reference machine's speed (measure.SpeedScale).
    scaled = [s[1] * f for rep in reps for s, f in zip(rep["slices"], rep["factors"])]
    per_vsec = [s[1] / s[2] for s in slices]
    scaled_per_vsec = [cpu / s[2] for cpu, s in zip(scaled, slices)]
    vsec_total = vsec * len(reps)
    report = {
        "overlays": len(reps),
        "window_vsec": vsec,
        "overlay_vsec_per_s": vsec_total / steady_wall,
        "overlay_vsec_per_cpu_s": vsec_total / steady_cpu,
        "setup_wall_s": statistics.median(rep["setup"][0] for rep in reps),
        "setup_cpu_s": statistics.median(rep["setup"][1] for rep in reps),
        "slice_vsec": SLICE_VSEC,
        "cpu_per_vsec": measure.latency_summary(per_vsec),
        "scaled_cpu_per_vsec": measure.latency_summary(scaled_per_vsec),
        "speed_factor_median": statistics.median(f for rep in reps for f in rep["factors"]),
        "failed_frac": measure.failed_frac(attempted, failed),
        "discovery_ratio": [rep["report"]["discovery_ratio"] for rep in reps],
        "victim_recovery": [rep["report"]["victim_recovery"] for rep in reps],
        "summary_sha256": [rep["summary_sha256"] for rep in reps],
    }
    counts = dict(reps[0]["counts"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "setup_s": statistics.median(rep["setup_scaled"] for rep in reps),
            "peak_rss_mb": statistics.median(peaks),
            "throughput_per_s": vsec_total / sum(scaled),
            "latency_p50_ms": report["scaled_cpu_per_vsec"]["p50_ms"],
        },
        "report": report,
        "counts": counts,
        "timings": {},
        "record": {
            f"overlay-seed{config.seed}": {"summary_sha256": rep["summary_sha256"], **rep["counts"]}
            for config, rep in zip(configs, reps)
        },
    }
    if trace:
        traced = one_overlay(configs[0], vsec, (profiler, tracer))
        problems.extend(check(traced, 1))
        if traced["summary_sha256"] != reps[0]["summary_sha256"]:
            problems.append("traced overlay: summary bytes differ from the untraced one")
        problems.extend(diff_counts(counts, traced["counts"], "traced overlay"))
        result["correct"] = not problems
        result["overhead"] = traced["steady"][0] / reps[0]["steady"][0]
    return result
