"""``paper-sweep``: the bench-scale SYNTH figure grid through the fleet.

Six cells (n in {60, 120, 240} x two seeds) run through
``run_configs(backend=WorkerFleetBackend(2))`` into a fresh filesystem
``SummaryStore``.  The fleet journal gives per-cell lease-to-done times;
the smallest cell is recomputed serially in-process as a byte-identity
check and as the source of the simulator's per-layer counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

import measure
from common import OUT

#: System sizes of the bench-scale grid (``scenarios.n_values("bench")``).
N_GRID = (60, 120, 240)

#: Summary SHA-256 per (n, cell seed) for workload seed 0, as recorded in
#: the "scale-out core" entry of BENCH_sweep.json.
PINNED_SHA256 = {
    (60, 1): "f672d595896e0a13bf9205a913f9625e20c39c52026d51572287177a7ab5bdb4",
    (60, 2): "86e246153458c6f70753661953aa620e0133fe1183397d8ecededc796f2f50ad",
    (120, 1): "72b4d34b757a11e92f17de15b8a2248bb5c60394cc174f140c85267b38ac5139",
    (120, 2): "12cbe663a414a7a060405038fdc0aae50d3ef0950c35f269010159d85d414ae7",
    (240, 1): "e8c02ab20a56583b5e008536f0d77af3de43972cbbfea3d150aab408d3e7f66d",
    (240, 2): "b06dbe6c150be76d21fd3047ea23cc205deed38be04b53c0eb47ece90f01d4d4",
}

WORKERS = 2

#: Wall seconds of one sweep on the reference machine; ``--seconds`` buys
#: ``round(seconds / NOMINAL_SWEEP_S)`` sweeps (at least one), a fixed
#: amount of work per run whatever the machine's speed.
NOMINAL_SWEEP_S = 16.0

#: Extra fleet start-ups per run, each on two tiny cells: ``setup_s`` is
#: the median over these and the sweeps' own start-ups, since one ~10 ms
#: sample per run is mostly the host's scheduling noise.
STARTUPS = 16

#: In the timed sweeps, each ``Simulator.run_until`` call is cut into this
#: many equal stretches of simulated time, and the reference job
#: (``measure.reference_cpu_s``) runs at the first cut after every
#: ``measure.REFERENCE_EVERY_S`` CPU seconds.  Cutting changes no event's
#: order (the serial recompute and the pinned hashes check that).
CUTS = 100

#: Cells the traced run repeats under the profiler: the first-seed cells
#: of n=60 and n=120 (the n=240 cell would triple the traced run).
TRACED_CELLS = (0, 2)


def cell_seeds(seed: int) -> tuple:
    """The two simulation seeds of workload seed *seed* (0 -> 1, 2)."""
    return (2 * seed + 1, 2 * seed + 2)


def sweep_configs(seed: int) -> list:
    from repro.experiments.scenarios import scenario

    return [
        scenario("SYNTH", n, "bench", seed=cell_seed)
        for n in N_GRID
        for cell_seed in cell_seeds(seed)
    ]


def startup_configs(seed: int) -> list:
    """Two tiny SYNTH cells (about 50 ms each): enough to make both
    workers take a lease, little enough that start-up dominates."""
    from repro.experiments.runner import SimulationConfig

    return [
        SimulationConfig(
            model="SYNTH", n=30, duration=300.0, warmup=100.0,
            sample_interval=60.0, seed=cell_seed,
        )
        for cell_seed in cell_seeds(seed)
    ]


@contextlib.contextmanager
def speed_log(directory: Path):
    """While active, ``Simulator.run_until`` (in this process and in the
    fleet workers forked meanwhile) runs in :data:`CUTS` stretches with
    reference timings between them.  Each call appends a JSON line to
    ``directory/<pid>.jsonl``: the CPU seconds between timings (``spans``),
    the timings around them, and the reference job's total CPU seconds.
    """
    from repro.sim.engine import Simulator

    original = Simulator.run_until
    active = []

    def run_until(self, end_time):
        if active or end_time <= self.now:  # nested, or nothing to cut
            return original(self, end_time)
        active.append(True)
        try:
            begin = self.now
            step = (end_time - begin) / CUTS
            scale = measure.SpeedScale(every=measure.REFERENCE_EVERY_S)
            scale.mark()
            for cut in range(1, CUTS + 1):
                original(self, end_time if cut == CUTS else begin + cut * step)
                scale.offer(force=cut == CUTS)
            log = {
                "spans": scale.spans,
                "timings": scale.timings,
                "reference_cpu_s": scale.reference_cpu_s,
            }
            with open(directory / f"{os.getpid()}.jsonl", "a") as out:
                out.write(json.dumps(log) + "\n")
        finally:
            active.clear()

    Simulator.run_until = run_until
    try:
        yield
    finally:
        Simulator.run_until = original


def speed_scaled(directory: Path, workers_cpu: float) -> dict:
    """The workers' CPU seconds at reference speed, from :func:`speed_log`.

    Each span is scaled by the timings around it (``measure.SpeedScale``);
    the workers' other CPU (leases, set-up and summaries of cells) by the
    spans' overall factor; the reference job's own CPU is left out.
    """
    raw = scaled = reference = 0.0
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            log = json.loads(line)
            scale = measure.SpeedScale()
            scale.timings, scale.spans = log["timings"], log["spans"]
            raw += sum(scale.spans)
            scaled += scale.scaled_cpu_s()
            reference += log["reference_cpu_s"]
    factor = scaled / raw if raw else float("nan")
    other = workers_cpu - raw - reference
    return {
        "cpu_s": scaled + other * factor,
        "factor": factor,
        "reference_cpu_s": reference,
    }


def sha(summary) -> str:
    return hashlib.sha256(summary.to_json().encode("utf-8")).hexdigest()


def journal_timings(events: Sequence[dict], start: float) -> dict:
    """Setup, per-cell busy time and dispatch gaps from fleet events."""
    granted: Dict[int, float] = {}
    busy: Dict[int, float] = {}
    holders: set = set()
    setup = None
    last_done: Dict[int, float] = {}
    gap = 0.0
    for event in events:
        kind = event["event"]
        if kind == "fleet.lease_granted":
            worker, ts = event["worker"], event["ts"]
            granted[event["cell"]] = ts
            holders.add(worker)
            if setup is None and len(holders) >= WORKERS:
                setup = ts - start
            if worker in last_done:
                gap += ts - last_done.pop(worker)
        elif kind == "fleet.cell_done":
            cell = event["cell"]
            if cell in granted:
                busy[cell] = event["ts"] - granted[cell]
            last_done[event["worker"]] = event["ts"]
    return {"setup_s": setup, "busy": busy, "dispatch_gap_s": gap}


def fleet_sweep(configs: list, *, timed: bool = False) -> dict:
    """One sweep through a fresh fleet and store; a *timed* one also
    returns its workers' CPU seconds at reference speed (:func:`speed_log`)."""
    from repro.experiments.backends import WorkerFleetBackend
    from repro.experiments.orchestrator import SweepError, run_configs
    from repro.experiments.store import SummaryStore
    from repro.obs.journal import Journal

    OUT.mkdir(parents=True, exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT)
    journal = Journal(clock=time.perf_counter, retain=100_000)
    backend = WorkerFleetBackend(WORKERS)
    backend.attach_obs(journal=journal)
    store = SummaryStore(store_dir)
    failures: List[str] = []
    summaries = None
    # The fleet's start-up is scaled by the host's speed just before it.
    setup_factor = measure.REFERENCE_NOMINAL_S / measure.reference_cpu_s()
    start = time.perf_counter()
    cpu_start = measure.children_cpu_s()
    log_dir = Path(tempfile.mkdtemp(prefix="speed-", dir=OUT))
    logging = speed_log(log_dir) if timed else contextlib.nullcontext()
    try:
        with logging:
            summaries = run_configs(configs, backend=backend, store=store)
    except SweepError as exc:
        failures = [f"{f.label}: {f.error}" for f in exc.failures]
    wall = time.perf_counter() - start
    # The fleet joins its workers before returning, so their CPU is in.
    workers_cpu = measure.children_cpu_s() - cpu_start
    # Workers write through, so the parent's own ``writes`` stays 0; the
    # entries on disk are the store's writes.
    writes = len(store)
    shutil.rmtree(store_dir, ignore_errors=True)
    scaled = speed_scaled(log_dir, workers_cpu) if timed else None
    shutil.rmtree(log_dir, ignore_errors=True)
    timings = journal_timings(journal.events, start)
    return {
        "wall_s": wall,
        "workers_cpu_s": workers_cpu,
        "summaries": summaries,
        "failures": failures,
        "timings": timings,
        "stats": backend.stats,
        "store_writes": writes,
        "scaled": scaled,
        "setup_factor": setup_factor,
    }


def serial_cell(config) -> tuple:
    """Recompute one cell in-process; returns (summary, counts)."""
    from repro.experiments.runner import run_simulation
    from repro.experiments.summary import summarize

    result = run_simulation(config)
    relation = result.cluster.relation
    counts = {
        "net.network.messages": result.network.sent_messages,
        "core.node.calls": sum(
            node.computations for node in result.cluster.nodes.values()
        ),
        "core.hash_evaluations": relation.condition.hash_evaluations,
        "core.relation.index_entries": relation.index_entries(),
    }
    return summarize(result), counts


def traced_cells(configs: list, tracer) -> tuple:
    """Run :data:`TRACED_CELLS` serially in-process with spans on."""
    import repro.experiments.backends.base as base
    from repro.experiments.orchestrator import run_configs

    tracer.patch_function(base, "run_simulation", "experiments.run_simulation")
    tracer.patch_function(base, "summarize", "experiments.summarize")
    try:
        start = time.perf_counter()
        summaries = run_configs([configs[i] for i in TRACED_CELLS], backend="serial")
        wall = time.perf_counter() - start
    finally:
        tracer.unpatch()
    return summaries, wall


def run(seed: int, seconds: float, trace: bool, profiler=None, tracer=None) -> dict:
    configs = sweep_configs(seed)
    problems: List[str] = []
    sweeps = [
        fleet_sweep(configs, timed=True)
        for _ in range(max(1, round(seconds / NOMINAL_SWEEP_S)))
    ]
    # Read before the tiny fleets: the peak of the sweep's own workers.
    peak_rss = measure.peak_rss_mb(children=True)
    tiny = startup_configs(seed)
    startups = [fleet_sweep(tiny) for _ in range(STARTUPS)]

    tiny_reference = [serial_cell(config)[0].to_json() for config in tiny]
    for number, startup in enumerate(startups):
        if startup["failures"] or [
            s.to_json() for s in startup["summaries"]
        ] != tiny_reference:
            problems.append(f"start-up {number}: tiny cells failed or differ from serial")

    attempted = len(configs) * len(sweeps)
    failed = 0
    reference = None
    for number, sweep in enumerate(sweeps):
        if sweep["failures"]:
            failed += len(sweep["failures"])
            problems.extend(sweep["failures"])
            continue
        hashes = [sha(s) for s in sweep["summaries"]]
        if reference is None:
            reference = hashes
        elif hashes != reference:
            problems.append(f"sweep {number} summaries differ from sweep 0")
            failed += sum(a != b for a, b in zip(hashes, reference))
    if reference is None:
        return {"correct": False, "attempted": attempted, "failed": failed,
                "problems": problems}

    if seed == 0:
        for config, digest in zip(configs, reference):
            pinned = PINNED_SHA256[(config.n, config.seed)]
            if digest != pinned:
                failed += 1
                problems.append(
                    f"SYNTH-n{config.n}-s{config.seed}: sha256 {digest[:16]} "
                    f"!= pinned {pinned[:16]}"
                )

    first = sweeps[0]
    serial_summary, counts = serial_cell(configs[0])
    if serial_summary.to_json() != first["summaries"][0].to_json():
        failed += 1
        problems.append("serial recompute of the smallest cell differs from the fleet")

    events = sum(s.events_processed for s in first["summaries"])
    counts["sim.engine.events"] = events
    counts["fleet.retries"] = first["stats"].retries
    counts["fleet.deaths"] = first["stats"].deaths
    counts["fleet.leases_expired"] = first["stats"].leases_expired
    counts["store.writes"] = first["store_writes"]

    busy_total = [sum(s["timings"]["busy"].values()) for s in sweeps]
    walls = [s["wall_s"] for s in sweeps]
    fleets = startups + sweeps
    if any(s["timings"]["setup_s"] is None for s in fleets):
        problems.append("fleet journal never showed both workers leasing")
        fleets = [s for s in fleets if s["timings"]["setup_s"] is not None]
    setups = [s["timings"]["setup_s"] for s in fleets] or [float("nan")]
    scaled_setups = [s["timings"]["setup_s"] * s["setup_factor"] for s in fleets] or setups
    rates = [events / busy for busy in busy_total]
    cpu_rates = [
        events / (s["workers_cpu_s"] - s["scaled"]["reference_cpu_s"]) for s in sweeps
    ]
    # At reference speed (see speed_log and measure.SpeedScale).
    scaled_rates = [events / s["scaled"]["cpu_s"] for s in sweeps]
    scaled_walls = [s["wall_s"] * s["scaled"]["factor"] for s in sweeps]
    timings = {
        "fleet.busy_s": statistics.median(busy_total),
        "fleet.idle_frac": statistics.median(
            1.0 - busy / (WORKERS * wall) for busy, wall in zip(busy_total, walls)
        ),
        "fleet.dispatch_gap_s": statistics.median(
            s["timings"]["dispatch_gap_s"] for s in sweeps
        ),
    }
    report = {
        "sweeps": len(sweeps),
        "setup_samples": len(setups),
        "setup_wall_s": statistics.median(setups),
        "sweep_wall_s": statistics.median(walls),
        "sim_events_per_s": statistics.median(rates),
        "sim_events_per_cpu_s": statistics.median(cpu_rates),
        "speed_factor": statistics.median(s["scaled"]["factor"] for s in sweeps),
        "reference_cpu_s": statistics.median(s["scaled"]["reference_cpu_s"] for s in sweeps),
        "failed_frac": measure.failed_frac(attempted, failed),
        "cell_summary_sha256": {
            f"SYNTH-n{c.n}-s{c.seed}": digest for c, digest in zip(configs, reference)
        },
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "e2e": {
            "setup_s": statistics.median(scaled_setups),
            "peak_rss_mb": peak_rss,
            "throughput_per_s": statistics.median(scaled_rates),
            "latency_p50_ms": statistics.median(scaled_walls) * 1e3,
        },
        "report": report,
        "counts": counts,
        "timings": timings,
        "record": {"summary_sha256": reference, **counts},
    }
    if trace:
        profiler.enable()
        try:
            traced, traced_wall = traced_cells(configs, tracer)
        finally:
            profiler.disable()
        for index, summary in zip(TRACED_CELLS, traced):
            if sha(summary) != reference[index]:
                result["correct"] = False
                problems.append(f"traced cell {index} differs from the fleet")
        untraced = sum(first["timings"]["busy"][i] for i in TRACED_CELLS)
        result["overhead"] = traced_wall / untraced
    return result
