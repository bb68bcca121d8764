"""``query-fanout``: §3.3 verified queries against a warmed overlay.

A 100-node overlay under the null fault plan settles for 12 virtual
seconds; then ``memory_backend`` -> ``AvailabilityService`` (no cache
TTL, limits above the offered load) -> ``MemoryHttpClient`` serve a
seeded request mix from a closed loop of two in-process clients, in
timed rounds of :data:`ROUND` requests; answers are checked between
rounds.  Under the null plan every delivery is ``call_soon``, so the
virtual clock stands still while requests are in flight and node
protocol traffic is paused: the timed phase measures the serving path
alone.
"""

from __future__ import annotations

import asyncio
import random
import statistics
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import fabric
import measure
from common import diff_counts

NODES = 100
CLIENTS = 2
SETTLE_VSEC = 12.0
#: Requests per wall second on the reference machine; sizes each phase
#: from ``--seconds``.
NOMINAL_QPS = 2000
MIN_REQUESTS = 1000
#: Requests per round (split between the clients).  The reference job
#: of :class:`measure.SpeedScale` runs between rounds.
ROUND = 200
AVAILABILITY_SHARE = 0.85
MONITORS_SHARE = 0.10
LEVELS = (1, 2, 3)
#: Far above any phase's request count: the virtual clock is frozen
#: during the phase, so token buckets never refill.
UNLIMITED = 1e12

Request = Tuple[str, str, int, Optional[int]]  # (path, kind, subject, l)


def request_count(seconds: float, reps: int = fabric.REPS) -> int:
    return max(MIN_REQUESTS, int(seconds * NOMINAL_QPS / reps))


def query_schedule(seed: int, count: int, nodes: int = NODES) -> List[Request]:
    """The seeded request mix: 85% availability, 10% monitors, 5% nodes."""
    rng = random.Random(f"perfbench-query-fanout-{seed}")
    schedule: List[Request] = []
    for _ in range(count):
        draw = rng.random()
        subject = rng.randrange(nodes)
        if draw < AVAILABILITY_SHARE:
            level = rng.choice(LEVELS)
            schedule.append(
                (f"/availability/{subject}?l={level}", "availability", subject, level)
            )
        elif draw < AVAILABILITY_SHARE + MONITORS_SHARE:
            schedule.append((f"/monitors/{subject}", "monitors", subject, 1))
        else:
            schedule.append(("/nodes", "nodes", -1, None))
    return schedule


def classify(
    request: Request,
    status: int,
    body: dict,
    holds: Callable[[int, int], bool],
    nodes: int = NODES,
) -> Optional[str]:
    """Why a response is not a verified answer, or None when it is.

    A verified answer is a 200 whose monitor sets agree with the
    consistency condition (checked here, independently of the service),
    whose policy flag matches ``len(verified) >= l``, and that did not
    time out.  An unsatisfied ``l`` policy with correct sets is a
    verified answer: the subject has fewer than ``l`` verified monitors.
    """
    _, kind, subject, level = request
    if status != 200:
        return f"status {status}"
    if kind == "nodes":
        return None if body.get("nodes") == list(range(nodes)) else "wrong node list"
    verified = body.get("verified_monitors", [])
    rejected = body.get("rejected_monitors", [])
    if body.get("subject") != subject:
        return "wrong subject"
    if any(not holds(monitor, subject) for monitor in verified):
        return "verified a monitor the condition rejects"
    if any(holds(monitor, subject) for monitor in rejected):
        return "rejected a monitor the condition accepts"
    if body.get("timed_out"):
        return "timed out"
    if body.get("policy_satisfied") != (len(verified) >= level):
        return "policy flag disagrees with the verified set"
    if kind == "availability":
        reports = body.get("reports", {})
        if sorted(int(m) for m in reports) != sorted(verified):
            return "reports do not cover the verified monitors"
        if not 0.0 <= body.get("availability", -1.0) <= 1.0:
            return "availability out of range"
    return None


def overlay_config(config_seed: int):
    from repro.live.supervisor import LiveConfig

    return LiveConfig(
        nodes=NODES,
        fault="NONE",
        duration=SETTLE_VSEC + 1.0,
        seed=config_seed,
        control_port=-1,
        label="perfbench-query-fanout",
    )


def service_config():
    from repro.serve.service import ServeConfig

    return ServeConfig(
        cache_ttl=0.0,
        global_rate=UNLIMITED,
        global_burst=UNLIMITED,
        client_rate=UNLIMITED,
        client_burst=UNLIMITED,
        max_concurrency=256,
        query_timeout=1.0,
    )


def monitor_sets(config) -> Dict[int, FrozenSet[int]]:
    """Every node's monitors by the consistency condition, from a condition
    of the benchmark's own.  Computed before the overlay runs, so neither
    the timed phase nor the service's hash count includes the checker."""
    from repro.core.condition import ConsistencyCondition

    condition = ConsistencyCondition(
        config.resolved_k(), config.nodes, config.hash_algorithm
    )
    nodes = range(config.nodes)
    return {
        subject: frozenset(m for m in nodes if condition.holds(m, subject))
        for subject in nodes
    }


def one_overlay(config, schedule: List[Request], trace=None) -> dict:
    from repro.serve.backend import memory_backend
    from repro.serve.http import MemoryHttpClient
    from repro.serve.service import AvailabilityService

    marks: dict = {}
    expected = monitor_sets(config)

    def holds(monitor: int, subject: int) -> bool:
        return monitor in expected[subject]

    async def serve(overlay, counters, setup_done) -> None:
        loop = asyncio.get_running_loop()
        await asyncio.sleep(SETTLE_VSEC)
        backend = memory_backend(overlay)
        await backend.start()
        service = AvailabilityService(backend, service_config(), clock=loop.time)
        http = MemoryHttpClient(service)
        # Per request: (wall, CPU, round index).
        latencies: List[Tuple[float, float, int]] = []
        rounds: List[measure.Reading] = []
        errors: List[str] = []
        tally: dict = {}
        unsatisfied = [0]
        scale = measure.SpeedScale() if trace is None else None
        before = counters()
        queries_before = backend.queries

        async def client(index: int, part: List[Request], answers: list) -> None:
            for request in part[index::CLIENTS]:
                sent = measure.now()
                status, body, _ = await http.request(
                    "GET", request[0], headers={"X-Client-Id": f"client-{index}"}
                )
                wall, cpu = measure.elapsed(sent, measure.now())
                latencies.append((wall, cpu, len(rounds)))
                answers.append((request, status, body))

        async def all_rounds() -> None:
            if scale is not None:
                scale.mark()
            for first in range(0, len(schedule), ROUND):
                part = schedule[first : first + ROUND]
                answers: list = []
                start = measure.now()
                await asyncio.gather(*(client(i, part, answers) for i in range(CLIENTS)))
                rounds.append(measure.elapsed(start, measure.now()))
                # Checks and the reference job run between rounds, untimed.
                for request, status, body in answers:
                    tally[status] = tally.get(status, 0) + 1
                    why = classify(request, status, body, holds)
                    if why is not None:
                        errors.append(f"{request[0]}: {why}")
                    elif body.get("policy_satisfied") is False:
                        unsatisfied[0] += 1
                if scale is not None:
                    scale.mark()

        marks["phase_start"] = setup_done()
        virtual_start = loop.time()
        await fabric.phase(all_rounds(), "perfbench.query_phase", trace, patch_serve_spans)
        marks["virtual_elapsed"] = loop.time() - virtual_start
        counts = fabric.layer_counts(before, counters())
        queries = backend.queries - queries_before
        stats = service.cache.stats
        metrics = service.metrics
        verified, rejected = metrics.monitors_verified, metrics.monitors_rejected
        counts.update(
            {
                "serve.ratelimit.rejected": metrics.totals()["rate_limited"],
                "serve.cache.misses": stats.misses,
                "serve.cache.coalesced": stats.coalesced,
                "apps.query.monitors_verified": verified,
                "apps.query.monitors_rejected": rejected,
                "apps.query.timed_out": metrics.queries_timed_out,
                "apps.query.verified_frac": round(
                    verified / (verified + rejected), 6
                ) if verified + rejected else 0.0,
                "apps.query.datagrams_per_query": round(
                    counts["live.memory_transport.delivered"] / queries, 6
                ) if queries else 0.0,
            }
        )
        factors = [scale.factor(i) for i in range(len(rounds))] if scale else None
        marks.update(
            latencies=latencies,
            rounds=rounds,
            factors=factors,
            errors=errors,
            tally=tally,
            unsatisfied=unsatisfied[0],
            counts=counts,
            server_errors=metrics.totals()["server_errors"],
        )
        await backend.close()

    _, started, setup = fabric.run_overlay(config, serve, trace is None)
    return {
        "setup": measure.elapsed(started, marks["phase_start"]),
        "setup_scaled": setup.scaled_cpu_s() if setup else None,
        "phase": tuple(sum(r[i] for r in marks["rounds"]) for i in (0, 1)),
        **marks,
    }


def check(rep: dict, number: int, requests: int) -> List[str]:
    problems = []
    if rep["server_errors"] or any(status >= 500 for status in rep["tally"]):
        problems.append(f"overlay {number}: 5xx responses {rep['tally']}")
    if rep["virtual_elapsed"] != 0.0:
        problems.append(
            f"overlay {number}: {rep['virtual_elapsed']} virtual s elapsed in the phase"
        )
    if sum(rep["tally"].values()) != requests:
        problems.append(f"overlay {number}: {sum(rep['tally'].values())} of {requests} answered")
    return problems


def run(seed: int, seconds: float, trace: bool, profiler=None, tracer=None) -> dict:
    requests = request_count(seconds)
    seeds = fabric.overlay_seeds(seed, 1 if trace else fabric.REPS)
    inputs = [(overlay_config(s), query_schedule(s, requests)) for s in seeds]
    reps, peaks = zip(*(fabric.in_child(one_overlay, *args) for args in inputs))

    problems: List[str] = []
    for number, rep in enumerate(reps):
        problems.extend(check(rep, number, requests))
    attempted = requests * len(reps)
    failed = sum(len(rep["errors"]) for rep in reps)
    latencies = [s for rep in reps for s in rep["latencies"]]
    phase_wall, phase_cpu = (sum(rep["phase"][i] for rep in reps) for i in (0, 1))
    wall_lat = measure.latency_summary([s[0] for s in latencies])
    cpu_lat = measure.latency_summary([s[1] for s in latencies])
    # CPU times at the reference machine's speed (see measure.SpeedScale).
    scaled_cpu = sum(
        r[1] * factor for rep in reps for r, factor in zip(rep["rounds"], rep["factors"])
    )
    scaled_lat = measure.latency_summary(
        [cpu * rep["factors"][index] for rep in reps for _, cpu, index in rep["latencies"]]
    )
    report = {
        "overlays": len(reps),
        "requests_per_overlay": requests,
        "query_qps": attempted / phase_wall,
        "query_qps_cpu": attempted / phase_cpu,
        "query_p50_ms": wall_lat["p50_ms"],
        "query_p99_ms": measure.percentile([s[0] for s in latencies], 99.0) * 1e3,
        "query_cpu_p50_ms": cpu_lat["p50_ms"],
        "query_cpu_p99_ms": measure.percentile([s[1] for s in latencies], 99.0) * 1e3,
        "latency_wall": wall_lat,
        "latency_cpu": cpu_lat,
        "latency_scaled": scaled_lat,
        "speed_factor_median": statistics.median(f for rep in reps for f in rep["factors"]),
        "setup_wall_s": statistics.median(rep["setup"][0] for rep in reps),
        "setup_cpu_s": statistics.median(rep["setup"][1] for rep in reps),
        "failed_frac": measure.failed_frac(attempted, failed),
        "policy_unsatisfied": sum(rep["unsatisfied"] for rep in reps),
        "failed_examples": [e for rep in reps for e in rep["errors"]][:5],
        "status_tally": {str(k): v for k, v in sorted(reps[0]["tally"].items())},
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
            "throughput_per_s": attempted / scaled_cpu,
            "latency_p50_ms": scaled_lat["p50_ms"],
        },
        "report": report,
        "counts": counts,
        "timings": {},
        "record": {
            f"overlay-seed{s}": {
                "failed_answers": len(rep["errors"]),
                "policy_unsatisfied": rep["unsatisfied"],
                **rep["counts"],
            }
            for s, rep in zip(seeds, reps)
        },
    }
    if trace:
        traced = one_overlay(*inputs[0], (profiler, tracer))
        problems.extend(check(traced, 1, requests))
        problems.extend(diff_counts(counts, traced["counts"], "traced overlay"))
        result["correct"] = not problems
        result["overhead"] = traced["phase"][0] / reps[0]["phase"][0]
    return result


def patch_serve_spans(tracer) -> None:
    from repro.apps import query
    from repro.serve.backend import OverlayBackend
    from repro.serve.cache import TtlCache
    from repro.serve.http import MemoryHttpClient
    from repro.serve.ratelimit import RateLimiter
    from repro.serve.service import AvailabilityService

    fabric.patch_live_spans(tracer)
    tracer.patch_method(MemoryHttpClient, "request", "serve.http.request")
    tracer.patch_method(AvailabilityService, "handle", "serve.service.handle")
    tracer.patch_method(TtlCache, "get", "serve.cache.get")
    tracer.patch_method(RateLimiter, "check", "serve.ratelimit.check")
    tracer.patch_method(OverlayBackend, "query", "apps.query.backend_query")
    tracer.patch_function(query, "verify_monitor_report", "core.reporting.verify")
