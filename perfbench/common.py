"""Shared plumbing: locations, run stamps, and the determinism record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (ignored by git).
OUT = BENCH_DIR / "out"

#: Per-layer metric names, in the order BENCHMARK.json declares them.
COUNT_METRICS = (
    "sim.engine.events",
    "net.network.messages",
    "core.node.calls",
    "core.hash_evaluations",
    "core.relation.index_entries",
    "fleet.retries",
    "fleet.deaths",
    "fleet.leases_expired",
    "store.writes",
    "live.codec.encodes",
    "live.codec.decodes",
    "live.codec.bytes_per_datagram",
    "live.memory_transport.delivered",
    "live.memory_transport.undeliverable",
    "live.faults.dropped",
    "live.faults.delayed",
    "live.runtime.sends",
    "serve.ratelimit.rejected",
    "serve.cache.misses",
    "serve.cache.coalesced",
    "apps.query.monitors_verified",
    "apps.query.monitors_rejected",
    "apps.query.timed_out",
    "apps.query.verified_frac",
    "apps.query.datagrams_per_query",
)

#: Per-layer timings that vary run to run (reported, never compared).
TIMING_METRICS = (
    "fleet.busy_s",
    "fleet.idle_frac",
    "fleet.dispatch_gap_s",
    "live.control.scrape_s",
    "trace.overhead",
)

def per_layer_names() -> List[str]:
    return (
        list(COUNT_METRICS)
        + list(TIMING_METRICS)
        + [f"{layer}.self_s" for layer in LAYERS]
    )


def source_digest(*roots: Path) -> str:
    """SHA-256 over every ``.py`` file under *roots* (default ``src``;
    path + bytes), sorted.

    Identifies the program even where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for root in roots or (SRC,):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def stamp() -> Dict[str, object]:
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def write_json(name: str, payload: dict) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def check_record(key: str, record: dict) -> List[str]:
    """Compare *record* with what earlier runs of the same *key*
    (workload, seed, size) of the same code left in this checkout, then
    merge it in.

    The record is keyed by the digest of ``src`` and of the benchmark's
    own files too, so a run of changed code starts a record of its own
    and is never compared with its parent's counts.  Only entries present
    in both are compared (a traced run repeats a subset of the untraced
    run's overlays).  Returns the differences.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    code = source_digest(SRC, BENCH_DIR)[:16]
    path = OUT / f"record-{key}-{code}.json"
    before: dict = {}
    if path.exists():
        try:
            before = json.loads(path.read_text())
        except ValueError:
            before = {}
    problems = [
        f"{name}: {before[name]!r} before, {record[name]!r} now"
        for name in sorted(set(before) & set(record))
        if before[name] != record[name]
    ]
    if not problems:
        path.write_text(json.dumps({**before, **record}, indent=1, sort_keys=True) + "\n")
    return problems


def diff_counts(first: dict, other: dict, label: str) -> List[str]:
    return [
        f"{label}: {name} {first.get(name)!r} != {other.get(name)!r}"
        for name in sorted(set(first) | set(other))
        if first.get(name) != other.get(name)
    ]
