"""Counters of the in-memory live fabric, read between two instants.

Every number here is a counter the program already keeps
(``WireStats`` per endpoint, ``MemoryNetwork.delivered``, the fault
injector's ``FaultStats``, ``AvmonNode.computations``, the condition's
``hash_evaluations``).  The only hook is on ``MemoryNetwork.bind``, a
once-per-endpoint call, so endpoints that close before the run ends
(a crashed node's) still count.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
import traceback
from typing import Awaitable, Callable, Dict, List

import measure

#: Overlays booted per untraced run of a live workload.
REPS = 3

RAW = (
    "datagrams_sent",
    "datagrams_received",
    "bytes_sent",
    "node_sends",
    "delivered",
    "undeliverable",
    "dropped",
    "delayed",
    "computations",
    "hash_evaluations",
    "index_entries",
)


@contextlib.contextmanager
def collect_endpoints(on_bind: Callable[[], None] = lambda: None):
    """Yield a list that fills with every endpoint bound meanwhile;
    *on_bind* is called after each bind."""
    from repro.live.memory_transport import MemoryNetwork

    endpoints: List[object] = []
    original = MemoryNetwork.bind

    def bind(self, endpoint, label=None):
        endpoints.append(endpoint)
        bound = original(self, endpoint, label)
        on_bind()
        return bound

    MemoryNetwork.bind = bind
    try:
        yield endpoints
    finally:
        MemoryNetwork.bind = original


def in_child(function, *args):
    """``function(*args)`` in a forked child process.

    Returns the result and the child's peak resident set in MiB.  Each
    overlay of a run gets a heap of its own this way, so what one overlay
    leaves behind (and the allocator's fragmentation around it) never
    raises the next one's peak.  The child is always waited for.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps((True, function(*args)))
            status = 0
        except BaseException:
            payload = pickle.dumps((False, traceback.format_exc()))
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    if not data:
        raise RuntimeError(f"overlay child exited with status {status} and no result")
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"overlay child failed:\n{value}")
    return value, usage.ru_maxrss / 1024.0


def overlay_seeds(seed: int, count: int = REPS) -> List[int]:
    """``LiveConfig`` seeds of a run's overlays: *count* distinct seeds per
    workload seed, so one run averages over several overlays' randomness."""
    return [seed * REPS + index + 1 for index in range(count)]


Snapshot = Callable[[], Dict[str, int]]


def run_overlay(
    config,
    hook: Callable[[object, Snapshot, Callable[[], measure.Reading]], Awaitable[None]],
    pace_setup: bool = False,
):
    """Run a ``MemoryOverlay`` whose workload is
    ``hook(overlay, counters, setup_done)``: ``counters()`` takes a
    :func:`snapshot`, and ``setup_done()`` ends the set-up and returns a
    :func:`measure.now` reading.

    Returns ``(report, started, setup)``: the overlay's report, the
    reading taken as ``run()`` was called, and with *pace_setup* the
    set-up's :class:`measure.SpeedScale` (else None).  Nodes boot one by
    one, each binding an endpoint, so the set-up is paced there: the
    reference job runs in ``MemoryNetwork.bind`` once per
    ``measure.REFERENCE_EVERY_S`` CPU seconds until ``setup_done()``.
    """
    from repro.live.memory_transport import MemoryOverlay

    setup = measure.SpeedScale(every=measure.REFERENCE_EVERY_S) if pace_setup else None
    pacing = [setup is not None]

    def on_bind() -> None:
        if pacing[0]:
            setup.offer()

    def setup_done() -> measure.Reading:
        if pacing[0]:
            setup.offer(force=True)
            pacing[0] = False
        return measure.now()

    with collect_endpoints(on_bind) as endpoints:
        seen: Dict[int, object] = {}

        async def workload(overlay) -> None:
            await hook(overlay, lambda: snapshot(overlay, endpoints, seen), setup_done)

        overlay = MemoryOverlay(config, workload=workload)
        if setup is not None:
            setup.mark()
        started = measure.now()
        return overlay.run(), started, setup


def snapshot(overlay, endpoints, nodes_seen: Dict[int, object]) -> Dict[str, int]:
    """Raw counters now; *nodes_seen* accumulates every LiveNode object."""
    for live in overlay.nodes.values():
        nodes_seen[id(live)] = live
    raw = dict.fromkeys(RAW, 0)
    for endpoint in endpoints:
        stats = endpoint.stats
        raw["datagrams_sent"] += stats.datagrams_sent
        raw["datagrams_received"] += stats.datagrams_received
        raw["bytes_sent"] += stats.bytes_sent
        if isinstance(getattr(endpoint, "label", None), int):
            raw["node_sends"] += stats.datagrams_sent
    network = overlay.network
    raw["delivered"] = network.delivered
    raw["undeliverable"] = network.undeliverable
    raw["dropped"] = network.injector.stats.dropped
    raw["delayed"] = network.injector.stats.delayed
    raw["hash_evaluations"] = overlay.condition.hash_evaluations
    for live in nodes_seen.values():
        if live.node is not None:
            raw["computations"] += live.node.computations
        raw["hash_evaluations"] += live.condition.hash_evaluations
        raw["index_entries"] += live.relation.index_entries()
    return raw


def layer_counts(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, object]:
    """Per-layer counts over the interval between two snapshots."""
    d = {name: after[name] - before[name] for name in RAW}
    sent = d["datagrams_sent"]
    return {
        "live.codec.encodes": sent,
        "live.codec.decodes": d["datagrams_received"],
        "live.codec.bytes_per_datagram": round(d["bytes_sent"] / sent, 6) if sent else 0.0,
        "live.memory_transport.delivered": d["delivered"],
        "live.memory_transport.undeliverable": d["undeliverable"],
        "live.faults.dropped": d["dropped"],
        "live.faults.delayed": d["delayed"],
        "live.runtime.sends": d["node_sends"],
        "core.node.calls": d["computations"],
        "core.hash_evaluations": d["hash_evaluations"],
        # A size, not a rate: the relation index at the end of the interval.
        "core.relation.index_entries": after["index_entries"],
    }


def patch_live_spans(tracer) -> None:
    """Spans around the live fabric's public per-datagram entry points."""
    from repro.live import codec
    from repro.live.faults import FaultInjector
    from repro.live.memory_transport import MemoryNetwork
    from repro.live.supervisor import StatusProber

    tracer.patch_function(codec, "encode", "live.codec.encode")
    tracer.patch_function(codec, "decode", "live.codec.decode")
    tracer.patch_method(MemoryNetwork, "deliver", "live.memory_transport.deliver")
    tracer.patch_method(FaultInjector, "plan_delivery", "live.faults.plan_delivery")
    tracer.patch_method(StatusProber, "probe", "live.control.scrape")


async def phase(coro, name: str, trace=None, patch=patch_live_spans):
    """Await the timed phase *coro*; with *trace* = (profiler, tracer),
    profile it and record spans inside it (and nowhere else)."""
    if trace is None:
        return await coro
    profiler, tracer = trace
    patch(tracer)
    profiler.enable()
    try:
        return await tracer.drive(name, _awaiting(coro))
    finally:
        profiler.disable()
        tracer.unpatch()


async def _awaiting(awaitable):
    return await awaitable
