"""Pinned fault-decision streams: every link decides exactly as before.

:class:`~repro.live.faults.FaultInjector` caches each link's stream and
effective parameters.  The cache is an optimisation only: these digests
were recorded from the injector before it had a cache, so any change to a
link's decisions, draw for draw, fails here.  The simulator's
:class:`~repro.net.network.Network` and both live fabrics share the
injector, so this pins all three.

Each digest is the first 12 hex digits of SHA-256 over the JSON list of
``plan_delivery`` results (floats in ``repr`` form, so exact).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.live.faults import FaultInjector, LinkFault, Partition
from repro.registry import create

#: Node <-> node, the introducer and a replica, the supervisor, unlabelled
#: (``None``) endpoints — and ``True`` next to ``1``, which must not share
#: a stream.
LINKS = [
    (3, 7),
    (7, 3),
    (3, "introducer"),
    ("introducer", 3),
    ("supervisor", 3),
    (3, "supervisor"),
    (None, 3),
    (3, None),
    (None, None),
    (True, 2),
    (1, 2),
    ("introducer-1", 5),
]


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:12]


def _interleaved(injector: FaultInjector, draws: int = 200):
    """The first *draws* decisions per link, sent round-robin."""
    rows = [[] for _ in LINKS]
    for step in range(draws):
        for index, (src, dst) in enumerate(LINKS):
            rows[index].append(list(injector.plan_delivery(src, dst, step * 0.01)))
    return rows


WAN_DIGESTS = [
    "51372c13c889",
    "5384e01a80c1",
    "326667973214",
    "cabd16d8f185",
    "3e5f8a30f315",
    "93129dbd829d",
    "aad476d072bf",
    "90ee7b3e02a8",
    "8b3570467ff4",
    "84290bce1bd1",
    "369367a6bf1c",
    "99cf23158bf1",
]

#: FLAKY adds duplication and reordering; the link rule overrides one
#: source's loss and latency.
FLAKY_DIGESTS = [
    "3f5b29c83ba4",
    "c948009a8c71",
    "60197ac3310a",
    "27e0bab0b05e",
    "ed80dd69d1ab",
    "f111494ecc2d",
    "4973b00172dc",
    "c8809183a45d",
    "c428d1575de1",
    "0a51a186eed1",
    "7465d7e78f95",
    "62fd7db5cf38",
]


@pytest.mark.parametrize(
    "plan, digests, stats",
    [
        (
            create("fault", "WAN", seed=42),
            WAN_DIGESTS,
            dict(passed=2371, dropped=29, partitioned=0, duplicated=0, delayed=2371),
        ),
        (
            create(
                "fault",
                "FLAKY",
                seed=42,
                links=(LinkFault(src=3, dst="*", loss=0.5, latency=0.1),),
            ),
            FLAKY_DIGESTS,
            dict(passed=1929, dropped=471, partitioned=0, duplicated=35, delayed=1929),
        ),
    ],
    ids=["WAN", "FLAKY+link"],
)
def test_first_200_decisions_per_link_are_pinned(plan, digests, stats):
    injector = FaultInjector(plan)
    rows = _interleaved(injector)
    assert [_digest(link_rows) for link_rows in rows] == digests
    assert injector.stats.as_dict() == stats


def test_wan_stream_head_is_readable():
    """The first decisions of two links, spelled out."""
    rows = _interleaved(FaultInjector(create("fault", "WAN", seed=42)), draws=3)
    assert rows[0] == [
        [0.0493824781001021],
        [0.03046531087515973],
        [0.04311155221106476],
    ]
    assert rows[6][:2] == [[0.03393371785101331], [0.04301004986469771]]


def test_set_plan_restarts_every_stream():
    injector = FaultInjector(create("fault", "WAN", seed=42))
    rows = [list(injector.plan_delivery(3, 7, 0.0)) for _ in range(50)]
    injector.set_plan(create("fault", "WAN", seed=42, loss=0.2))
    for _ in range(100):
        rows.append(list(injector.plan_delivery(3, 7, 0.0)))
        rows.append(list(injector.plan_delivery(None, 3, 0.0)))
    assert _digest(rows) == "bfdd0a5ae63e"
    assert injector.stats.as_dict() == dict(
        passed=208, dropped=42, partitioned=0, duplicated=0, delayed=208
    )


def test_timed_partition_window_is_pinned():
    plan = create(
        "fault",
        "WAN",
        seed=42,
        partitions=(
            Partition(groups=((3,), (7, "introducer")), start=1.0, end=2.0),
        ),
    )
    injector = FaultInjector(plan)
    rows = []
    links = [(3, 7), (7, 3), (3, "introducer"), (3, None), (7, "introducer")]
    for step in range(60):  # 0.0 .. 2.95 s: before, during, after
        for src, dst in links:
            rows.append(list(injector.plan_delivery(src, dst, step * 0.05)))
    assert _digest(rows) == "40181894db5e"
    assert injector.stats.as_dict() == dict(
        passed=238, dropped=2, partitioned=60, duplicated=0, delayed=238
    )
