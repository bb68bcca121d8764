"""Spans around the program's entry points, and a per-layer profile fold.

Two sources of per-layer time, both collected in one traced pass:

* **Spans.**  :class:`Tracer` wraps public entry points (``codec.encode``,
  ``MemoryNetwork.deliver``, ``AvailabilityService.handle`` ...) from the
  outside.  A span records its name, start, end, parent span and *active*
  time.  Coroutines are driven step by step, so an async span's active
  time counts only the steps it actually ran — never the time another
  task ran while it was suspended.  A span's self time is its active time
  minus the active time of its child spans.
* **Profile fold.**  Layers without a public function on the hot path
  (the ``LiveNode`` receive path, the simulator's per-host send closures)
  get their self time from a ``cProfile`` run, folded by the declared
  module -> layer map :data:`MODULE_LAYERS`.  Time spent in the standard
  library is charged to the program layer that called it (``json`` under
  the codec is codec time, ``json`` under the HTTP layer is HTTP time);
  the event loop itself is the ``asyncio`` layer.

Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Program module prefix -> layer, longest prefix wins.  Everything not
#: listed (the harness, obs, unclaimed stdlib time) lands in ``other``.
MODULE_LAYERS: Dict[str, str] = {
    "repro.sim": "sim.engine",
    "repro.churn": "sim.engine",
    "repro.experiments.runner": "sim.engine",
    "repro.experiments.scenarios": "sim.engine",
    "repro.net": "net.network",
    "repro.core": "core.node",
    "repro.core.condition": "core.condition",
    "repro.core.relation": "core.condition",
    "repro.core.hashing": "core.condition",
    "repro.core.optimal": "core.condition",
    "repro.core.reporting": "core.condition",
    "repro.metrics": "sim.engine",
    "repro.metrics.stats": "experiments.summary",
    "repro.experiments.summary": "experiments.summary",
    "repro.live.codec": "live.codec",
    "repro.live.memory_transport": "live.memory_transport",
    "repro.live.transport": "live.memory_transport",
    "repro.live.faults": "live.faults",
    "repro.live.runtime": "live.runtime",
    "repro.live.introducer": "live.introducer",
    "repro.live.control": "live.control",
    "repro.live.supervisor": "live.control",
    "repro.serve.http": "serve.http",
    "repro.serve.service": "serve.service",
    "repro.serve.metrics": "serve.service",
    "repro.serve.ratelimit": "serve.ratelimit",
    "repro.serve.cache": "serve.cache",
    "repro.serve.backend": "apps.query",
    "repro.apps.query": "apps.query",
}

#: Stdlib modules that *are* the event loop (not charged to callers).
LOOP_MODULES = ("asyncio", "selectors")

#: The benchmark's own files (span wrappers, answer checks): ``other``.
HARNESS = "perfbench"
_HARNESS_DIR = str(Path(__file__).resolve().parent).replace("\\", "/") + "/"

#: Every layer the fold reports, in table order.
LAYERS = (
    "sim.engine",
    "net.network",
    "core.node",
    "core.condition",
    "experiments.summary",
    "live.codec",
    "live.memory_transport",
    "live.faults",
    "live.runtime",
    "live.introducer",
    "live.control",
    "asyncio",
    "serve.http",
    "serve.service",
    "serve.ratelimit",
    "serve.cache",
    "apps.query",
    "other",
)


def module_of(filename: str) -> Optional[str]:
    """Dotted module name for a profiled file, or None for builtins."""
    path = filename.replace("\\", "/")
    if path.startswith(_HARNESS_DIR):
        return HARNESS
    marker = "/repro/"
    at = path.rfind(marker)
    if at >= 0 and path.endswith(".py"):
        dotted = "repro." + path[at + len(marker) : -3].replace("/", ".")
        return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted
    for loop_module in LOOP_MODULES:
        if f"/{loop_module}/" in path or path.endswith(f"/{loop_module}.py"):
            return loop_module
    return None


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """The layer a module belongs to; None for unclaimed (stdlib) code."""
    if module is None:
        return None
    if module in LOOP_MODULES:
        return "asyncio"
    best, best_len = None, -1
    for prefix, layer in MODULE_LAYERS.items():
        if (module == prefix or module.startswith(prefix + ".")) and len(
            prefix
        ) > best_len:
            best, best_len = layer, len(prefix)
    if best is None and (module.startswith("repro") or module == HARNESS):
        return "other"
    return best


def fold_profile(
    stats: dict, max_depth: int = 6, other: Optional[Dict[str, float]] = None
) -> Dict[str, float]:
    """Fold ``pstats.Stats(...).stats`` into seconds of self time per layer.

    Program and event-loop functions keep their own ``tottime``.  Any
    other function's ``tottime`` is split over its callers by the share
    each caller accounts for, climbing through stdlib callers (weighted by
    cumulative time) until it reaches a layer; what cannot be placed
    within *max_depth* hops is ``other``.  Pass a dict as *other* to get
    the ``other`` time broken down by the function it was found in.
    """
    totals: Dict[str, float] = defaultdict(float)
    layer_cache: Dict[tuple, Optional[str]] = {}

    def layer(func: tuple) -> Optional[str]:
        if func not in layer_cache:
            layer_cache[func] = layer_of_module(module_of(func[0]))
        return layer_cache[func]

    def unplaced(func: tuple, amount: float) -> None:
        totals["other"] += amount
        if other is not None:
            where = f"{module_of(func[0]) or func[0]}:{func[2]}"
            other[where] = other.get(where, 0.0) + amount

    def climb(func: tuple, amount: float, depth: int) -> None:
        entry = stats.get(func)
        callers = entry[4] if entry else {}
        weight = sum(c[3] for c in callers.values())
        if depth >= max_depth or not callers or weight <= 0:
            unplaced(func, amount)
            return
        for caller, (_, _, _, ct) in callers.items():
            share = amount * ct / weight
            owner = layer(caller)
            if owner is not None:
                totals[owner] += share
            else:
                climb(caller, share, depth + 1)

    for func, (_, _, tt, _, callers) in stats.items():
        owner = layer(func)
        if owner == "other":
            unplaced(func, tt)
            continue
        if owner is not None:
            totals[owner] += tt
            continue
        # The per-caller tottime split is exact for the first hop.
        placed = 0.0
        for caller, (_, _, caller_tt, _) in callers.items():
            placed += caller_tt
            caller_layer = layer(caller)
            if caller_layer is not None:
                totals[caller_layer] += caller_tt
            else:
                climb(caller, caller_tt, 1)
        if tt - placed > 1e-12:
            unplaced(func, tt - placed)
    return {name: totals.get(name, 0.0) for name in LAYERS}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "active", "child_active")

    def __init__(self, span_id: int, name: str, parent: Optional["Span"], start: float):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.active = 0.0
        self.child_active = 0.0

    @property
    def self_time(self) -> float:
        return self.active - self.child_active


class Tracer:
    """Collects spans; aggregates self time per span name as spans close.

    At most *keep* closed spans are retained for the written trace; the
    per-name aggregates always cover every span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep: int = 50_000):
        self.clock = clock
        self.keep = keep
        self.kept: List[Span] = []
        self.dropped = 0
        self.totals: Dict[str, List[float]] = {}  # name -> [count, active, self]
        self._stack: List[Span] = []
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # -- span lifecycle ------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._next_id, name, parent, self.clock())
        self._next_id += 1
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        if span.parent is not None:
            span.parent.child_active += span.active
        row = self.totals.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.active
        row[2] += span.self_time
        if len(self.kept) < self.keep:
            self.kept.append(span)
        else:
            self.dropped += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run a synchronous call inside one span."""
        span = self._open(name)
        self._stack.append(span)
        started = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.active += self.clock() - started
            self._stack.pop()
            self._close(span)

    @types.coroutine
    def drive(self, name: str, coro):
        """Await *coro* inside one span, timing only the steps it runs."""
        span = self._open(name)
        value, error = None, None
        try:
            while True:
                self._stack.append(span)
                started = self.clock()
                try:
                    if error is not None:
                        pending, error = error, None
                        yielded = coro.throw(pending)
                    else:
                        yielded = coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    span.active += self.clock() - started
                    self._stack.pop()
                try:
                    value = yield yielded
                except GeneratorExit:
                    coro.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 — forwarded
                    value, error = None, exc
        finally:
            self._close(span)

    # -- patching ------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A span-recording stand-in for *fn* (sync or async)."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                return await self.drive(name, fn(*args, **kwargs))

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every program module's binding of it
        (``from .codec import encode`` copies the reference)."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                loaded.__dict__.get(attr) is original
            ):
                self._patches.append((loaded, attr, original))
                setattr(loaded, attr, wrapped)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------

    def table(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(row[0]), "active_s": row[1], "self_s": row[2]}
            for name, row in sorted(self.totals.items())
        }

    def spans_json(self) -> List[dict]:
        return [
            {
                "id": span.id,
                "name": span.name,
                "parent": span.parent.id if span.parent is not None else None,
                "start": span.start,
                "end": span.end,
                "active_s": span.active,
                "self_s": span.self_time,
            }
            for span in self.kept
        ]
