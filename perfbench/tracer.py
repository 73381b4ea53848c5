"""Span tracer for the benchmark's traced run.

The tracer lives entirely in the benchmark: :func:`install` wraps the
public entry points of each simulator layer (``sim``, ``net``, ``osys``,
``arch``, ``protocol``, ``apps``, ``core.*``) in spans, and
:func:`uninstall` puts the originals back.  Nothing in the program is
edited.

A span is opened on entry and closed on exit.  Its *self time* is its
duration minus the time of the spans opened inside it, so the self times
of all spans add up to the duration of the outermost one.  Generator
entry points (``protocol.read``, ``Processor.run_block``, ...) are timed
per resume: every ``send``/``throw`` into the generator is one interval
of the span, and the simulated time it spends suspended costs nothing.
``calls`` counts invocations, not resumes.

Spans are aggregated in memory by name as they close, so a run with
millions of them keeps a few dozen counters, not a span log.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, Iterator, List

#: the outermost span of a traced phase: its self time is whatever no
#: layer span covered (the benchmark's and the scripts' own glue)
ROOT_SPAN = "bench.root"


class Tracer:
    """Stack of open spans plus per-name totals of closed ones."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        #: open spans, innermost last: [name, start_ns, child_ns]
        self.stack: List[list] = []
        #: name -> [calls, self_ns]
        self.spans: Dict[str, List[int]] = {}
        #: named counts recorded at layer boundaries
        self.counts: Dict[str, float] = {}

    def _rec(self, name: str) -> List[int]:
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0]
        return rec

    def call(self, name: str) -> None:
        """Count one invocation of ``name`` (separate from its resumes)."""
        self._rec(name)[0] += 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self._rec(name)[1] += duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0, 0])[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0])[1] / 1e9

    def total_self_s(self) -> float:
        return sum(rec[1] for rec in self.spans.values()) / 1e9

    # ------------------------------------------------------------------ #
    def wrap_call(self, name: str, fn: Callable, after=None) -> Callable:
        """A span around each call of ``fn``; ``after(args, result)`` runs
        inside the span once the call has returned."""
        call, enter, leave = self.call, self.enter, self.leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call(name)
            enter(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                leave()

        return traced

    def wrap_gen(self, name: str, fn: Callable) -> Callable:
        """Count each call of generator function ``fn``; time its resumes."""
        call, resumes = self.call, self.resumes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            call(name)
            return resumes(name, fn(*args, **kwargs))

        return traced

    def resumes(self, name: str, gen: Iterator):
        """Proxy generator: each resume of ``gen`` is one ``name`` interval.

        Values, exceptions and the return value pass through unchanged,
        so ``yield from`` over the proxy behaves as over ``gen``.
        """
        enter, leave = self.enter, self.leave
        value, exc = None, None
        while True:
            enter(name)
            try:
                target = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                leave()
            value, exc = None, None
            try:
                value = yield target
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into ``gen``
                exc = err


# ---------------------------------------------------------------------- #
# layer wiring
# ---------------------------------------------------------------------- #
#: spans whose spawned simulation processes are charged to them: the
#: send pipeline of ``NetworkInterface.send`` and the dispatch process of
#: ``InterruptController.raise_interrupt`` are where those layers work
SPAWN_OWNERS = ("net.nic_send", "osys.raise_interrupt")

#: simulated counters harvested from each cluster when its run ends
PROTOCOL_COUNTERS = ("page_fetches", "diffs_created", "write_notices", "remote_lock_acquires")


class Installation:
    """The patches one :func:`install` made, for :func:`uninstall`."""

    def __init__(self) -> None:
        self.undo: List[tuple] = []
        #: the cluster built last; ``run_simulation`` runs it right away
        self.cluster = None

    def patch_attr(self, owner, attr: str, replacement) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere it is bound, so
        callers that did ``from module import fn`` see the span too."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if mod is not None and getattr(mod, attr, None) is original:
                self.patch_attr(mod, attr, replacement)


def _method(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        return tracer.wrap_gen(name, fn)
    return tracer.wrap_call(name, fn)


def _defining_classes(base: type, attr: str) -> List[type]:
    """``base`` and its subclasses that define ``attr`` themselves."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def install(tracer: Tracer, drivers_module=None) -> Installation:
    """Wrap every layer's public entry points in ``tracer`` spans.

    ``drivers_module`` is ``scripts/run_all_experiments.py`` when the
    traced run is a regeneration: each of its drivers becomes an
    ``experiments.driver`` span.
    """
    from repro.apps.base import AppGenerator
    from repro.arch.processor import Processor
    from repro.core import executor, sweeps
    from repro.core.checkpoint import SweepCheckpoint
    from repro.core.cluster import Cluster
    from repro.core.runcache import DiskCache
    from repro.core.store import ResultStore
    from repro.net.messaging import MessagingLayer
    from repro.net.nic import NetworkInterface
    from repro.osys.interrupts import InterruptController
    from repro.protocol import PROTOCOLS
    from repro.sim.engine import Simulator

    inst = Installation()
    count = tracer.count

    def method(cls, attr, name):
        inst.patch_attr(cls, attr, _method(tracer, name, cls.__dict__[attr]))

    # apps: trace generation, one span per generate() call
    def trace_events(args, trace):
        count("apps.trace_events", trace.event_count())

    for cls in _defining_classes(AppGenerator, "generate"):
        if not inspect.isabstract(cls):
            inst.patch_attr(
                cls, "generate",
                tracer.wrap_call("apps.generate", cls.__dict__["generate"], trace_events),
            )

    # core.cluster: machine assembly; the cluster built last is the one
    # whose Simulator.run comes next
    def built(args, _):
        inst.cluster = args[0]

    inst.patch_attr(
        Cluster, "__init__", tracer.wrap_call("cluster.build", Cluster.__dict__["__init__"], built)
    )

    # sim: the dispatch loop (with the simulated counts of the finished
    # run) and process spawns
    def harvest(args, dispatched):
        count("sim.events", dispatched)
        cluster, inst.cluster = inst.cluster, None
        if cluster is None or cluster.sim is not args[0]:
            return
        count("net.messages", cluster.network.messages_carried)
        count("net.bytes", cluster.network.bytes_carried)
        count("net.retransmits", cluster.msg.retransmits)
        count("osys.interrupts", sum(node.irq.interrupts_raised for node in cluster.nodes))
        counters = cluster.protocol.counters
        for field in PROTOCOL_COUNTERS:
            count(f"protocol.{field}", getattr(counters, field))

    inst.patch_attr(Simulator, "run", tracer.wrap_call("sim.run", Simulator.__dict__["run"], harvest))
    spawn = Simulator.__dict__["spawn"]

    @functools.wraps(spawn)
    def traced_spawn(sim, gen, *args, **kwargs):
        count("sim.spawn.calls")
        stack = tracer.stack
        if stack and stack[-1][0] in SPAWN_OWNERS:
            gen = tracer.resumes(stack[-1][0], gen)
        return spawn(sim, gen, *args, **kwargs)

    inst.patch_attr(Simulator, "spawn", traced_spawn)

    # arch / osys / net
    method(Processor, "run_block", "arch.run_block")
    method(Processor, "run_handler", "arch.run_handler")
    method(InterruptController, "raise_interrupt", "osys.raise_interrupt")
    method(NetworkInterface, "send", "net.nic_send")
    method(MessagingLayer, "rpc", "net.rpc")

    # protocol: the slow paths time per resume; the immediate paths are
    # only counted (they run once per shared access)
    for op in ("read", "write", "acquire", "release", "barrier"):
        for cls in {c for p in PROTOCOLS.values() for c in _defining_classes(p, op)}:
            method(cls, op, f"protocol.{op}")
    for op in ("read", "write"):
        for cls in {c for p in PROTOCOLS.values() for c in _defining_classes(p, f"{op}_immediate")}:
            inst.patch_attr(cls, f"{op}_immediate", _immediate(count, op, cls.__dict__[f"{op}_immediate"]))

    # core.executor: grids, their points, and which points the cache layers served
    def run_points_traced(fn):
        traced = tracer.wrap_call("executor.run_points", fn)

        @functools.wraps(fn)
        def run_points(points, *args, **kwargs):
            points = list(points)
            count("executor.points", len(set(tuple(p) for p in points)))
            return traced(points, *args, **kwargs)

        return run_points

    inst.patch_function(executor, "run_points", run_points_traced)
    lookup = sweeps.cached_lookup

    @functools.wraps(lookup)
    def cached_lookup(*args, **kwargs):
        result = lookup(*args, **kwargs)
        if result is not None and tracer.active("executor.run_points"):
            count("executor.cache_hits")
        return result

    inst.patch_attr(sweeps, "cached_lookup", cached_lookup)

    # core.runcache / core.store / core.checkpoint
    method(DiskCache, "get", "runcache.get")
    method(DiskCache, "put", "runcache.put")
    method(ResultStore, "ingest_results", "store.ingest")
    method(ResultStore, "ingest_artifact", "store.ingest")
    method(SweepCheckpoint, "record", "checkpoint.record")

    # experiments: each regeneration driver
    if drivers_module is not None:
        inst.patch_attr(
            drivers_module,
            "DRIVERS",
            [(name, tracer.wrap_call("experiments.driver", fn)) for name, fn in drivers_module.DRIVERS],
        )
    return inst


def _immediate(count: Callable, op: str, fn: Callable) -> Callable:
    total, hit = f"protocol.{op}_immediate.calls", f"protocol.{op}_immediate.hits"

    @functools.wraps(fn)
    def immediate(*args, **kwargs):
        answered = fn(*args, **kwargs)
        count(total)
        if answered:
            count(hit)
        return answered

    return immediate


def uninstall(inst: Installation) -> None:
    for owner, attr, original in reversed(inst.undo):
        setattr(owner, attr, original)
    inst.undo.clear()


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> Dict[str, tuple]:
    """The per-layer metrics of one traced run: ``name -> (value, unit)``."""
    out: Dict[str, tuple] = {}

    def spans(name, *, calls=True):
        if calls:
            out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_s(name), "s")

    def counted(name, unit="count"):
        out[name] = (int(tracer.counts.get(name, 0)), unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    spans("sim.run", calls=False)
    counted("sim.events")
    counted("sim.spawn.calls")
    events = out["sim.events"][0]
    out["sim.ns_per_event"] = (ratio(tracer.self_s("sim.run") * 1e9, events), "ns")
    spans("net.nic_send")
    spans("net.rpc")
    counted("net.messages")
    counted("net.bytes", "B")
    counted("net.retransmits")
    spans("osys.raise_interrupt")
    counted("osys.interrupts")
    for op in ("read", "write", "acquire", "release", "barrier"):
        spans(f"protocol.{op}")
    for op in ("read", "write"):
        c = tracer.counts
        out[f"protocol.{op}.immediate_ratio"] = (
            ratio(c.get(f"protocol.{op}_immediate.hits", 0), c.get(f"protocol.{op}_immediate.calls", 0)),
            "ratio",
        )
    for field in PROTOCOL_COUNTERS:
        counted(f"protocol.{field}")
    spans("arch.run_block")
    spans("arch.run_handler")
    spans("apps.generate")
    counted("apps.trace_events")
    spans("cluster.build")
    spans("executor.run_points")
    counted("executor.points")
    out["executor.cache_hit_ratio"] = (
        ratio(tracer.counts.get("executor.cache_hits", 0), tracer.counts.get("executor.points", 0)),
        "ratio",
    )
    spans("runcache.get")
    spans("runcache.put")
    spans("store.ingest")
    spans("checkpoint.record")
    counted("io.fsync.calls")
    spans("experiments.driver")
    out["trace.unattributed_s"] = (tracer.self_s(ROOT_SPAN), "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_ratio"] = (ratio(wall_s, untraced_wall_s), "ratio")
    return out

