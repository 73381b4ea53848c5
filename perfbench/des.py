"""The ``des-full`` workload: serial, in-process discrete-event runs at
full scale through the public ``repro`` API, with the disk cache and the
result store off.

One *pass* simulates HLRC at the achievable parameters on every
application in :data:`APPS` at both procs-per-node settings in
:data:`PPNS`.  Set-up is trace generation plus ``Cluster`` construction
for every configuration.
"""

from __future__ import annotations

import gc
import resource
import time
from typing import Callable, Dict, List, Tuple

from benchlib import end_to_end_samples, load_expected, point_mismatches, point_record

#: lock-heavy (raytrace, water-nsq), barrier- and fetch-heavy (radix,
#: lu) and tree-rebuild (barnes-rebuild) sharing patterns
APPS = ("lu", "water-nsq", "radix", "raytrace", "barnes-rebuild")
#: ppn=1 puts every processor on its own node, so it carries most of the
#: messages and interrupts; ppn=4 is the paper's SMP-node cluster
PPNS = (1, 4)
SCALE = 1.0
#: how many trace seeds ``bless.py`` commits outputs for
TRACE_SEEDS = 16
#: set-ups per run; the reported set-up time is their median
SETUP_REPEATS = 10


def trace_seed(seed: int) -> int:
    """The workload-generation seed a benchmark ``--seed`` selects: one
    of the committed trace seeds, in order, wrapping around."""
    seeds = sorted(int(s) for s in load_expected()["des-full"]["points"])
    return seeds[seed % len(seeds)]


def known_defects() -> Dict[str, str]:
    """Trace seeds left out because the simulator fails on them."""
    return load_expected()["des-full"]["known_defects"]


def point_key(app: str, ppn: int) -> str:
    return f"{app}/ppn{ppn}"


def configs(tseed: int) -> List[Tuple[int, object]]:
    from repro import ACHIEVABLE, ClusterConfig

    return [(ppn, ClusterConfig(comm=ACHIEVABLE.replace(procs_per_node=ppn), seed=tseed)) for ppn in PPNS]


def set_up(tseed: int):
    """Generate every trace and build every cluster once; returns the
    traces and configurations a pass needs."""
    from repro import Cluster, get_app

    traces = {app: get_app(app, scale=SCALE, seed=tseed) for app in APPS}
    cfgs = configs(tseed)
    for _, cfg in cfgs:
        Cluster(cfg)  # timed as set-up; run_simulation builds its own
    return traces, cfgs


def run_pass(traces, cfgs, on_point: Callable[[str, object], None], on_error: Callable[[str, BaseException], None]) -> None:
    """Simulate every point once, handing each result to ``on_point``."""
    from repro import run_simulation

    for ppn, cfg in cfgs:
        for app in APPS:
            key = point_key(app, ppn)
            try:
                result = run_simulation(traces[app], cfg)
            except Exception as exc:  # one failed point must not hide the rest
                on_error(key, exc)
            else:
                on_point(key, result)


def expected_points(tseed: int) -> Dict[str, dict]:
    return load_expected()["des-full"]["points"][str(tseed)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Checks:
    """Counts attempted and failed points against the committed outputs."""

    def __init__(self, tseed: int) -> None:
        self.expected = expected_points(tseed)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def point(self, key: str, result) -> int:
        """Check one result; returns its simulated event count."""
        self.attempted += 1
        bad = point_mismatches(self.expected[key], point_record(result))
        if bad:
            self.failed += 1
            self.problems.extend(f"des-full {key}: {b}" for b in bad)
        return int(result.meta["sim_events"])

    def error(self, key: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"des-full {key}: {type(exc).__name__}: {exc}")


def timed_pass(traces, cfgs, checks: Checks) -> Tuple[float, int]:
    """One pass, timed; outputs are checked after the clock stops.
    Returns the pass's wall time and its simulated events."""
    results: List[tuple] = []
    gc.collect()  # start every pass without the last one's garbage
    t0 = time.perf_counter()
    run_pass(traces, cfgs, lambda key, r: results.append((key, r)), checks.error)
    took = time.perf_counter() - t0
    return took, sum(checks.point(key, r) for key, r in results)


def measure(seed: int, seconds: float):
    """Untraced run: ``SETUP_REPEATS`` set-ups, then passes for about
    ``seconds``.  Returns ``(samples, checks)``."""
    tseed = trace_seed(seed)
    checks = Checks(tseed)
    samples = end_to_end_samples()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        traces, cfgs = set_up(tseed)
        samples["setup_s"].append(time.perf_counter() - t0)
    t_begin = time.perf_counter()
    while True:
        took, events = timed_pass(traces, cfgs, checks)
        samples["wall_s"].append(took)
        samples["events_per_s"].append(events / took)
        # never start a pass expected to end past the budget
        if time.perf_counter() - t_begin + took > seconds:
            break
    samples["peak_rss_mb"].append(peak_rss_mb())
    return samples, checks


def trace(seed: int):
    """Traced run: set-up plus one pass untraced, then the same traced.

    Returns ``(untraced_s, traced_s, tracer, checks)``; the traced pass's
    outputs are checked against the same committed values, so a tracer
    that perturbed the simulation fails the run.
    """
    from tracer import ROOT_SPAN, Tracer, install, uninstall

    tseed = trace_seed(seed)
    checks = Checks(tseed)
    t0 = time.perf_counter()
    traces, cfgs = set_up(tseed)
    untraced = time.perf_counter() - t0
    took, _ = timed_pass(traces, cfgs, checks)
    untraced += took
    tracer = Tracer()
    inst = install(tracer)
    gc.collect()  # as timed_pass does before the untraced pass
    t0 = time.perf_counter()
    tracer.enter(ROOT_SPAN)
    try:
        traces, cfgs = set_up(tseed)
        results: List[tuple] = []
        run_pass(traces, cfgs, lambda key, r: results.append((key, r)), checks.error)
    finally:
        tracer.leave()
        uninstall(inst)
    traced = time.perf_counter() - t0
    for key, r in results:
        checks.point(key, r)
    return untraced, traced, tracer, checks
