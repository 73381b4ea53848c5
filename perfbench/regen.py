"""The ``regen-cold`` and ``regen-warm`` workloads: whole regenerations
through ``scripts/run_all_experiments.py`` at :data:`benchlib.REGEN_SCALE`,
each in its own interpreter (:mod:`regen_child`), with fresh cache,
store, checkpoint and output directories.

``regen-cold`` starts every regeneration from an empty run cache.
``regen-warm`` fills one cache during set-up and then replays the same
regeneration over it, so no point is simulated in the timed phase.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from benchlib import HERE, REGEN_SCALE, ROOT, end_to_end_samples, hermetic_env, load_expected

#: import-only interpreter starts per run, for the set-up time median
PROBES = 3


class ChildFailed(RuntimeError):
    pass


def run_child(
    rep_dir: pathlib.Path,
    cache_dir: pathlib.Path,
    jobs: int,
    deadline: float,
    trace: bool = False,
    probe: bool = False,
) -> dict:
    """Run one regeneration (or import probe) in a fresh interpreter.

    The child gets its own store, checkpoint and output directories under
    ``rep_dir`` and the run cache at ``cache_dir``.  Returns its report
    with ``setup_s`` (interpreter start-up plus imports) and, unless
    probing, ``wall_s`` (the regeneration itself).
    """
    rep_dir.mkdir(parents=True, exist_ok=True)
    report_path = rep_dir / "report.json"
    env = hermetic_env(
        REPRO_CACHE_DIR=str(cache_dir),
        REPRO_STORE_PATH=str(rep_dir / "store.sqlite"),
        REPRO_CHECKPOINT_DIR=str(rep_dir / "checkpoints"),
    )
    cmd = [sys.executable, str(HERE / "regen_child.py"), "--report", str(report_path)]
    if probe:
        cmd.append("--probe")
    if trace:
        cmd.append("--trace")
    cmd += ["--", "--scale", f"{REGEN_SCALE:g}", "--jobs", str(jobs), "--out", str(rep_dir / "out")]
    t_spawn = time.monotonic()
    # A session of its own, so a timeout can stop the pool workers too.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("regeneration overran the run's time limit") from None
    finally:
        if proc.poll() is None:  # interrupted while waiting: stop it all
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise ChildFailed(f"regeneration exited {proc.returncode}: {' | '.join(tail)}")
    rep = json.loads(report_path.read_text())
    rep["setup_s"] = rep["t_imported"] - t_spawn
    if not probe:
        rep["wall_s"] = rep["t_done"] - rep["t_run"]
    return rep


@dataclass
class Checks:
    """Output checks of regenerations against the committed digest."""

    expected: Dict = field(default_factory=lambda: load_expected()["regen"])
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``ALL.txt`` digest of this run's first (cold) regeneration
    cold_sha256: Optional[str] = None

    def regeneration(self, label: str, rep: dict) -> None:
        exp = self.expected
        points = exp["points"]
        bad = []
        if rep["all_txt_sha256"] != exp["all_txt_sha256"]:
            bad.append(f"ALL.txt sha256 {rep['all_txt_sha256']} != committed {exp['all_txt_sha256']}")
        if self.cold_sha256 is None:
            self.cold_sha256 = rep["all_txt_sha256"]
        elif rep["all_txt_sha256"] != self.cold_sha256:
            bad.append("ALL.txt differs from this run's cold regeneration")
        if rep["cache"] != {"points": points, "sim_events": exp["sim_events"]}:
            bad.append(f"run cache holds {rep['cache']}, expected {points} points / {exp['sim_events']} events")
        self.attempted += points
        if bad:
            # The regeneration's outputs are checked as a whole, so a
            # mismatch fails every point it rendered.
            self.failed += points
            self.problems.extend(f"{label}: {b}" for b in bad)

    def crashed(self, label: str, exc: Exception) -> None:
        self.attempted += self.expected["points"]
        self.failed += self.expected["points"]
        self.problems.append(f"{label}: {exc}")


def measure(warm: bool, jobs: int, seconds: float, deadline: float, work: pathlib.Path):
    """Untraced run: returns ``(samples, checks)`` where ``samples`` maps
    each end-to-end metric to its per-regeneration values."""
    checks = Checks()
    samples = end_to_end_samples()
    try:
        for i in range(PROBES):
            probe_dir = work / f"probe{i}"
            samples["setup_s"].append(run_child(probe_dir, probe_dir, jobs, deadline, probe=True)["setup_s"])
        shared_cache = work / "cache"
        if warm:
            fill = run_child(work / "fill", shared_cache, jobs, deadline)
            checks.regeneration("cache fill", fill)
            samples["setup_s"].append(fill["setup_s"])
            shutil.rmtree(work / "fill")
        os.sync()
        t_begin = time.monotonic()
        i = 0
        while True:
            rep_dir = work / f"rep{i}"
            cache = shared_cache if warm else rep_dir / "cache"
            t0 = time.monotonic()
            rep = run_child(rep_dir, cache, jobs, deadline)
            took = time.monotonic() - t0
            shutil.rmtree(rep_dir)
            # the removal's deferred file-system work must not land in
            # the next regeneration's timed phase
            os.sync()
            checks.regeneration(f"regeneration {i}", rep)
            samples["wall_s"].append(rep["wall_s"])
            samples["setup_s"].append(rep["setup_s"])
            samples["events_per_s"].append(checks.expected["sim_events"] / rep["wall_s"])
            samples["peak_rss_mb"].append(rep["maxrss_kb"] / 1024)
            i += 1
            # never start a regeneration expected to end past the budget
            if time.monotonic() - t_begin + took > seconds:
                break
    except ChildFailed as exc:
        checks.crashed("regeneration", exc)
    return samples, checks


def trace(warm: bool, jobs: int, deadline: float, work: pathlib.Path):
    """Traced run: one untraced and one traced regeneration, both serial.

    Returns ``(untraced_report, traced_report, checks)``; either report
    is ``None`` when its regeneration failed.
    """
    checks = Checks()
    untraced = traced = None
    try:
        shared_cache = work / "cache"
        if warm:
            checks.regeneration("cache fill", run_child(work / "fill", shared_cache, jobs, deadline))
        untraced = run_child(work / "untraced", shared_cache if warm else work / "cache-u", 1, deadline)
        checks.regeneration("untraced regeneration", untraced)
        traced = run_child(work / "traced", shared_cache if warm else work / "cache-t", 1, deadline, trace=True)
        checks.regeneration("traced regeneration", traced)
    except ChildFailed as exc:
        checks.crashed("regeneration", exc)
    return untraced, traced, checks
