"""Helpers shared by the benchmark's workloads: statistics, hermetic
environments, output checks and the result report."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence

HERE = pathlib.Path(__file__).resolve().parent
#: the checkout the benchmark measures (the directory holding ``perfbench/``)
ROOT = HERE.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
EXPECTED_PATH = HERE / "expected.json"
#: scratch space for every run's cache, store, journal and output dirs
TMP_ROOT = ROOT / ".bench_tmp"

#: the scale every regeneration workload runs at
REGEN_SCALE = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run here: the program it drives is missing."""


def check_checkout() -> None:
    """Fail early unless the program the benchmark drives is present."""
    needed = [SRC / "repro" / "__init__.py", SCRIPTS / "run_all_experiments.py", EXPECTED_PATH]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a complete checkout, missing: {', '.join(missing)}")


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Summary:
    median: float
    q1: float
    q3: float
    n: int


def summarize(values: Sequence[float]) -> Summary:
    """Median and quartiles (``statistics.quantiles``, n=4) with the count.

    A single sample is its own median and quartiles.
    """
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        v = float(values[0])
        return Summary(v, v, v, 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


# ---------------------------------------------------------------------- #
# hermetic runs
# ---------------------------------------------------------------------- #
def hermetic_env(**overrides: str) -> Dict[str, str]:
    """The environment for a measured run: every inherited ``REPRO_*``
    setting (jobs, fidelity, verify, fabric, cache and store paths, ...)
    removed, the checkout's ``src`` as the only ``PYTHONPATH``, then
    ``overrides``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def apply_env(env: Mapping[str, str]) -> None:
    """Make ``env`` this process's environment (for in-process runs)."""
    os.environ.clear()
    os.environ.update(env)


@contextlib.contextmanager
def scratch_dir(tag: str) -> Iterator[pathlib.Path]:
    """A fresh directory inside the checkout, removed afterwards."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only succeeds once no run is using it


def tree_digest(root: pathlib.Path) -> Dict[str, str]:
    """``relative path -> sha256`` of every file under ``root``."""
    if not root.is_dir():
        return {}
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def point_record(result) -> Dict[str, object]:
    """What the benchmark pins for one DES run: simulated time, the
    protocol counters and the number of events dispatched."""
    counters = {
        k: v for k, v in vars(result.counters).items() if k != "extra"
    }
    counters.update(result.counters.extra)
    return {
        "total_cycles": int(result.total_cycles),
        "sim_events": int(result.meta["sim_events"]),
        "counters": {k: int(v) for k, v in sorted(counters.items())},
    }


def point_mismatches(expected: Mapping, actual: Mapping) -> List[str]:
    """Every field of ``actual`` that differs from ``expected``."""
    out = []
    for field in ("total_cycles", "sim_events"):
        if expected.get(field) != actual.get(field):
            out.append(f"{field}: expected {expected.get(field)}, got {actual.get(field)}")
    exp_c, act_c = expected.get("counters", {}), actual.get("counters", {})
    for name in sorted(set(exp_c) | set(act_c)):
        if exp_c.get(name) != act_c.get(name):
            out.append(f"counters.{name}: expected {exp_c.get(name)}, got {act_c.get(name)}")
    return out


# ---------------------------------------------------------------------- #
# provenance and the report
# ---------------------------------------------------------------------- #
def git_commit(root: pathlib.Path = ROOT) -> str:
    """HEAD of the checkout read from ``.git``, or ``"none"`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    """Short sha256 over the program the benchmark drives (``src/`` and
    ``scripts/``), which identifies the code outside git too."""
    h = hashlib.sha256()
    for base in (SRC, SCRIPTS):
        for p in sorted(base.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, scale: float, jobs: int, trace: bool) -> Dict[str, object]:
    """What every result is printed next to."""
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "jobs": jobs,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source": source_digest(),
    }


@dataclass
class Metric:
    name: str
    unit: str
    samples: List[float]


#: the end-to-end metrics every untraced run reports, with their units
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("events_per_s", "1/s"), ("peak_rss_mb", "MB"))


def end_to_end_samples() -> Dict[str, List[float]]:
    return {name: [] for name, _ in END_TO_END}


def end_to_end_metrics(samples: Mapping[str, List[float]]) -> List[Metric]:
    return [Metric(name, unit, samples[name]) for name, unit in END_TO_END]


def report(
    context: Mapping[str, object],
    metrics: Iterable[Metric],
    attempted: int,
    failed: int,
    problems: Sequence[str],
    notes: Sequence[str] = (),
) -> int:
    """Print the human table, then the one-line JSON result; returns the
    exit code (non-zero on any failed operation or output mismatch)."""
    metrics = list(metrics)
    print(" ".join(f"{k}={v}" for k, v in context.items()))
    for note in notes:
        print(f"note: {note}")
    print(f"{'metric':<34} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}")
    values = {}
    for m in metrics:
        s = summarize(m.samples)
        values[m.name] = {"value": s.median, "unit": m.unit}
        print(f"{m.name:<34} {m.unit:<6} {s.median:>14.6g} {s.q1:>14.6g} {s.q3:>14.6g} {s.n:>4}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':<34} {'ratio':<6} {error_rate:>14.6g}   ({failed} of {attempted} operations failed)")
    for problem in problems:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0 if correct else 1
