"""One regeneration, run in its own interpreter by :mod:`regen`.

    python3 perfbench/regen_child.py --report FILE [--probe] [--trace] -- ARGS...

runs ``scripts/run_all_experiments.py ARGS...`` through its ``main`` and
writes a JSON report: when the imports finished and when the
regeneration did (``time.monotonic``, comparable with the parent's
clock), peak memory, the digest of ``ALL.txt`` and what the run cache
holds afterwards.  ``--probe`` stops after the imports (a set-up time
sample); ``--trace`` wraps the layers in spans first (see :mod:`tracer`).

Durable flushes are skipped: ``os.fsync`` returns at once and only
counts its calls, and SQLite connections run with ``synchronous=OFF``
(see :func:`skip_durable_flushes`).
"""

import argparse
import hashlib
import json
import os
import pathlib
import resource
import sqlite3
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "scripts"))
sys.path.insert(1, str(HERE))

import run_all_experiments  # noqa: E402

T_IMPORTED = time.monotonic()

#: calls of ``os.fsync`` since :func:`skip_durable_flushes`
FSYNC_CALLS = 0


def skip_durable_flushes() -> None:
    """Make ``os.fsync`` a counted no-op, and open SQLite connections
    without flushes, in this process and the pool workers it forks.

    A regeneration journals every point with a write, a flush and a
    rename (about a thousand flushes) and commits to the result store
    about fifty times.  On a shared host each flush waits for the
    disk's other users, which swung a warm regeneration's time off the
    CPU by a factor of three between runs of the same code.  No output
    depends on the flushes.  Their count is reported
    (``io.fsync.calls`` in a traced run), so a change in how often the
    program flushes still shows.  See ``README.md``.
    """

    def fsync(fd: int) -> None:
        global FSYNC_CALLS
        FSYNC_CALLS += 1

    os.fsync = fsync
    connect = sqlite3.connect

    def connect_unsynced(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.execute("PRAGMA synchronous=OFF")
        return conn

    sqlite3.connect = connect_unsynced


def cache_contents(cache_dir: str) -> dict:
    """Distinct points in the run cache and their simulated events."""
    from repro.core.runcache import DiskCache

    cache = DiskCache(cache_dir)
    points = events = 0
    for path in cache.entries():
        result = cache.get(path.stem)
        if result is not None:
            points += 1
            events += int(result.meta["sim_events"])
    return {"points": points, "sim_events": events}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True, type=pathlib.Path)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    report = {"t_imported": T_IMPORTED}
    skip_durable_flushes()
    if not opts.probe:
        argv = [a for a in opts.args if a != "--"]
        tracer = None
        if opts.trace:
            from tracer import ROOT_SPAN, Tracer, install, uninstall

            tracer = Tracer()
            inst = install(tracer, drivers_module=run_all_experiments)
        t0 = time.monotonic()
        if tracer is not None:
            tracer.enter(ROOT_SPAN)
        try:
            run_all_experiments.main(argv)
        finally:
            if tracer is not None:
                tracer.leave()
                uninstall(inst)
        report["t_run"] = t0
        report["t_done"] = time.monotonic()
        report["fsync_calls"] = FSYNC_CALLS
        if tracer is not None:
            tracer.count("io.fsync.calls", FSYNC_CALLS)
            report["trace"] = {
                "spans": tracer.spans,
                "counts": tracer.counts,
                "open_spans": len(tracer.stack),
            }
        out = pathlib.Path(argv[argv.index("--out") + 1])
        report["all_txt_sha256"] = hashlib.sha256((out / "ALL.txt").read_bytes()).hexdigest()
        report["cache"] = cache_contents(os.environ["REPRO_CACHE_DIR"])
    report["maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    opts.report.write_text(json.dumps(report))


if __name__ == "__main__":
    main()
