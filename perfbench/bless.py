"""Recompute the committed outputs the benchmark checks against.

    python3 perfbench/bless.py

writes ``perfbench/expected.json``: the ``ALL.txt`` digest, point count
and simulated-event total of a regeneration at the regeneration scale,
and every des-full point's simulated outputs for the first
``TRACE_SEEDS`` trace seeds on which every point completes.  A trace
seed on which the simulator fails is recorded under ``known_defects``
with the error, and every des-full run prints that list.  Run
it only for a change that is meant to move simulated results, and say
why in that change.
"""

import json
import sys
import time

import benchlib
from benchlib import EXPECTED_PATH, REGEN_SCALE, SRC, apply_env, hermetic_env, nproc, point_record, scratch_dir


def main() -> None:
    sys.path.insert(0, str(SRC))
    import des
    import regen

    apply_env(hermetic_env(REPRO_DISK_CACHE="0", REPRO_RESULT_STORE="0"))
    with scratch_dir("bless") as work:
        rep = regen.run_child(work / "rep", work / "cache", nproc(), time.monotonic() + 600)
    expected = {
        "regen": {
            "scale": REGEN_SCALE,
            "all_txt_sha256": rep["all_txt_sha256"],
            "points": rep["cache"]["points"],
            "sim_events": rep["cache"]["sim_events"],
        },
        "des-full": {"scale": des.SCALE, "points": {}, "known_defects": {}},
    }
    points_by_seed = expected["des-full"]["points"]
    defects = expected["des-full"]["known_defects"]
    tseed = 0
    while len(points_by_seed) < des.TRACE_SEEDS:
        traces, cfgs = des.set_up(tseed)
        points, errors = {}, []

        def keep(key, result):
            points[key] = point_record(result)

        def fail(key, exc):
            errors.append(f"{key}: {type(exc).__name__}: {exc}")

        des.run_pass(traces, cfgs, keep, fail)
        if errors:
            defects[str(tseed)] = "; ".join(errors)
            print(f"trace seed {tseed}: FAILS: {defects[str(tseed)]}", flush=True)
        else:
            points_by_seed[str(tseed)] = points
            print(f"trace seed {tseed}: {sum(p['sim_events'] for p in points.values())} events", flush=True)
        tseed += 1
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(benchlib.ROOT)}")


if __name__ == "__main__":
    main()
