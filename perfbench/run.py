"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {regen-cold,regen-warm,des-full} \\
        [--seed N] [--seconds S] [--trace 0|1]

Prints every metric with its unit, median, quartiles and sample count,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` makes a separate traced run and reports the
per-layer ones.  Exits non-zero when any output check fails.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
import time

from benchlib import (
    REGEN_SCALE,
    ROOT,
    SRC,
    BenchError,
    Metric,
    apply_env,
    check_checkout,
    end_to_end_metrics,
    hermetic_env,
    nproc,
    provenance,
    report,
    scratch_dir,
    tree_digest,
)

WORKLOADS = ("regen-cold", "regen-warm", "des-full")
#: a regeneration run, traced or not, gives up after this long, well
#: inside the three minutes a run may take
RUN_LIMIT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="selects the des-full trace seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_des(args, ctx: dict, notes: list):
    import des

    ctx["trace_seed"] = des.trace_seed(args.seed)
    for tseed, error in des.known_defects().items():
        notes.append(f"known simulator defect, trace seed {tseed} left out of the rotation: {error}")
    if not args.trace:
        samples, checks = des.measure(args.seed, args.seconds)
        return end_to_end_metrics(samples), checks
    untraced, traced, tracer, checks = des.trace(args.seed)
    return _layer_report(tracer, traced, untraced, checks, notes), checks


def run_regen(args, ctx: dict, notes: list, warm: bool):
    import regen
    from tracer import Tracer

    jobs = ctx["jobs"]
    deadline = time.monotonic() + RUN_LIMIT_S
    with scratch_dir(args.workload) as work:
        if not args.trace:
            samples, checks = regen.measure(warm, jobs, args.seconds, deadline, work)
            if not samples["wall_s"]:
                return [], checks
            return end_to_end_metrics(samples), checks
        notes.append(
            "the traced regeneration and its untraced reference ran with --jobs 1, "
            "so worker-side spans land in one process"
        )
        untraced, traced, checks = regen.trace(warm, nproc(), deadline, work)
    if traced is None:
        return [], checks
    tracer = Tracer()
    tracer.spans = traced["trace"]["spans"]
    tracer.counts = traced["trace"]["counts"]
    if traced["trace"]["open_spans"]:
        checks.problems.append(f"trace left {traced['trace']['open_spans']} spans open")
    return _layer_report(tracer, traced["wall_s"], untraced["wall_s"], checks, notes), checks


def _layer_report(tracer, traced_s: float, untraced_s: float, checks, notes: list):
    """Per-layer metrics, after checking that the spans' self times add
    up to the traced wall time."""
    from tracer import layer_metrics

    accounted = tracer.total_self_s()
    if abs(accounted - traced_s) > 0.01 * traced_s:
        checks.problems.append(
            f"span self times sum to {accounted:.3f}s but the traced run took {traced_s:.3f}s"
        )
    notes.append(f"span self times account for {accounted:.3f}s of the {traced_s:.3f}s traced run")
    return [Metric(n, u, [v]) for n, (v, u) in layer_metrics(tracer, traced_s, untraced_s).items()]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        check_checkout()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # des-full runs in this process: no inherited REPRO_* setting, and
    # neither the disk cache nor the result store
    apply_env(hermetic_env(REPRO_DISK_CACHE="0", REPRO_RESULT_STORE="0"))
    results_before = tree_digest(ROOT / "results")
    notes: list = []
    if args.workload == "des-full":
        import des

        ctx = provenance(args.workload, args.seed, des.SCALE, 1, bool(args.trace))
        metrics, checks = run_des(args, ctx, notes)
    else:
        # a traced regeneration runs serially (see run_regen)
        jobs = 1 if args.trace else nproc()
        ctx = provenance(args.workload, args.seed, REGEN_SCALE, jobs, bool(args.trace))
        metrics, checks = run_regen(args, ctx, notes, warm=args.workload == "regen-warm")
    if tree_digest(ROOT / "results") != results_before:
        checks.problems.append("the repository's results/ tree changed during the run")
    if not metrics:
        print(f"error: no measurement completed: {'; '.join(checks.problems)}", file=sys.stderr)
        return 1
    return report(ctx, metrics, checks.attempted, checks.failed, checks.problems, notes)


if __name__ == "__main__":
    sys.exit(main())
