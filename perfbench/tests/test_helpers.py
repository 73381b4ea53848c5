"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(1, str(HERE.parent.parent / "src"))

import benchlib  # noqa: E402
from tracer import ROOT_SPAN, Tracer, install, uninstall  # noqa: E402


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    t.enter("outer")
    clock.advance(10)
    t.enter("inner")
    clock.advance(30)
    t.enter("leaf")
    clock.advance(5)
    t.leave()
    clock.advance(5)
    t.leave()
    clock.advance(20)
    t.leave()
    assert t.spans["outer"][1] == 30
    assert t.spans["inner"][1] == 35
    assert t.spans["leaf"][1] == 5
    assert t.total_self_s() * 1e9 == pytest.approx(70)
    assert not t.stack


def test_wrapped_call_counts_calls_and_runs_after_hook_inside_span():
    clock = FakeClock()
    t = Tracer(clock)
    seen = []

    def work(x):
        clock.advance(7)
        return x * 2

    traced = t.wrap_call("layer.work", work, after=lambda args, r: seen.append((args, r)))
    assert traced(3) == 6
    assert traced(4) == 8
    assert t.calls("layer.work") == 2
    assert t.spans["layer.work"][1] == 14
    assert seen == [((3,), 6), ((4,), 8)]


def test_generator_spans_time_each_resume_not_the_suspension():
    clock = FakeClock()
    t = Tracer(clock)

    def child():
        clock.advance(3)
        got = yield "c1"
        clock.advance(4)
        return got + 1

    def parent():
        clock.advance(1)
        value = yield from t.wrap_gen("child", child)()
        clock.advance(2)
        yield "p1"
        return value

    gen = t.wrap_gen("parent", parent)()
    t.enter(ROOT_SPAN)
    assert next(gen) == "c1"
    clock.advance(1000)  # suspended: simulated time passes, no host time is charged
    assert gen.send(41) == "p1"
    clock.advance(1000)
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    t.leave()
    assert stop.value.value == 42
    assert t.calls("parent") == 1 and t.calls("child") == 1
    assert t.spans["child"][1] == 7
    assert t.spans["parent"][1] == 3
    assert t.spans[ROOT_SPAN][1] == 2000
    assert t.total_self_s() * 1e9 == pytest.approx(2010)


def test_generator_span_forwards_thrown_exceptions_and_closes():
    t = Tracer(FakeClock())

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"
        yield 2

    gen = t.wrap_gen("g", body)()
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == "caught"
    gen.close()
    assert not t.stack


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def test_summary_reports_median_quartiles_and_count():
    s = benchlib.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s.median, s.n) == (3.0, 5)
    assert s.q1 == pytest.approx(1.5) and s.q3 == pytest.approx(4.5)


def test_summary_of_one_sample_is_that_sample():
    assert benchlib.summarize([2.5]) == benchlib.Summary(2.5, 2.5, 2.5, 1)
    with pytest.raises(ValueError):
        benchlib.summarize([])


# ---------------------------------------------------------------------- #
# output checks
# ---------------------------------------------------------------------- #
def run_point():
    from repro import ClusterConfig, get_app, run_simulation

    return run_simulation(get_app("fft", scale=0.05), ClusterConfig())


def test_point_check_catches_a_one_cycle_perturbation():
    expected = benchlib.point_record(run_point())
    assert benchlib.point_mismatches(expected, benchlib.point_record(run_point())) == []
    perturbed = json.loads(json.dumps(expected))
    perturbed["total_cycles"] += 1
    assert benchlib.point_mismatches(expected, perturbed) == [
        f"total_cycles: expected {expected['total_cycles']}, got {expected['total_cycles'] + 1}"
    ]
    counter = json.loads(json.dumps(expected))
    counter["counters"]["page_fetches"] += 1
    assert len(benchlib.point_mismatches(expected, counter)) == 1


def test_tracer_is_passive_and_uninstalls():
    from repro.sim.engine import Simulator

    original_run = Simulator.run
    plain = benchlib.point_record(run_point())
    tracer = Tracer()
    inst = install(tracer)
    try:
        tracer.enter(ROOT_SPAN)
        traced = benchlib.point_record(run_point())
        tracer.leave()
    finally:
        uninstall(inst)
    assert traced == plain
    assert Simulator.run is original_run
    assert tracer.calls("cluster.build") == 1
    assert tracer.counts["sim.events"] == plain["sim_events"]
    assert tracer.counts["protocol.page_fetches"] == plain["counters"]["page_fetches"]
    assert not tracer.stack


def test_hermetic_env_drops_inherited_repro_settings(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "-3")
    monkeypatch.setenv("REPRO_FABRIC_ADDR", "localhost:1")
    env = benchlib.hermetic_env(REPRO_CACHE_DIR="x")
    assert not any(k.startswith("REPRO_") and k != "REPRO_CACHE_DIR" for k in env)
    assert env["PYTHONPATH"] == str(benchlib.SRC)


def test_tree_digest_sees_a_changed_byte(tmp_path):
    (tmp_path / "a.txt").write_text("one")
    before = benchlib.tree_digest(tmp_path)
    (tmp_path / "a.txt").write_text("onf")
    assert benchlib.tree_digest(tmp_path) != before


def test_durable_flushes_become_counted_no_ops(monkeypatch, tmp_path):
    import os
    import sqlite3

    # restored after the test: skip_durable_flushes patches both
    monkeypatch.setattr(os, "fsync", os.fsync)
    monkeypatch.setattr(sqlite3, "connect", sqlite3.connect)
    import regen_child

    monkeypatch.setattr(regen_child, "FSYNC_CALLS", 0)
    regen_child.skip_durable_flushes()
    with open(tmp_path / "journal", "wb") as fh:
        fh.write(b"x")
        os.fsync(fh.fileno())
        os.fsync(fh.fileno())
    assert regen_child.FSYNC_CALLS == 2
    conn = sqlite3.connect(tmp_path / "store.sqlite")
    try:
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 0
    finally:
        conn.close()
