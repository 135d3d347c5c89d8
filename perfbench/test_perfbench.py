"""Self-tests of the benchmark: seeded inputs, self-time arithmetic, smoke runs.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench.common import RunContext  # noqa: E402
from perfbench.trace import Tracer, self_times  # noqa: E402


def _workload(name: str):
    return importlib.import_module(f"perfbench.workloads.{name}")


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_same_seed_same_inputs(name):
    wl = _workload(name)
    first = json.dumps(wl.generate(7))
    assert json.dumps(wl.generate(7)) == first
    assert json.dumps(wl.generate(8)) != first


def test_self_time_on_a_hand_built_tree():
    # job [0, 10] holds a [1, 4] and b [3, 6] (overlapping) and c [8, 9];
    # a holds d [2, 3]
    spans = [
        {"name": "job", "start": 0.0, "end": 10.0, "parent": None, "job": 0},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0, "job": 0},
        {"name": "d", "start": 2.0, "end": 3.0, "parent": 1, "job": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0, "job": 0},
        {"name": "c", "start": 8.0, "end": 9.0, "parent": 0, "job": 0},
        {"name": "c", "start": 11.0, "end": 12.5, "parent": None, "job": 1},
    ]
    assert self_times(spans) == {"job": 4.0, "a": 2.0, "d": 1.0, "b": 3.0, "c": 2.5}


def test_tracer_records_parents_and_renames():
    tr = Tracer(True)
    tr.job = 3
    with tr.span("job"):
        with tr.span("cache.lookup") as span:
            span.name = "cache.hit"
    records = tr.records()
    assert [(r["name"], r["parent"], r["job"]) for r in records] == [
        ("job", None, 3),
        ("cache.hit", 0, 3),
    ]
    off = Tracer(False)
    with off.span("job"):
        off.count("x")
    assert off.records() == [] and not off.counts


def test_timings_are_scaled_by_the_reference_next_to_them():
    # in the second pass the last ten jobs took twice as long while the
    # machine ran at half speed, so in reference seconds both passes read the same
    nominal = bench.reference.NOMINAL_S
    quiet, busy = [nominal] * 20, [nominal] * 10 + [2 * nominal] * 10
    passes = [
        {"latencies": [0.01] * 10 + [0.04] * 10, "references": quiet, "runs": 20, "failures": []},
        {"latencies": [0.01] * 10 + [0.08] * 10, "references": busy, "runs": 20, "failures": []},
    ]
    setups = bench.SetUps(None, 0, None)
    setups.times, setups.scaled = [0.2, 0.4], [0.2, 0.2]
    metrics, notes = bench.end_to_end(None, setups, passes)
    assert metrics["setup_s"][0] == pytest.approx(0.2)
    assert metrics["latency_p50_ms"][0] == pytest.approx(25.0)
    assert metrics["jobs_per_s"][0] == pytest.approx(20 / 0.5)
    assert notes["wall_latency_p50_ms"] == pytest.approx((10 + 60) / 2)


def test_percentile_interpolates():
    assert bench.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_pass_meets_its_oracles(name, tmp_path, monkeypatch):
    monkeypatch.delenv("VERBA_SEEDS", raising=False)
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))
    wl = _workload(name)
    ctx = RunContext(tmp=tmp_path, python=sys.executable, env={})
    jobs = wl.generate(3, smoke=True)
    state = wl.prepare(jobs, ctx)
    done = bench.run_pass(wl, jobs, state, ctx, traced=True, deadline=float("inf"))
    assert done["failures"] == []
    assert done["complete"]


def test_a_store_on_a_repeat_is_a_wrong_answer(tmp_path, monkeypatch):
    # a cache that never loads recomputes and rewrites the same file on every
    # repeat; the quotient oracle must not count that as a hit
    from verba import cache

    monkeypatch.delenv("VERBA_SEEDS", raising=False)
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache, "load", lambda spec, template: None)
    wl = _workload("quotient")
    ctx = RunContext(tmp=tmp_path, python=sys.executable, env={})
    jobs = wl.generate(3, smoke=True)
    state = wl.prepare(jobs, ctx)
    done = bench.run_pass(wl, jobs, state, ctx, traced=False, deadline=float("inf"))
    repeats = sum(job["kind"] == "cached" and not job["expect_miss"] for job in jobs)
    assert repeats and len(done["failures"]) >= repeats
    assert all("expected a hit" in message for message in done["failures"])
