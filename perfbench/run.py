#!/usr/bin/env python3
"""verba's benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads: certify, quotient, propagate (see perfbench/README.md).  The
seed fixes every input; the program receives only the generated inputs.  A
run replays the workload's pass of jobs, one job at a time, until
``--seconds`` have gone by, and sets up again every few seconds between jobs
to time its set-up.  Every job's result is checked by
an oracle that does not share the program's algorithm; a wrong answer or an
error counts as a failed job.  Timings are in reference seconds: the wall
time of each job and set-up, scaled by a fixed kernel that runs right after
it (see perfbench/reference.py), so that a shared machine's busy spells do
not show as changes in the program.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` passes alternate between untraced and traced;
spans around the benchmark's calls into each layer give the per-layer
metrics, and the time difference between the two kinds of pass is reported
as the tracing overhead.  ``--write-golden`` records digests of the outputs
of fixed inputs in ``perfbench/golden.json``; later runs count the outputs
that differ from them as ``check.outputs_changed``, which is not a failure.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PROCESS_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]  # this checkout's verba; the benchmark as a package

from perfbench import reference  # noqa: E402
from perfbench.common import RunContext  # noqa: E402
from perfbench.trace import Tracer, self_times, write_spans  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = ("certify", "quotient", "propagate")
SETUP_REPEATS = 12  # set-ups a run, spread over it
SETUP_EVERY_S = 2.5
RUN_DEADLINE_S = 150.0  # no job starts later than this after the process started
MIN_PASSES = 2  # whole untraced passes a run makes, however short its --seconds
TAIL_LADDER = (99.0, 97.5, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)

# per-layer metric -> unit; "_ms" metrics are span self time summed over one pass, in reference ms
PER_LAYER = {
    "words.product_ms": "ms",
    "words.letters_in": "count",
    "words.letters_out": "count",
    "grammar.parse_ms": "ms",
    "grammar.format_ms": "ms",
    "grammar.bytes_parsed": "bytes",
    "certificates.build_ms": "ms",
    "certificates.check_ms": "ms",
    "certificates.serialize_ms": "ms",
    "certificates.parse_ms": "ms",
    "certificates.factors": "count",
    "certificates.bytes": "bytes",
    "finite.load_ms": "ms",
    "finite.wlength_ms": "ms",
    "finite.values_ms": "ms",
    "finite.floor_ms": "ms",
    "finite.assignments": "count",
    "finite.bfs_levels": "count",
    "finite.reachable": "count",
    "cache.hit_ms": "ms",
    "cache.miss_ms": "ms",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "bounds.load_facts_ms": "ms",
    "bounds.propagate_ms": "ms",
    "bounds.explain_ms": "ms",
    "bounds.records_ms": "ms",
    "bounds.facts": "count",
    "bounds.events": "count",
    "bounds.tightenings": "count",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
    "check.outputs_changed": "count",
    "check.count_drift": "count",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _hermetic_env(tmp: Path) -> dict[str, str]:
    """The environment of every child: this tree's sources, a fresh cache, no seeds file."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "VERBA_"))}
    env["PYTHONPATH"] = str(SRC)
    env["VERBA_CACHE_DIR"] = str(tmp / "cache")
    os.environ.pop("VERBA_SEEDS", None)
    os.environ["VERBA_CACHE_DIR"] = env["VERBA_CACHE_DIR"]
    return env


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def set_up(wl, seed: int, ctx) -> tuple[float, list, dict]:
    """Start an interpreter that imports the workload's modules, then make inputs and references."""
    start = time.perf_counter()
    command = [ctx.python, "-c", "import " + ", ".join(wl.MODULES)]
    subprocess.run(command, env=ctx.env, check=True, capture_output=True, timeout=60)
    jobs = wl.generate(seed)
    state = wl.prepare(jobs, ctx)
    return time.perf_counter() - start, jobs, state


class SetUps:
    """The set-up times of one run, in wall and in reference seconds.

    The first set-up gives the run its jobs.  The others are made between
    jobs, one every ``SETUP_EVERY_S`` seconds, so that they are spread over
    the run: made back to back they would all fall in the same spell of a
    shared machine's speed.  Their results are dropped.
    """

    def __init__(self, wl, seed: int, ctx) -> None:
        self.wl, self.seed, self.ctx = wl, seed, ctx
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.last = 0.0

    def take(self) -> tuple[list, dict]:
        seconds, jobs, state = set_up(self.wl, self.seed, self.ctx)
        self.times.append(seconds)
        self.scaled.append(seconds * reference.NOMINAL_S / reference.measure())
        self.last = time.perf_counter()
        return jobs, state

    def between_jobs(self) -> None:
        """Set up again if it is time to."""
        if len(self.times) < SETUP_REPEATS and time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.take()


def run_pass(wl, jobs, state, ctx, traced: bool, deadline: float, setups: SetUps | None = None) -> dict:
    """Run every job once, in the pass's order, each followed by the reference kernel."""
    tracer = Tracer(traced)
    wl.begin_pass(state, ctx)
    latencies: list[float | None] = [None] * len(jobs)
    references: list[float | None] = [None] * len(jobs)
    failures: list[str] = []
    for index, job in enumerate(jobs):
        if time.perf_counter() > deadline:
            break
        if setups is not None:
            setups.between_jobs()
        tracer.job = index
        begin = time.perf_counter()
        try:
            with tracer.span("job"):
                wl.run(job, state, tracer)
        except Exception as exc:  # the job boundary: record the failure and go on
            failures.append(f"{type(exc).__name__}: {exc}")
        latencies[index] = time.perf_counter() - begin
        references[index] = reference.measure()
    done = [x for x in latencies if x is not None]
    return {
        "latencies": latencies,
        "references": references,
        "runs": len(done),
        "failures": failures,
        "complete": len(done) == len(jobs),
        "tracer": tracer,
    }


def golden_digests(wl, ctx) -> list[str]:
    """Digests of the outputs of the seed-0 smoke pass, run in this process."""
    jobs = wl.generate(0, smoke=True)
    state = wl.prepare(jobs, ctx)
    wl.begin_pass(state, ctx)
    return [hashlib.sha256(wl.run(job, state, Tracer(False)).encode()).hexdigest() for job in jobs]


def tail_percentile(samples: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    return next(p for p in TAIL_LADDER if samples * (100 - p) / 100 >= 10)


def end_to_end(wl, setups: SetUps, passes: list[dict]) -> tuple[dict, dict]:
    """Timings in reference seconds, from each job's median over the run's passes.

    Every pass runs the same jobs, and a run holds ten or so passes.  Each
    run of a job is scaled by the reference kernel that ran right after it
    (see perfbench/reference.py), which takes out the spells of a shared
    machine's speed; the median over the passes then takes out single runs
    that other tenants slowed.  The summary keeps the wall-clock figures.
    """
    scaled = [
        [None if x is None else x * reference.NOMINAL_S / r for x, r in zip(p["latencies"], p["references"])]
        for p in passes
    ]

    def typical(runs: list[list[float | None]]) -> list[float]:
        return [statistics.median(xs) for xs in ([x for x in job if x is not None] for job in zip(*runs)) if xs]

    jobs = typical(scaled)
    wall = typical([p["latencies"] for p in passes])
    attempted = sum(p["runs"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    pct = tail_percentile(len(jobs))
    tail = percentile(jobs, pct)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(setups.scaled), "s"),
        "jobs_per_s": (len(jobs) / sum(jobs), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(jobs), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
    }
    kernel = [r for p in passes for r in p["references"] if r is not None]
    notes = {
        "failed_ratio": failed / attempted,
        "tail_percentile": pct,
        "jobs": len(jobs),
        "samples_beyond_tail": sum(x > tail for x in jobs),
        "passes": len(passes),
        "setups": len(setups.times),
        "reference_ms": 1000 * statistics.median(kernel),
        "wall_setup_s": statistics.median(setups.times),
        "wall_jobs_per_s": len(wall) / sum(wall),
        "wall_latency_p50_ms": 1000 * statistics.median(wall),
        "wall_latency_tail_ms": 1000 * percentile(wall, pct),
    }
    return metrics, notes


def start_up_probes(ctx) -> dict[str, float]:
    """Median reference seconds to start a bare interpreter, and one that imports ``verba.cli``."""
    probes = {"interpreter": "pass", "import": "import verba.cli"}
    times: dict[str, list[float]] = {name: [] for name in probes}
    for _ in range(SETUP_REPEATS):
        for name, code in probes.items():
            start = time.perf_counter()
            subprocess.run([ctx.python, "-c", code], env=ctx.env, check=True, timeout=60)
            seconds = time.perf_counter() - start
            times[name].append(seconds * reference.NOMINAL_S / reference.measure())
    return {name: statistics.median(values) for name, values in times.items()}


def per_layer(traced: list[dict], untraced: list[dict], changed: int, start_up: dict) -> dict:
    # a pass the run's deadline cut short is used only if no pass is whole
    traced = [p for p in traced if p["complete"]] or traced
    untraced = [p for p in untraced if p["complete"]] or untraced
    # self times in reference seconds, scaled by the pass's median kernel time
    per_pass = [
        (self_times(p["tracer"].records()), reference.NOMINAL_S / statistics.median(filter(None, p["references"])))
        for p in traced
    ]

    def layer_ms(span: str) -> float:
        return 1000 * statistics.median(times.get(span, 0.0) * scale for times, scale in per_pass)

    complete = [p["tracer"].counts for p in traced]
    counts = complete[0]
    drift = sum(
        any(other.get(key, 0) != counts.get(key, 0) for other in complete[1:])
        for key in set().union(*complete)
    )
    metrics = {}
    for name, unit in PER_LAYER.items():
        if unit == "ms":
            metrics[name] = layer_ms(name[: -len("_ms")])
        elif unit in ("count", "bytes"):
            metrics[name] = counts.get(name, 0)
    metrics["cli.interpreter_ms"] = 1000 * start_up["interpreter"]
    metrics["cli.import_ms"] = 1000 * (start_up["import"] - start_up["interpreter"])
    lookups = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    metrics["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups if lookups else 0.0

    def job_seconds(p: dict) -> float:  # in reference seconds
        return sum(x * reference.NOMINAL_S / r for x, r in zip(p["latencies"], p["references"]) if x is not None)

    plain = statistics.median(map(job_seconds, untraced))
    metrics["trace.overhead_pct"] = 100 * (statistics.median(map(job_seconds, traced)) / plain - 1)
    metrics["check.outputs_changed"] = changed
    metrics["check.count_drift"] = drift
    return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}


def run(args: argparse.Namespace, ctx) -> dict:
    # importing verba here is not timed; set_up times it in a child interpreter
    wl = importlib.import_module(f"perfbench.workloads.{args.workload}")
    setups = SetUps(wl, args.seed, ctx)
    jobs, state = setups.take()
    deadline = PROCESS_START + RUN_DEADLINE_S
    passes: list[dict] = []
    stop = time.perf_counter() + args.seconds

    def enough() -> bool:
        # a traced run needs two whole traced passes for check.count_drift to compare
        whole = [p for p in passes if p["complete"] and p["traced"] == bool(args.trace)]
        return len(whole) >= (2 if args.trace else MIN_PASSES)

    while time.perf_counter() < stop or not enough():
        if time.perf_counter() > deadline:
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        # once there are enough whole passes, the last one may stop at --seconds
        cut = min(stop, deadline) if enough() else deadline
        passes.append(run_pass(wl, jobs, state, ctx, traced, cut, setups))
        passes[-1]["traced"] = traced
    while len(setups.times) < SETUP_REPEATS:  # a short run has not made them all
        setups.take()
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    for p in passes:
        for message in p["failures"][:5]:
            print(f"failed job: {message}", file=sys.stderr)
    e2e, notes = end_to_end(wl, setups, untraced)
    attempted = sum(p["runs"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.trace:
        digests = golden_digests(wl, ctx)
        known = json.loads(GOLDEN.read_text()).get(args.workload, []) if GOLDEN.is_file() else []
        changed = sum(a != b for a, b in zip(digests, known)) + abs(len(digests) - len(known))
        metrics = per_layer(traced_passes, untraced, changed, start_up_probes(ctx))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        write_spans(
            out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl",
            [p["tracer"].records() for p in traced_passes],
        )
    else:
        metrics = e2e
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **notes}
    print(json.dumps({"summary": summary}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def write_golden(ctx) -> None:
    digests = {}
    for name in WORKLOADS:
        wl = importlib.import_module(f"perfbench.workloads.{name}")
        digests[name] = golden_digests(wl, ctx)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "verba" / "__init__.py").is_file():
        print(f"error: no verba sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    import verba

    if not Path(verba.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported verba from {verba.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        ctx = RunContext(tmp=tmp, python=sys.executable, env=_hermetic_env(tmp))
        print(json.dumps({"machine": machine_facts()}))
        if args.write_golden:
            write_golden(ctx)
            return 0
        result = run(args, ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
