"""propagate: facts files and the standard scenarios through ``BoundEngine``.

``bounds`` dominates; ``finite``, ``cache`` and ``certificates`` are idle.
Most jobs are power-fact ladders ``L FREE w | w @ m = 0 m`` for m = 1..n,
whose propagation grows quadratically in n, so a few long ladders sit among
many short ones.  The rest are the six scenarios of ``verba.experiments``.

The oracle checks mathematics, not text: no contradiction, ``lo <= hi`` on
every declared quantity, and every interval contains the value known from
the literature where there is one -- ``cl([a,b]^m) = floor(m/2) + 1``
(Culler), ``scl([a,b]) = 1/2``, ``scl`` of a product of g commutators on
disjoint letters ``g - 1/2`` (so its diagonal is ``(2g-1)/(2g)``), and every
nontrivial commutator has ``scl >= 1/2`` (Duncan-Howie).
"""
from __future__ import annotations

from fractions import Fraction

from perfbench.common import RunContext, expect
from perfbench.seeded import rng_for, word_text
from verba import bounds, experiments, grammar

NAME = "propagate"
MODULES = ("verba.bounds", "verba.experiments")

# ladder length -> ladders of that length in a full pass, in a smoke pass
_LADDERS = ((200, 1, 0), (100, 2, 0), (50, 4, 0), (25, 8, 1), (12, 16, 1), (6, 41, 2))
_SCENARIOS = (
    "power_pair_diagonal",
    "squared_commutator",
    "gamma_chain",
    "commutator_product",
    "perfect_comparison",
    "grope_family",
)


def _ladder(rng, n: int, index: int) -> dict:
    if index % 3 == 0:
        x, y = rng.sample("abcd", 2)
        return {"kind": "ladder", "word": f"[{x},{y}]", "n": n, "commutator": True}
    return {"kind": "ladder", "word": word_text(rng, "abc", 6), "n": n, "commutator": False}


def _scenario(rng, name: str) -> dict:
    args: list = []
    if name == "power_pair_diagonal":
        args = [rng.randint(1, 5)]
    elif name == "gamma_chain":
        args = [rng.randint(2, 6)]
    elif name == "commutator_product":
        args = [rng.randint(1, 4)]
    elif name == "perfect_comparison":
        args = [str(Fraction(rng.randint(2, 5), 2)), rng.randint(2, 4)]
    elif name == "grope_family":
        args = [rng.randint(1, 3)]
    return {"kind": "scenario", "name": name, "args": args}


def generate(seed: int, smoke: bool = False) -> list[dict]:
    rng = rng_for(seed, NAME)
    jobs = []
    for n, full, small in _LADDERS:
        for i in range(small if smoke else full):
            jobs.append(_ladder(rng, n, i))
    for name in _SCENARIOS:
        for _ in range(1 if smoke else 6):
            jobs.append(_scenario(rng, name))
    rng.shuffle(jobs)
    return jobs


def prepare(jobs: list[dict], ctx: RunContext) -> dict:
    return {}


def begin_pass(state: dict, ctx: RunContext) -> None:
    pass


def _contains(interval, value) -> bool:
    lo, hi = interval
    return lo <= value and (hi is None or value <= hi)


def _ordered(interval) -> bool:
    lo, hi = interval
    return hi is None or lo <= hi


def _run_ladder(job: dict, state: dict, tr):
    names = grammar.NameTable()
    with tr.span("grammar.parse"):
        word = grammar.parse(job["word"], names)
    tr.count("grammar.bytes_parsed", len(job["word"].encode()))
    with tr.span("grammar.format"):
        w = grammar.format_word(word, names)
    n = job["n"]
    facts = "\n".join(f"L FREE {w} | {w} @ {m} = 0 {m}" for m in range(1, n + 1)) + "\n"
    engine = bounds.BoundEngine()
    with tr.span("bounds.load_facts"):
        engine.load_facts(facts)
        top = engine.declare(f"L FREE {w} | {w} @ {n}")
        stable = engine.declare(f"SL FREE {w} | {w}")
    with tr.span("bounds.propagate"):
        engine.propagate()
    checks = [(top, Fraction(n // 2 + 1)), (stable, Fraction(1, 2))] if job["commutator"] else []
    expect(engine.interval(top)[1] <= n, f"ladder {w}: L @ {n} above the stated {n}")
    return engine, [top, stable], checks


def _run_scenario(job: dict, state: dict, tr):
    name, args = job["name"], job["args"]
    with tr.span("bounds.propagate"):
        if name == "perfect_comparison":
            engine, q = experiments.scenario_perfect_comparison(Fraction(args[0]), args[1])
        elif name == "grope_family":
            engine, *quantities = experiments.scenario_grope_family(*args)
        else:
            engine, q = getattr(experiments, f"scenario_{name}")(*args)
    if name != "grope_family":
        quantities = [q]
    checks = []
    if name == "power_pair_diagonal":
        # [x, y^k] is a nontrivial commutator, so its stable length is at least 1/2
        hi = engine.interval(q)[1]
        expect(hi is None or hi >= Fraction(1, 2), f"{name}{args}: upper bound {hi} below 1/2")
    elif name == "gamma_chain" and args[0] == 2:
        checks.append((q, Fraction(1, 2)))
    elif name == "commutator_product":
        checks.append((q, Fraction(2 * args[0] - 1, 2 * args[0])))
    elif name == "perfect_comparison" and args[1] == 2:
        checks.append((q, Fraction(args[0])))
    elif name == "grope_family":
        checks.append((quantities[0], Fraction(1)))
    if name in ("power_pair_diagonal", "squared_commutator", "gamma_chain", "commutator_product"):
        checks.append((engine.parse_quantity("SCL FREE [a,b]"), Fraction(1, 2)))
    return engine, quantities, checks


def run(job: dict, state: dict, tr) -> str:
    # an InconsistencyError escapes to the job boundary, which counts the job as failed
    if job["kind"] == "ladder":
        engine, quantities, checks = _run_ladder(job, state, tr)
    else:
        engine, quantities, checks = _run_scenario(job, state, tr)
    label = job.get("word") or job["name"]
    for q in quantities:
        expect(_ordered(engine.interval(q)), f"{label}: empty interval {engine.interval(q)}")
    for q, value in checks:
        expect(_contains(engine.interval(q), value), f"{label}: {engine.interval(q)} misses {value}")
    with tr.span("bounds.explain"):
        explained = [engine.explain(q) for q in quantities]
    with tr.span("bounds.records"):
        records = engine.record_lines()
    if tr.enabled:
        tr.count("bounds.facts", len(engine.facts))
        tr.count("bounds.events", len(engine.events))
        tr.count("bounds.tightenings", sum(e.provenance == "RULE" for e in engine.events))
    return "\n".join(explained + records)
