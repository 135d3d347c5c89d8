"""Scripted, deterministic reproductions of the package's headline numbers.

Each experiment is a pure function returning report lines: seeded RNG, sorted
iteration, no timestamps, so re-running produces byte-identical output.  The
``scenario_*`` helpers build the standard bound-engine setups and are shared
with the test suite.  The three finite-group experiments import ``finite``,
and with it numpy, when they run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import magnus
from .bounds import BoundEngine, Context, Quantity, QuantityKind, format_interval
from .certificates import Certificate, commutator_factor
from .cover import cover_invariants, known_shape_certificate, verify_shape_certificate
from .identities import (
    base_identity,
    culler_chain_squares,
    culler_identity,
    culler_power_pair,
    hall_witt,
    verify_identity,
)
from .templates import (
    GAMMA3_FAMILY,
    Template,
    beta_word,
    commutator_product_word,
    gamma_word,
    grope_word,
    template_from_word,
)
from .words import EMPTY, Word, _reduced, commutator, gen, power


@dataclass(frozen=True)
class Experiment:
    name: str
    summary: str
    run: Callable[[], list[str]]


REGISTRY: dict[str, Experiment] = {}


def register(name: str, summary: str):
    def wrap(fn: Callable[[], list[str]]) -> Callable[[], list[str]]:
        REGISTRY[name] = Experiment(name, summary, fn)
        return fn

    return wrap


def experiment_names() -> list[str]:
    return sorted(REGISTRY)


def run_experiment(name: str) -> str:
    from .errors import UnknownNameError

    experiment = REGISTRY.get(name)
    if experiment is None:
        raise UnknownNameError(
            f"unknown experiment {name!r}; choices: {', '.join(experiment_names())}"
        )
    return "\n".join([f"# experiment: {name}", *experiment.run()]) + "\n"


def _interval_text(engine: BoundEngine, q: Quantity) -> str:
    return format_interval(*engine.interval(q))


# -- shared bound-engine scenarios ------------------------------------------


def _diagonal_scenario(
    template: Template,
    exponent: int | None = None,
    cert: Certificate | None = None,
    label: str = "",
) -> tuple[BoundEngine, Quantity]:
    """Seeded engine with the template's diagonal ``SL`` declared, propagated.

    ``cert``, when given, is a certificate for ``body ** exponent`` over the
    template itself, entered before propagation.
    """
    engine = BoundEngine()
    engine.load_default_seeds()
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, template.body, template))
    if cert is not None:
        engine.add_certificate_fact(template.body, template, exponent, cert, label=label)
    engine.propagate()
    return engine, q


def scenario_power_pair_diagonal(k: int) -> tuple[BoundEngine, Quantity]:
    """Diagonal stable length of [x, y^k]: certificate for the cube, then rules."""
    return _diagonal_scenario(
        template_from_word(commutator(gen(1), gen(2) ** k), f"[x,y^{k}]"),
        3,
        culler_power_pair(k),
        f"the cube splits into two instances (k={k})",
    )


def scenario_squared_commutator() -> tuple[BoundEngine, Quantity]:
    """Diagonal window for the squared commutator from the five-block chain."""
    return _diagonal_scenario(
        template_from_word(power(commutator(gen(1), gen(2)), 2), "[x,y]^2"),
        6,
        culler_chain_squares(gen(1), gen(2)),
        "five squared-commutator blocks for the sixth power",
    )


def scenario_gamma_chain(n: int) -> tuple[BoundEngine, Quantity]:
    return _diagonal_scenario(gamma_word(n))


def scenario_commutator_product(g: int) -> tuple[BoundEngine, Quantity]:
    return _diagonal_scenario(commutator_product_word(g))


def scenario_perfect_comparison(
    s: Fraction, n: int
) -> tuple[BoundEngine, Quantity]:
    """Seed scl(g) = s in a perfect ambient group; window for the n-chain."""
    engine = BoundEngine()
    g_word = gen(1)
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.PERFECT, g_word),
        lo=s,
        hi=s,
        label="assumed stable commutator length",
    )
    q = engine.declare(Quantity(QuantityKind.SL, Context.PERFECT, g_word, gamma_word(n)))
    engine.propagate()
    return engine, q


def scenario_grope_family(
    n: int,
) -> tuple[BoundEngine, Quantity, Quantity, Quantity]:
    """One-step family membership of the n-block grope word and its ceilings."""
    engine = BoundEngine()
    grope = grope_word(n)
    body = grope.body
    inner = _reduced(body.codes[1 : len(body) // 2])  # the body is x1 v x1^-1 v^-1
    cert = Certificate(
        target=body, factors=(commutator_factor(gen(1), inner),), flags=()
    )
    q_len = engine.declare(Quantity(QuantityKind.L, Context.FREE, body, GAMMA3_FAMILY, 1))
    engine.add_certificate_fact(
        body,
        GAMMA3_FAMILY,
        1,
        cert,
        label="single bracket whose second slot is a product of commutators",
    )
    q_family = engine.declare(Quantity(QuantityKind.SL, Context.FREE, body, GAMMA3_FAMILY))
    q_chain = engine.declare(Quantity(QuantityKind.SL, Context.FREE, body, gamma_word(3)))
    engine.propagate()
    return engine, q_len, q_family, q_chain


# -- experiments -------------------------------------------------------------


@register(
    "xy_power_diagonals",
    "diagonal stable length of [x,y^k] for k=1..5 from the cube certificates",
)
def _xy_power_diagonals() -> list[str]:
    lines = []
    for k in range(1, 6):
        engine, q = scenario_power_pair_diagonal(k)
        lines.append(f"k={k}: SL = {_interval_text(engine, q)}")
    return lines


@register(
    "xy_squared_window",
    "diagonal window for the squared commutator, with its derivation trace",
)
def _xy_squared_window() -> list[str]:
    engine, q = scenario_squared_commutator()
    lines = [f"SL = {_interval_text(engine, q)}"]
    lines.extend(engine.explain(q).splitlines())
    return lines


@register(
    "gamma_chain_windows",
    "windows for nested chains over themselves, n=2..6",
)
def _gamma_chain_windows() -> list[str]:
    lines = []
    for n in range(2, 7):
        engine, q = scenario_gamma_chain(n)
        lines.append(f"n={n}: SL = {_interval_text(engine, q)}")
    return lines


@register(
    "commutator_product_diagonals",
    "exact diagonal stable length of g-block commutator products, g=1..4",
)
def _commutator_product_diagonals() -> list[str]:
    lines = []
    for g in range(1, 5):
        engine, q = scenario_commutator_product(g)
        lines.append(f"g={g}: SL = {_interval_text(engine, q)}")
    return lines


@register(
    "perfect_comparison",
    "chain windows from a seeded stable commutator length in a perfect group",
)
def _perfect_comparison() -> list[str]:
    lines = []
    for s in (Fraction(1), Fraction(3, 2), Fraction(2)):
        for n in range(2, 5):
            engine, q = scenario_perfect_comparison(s, n)
            lines.append(f"scl={s}, n={n}: SL = {_interval_text(engine, q)}")
    return lines


@register(
    "grope_family_ceiling",
    "grope words are one step in the bracket family; chain ceiling stays at two",
)
def _grope_family_ceiling() -> list[str]:
    lines = []
    for n in range(1, 4):
        engine, q_len, q_family, q_chain = scenario_grope_family(n)
        lines.append(
            f"n={n}: L|family = {_interval_text(engine, q_len)},"
            f" SL|family = {_interval_text(engine, q_family)},"
            f" SL|chain3 = {_interval_text(engine, q_chain)}"
        )
    return lines


def _random_word(rng: random.Random, rank: int, length: int) -> Word:
    letters = []
    for _ in range(length):
        letters.append((rng.randrange(1, rank + 1), rng.choice((1, -1))))
    return Word(tuple(letters))


@register(
    "elementary_identity_fuzz",
    "the five rearrangement identities under seeded random substitutions",
)
def _elementary_identity_fuzz() -> list[str]:
    rng = random.Random(20240814)
    rounds = 60
    lines = []
    for i in range(1, 6):
        for _ in range(rounds):
            x = _random_word(rng, 4, rng.randrange(0, 9))
            y = _random_word(rng, 4, rng.randrange(0, 9))
            z = _random_word(rng, 4, rng.randrange(0, 9))
            forms = base_identity(i, x, y, z)
            assert verify_identity(*forms)
        lines.append(f"identity {i}: {rounds} random substitutions hold")
    for _ in range(rounds):
        x = _random_word(rng, 4, rng.randrange(0, 9))
        y = _random_word(rng, 4, rng.randrange(0, 9))
        z = _random_word(rng, 4, rng.randrange(0, 9))
        assert hall_witt(x, y, z) == EMPTY
    lines.append(f"triple-product identity: {rounds} random substitutions vanish")
    return lines


@register(
    "culler_substitution_family",
    "the cube-of-a-commutator certificate and its y -> y^k substitutions",
)
def _culler_substitution_family() -> list[str]:
    lines = []
    cert = culler_identity(gen(1), gen(2))
    assert cert.verify()
    lines.append(f"base identity: target length {len(cert.target)}, 2 factors")
    for k in range(1, 11):
        cert = culler_power_pair(k)
        assert cert.verify()
        counts = ", ".join(f"{key}={n}" for key, n in sorted(cert.counts().items()))
        lines.append(f"k={k}: verified, counts {counts}")
    return lines


@register(
    "a5_commutator_lengths",
    "commutator-length histogram and bi-invariance in the order-60 simple group",
)
def _a5_commutator_lengths() -> list[str]:
    from .finite import bi_invariance_check, load_group, wlength_table

    group = load_group("A5")
    table = wlength_table(group, gamma_word(2))
    histogram = " ".join(f"{k}:{v}" for k, v in sorted(table.histogram().items()))
    lines = [f"A5 histogram: {histogram}"]
    lines.append(f"bi-invariance, decided exactly: {bi_invariance_check(group, table)}")
    return lines


@register(
    "small_group_distance_tables",
    "verbal distance histograms over the basic commutator for the registry",
)
def _small_group_distance_tables() -> list[str]:
    from .finite import load_group, registry_small_groups, wlength_table

    lines = []
    for spec in registry_small_groups():
        group = load_group(spec)
        table = wlength_table(group, gamma_word(2))
        histogram = " ".join(f"{k}:{v}" for k, v in sorted(table.histogram().items()))
        lines.append(f"{spec} (order {group.order}): {histogram}")
    return lines


@register(
    "cover_family_invariants",
    "degrees, cycle types, and genus of the odd-degree cover family",
)
def _cover_family_invariants() -> list[str]:
    lines = []
    for n in range(1, 11):
        inv = cover_invariants(n)
        lines.append(
            f"n={n}: degree {inv.degree},"
            f" x type {inv.x_cycle_lengths},"
            f" y type {inv.y_cycle_lengths},"
            f" commutator type {inv.commutator_cycle_lengths},"
            f" genus {inv.genus}"
        )
    cert = known_shape_certificate(1)
    lines.append(f"n=1 shape certificate verifies: {verify_shape_certificate(1, cert)}")
    return lines


@register(
    "cube_commutator_quotient_floor",
    "search registry quotients for a floor of 2 on the cube's commutator length",
)
def _cube_commutator_quotient_floor() -> list[str]:
    from .finite import load_group, quotient_length, registry_small_groups

    word = power(commutator(gen(1), gen(2)), 3)
    template = gamma_word(2)
    lines = []
    best = 0
    for spec in registry_small_groups():
        group = load_group(spec)
        floor = 0
        for i in range(group.order):
            for j in range(group.order):
                d = quotient_length(word, template, group, {1: i, 2: j})
                if d is not None and d > floor:
                    floor = d
        lines.append(f"{spec}: best floor {floor} over {group.order**2} assignments")
        best = max(best, floor)
    lines.append(f"best floor across the registry: {best}")
    if best < 2:
        lines.append(
            "no assignment certifies a floor of 2;"
            " the search reports failure without guessing"
        )
    return lines


@register(
    "magnus_depth_table",
    "lowest-degree terms of the standard word families",
)
def _magnus_depth_table() -> list[str]:
    lines = []
    for n in range(1, 6):
        lines.append(f"chain n={n}: depth {magnus.depth(gamma_word(n).body)}")
    lines.append(f"balanced bracket n=2: depth {magnus.depth(beta_word(2).body)}")
    for n in range(1, 4):
        lines.append(f"grope n={n}: depth {magnus.depth(grope_word(n).body)}")
    return lines
