"""Headline acceptance checks, one test per criterion.

Each test prints a single ``PASS``/``FAIL`` line with its elapsed time and
budget, and fails if its budget is exceeded or any assertion inside breaks.
"""
from __future__ import annotations

import contextlib
import random
import time
from fractions import Fraction

from helpers import random_word

from verba import magnus
from verba.bounds import BoundEngine, Context, QuantityKind
from verba.certificates import Certificate, w_word_factor
from verba.cover import cover_invariants
from verba.experiments import (
    scenario_commutator_product,
    scenario_gamma_chain,
    scenario_grope_family,
    scenario_perfect_comparison,
    scenario_power_pair_diagonal,
    scenario_squared_commutator,
)
from verba.finite import (
    bi_invariance_check,
    load_group,
    registry_small_groups,
    template_values,
    wlength_table,
)
from verba.identities import (
    base_identity,
    culler_identity,
    culler_power_pair,
    gamma3_triangle,
    hall_witt,
    hall_witt_split,
    herd_powers,
    oddball_iterate,
    rotate_product,
    square_to_gamma3,
    telescope_line,
    verify_identity,
)
from verba.templates import beta_word, gamma_word
from verba.words import EMPTY, commutator, gen, power

F = Fraction


@contextlib.contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nFAIL {name}: {elapsed:.2f}s (limit {limit_seconds}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL"
    print(f"\n{status} {name}: {elapsed:.2f}s (limit {limit_seconds}s)")
    assert elapsed < limit_seconds, f"{name} took {elapsed:.2f}s"


def test_acceptance_1_identity_fuzz():
    with criterion("commutator identities under 1000 random substitutions", 10.0):
        rng = random.Random(101)
        failures = 0
        for i in range(1, 6):
            for _ in range(1000):
                x = random_word(rng, rank=6, max_length=16)
                y = random_word(rng, rank=6, max_length=16)
                z = random_word(rng, rank=6, max_length=16)
                if not verify_identity(*base_identity(i, x, y, z)):
                    failures += 1
        for _ in range(1000):
            x = random_word(rng, rank=6, max_length=16)
            y = random_word(rng, rank=6, max_length=16)
            z = random_word(rng, rank=6, max_length=16)
            if hall_witt(x, y, z) != EMPTY:
                failures += 1
        assert failures == 0


def test_acceptance_2_culler_certificates():
    with criterion("cube-of-commutator certificates and substitutions", 1.0):
        x, y = gen(1), gen(2)
        cert = culler_identity(x, y)
        assert cert.verify()
        assert cert.target == power(commutator(x, y), 3)
        assert cert.counts() == {"COMMUTATOR": 2}
        for k in range(1, 11):
            cert = culler_power_pair(k)
            assert cert.verify()
            assert cert.target == power(commutator(x, power(y, k)), 3)
            assert cert.counts() == {"W_WORD": 2}
            keys = {f.template.key for f in cert.factors}
            assert len(keys) == 1


def test_acceptance_3_rewrite_factor_counts():
    with criterion("rewrite certificates with exact factor counts", 60.0):
        rng = random.Random(202)

        def word(max_length=6):
            return random_word(rng, rank=3, max_length=max_length)

        for _ in range(200):
            g, h, n = word(), word(), rng.randrange(1, 7)
            cert = herd_powers(g, h, n)
            cert.check()
            assert cert.target == power(g, n) * power(h, n)
            assert len(cert.factors) == n
            assert sum(f.kind.value == "COMMUTATOR" for f in cert.factors) == n - 1

        for _ in range(200):
            m, k = rng.randrange(1, 5), rng.randrange(1, 6)
            words = [word(5) for _ in range(m)]
            cert = rotate_product(words, k)
            cert.check()
            assert len(cert.factors) == (m - 1) * k + 1

        for _ in range(200):
            m = rng.randrange(1, 5)
            gs = [word(4) for _ in range(m)]
            before = [rng.randrange(-3, 4) for _ in range(m)]
            after = [rng.randrange(-3, 4) for _ in range(m)]
            cert = telescope_line(gs, before, after)
            cert.check()
            assert len(cert.factors) == m

        for _ in range(200):
            a, b, n = word(4), word(4), rng.randrange(1, 6)
            cert = square_to_gamma3(a, b, n)
            cert.check()
            expected = 0 if commutator(a, b) == EMPTY else 2**n
            assert len(cert.factors) == expected

        for _ in range(200):
            g, k, m = word(4), word(4), rng.randrange(1, 7)
            cert = gamma3_triangle(g, k, m)
            cert.check()
            assert len(cert.factors) == m * (m - 1) // 2

        for _ in range(200):
            g, a, b = word(4), word(3), word(3)
            cert = hall_witt_split(g, commutator(a, gen(1)), commutator(b, gen(2)))
            cert.check()
            expected = (
                0
                if commutator(g, commutator(commutator(a, gen(1)), commutator(b, gen(2))))
                == EMPTY
                else 2
            )
            assert len(cert.factors) == expected

        for _ in range(200):
            x, y, z, n = word(3), word(3), word(3), rng.randrange(2, 7)
            cert = oddball_iterate(x, y, z, n)
            cert.check()
            if commutator(x, commutator(y, z)) == EMPTY:
                assert len(cert.factors) == 0
            else:
                assert len(cert.factors) == n
                assert (
                    sum(f.kind.value == "BETA2_WORD" for f in cert.factors) == n - 1
                )


def _assert_traced(engine: BoundEngine, quantity) -> None:
    text = engine.explain(quantity)
    assert "\n" in text and " by " in text


def test_acceptance_4_bound_reproductions():
    with criterion("interval engine reproduces the six bound families", 5.0):
        for k in range(1, 6):
            engine, q = scenario_power_pair_diagonal(k)
            assert engine.interval(q) == (F(1, 2), F(1, 2))
            _assert_traced(engine, q)

        engine, q = scenario_squared_commutator()
        assert engine.interval(q) == (F(2, 3), F(4, 5))
        _assert_traced(engine, q)

        for n in range(2, 7):
            engine, q = scenario_gamma_chain(n)
            lo, hi = engine.interval(q)
            assert lo == F(1, 2)
            assert hi <= 1 - F(1, 2 ** (n - 1))
            _assert_traced(engine, q)

        for g in range(1, 5):
            engine, q = scenario_commutator_product(g)
            want = 1 - F(1, 2 * g)
            assert engine.interval(q) == (want, want)
            _assert_traced(engine, q)

        for s in (F(1), F(3, 2), F(2)):
            for n in range(2, 5):
                engine, q = scenario_perfect_comparison(s, n)
                assert engine.interval(q) == (s, 2 ** (n - 2) * s)
                _assert_traced(engine, q)

        for n in range(1, 4):
            engine, q_len, q_family, q_chain = scenario_grope_family(n)
            assert engine.interval(q_len) == (F(1), F(1))
            assert engine.interval(q_family)[1] <= F(1)
            assert engine.interval(q_chain)[1] <= F(2)
            _assert_traced(engine, q_chain)


def _oracle_distances(group, values):
    gens = set(int(v) for v in values)
    gens |= {group.inverse(v) for v in gens}
    dist = {group.identity: 0}
    frontier = [group.identity]
    level = 0
    while frontier:
        level += 1
        fresh = []
        for a in frontier:
            for s in gens:
                b = group.multiply(a, s)
                if b not in dist:
                    dist[b] = level
                    fresh.append(b)
        frontier = fresh
    return dist


def test_acceptance_5_finite_group_cross_check():
    with criterion("finite distance tables against an independent search", 120.0):
        for spec in registry_small_groups():
            group = load_group(spec)
            assert group.order <= 60
            for template in (gamma_word(2), beta_word(2)):
                table = wlength_table(group, template)
                want = _oracle_distances(group, template_values(group, template))
                for element in range(group.order):
                    assert table.distance(element) == want.get(element), (
                        spec,
                        template.label,
                        element,
                    )
                assert bi_invariance_check(group, table)
        a5 = wlength_table(load_group("A5"), gamma_word(2))
        assert a5.histogram() == {0: 1, 1: 59}


def test_acceptance_6_floors_never_cross_ceilings():
    with criterion("quotient floors stay under certificate ceilings", 60.0):
        rng = random.Random(33)
        templates = [gamma_word(2), gamma_word(3), beta_word(2)]
        groups = [load_group(spec) for spec in registry_small_groups()]
        for _ in range(100):
            template = rng.choice(templates)
            group = rng.choice(groups)
            if group.order**len(template.variables) > 2_000_000:
                group = load_group("S4")
            factors = []
            for _ in range(rng.randrange(1, 4)):
                witness = {
                    v: random_word(rng, rank=3, max_length=4)
                    for v in template.variables
                }
                conj = random_word(rng, rank=3, max_length=3)
                factors.append(
                    w_word_factor(
                        template, witness, conj=conj, inverted=rng.random() < 0.3
                    )
                )
            target = EMPTY
            for factor in factors:
                target = target * factor.expanded()
            cert = Certificate(target=target, factors=tuple(factors))
            engine = BoundEngine()
            quantity = engine.add_certificate_fact(target, template, 1, cert)
            ceiling = engine.interval(quantity)[1]
            assert ceiling == len(factors)
            images = {  # FREE quantities number generators by first appearance
                i: rng.randrange(group.order) for i in quantity.word.generators()
            }
            floor = engine.add_quotient_floor(quantity, group, images)
            engine.propagate()
            if floor is not None:
                assert floor <= ceiling
            lo, hi = engine.interval(quantity)
            assert lo <= hi


def test_acceptance_7_cover_facts():
    with criterion("odd-degree cover invariants for n up to 50", 1.0):
        for n in range(1, 51):
            inv = cover_invariants(n)
            assert inv.degree == 2 * n + 1
            assert inv.commutator_cycle_lengths == (2 * n + 1,)
            assert inv.boundary_components == 1
            assert inv.euler_characteristic == -(2 * n + 1)
            assert inv.genus == n + 1


def test_acceptance_8_series_depths():
    with criterion("power-series depths of the nested families", 10.0):
        for n in range(1, 6):
            assert magnus.depth(gamma_word(n).body) == n
        assert magnus.depth(beta_word(2).body) == 4
