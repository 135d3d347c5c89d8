"""Rearrangement identities and the rewrite-certificate constructors."""
from __future__ import annotations

import random
from pathlib import Path

import pytest
from helpers import random_word

from verba import identities, words
from verba.certificates import FactorKind
from verba.errors import ResourceBudgetError
from verba.grammar import NameTable
from verba.identities import (
    REWRITE_RULES,
    base_identity,
    culler_chain_squares,
    culler_identity,
    culler_power_pair,
    gamma3_triangle,
    hall_witt,
    hall_witt_split,
    herd_powers,
    oddball_iterate,
    oddball_step,
    rotate_product,
    square_to_gamma3,
    telescope_line,
    verify_identity,
)
from verba.words import EMPTY, commutator, conjugate, gen, power, substitute


def test_elementary_identities_random():
    rng = random.Random(17)
    for i in range(1, 6):
        for _ in range(300):
            x = random_word(rng, rank=3, max_length=8)
            y = random_word(rng, rank=3, max_length=8)
            z = random_word(rng, rank=3, max_length=8)
            assert verify_identity(*base_identity(i, x, y, z))


def test_triple_product_vanishes():
    rng = random.Random(18)
    for _ in range(300):
        x, y, z = (random_word(rng, rank=3, max_length=8) for _ in range(3))
        assert hall_witt(x, y, z) == EMPTY


def test_culler_exact():
    cert = culler_identity(gen(1), gen(2))
    assert cert.target == power(commutator(gen(1), gen(2)), 3)
    assert cert.verify()
    assert len(cert.factors) == 2
    assert all(f.kind is FactorKind.COMMUTATOR for f in cert.factors)


def test_culler_substitutions():
    rng = random.Random(19)
    for _ in range(50):
        x = random_word(rng, rank=2, max_length=6)
        y = random_word(rng, rank=2, max_length=6)
        cert = culler_identity(x, y)
        assert cert.verify()


def test_culler_power_pairs():
    for k in range(1, 11):
        cert = culler_power_pair(k)
        assert cert.verify()
        assert cert.counts() == {"W_WORD": 2}
        expected = power(commutator(gen(1), gen(2) ** k), 3)
        assert cert.target == expected
        key = cert.factors[0].template.key
        assert all(f.template.key == key for f in cert.factors)


def test_culler_chain_squares():
    cert = culler_chain_squares(gen(1), gen(2))
    square = power(commutator(gen(1), gen(2)), 2)
    assert cert.target == power(square, 6)
    assert len(cert.factors) == 5
    assert cert.counts() == {"W_WORD": 5}


def test_herd_powers_counts():
    rng = random.Random(20)
    for _ in range(220):
        g = random_word(rng, rank=3, max_length=6)
        h = random_word(rng, rank=3, max_length=6)
        n = rng.randrange(1, 6)
        cert = herd_powers(g, h, n)
        assert cert.target == power(g, n) * power(h, n)
        kinds = [f.kind for f in cert.factors]
        assert kinds.count(FactorKind.COMMUTATOR) == n - 1


def test_rotate_product_counts():
    rng = random.Random(21)
    for _ in range(220):
        m = rng.randrange(1, 5)
        k = rng.randrange(1, 5)
        ws = [random_word(rng, rank=3, max_length=5) for _ in range(m)]
        cert = rotate_product(ws, k)
        product = EMPTY
        for w in ws:
            product = product * w
        assert cert.target == power(product, k)
        assert len(cert.factors) == (m - 1) * k + 1


def test_telescope_line_counts():
    rng = random.Random(22)
    for _ in range(220):
        m = rng.randrange(1, 5)
        gs = [random_word(rng, rank=3, max_length=4) for _ in range(m)]
        a = [rng.randrange(-4, 5) for _ in range(m)]
        b = [rng.randrange(-4, 5) for _ in range(m)]
        cert = telescope_line(gs, a, b)
        assert len(cert.factors) == m
        before = EMPTY
        after = EMPTY
        for g, ai, bi in zip(gs, a, b):
            before = before * power(g, ai)
            after = after * power(g, bi)
        assert cert.target == before.inverse() * after


def test_square_to_gamma3_counts_and_tags():
    rng = random.Random(23)
    for _ in range(220):
        a = random_word(rng, rank=4, max_length=5)
        n = rng.randrange(1, 5)
        if rng.random() < 0.5:
            b = commutator(random_word(rng, rank=4, max_length=3),
                           random_word(rng, rank=4, max_length=3))
        else:
            b = random_word(rng, rank=4, max_length=5)
        cert = square_to_gamma3(a, b, n)
        assert cert.target == power(commutator(a, b), 2**n)
        if not cert.factors:
            assert cert.target == EMPTY
            continue
        tail = cert.factors[1:]
        assert len(tail) == 2**n - 1
        from verba.words import in_commutator_subgroup

        if in_commutator_subgroup(b):
            assert all(f.kind is FactorKind.GAMMA_N_WORD for f in tail)
            assert not cert.flags
        else:
            assert all(f.kind is FactorKind.RAW for f in tail)
            assert cert.flags


def test_gamma3_triangle_counts():
    rng = random.Random(24)
    for _ in range(220):
        g = random_word(rng, rank=3, max_length=5)
        k = random_word(rng, rank=3, max_length=5)
        m = rng.randrange(1, 6)
        cert = gamma3_triangle(g, k, m)
        assert len(cert.factors) == m * (m - 1) // 2
        assert all(f.kind is FactorKind.COMMUTATOR for f in cert.factors)


def test_gamma3_triangle_pinned_small_case():
    cert = gamma3_triangle(gen(1), gen(2), 2)
    assert len(cert.factors) == 1
    factor = cert.factors[0]
    assert factor.base == commutator(gen(1), gen(2))
    assert factor.expanded() == conjugate(commutator(gen(1), gen(2)), gen(1))


def test_hall_witt_split_counts():
    rng = random.Random(25)
    for _ in range(220):
        g = random_word(rng, rank=5, max_length=5)
        if rng.random() < 0.5:
            a = commutator(random_word(rng, rank=5, max_length=3),
                           random_word(rng, rank=5, max_length=3))
            b = commutator(random_word(rng, rank=5, max_length=3),
                           random_word(rng, rank=5, max_length=3))
        else:
            a = random_word(rng, rank=5, max_length=5)
            b = random_word(rng, rank=5, max_length=5)
        cert = hall_witt_split(g, a, b)
        if cert.target == EMPTY and not cert.factors:
            continue
        assert len(cert.factors) == 2


def test_hall_witt_split_tags_with_supplied_pairs():
    g = gen(1)
    a = commutator(gen(2), gen(3))
    b = commutator(gen(4), gen(5))
    cert = hall_witt_split(g, a, b)
    assert all(f.kind is FactorKind.BETA2_WORD for f in cert.factors)
    assert not cert.flags

    cert = hall_witt_split(g, gen(2) * gen(3), b)
    assert all(f.kind is FactorKind.RAW for f in cert.factors)
    assert cert.flags


_SIZED_RULES = {
    "herd_powers": lambda ws, n: identities.herd_powers(ws[0], ws[1], n),
    "gamma3_triangle": lambda ws, n: identities.gamma3_triangle(ws[0], ws[1], n),
    "oddball_iterate": lambda ws, n: identities.oddball_iterate(*ws, n),
    "rotate_product": lambda ws, n: identities.rotate_product(ws, n),
    "telescope_line": lambda ws, n: identities.telescope_line(ws, [n, -1, 0], [2, n, -n]),
}


@pytest.mark.parametrize("rule", list(_SIZED_RULES))
def test_quadratic_rules_count_every_letter_against_the_size_budget(rule, monkeypatch):
    # A certificate whose factors' bases plus twice their conjugators, plus
    # 256 per factor, pass words.SIZE_BUDGET is refused; the count may only
    # overestimate.
    build = _SIZED_RULES[rule]
    rng = random.Random(2010)
    for _ in range(150):
        arity = 2 if rule in ("herd_powers", "gamma3_triangle") else 3
        ws = [random_word(rng, rank=3, max_length=5) for _ in range(arity)]
        n = rng.randrange(0 if rule == "rotate_product" else 1, 9)
        monkeypatch.setattr(words, "SIZE_BUDGET", 10**7)
        cert = build(ws, n)
        cost = sum(len(f.base) + 2 * len(f.conjugator) + 256 for f in cert.factors)
        if cost:
            monkeypatch.setattr(words, "SIZE_BUDGET", cost - 1)
            with pytest.raises(ResourceBudgetError):
                build(ws, n)


def test_oddball_step_and_iterate():
    rng = random.Random(26)
    for _ in range(220):
        x, y, z = (random_word(rng, rank=3, max_length=4) for _ in range(3))
        n = rng.randrange(1, 9)
        step = oddball_step(x, y, z, n)
        if step.factors:
            assert len(step.factors) == 2
            assert step.factors[1].kind is FactorKind.BETA2_WORD
        iterated = oddball_iterate(x, y, z, n)
        kinds = [f.kind for f in iterated.factors]
        if commutator(x, commutator(y, z)) == EMPTY:
            assert not iterated.factors
        else:
            assert kinds.count(FactorKind.BETA2_WORD) == n - 1
        assert iterated.target == power(commutator(x, commutator(y, z)), n)


def test_substituted_identity_instances_stay_valid():
    rng = random.Random(27)
    base = culler_identity(gen(1), gen(2))
    for _ in range(50):
        images = {
            1: random_word(rng, rank=2, max_length=5),
            2: random_word(rng, rank=2, max_length=5),
        }
        target = substitute(base.target, images)
        assert target == power(
            commutator(images.get(1, gen(1)), images.get(2, gen(2))), 3
        )


def test_rewrite_registry_builds():
    names = NameTable()
    samples = {
        "culler_identity": ["x", "y"],
        "culler_chain_squares": ["x", "y"],
        "culler_power_pair": ["4"],
        "herd_powers": ["x", "y", "3"],
        "rotate_product": ["2", "x", "y z"],
        "telescope_line": ["x;y", "1,2", "3,-1"],
        "square_to_gamma3": ["x", "[y,z]", "2"],
        "gamma3_triangle": ["x", "y", "3"],
        "hall_witt_split": ["x", "[a,b]", "[c,d]"],
        "oddball_step": ["x", "y", "z", "2"],
        "oddball_iterate": ["x", "y", "z", "4"],
    }
    assert set(samples) == set(REWRITE_RULES)
    for name, args in samples.items():
        cert = REWRITE_RULES[name].build(args, names)
        cert.check()


def test_readme_rule_table_matches_the_registry():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| rule | arguments | produces |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in table.splitlines()[1:]:  # skip the | --- | row
        name, usage = (cell.strip().strip("`") for cell in row.strip("|").split("|")[:2])
        listed[name] = usage.replace("…", "...")
    assert listed == {name: rule.usage for name, rule in REWRITE_RULES.items()}
