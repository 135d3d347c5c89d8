"""Free-reduction arithmetic on words."""
from __future__ import annotations

import random

from helpers import random_word

from verba.words import (
    EMPTY,
    Word,
    abelianization,
    canonical_renumber,
    commutator,
    conjugate,
    gen,
    in_commutator_subgroup,
    power,
    power_length,
    substitute,
)


def test_construction_reduces():
    w = Word(((1, 1), (2, 1), (2, -1), (1, -1)))
    assert w == EMPTY
    assert not w
    w = Word(((1, 1), (1, 1), (1, -1)))
    assert w == gen(1)


def test_inverse_cancels():
    rng = random.Random(1)
    for _ in range(300):
        w = random_word(rng)
        assert w * w.inverse() == EMPTY
        assert w.inverse() * w == EMPTY
        assert w.inverse().inverse() == w


def test_multiplication_associative():
    rng = random.Random(2)
    for _ in range(300):
        a, b, c = (random_word(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_integer_powers():
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(rng, max_length=6)
        assert w**0 == EMPTY
        assert w**1 == w
        assert w**3 == w * w * w
        assert w**-2 == (w.inverse()) ** 2


def test_power_helper_matches_repeated_product():
    rng = random.Random(4)
    for _ in range(200):
        core = random_word(rng, max_length=6)
        shell = random_word(rng, max_length=4)
        w = shell * core * shell.inverse()
        for n in (0, 1, 2, 5, -3):
            assert power(w, n) == w**n
            assert power_length(w, n) == len(w**n)


def test_conjugation_convention():
    x, y = gen(1), gen(2)
    assert conjugate(x, y) == y * x * y.inverse()
    rng = random.Random(5)
    for _ in range(100):
        w, s, t = (random_word(rng, max_length=6) for _ in range(3))
        assert conjugate(conjugate(w, s), t) == conjugate(w, t * s)


def test_commutator_shape():
    rng = random.Random(6)
    for _ in range(100):
        a, b = random_word(rng), random_word(rng)
        assert commutator(a, b) == a * b * a.inverse() * b.inverse()
        assert commutator(a, b).inverse() == commutator(b, a)


def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    for _ in range(150):
        u, v = random_word(rng, rank=3), random_word(rng, rank=3)
        images = {i: random_word(rng, rank=2, max_length=5) for i in (1, 2, 3)}
        assert substitute(u * v, images) == substitute(u, images) * substitute(
            v, images
        )
        assert substitute(u.inverse(), images) == substitute(u, images).inverse()


def test_substitute_fixes_absent_generators():
    w = gen(1) * gen(2)
    assert substitute(w, {1: gen(3)}) == gen(3) * gen(2)


def test_abelianization_counts_exponents():
    w = gen(1) * gen(2) * gen(1) * gen(2).inverse()
    assert abelianization(w) == {1: 2}
    assert abelianization(EMPTY) == {}
    rng = random.Random(8)
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        assert in_commutator_subgroup(commutator(a, b))
    assert not in_commutator_subgroup(gen(1))


def test_canonical_renumber_first_occurrence():
    w = gen(5) * gen(2).inverse() * gen(5)
    r = canonical_renumber(w)
    assert r == gen(1) * gen(2).inverse() * gen(1)
    assert canonical_renumber(r) == r


def test_canonical_renumber_is_a_relabeling():
    rng = random.Random(9)
    for _ in range(200):
        w = random_word(rng, rank=6)
        r = canonical_renumber(w)
        assert len(r) == len(w)
        mapping = {}
        for (a, _), (b, _) in zip(w.letters, r.letters):
            assert mapping.setdefault(a, b) == b
        assert len(set(mapping.values())) == len(mapping)
