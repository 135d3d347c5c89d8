"""Odd-degree permutation covers and the commutator-power shape certificates."""
from __future__ import annotations

import dataclasses

import pytest

from verba.certificates import Certificate, FactorKind, commutator_factor, raw_factor
from verba.cover import (
    boundary_cover,
    check_shape_certificate,
    cover_invariants,
    cycle_lengths,
    identity_permutation,
    invert_permutation,
    known_shape_certificate,
    then,
    verify_shape_certificate,
    word_permutation,
)
from verba.errors import CertificateError
from verba.words import commutator, gen, power


def oracle_apply(word, images, point):
    """Track one point through the word, letter by letter, left to right."""
    for index, sign in word.letters:
        perm = images[index]
        if sign == 1:
            point = perm[point]
        else:
            point = perm.index(point)
    return point


def test_then_composes_left_to_right():
    p = (1, 2, 0)
    q = (0, 2, 1)
    composed = then(p, q)
    for i in range(3):
        assert composed[i] == q[p[i]]


def test_invert_permutation():
    p = (2, 0, 3, 1)
    q = invert_permutation(p)
    assert then(p, q) == identity_permutation(4)
    assert then(q, p) == identity_permutation(4)


def test_cycle_lengths():
    assert cycle_lengths((1, 2, 0, 3, 5, 4)) == (3, 2, 1)
    assert cycle_lengths(identity_permutation(4)) == (1, 1, 1, 1)


def test_word_permutation_matches_pointwise_oracle():
    images = boundary_cover(2)
    degree = 5
    words = [
        gen(1),
        gen(2).inverse(),
        commutator(gen(1), gen(2)),
        power(commutator(gen(1), gen(2)), 3),
        gen(1) * gen(2) * gen(1).inverse(),
    ]
    for w in words:
        perm = word_permutation(w, images)
        for point in range(degree):
            assert perm[point] == oracle_apply(w, images, point)


def test_word_permutation_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        word_permutation(gen(1) * gen(2), {1: (1, 0), 2: (1, 2, 0)})


def test_boundary_cover_shape():
    for n in range(1, 11):
        images = boundary_cover(n)
        degree = 2 * n + 1
        assert len(images[1]) == len(images[2]) == degree
        # x reverses the points: one fixed point and n transpositions.
        assert cycle_lengths(images[1]) == (2,) * n + (1,)
        # y cycles the first n+1 points and fixes the rest.
        assert cycle_lengths(images[2]) == (n + 1,) + (1,) * n
        boundary = word_permutation(commutator(gen(1), gen(2)), images)
        assert cycle_lengths(boundary) == (degree,)
    with pytest.raises(ValueError):
        boundary_cover(0)


def test_cover_invariants():
    for n in range(1, 11):
        inv = cover_invariants(n)
        assert inv.degree == 2 * n + 1
        assert inv.boundary_components == 1
        assert inv.commutator_cycle_lengths == (2 * n + 1,)
        assert inv.euler_characteristic == -(2 * n + 1)
        # chi = 2 - 2g - b with b = 1 gives g = (degree + 1) / 2 = n + 1.
        assert inv.genus == n + 1
        assert 2 - 2 * inv.genus - inv.boundary_components == inv.euler_characteristic


def test_known_shape_certificate():
    cert = known_shape_certificate(1)
    assert cert is not None
    check_shape_certificate(1, cert)
    assert verify_shape_certificate(1, cert)
    assert cert.counts() == {"COMMUTATOR": 2}
    # One factor has second entry y^2, the other has second entry y.
    seconds = sorted(len(f.witness[2]) for f in cert.factors)
    assert seconds == [1, 2]
    assert known_shape_certificate(2) is None
    assert known_shape_certificate(5) is None


def test_shape_checker_rejects_wrong_degree():
    cert = known_shape_certificate(1)
    assert not verify_shape_certificate(2, cert)
    with pytest.raises(CertificateError):
        check_shape_certificate(2, cert)


def test_shape_checker_rejects_non_commutator_factors():
    x, y = gen(1), gen(2)
    target = power(commutator(x, y), 3)
    cert = Certificate(target=target, factors=(raw_factor(target),))
    assert not verify_shape_certificate(1, cert)


def test_shape_checker_rejects_bad_second_entries():
    x, y = gen(1), gen(2)
    target = power(commutator(x, y), 3)
    # Correct product but the wrong factor shape: one cube, not y-powers.
    cert = Certificate(
        target=target,
        factors=(
            commutator_factor(x, y),
            commutator_factor(x, y, conj=commutator(x, y)),
            commutator_factor(x, y, conj=power(commutator(x, y), 2)),
        ),
    )
    assert cert.verify()
    assert not verify_shape_certificate(1, cert)


def test_shape_checker_rejects_wrong_product():
    x, y = gen(1), gen(2)
    target = power(commutator(x, y), 3)
    cert = Certificate(
        target=target,
        factors=(
            commutator_factor(x, power(y, 2)),
            commutator_factor(x, y),
        ),
    )
    assert not cert.verify()
    assert not verify_shape_certificate(1, cert)


def test_shape_checker_rejects_inverted_factors():
    cert = known_shape_certificate(1)
    bad_factor = dataclasses.replace(cert.factors[0], inverted=True)
    assert bad_factor.kind is FactorKind.COMMUTATOR and bad_factor.inverted
    bad = Certificate(
        target=cert.factors[0].expanded().inverse() * cert.target,
        factors=(bad_factor, *cert.factors),
    )
    bad.check()
    assert not verify_shape_certificate(1, bad)
