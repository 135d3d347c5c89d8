"""The word kernel against an independent oracle.

Multiplication cancels only at the seam, the parser and ``Certificate.product``
reduce in one pass, and powers skip re-reduction.  Each is checked against a
plain stack reduction of the concatenated letters written out here, which
shares no code with ``verba.words``.
"""
from __future__ import annotations

import random

import pytest

from verba.certificates import parse_certificate
from verba.grammar import NameTable, canonical_table, format_word, parse
from verba.identities import culler_chain_squares, gamma3_triangle, square_to_gamma3
from verba.words import EMPTY, Word, commutator


def oracle(letters) -> tuple:
    """Freely reduce ``letters`` with a stack, letter by letter."""
    out: list = []
    for index, sign in letters:
        if out and out[-1] == (index, -sign):
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


def random_letters(rng: random.Random, rank: int, max_length: int) -> list:
    """Unreduced letters over few generators, so long cancellations are common."""
    return [
        (rng.randrange(1, rank + 1), rng.choice((1, -1)))
        for _ in range(rng.randrange(0, max_length + 1))
    ]


def inverse_letters(letters) -> list:
    return [(index, -sign) for index, sign in reversed(letters)]


def test_product_cancels_like_the_oracle():
    rng = random.Random(31)
    for _ in range(2000):
        a = random_letters(rng, 2, 14)
        b = random_letters(rng, 2, 14)
        product = Word(tuple(a)) * Word(tuple(b))
        assert product.letters == oracle(a + b)
        assert product == Word(tuple(a + b))


def test_product_full_and_partial_cancellation():
    rng = random.Random(32)
    for _ in range(500):
        a = oracle(random_letters(rng, 3, 20))
        cut = rng.randrange(0, len(a) + 1)
        # b undoes the last ``len(a) - cut`` letters of a, then adds its own tail
        tail = random_letters(rng, 3, 5)
        b = inverse_letters(a[cut:]) + tail
        product = Word(a) * Word(tuple(b))
        assert product.letters == oracle(list(a) + b)
        assert Word(a) * Word(a).inverse() == EMPTY
        assert (Word(a) * Word(tuple(inverse_letters(a)))).letters == ()


def test_inverse_and_power_match_the_oracle():
    rng = random.Random(33)
    for _ in range(500):
        letters = random_letters(rng, 3, 12)
        w = Word(tuple(letters))
        assert w.inverse().letters == oracle(inverse_letters(letters))
        for n in range(-5, 6):
            repeated = letters * n if n >= 0 else inverse_letters(letters) * -n
            assert (w**n).letters == oracle(repeated), (letters, n)


def test_public_constructor_keeps_its_checks():
    for bad in ((0, 1), (1, 2), (-3, 1), (1, 0)):
        with pytest.raises(ValueError):
            Word((bad,))
    assert Word(((1, 1), (1, -1))) == EMPTY
    assert Word(((1, 1), (1, -1))).letters == ()
    assert Word(((2, 1), (1, 1), (1, -1), (2, -1), (3, -1))).letters == ((3, -1),)


def test_parse_inverts_format():
    rng = random.Random(34)
    for _ in range(500):
        w = Word(tuple(random_letters(rng, 5, 30)))
        assert parse(format_word(w), canonical_table()) == w


def test_parse_matches_the_oracle_across_terms():
    rng = random.Random(35)
    names = {1: "a", 2: "b", 3: "c"}
    for _ in range(500):
        letters = random_letters(rng, 3, 25)
        text = " ".join(f"{names[i]}^{s}" for i, s in letters) or "1"
        # parenthesized groups put the cancellations inside and across sub-words
        cut = rng.randrange(0, len(letters) + 1)
        left = " ".join(f"{names[i]}^{s}" for i, s in letters[:cut]) or "1"
        right = " ".join(f"{names[i]}^{s}" for i, s in letters[cut:]) or "1"
        expected = oracle(letters)
        for source in (text, f"({left}) ({right})"):
            table = NameTable()
            for index, name in names.items():
                table.bind(name, index)
            assert parse(source, table).letters == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda x, y, z: square_to_gamma3(x * y, y * z * x, 5),
        lambda x, y, z: gamma3_triangle(x * y, z, 6),
        lambda x, y, z: culler_chain_squares(x, y * z),
    ],
)
def test_certificate_product_matches_a_pairwise_fold(build):
    x, y, z = (Word(((i, 1),)) for i in (1, 2, 3))
    cert = build(x, y, z)
    letters: list = []
    folded = EMPTY
    for factor in cert.factors:
        letters.extend(factor.expanded().letters)
        folded = folded * factor.expanded()
    assert cert.product() == folded == cert.target
    assert cert.product().letters == oracle(letters)


def test_large_certificate_round_trip():
    names = NameTable()
    cert = square_to_gamma3(parse("x y", names), parse("y z x", names), 8)
    text = cert.serialize()
    assert len(text) > 600_000
    again = parse_certificate(text)
    assert again == cert
    assert again.serialize() == text
    again.check()
    assert again.target == commutator(parse("x y", names), parse("y z x", names)) ** 256
