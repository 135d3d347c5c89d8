"""The word kernel against an independent oracle.

Multiplication cancels only at the seam, the parser and ``Certificate.product``
reduce in one pass, and powers skip re-reduction.  Each is checked against a
plain stack reduction of the concatenated letters written out here, which
shares no code with ``verba.words``.  The printer and ``substitute``, which do
no Python step per letter, are checked against the letter loops they replaced.
The kernel stores each letter as one int code; the oracles here read and
build ``(index, sign)`` pairs, through the public ``Word.letters`` view.
"""
from __future__ import annotations

import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest

from verba import grammar
from verba.certificates import parse_certificate
from verba.grammar import NameTable, canonical_table, format_word, parse
from verba.identities import culler_chain_squares, gamma3_triangle, square_to_gamma3
from verba.words import (
    EMPTY,
    Word,
    canonical_renumber,
    commutator,
    gen,
    power,
    product,
    substitute,
)


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


def old_format_word(w: Word, names: NameTable | None = None) -> str:
    """The printer's letter-by-letter run loop, before the joined fast lane."""
    if not w:
        return "1"
    parts: list[str] = []
    run_letter = w.letters[0]
    run = 0
    for letter in w.letters + ((0, 0),):
        if letter == run_letter:
            run += 1
            continue
        name = names.name(run_letter[0]) if names is not None else f"x{run_letter[0]}"
        exponent = run * run_letter[1]
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
        run_letter = letter
        run = 1
    return " ".join(parts)


def old_substitute(w: Word, images) -> Word:
    """Substitution letter by letter through the public, re-reducing constructor."""
    out: list = []
    for index, sign in w.letters:
        image = images.get(index)
        if image is None:
            out.append((index, sign))
        elif sign == 1:
            out.extend(image.letters)
        else:
            out.extend(image.inverse().letters)
    return Word(tuple(out))


def printer_words(rng: random.Random) -> list[Word]:
    """Runs over few generators, huge indices, single letters and the empty word."""
    made = [EMPTY, gen(1), gen(7).inverse(), gen(10**12), power(gen(3), -5)]
    for _ in range(600):
        rank = rng.choice((1, 2, 3, 12))
        letters = []
        for _ in range(rng.randrange(1, 10)):
            index = rng.randrange(1, rank + 1) * rng.choice((1, 1, 1, 10**9 + 7))
            letters += [(index, rng.choice((1, -1)))] * rng.choice((1, 1, 1, 2, 3, 40))
        made.append(Word(tuple(letters)))
    return made


def tables_with_taken_names() -> list[NameTable]:
    """Tables where the invented ``x<i>`` names clash with bound names."""
    taken = NameTable()
    taken.bind("x2", 5)
    taken.bind("x1", 3)
    taken.bind("a", 2)
    return [NameTable(), taken]


def test_format_word_matches_the_letter_loop():
    rng = random.Random(41)
    for w in printer_words(rng):
        assert format_word(w) == old_format_word(w)
        for fresh, old in zip(tables_with_taken_names(), tables_with_taken_names()):
            assert format_word(w, fresh) == old_format_word(w, old)
            # the same names, bound in the same order
            assert list(fresh.by_name.items()) == list(old.by_name.items())
            assert list(fresh.by_index.items()) == list(old.by_index.items())


@pytest.mark.parametrize("n", [10**6, -(10**6)])
def test_format_word_of_a_long_run(n):
    assert format_word(power(gen(1), n)) == f"x1^{n}"
    w = gen(2) * power(gen(1), n) * gen(2) * gen(2) * gen(3)
    assert format_word(w) == f"x2 x1^{n} x2^2 x3"
    names = NameTable()
    assert format_word(w, names) == old_format_word(w, NameTable()) == f"x2 x1^{n} x2^2 x3"


def test_canonical_texts_stay_within_their_bound():
    bound = grammar._CANONICAL_TEXTS_BOUND
    w = Word(tuple((index, 1) for index in range(1, 3 * bound, 2)))
    assert format_word(w) == old_format_word(w)
    assert len(grammar._CANONICAL_TEXTS) <= bound
    assert format_word(w.inverse()) == old_format_word(w.inverse())
    assert len(grammar._CANONICAL_TEXTS) <= bound


def test_substitute_matches_the_letter_loop():
    rng = random.Random(42)
    for _ in range(1500):
        w = Word(oracle(random_letters(rng, 4, 16)))
        u = Word(oracle(random_letters(rng, 3, 6)))
        images = {}
        for index in rng.sample(range(1, 6), rng.randrange(0, 6)):
            roll = rng.random()
            if roll < 0.2:
                images[index] = EMPTY
            elif roll < 0.5:  # images that cancel each other where they meet
                images[index] = u if rng.random() < 0.5 else u.inverse() * gen(index)
            else:
                images[index] = Word(oracle(random_letters(rng, 3, 6)))
        got = substitute(w, images)
        assert got == old_substitute(w, images)
        assert got.letters == oracle(got.letters)
    assert substitute(gen(1) * gen(2), {1: gen(2).inverse()}) == EMPTY
    assert substitute(commutator(gen(1), gen(2)), {}) == commutator(gen(1), gen(2))
    assert substitute(EMPTY, {1: gen(2)}) == EMPTY


def letters_with_both_inverses(rng: random.Random) -> tuple:
    """Reduced letters over four generators in which ``x1^-1`` and ``x2^-1`` both
    occur: with signed-index codes, ``-1`` and ``-2`` would share a hash."""
    while True:
        letters = oracle(random_letters(rng, 4, 16))
        if (1, -1) in letters and (2, -1) in letters:
            return letters


def pair_substitute(letters, images: dict) -> tuple:
    """``substitute`` letter by letter, each image given as its letters."""
    out: list = []
    for index, sign in letters:
        image = images.get(index, ((index, 1),))
        out.extend(image if sign == 1 else inverse_letters(image))
    return oracle(out)


def pair_renumber(letters) -> tuple:
    """``canonical_renumber`` letter by letter: generators by first appearance."""
    order: dict = {}
    for index, _ in letters:
        order.setdefault(index, len(order) + 1)
    return tuple((order[index], sign) for index, sign in letters)


def test_letters_are_index_sign_pairs_and_build_the_same_word():
    rng = random.Random(44)
    for _ in range(800):
        a, b = letters_with_both_inverses(rng), letters_with_both_inverses(rng)
        made = [Word(a), Word(a) * Word(b), power(Word(b), rng.randrange(-3, 4))]
        made.append(parse(format_word(made[1]), canonical_table()))
        for w in made:
            letters = w.letters
            assert type(letters) is tuple and tuple(w) == letters
            for letter in letters:
                assert type(letter) is tuple and len(letter) == 2
                assert type(letter[0]) is int and letter[0] >= 1 and letter[1] in (1, -1)
            assert Word(letters) == w and hash(Word(letters)) == hash(w)
            assert pickle.loads(pickle.dumps(w)) == w
    x = gen(1)
    for name, value in (("letters", ((2, 1),)), ("codes", (4,)), ("other", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, value)
    assert x.letters == ((1, 1),) and x == gen(1)


def test_word_operations_agree_with_pair_loops():
    """Every operation on both ``x1^-1`` and ``x2^-1``, against loops over pairs."""
    rng = random.Random(45)
    for _ in range(800):
        a, b = letters_with_both_inverses(rng), letters_with_both_inverses(rng)
        u, v = Word(a), Word(b)
        assert (u * v).letters == oracle(a + b)
        assert product([u, v, u.inverse(), v]).letters == oracle(
            a + b + tuple(inverse_letters(a)) + b
        )
        assert u.inverse().letters == tuple(inverse_letters(a))
        n = rng.randrange(-4, 5)
        assert power(u, n).letters == oracle(a * n if n >= 0 else inverse_letters(a) * -n)
        images = {1: b, 2: oracle(random_letters(rng, 3, 5)), 4: ()}
        got = substitute(u, {index: Word(image) for index, image in images.items()})
        assert got.letters == pair_substitute(a, images)
        shifted = Word(tuple((index + 3, sign) for index, sign in reversed(a)))
        assert canonical_renumber(shifted).letters == pair_renumber(shifted.letters)
        assert canonical_renumber(u).letters == pair_renumber(a)
        assert format_word(u) == old_format_word(u)
        for fresh, old in zip(tables_with_taken_names(), tables_with_taken_names()):
            assert format_word(v, fresh) == old_format_word(v, old)
            assert list(fresh.by_index.items()) == list(old.by_index.items())


def test_a_long_rewrite_stays_small():
    """The command builds and prints a 14 MB certificate of ``[a,b]^100000``;
    with each letter one int, not a 2-tuple, it peaks below 200 MB.

    A small wrapper process runs the command and reports its child's
    ``ru_maxrss``: a process started from this one would report at least the
    test runner's own size, which Linux carries across ``exec``."""
    wrapper = (
        "import resource, subprocess, sys\n"
        "status = subprocess.run([sys.executable, '-m', 'verba.cli', *sys.argv[1:]]).returncode\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    argv = ["rewrite", "hall_witt_split", "g", "[a,b]^100000", "[c,d]"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", wrapper, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("TARGET g a b a^-1 b^-1 a b a^-1 b^-1 ")
    peak_kb = int(result.stderr.split()[-1])  # ``ru_maxrss`` is in kilobytes on Linux
    assert peak_kb < 200 * 1024, peak_kb
