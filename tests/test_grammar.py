"""Word expression parsing and printing."""
from __future__ import annotations

import random

import pytest
from helpers import random_word
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from verba import grammar, words
from verba.errors import ParseError, ResourceBudgetError, VerbaError
from verba.grammar import (
    NameTable,
    canonical_key,
    canonical_table,
    format_word,
    parse,
)
from verba.words import EMPTY, Word, commutator, conjugate, gen


def test_basic_atoms():
    names = NameTable()
    assert parse("1", names) == EMPTY
    x = parse("x", names)
    y = parse("y", names)
    assert x == gen(1) and y == gen(2)
    assert parse("x y", names) == x * y
    assert parse("x^-1", names) == x.inverse()


def test_powers_and_conjugation():
    names = NameTable()
    x, y = parse("x", names), parse("y", names)
    assert parse("x^3", names) == x * x * x
    assert parse("x^0", names) == EMPTY
    assert parse("x^y", names) == conjugate(x, y)
    assert parse("[x,y]", names) == commutator(x, y)
    assert parse("[x,y]^2", names) == commutator(x, y) ** 2
    assert parse("(x y)^2", names) == (x * y) ** 2
    assert parse("[x, y z]", names) == commutator(x, y * parse("z", names))


def test_conjugation_by_compound_atom():
    names = NameTable()
    x, y, z = (parse(s, names) for s in "xyz")
    assert parse("x^(y z)", names) == conjugate(x, y * z)
    assert parse("x^[y,z]", names) == conjugate(x, commutator(y, z))


def test_parse_errors():
    names = NameTable()
    for bad in ("x^", "[x", "[x y]", ")", "x^^2", "", "[,y]"):
        with pytest.raises(ParseError):
            parse(bad, names)


def test_reserved_names_rejected():
    names = NameTable()
    with pytest.raises(ParseError):
        parse("TARGET", names)


def test_print_parse_round_trip_corpus():
    corpus = [
        "x y x^-1 y^-1",
        "[x,y]^3",
        "x^y",
        "(x y z)^2",
        "[x,[y,z]]",
        "a^-3 b",
        "1",
    ]
    names = NameTable()
    for text in corpus:
        word = parse(text, names)
        assert parse(format_word(word, names), names) == word


def test_print_parse_round_trip_random():
    rng = random.Random(11)
    names = canonical_table()
    for _ in range(100):
        word = random_word(rng, rank=5, max_length=14)
        printed = format_word(word)
        assert parse(printed, names) == word


def test_canonical_key_is_stable():
    w = gen(2) * gen(1) ** -2
    assert canonical_key(w) == canonical_key(Word(w.letters))
    assert canonical_key(EMPTY) == "1"


def test_exponent_grouping_in_output():
    assert format_word(gen(1) ** 3) == "x1^3"
    assert format_word(gen(1) ** -2 * gen(2)) == "x1^-2 x2"


def test_numbers_are_read_as_str_isdecimal_reads_them():
    assert grammar.read_decimal("٣٠", "n") == 30  # Arabic-Indic digits, as int() reads them
    assert grammar.parse("x^٣") == grammar.parse("x^3")
    for text in ("", "²", "-1", "+1", " 1", "1_0", "1.0"):
        assert grammar.read_decimal(text, "n") is None
    with pytest.raises(ParseError, match="expected an exponent, found 'y'"):
        grammar.parse("x^-y")
    with pytest.raises(ResourceBudgetError, match="n of 5000 digits"):
        grammar.read_decimal("9" * 5000, "n")


def _outcome(parse_with, text, names):
    """The word ``parse_with`` reads, or its error, and the table it leaves."""
    try:
        result = parse_with(text, names)
    except VerbaError as exc:
        result = (type(exc), str(exc))
    return result, list(names.by_name.items()), list(names.by_index.items())


def _full_parse(text, names):
    return grammar._Parser(grammar._tokenize(text), names).expression()


_LONG = "9" * 5000  # past Python's 4300-digit limit on int-string conversion
# Names and exponents that raise, or that bind as plain names in a canonical
# table, are listed once against ten times for the others.
_flat_names = st.sampled_from(
    ["a", "b", "y_2", "Xy", "x1", "x2", "x10"] * 10 + ["x0", "x01", "x" + _LONG, "TARGET", "CONJ"]
)
_flat_exponents = st.sampled_from(
    ["", "", "^1", "^-1", "^2", "^-3", "^0", "^-0", "^007", "^-12"] * 10
    + ["^٣", "^99999999999", "^-" + _LONG]
)
_spaces = st.sampled_from([" ", " ", "  ", "\t", "\n ", "\u3000", "\x1c"])


def _inverse_term(term):
    name, exp, gap = term
    if not exp:
        return name, "^-1", gap
    return name, "^" + exp[2:] if exp.startswith("^-") else "^-" + exp[1:], gap


def _flat_text(lead, terms, centre):
    """The terms joined; unless ``centre`` is None, then the inverses of all
    but the last ``centre`` of them in reverse order, so that runs merge,
    cancel and expose runs that merge again."""
    if centre is not None:
        terms = terms + [_inverse_term(term) for term in reversed(terms[: len(terms) - centre])]
    return lead + "".join(name + exp + gap for name, exp, gap in terms)


_flat_texts = st.builds(
    _flat_text,
    st.sampled_from(["", " ", "\n"]),
    st.lists(st.tuples(_flat_names, _flat_exponents, _spaces), min_size=1, max_size=12),
    st.sampled_from([None, 0, 1]),
)


@seed(20102)
@settings(max_examples=300, deadline=None, database=None)
@given(text=_flat_texts)
def test_the_flat_lane_reads_as_the_full_parser(text):
    for table in (NameTable, canonical_table):
        want = _outcome(_full_parse, text, table())
        assert _outcome(grammar._parse_flat, text, table()) == want
        assert _outcome(parse, text, table()) == want


@pytest.mark.parametrize(
    "text",
    ["x ^ 2", "x^y", "x 1 y", "x^²", "x^-", "^2 x", "", " "]
    + [pytest.param("x y^2 " * 20000 + "]", id="long-flat-then-bracket")],
)
def test_near_flat_texts_take_the_full_parser(text):
    for table in (NameTable, canonical_table):
        names = table()
        assert grammar._parse_flat(text, names) is None
        assert (names.by_name, names.by_index) == ({}, {})
        assert _outcome(parse, text, table()) == _outcome(_full_parse, text, table())


def test_words_past_the_size_budget_are_refused_before_they_are_formed(monkeypatch):
    monkeypatch.setattr(words, "SIZE_BUDGET", 12)
    assert len(parse("[x^3, y^3]")) == 12
    assert parse("x^6 x^-6") == parse("(x^6 x^-6)") == EMPTY
    cases = {
        "[x^3, y^4]": 14,  # twice the entries
        "(x^2)^(y^6)": 14,  # the word and twice the conjugator
        "(x y z)^(a^5)": 13,
        "(x^6 y^7)": 13,  # the terms, summed as they are read
        "(x^6 x^-6 x)": 13,
        "x^6 y^7": 13,  # the flat lane sums all its terms
        "x^6 x^-6 x": 13,
        "x y " * 7: 14,
    }
    for text, count in cases.items():
        with pytest.raises(ResourceBudgetError, match=f"^{count} letters exceed"):
            parse(text)
