"""Factor tagging, reduction checking, and certificate serialization."""
from __future__ import annotations

import random

import pytest
from helpers import random_word
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from verba import words
from verba.certificates import (
    Certificate,
    Factor,
    FactorKind,
    beta2_factor,
    commutator_factor,
    gamma3_factor,
    parse_certificate,
    raw_factor,
    w_word_factor,
    with_conjugator_prefix,
)
from verba.errors import CertificateError, ParseError, ResourceBudgetError
from verba.grammar import NameTable, parse
from verba.templates import GAMMA3_FAMILY, gamma_word, template_from_word
from verba.words import EMPTY, Word, commutator, conjugate, gen, power


def test_factor_expansion():
    rng = random.Random(16)
    for _ in range(100):
        base = random_word(rng)
        conj = random_word(rng)
        f = raw_factor(base, conj=conj)
        assert f.expanded() == conjugate(base, conj)


def test_commutator_factor_witness():
    f = commutator_factor(gen(1) * gen(2), gen(3))
    assert f.kind is FactorKind.COMMUTATOR
    assert f.base == commutator(gen(1) * gen(2), gen(3))
    f.check()


def test_gamma3_factor_accepts_and_rejects():
    good = gamma3_factor(gen(1), gen(2), gen(3))
    good.check()
    assert good.base == commutator(gen(1), commutator(gen(2), gen(3)))

    bad = Factor(
        kind=FactorKind.GAMMA_N_WORD,
        base=gen(1),
        template=gamma_word(3),
        witness={1: gen(1), 2: gen(2), 3: gen(3)},
    )
    with pytest.raises(CertificateError):
        bad.check()


def test_beta2_factor_shape():
    f = beta2_factor(gen(1), gen(2), gen(3), gen(4))
    assert f.base == commutator(commutator(gen(1), gen(2)), commutator(gen(3), gen(4)))
    f.check()


def test_w_word_factor_inverted():
    t = template_from_word(commutator(gen(1), gen(2)))
    f = w_word_factor(t, {1: gen(5), 2: gen(6)}, inverted=True)
    assert f.expanded() == commutator(gen(5), gen(6)).inverse()


def test_conjugator_prefix():
    f = commutator_factor(gen(1), gen(2), conj=gen(3))
    g = with_conjugator_prefix(f, gen(4))
    assert g.expanded() == conjugate(f.expanded(), gen(4))


def test_certificate_verify_and_counts():
    x, y = gen(1), gen(2)
    cert = Certificate(
        target=commutator(x, y) * conjugate(commutator(x, y), y),
        factors=(
            commutator_factor(x, y),
            commutator_factor(x, y, conj=y),
        ),
        flags=(),
    )
    cert.check()
    assert cert.verify()
    assert cert.counts() == {"COMMUTATOR": 2}


def test_certificate_detects_wrong_target():
    cert = Certificate(
        target=gen(1),
        factors=(raw_factor(gen(2)),),
        flags=(),
    )
    assert not cert.verify()
    with pytest.raises(CertificateError):
        cert.check()


def test_serialize_parse_round_trip():
    from verba.identities import (
        culler_power_pair,
        gamma3_triangle,
        hall_witt_split,
        herd_powers,
        oddball_iterate,
        square_to_gamma3,
    )

    certs = [
        herd_powers(gen(1) * gen(2), gen(3), 4),
        gamma3_triangle(gen(1), gen(2), 3),
        square_to_gamma3(gen(1), commutator(gen(2), gen(3)), 2),
        square_to_gamma3(gen(1), gen(2), 2),  # RAW + flag path
        hall_witt_split(gen(1), commutator(gen(2), gen(3)), commutator(gen(4), gen(5))),
        oddball_iterate(gen(1), gen(2), gen(3), 5),
        culler_power_pair(3),
    ]
    for cert in certs:
        names = NameTable()
        text = cert.serialize(names)
        parsed = parse_certificate(text, NameTable())
        assert parsed.target == cert.target
        assert len(parsed.factors) == len(cert.factors)
        for ours, theirs in zip(cert.factors, parsed.factors):
            assert ours.kind is theirs.kind
            assert ours.base == theirs.base
            assert ours.conjugator == theirs.conjugator
            assert ours.inverted == theirs.inverted
            assert ours.witness == theirs.witness
        assert parsed.flags == cert.flags
        assert parsed.counts() == cert.counts()
        parsed.check()


def test_parse_rejects_count_mismatch():
    text = "TARGET x\nFACTOR RAW x CONJ 1\nCOUNTS RAW=2\n"
    with pytest.raises(CertificateError):
        parse_certificate(text)


def test_empty_certificate():
    cert = Certificate(target=EMPTY, factors=(), flags=())
    cert.check()
    assert cert.verify()
    assert cert.counts() == {}


def test_power_target_round_trip():
    base = gen(1) * gen(2) * gen(1).inverse()
    cert = Certificate(
        target=power(base, 3),
        factors=(raw_factor(base), raw_factor(base), raw_factor(base)),
        flags=(),
    )
    cert.check()


def test_stock_kinds_carry_their_own_templates():
    with pytest.raises(ParseError, match="malformed factor kind"):
        parse_certificate("TARGET 1\nFACTOR GAMMA_N_WORD:0 1 CONJ 1\n")
    empty = template_from_word(EMPTY)
    for kind in (FactorKind.COMMUTATOR, FactorKind.GAMMA_N_WORD, FactorKind.BETA2_WORD):
        bad = Factor(kind, base=EMPTY, template=empty, witness={})
        with pytest.raises(CertificateError, match="malformed template"):
            bad.check()
    # a gamma3 template under COMMUTATOR has the right base but the wrong kind
    bad = Factor(
        FactorKind.COMMUTATOR,
        base=commutator(gen(1), commutator(gen(2), gen(3))),
        template=gamma_word(3),
        witness={1: gen(1), 2: gen(2), 3: gen(3)},
    )
    with pytest.raises(CertificateError, match="malformed template"):
        bad.check()


def test_a_factor_over_a_family_template_is_refused():
    """``Gamma3`` names a set of words, not one word, so no witness instantiates it."""
    factor = Factor(
        FactorKind.W_WORD,
        base=commutator(gen(1), commutator(gen(2), gen(3))),
        template=GAMMA3_FAMILY,
        witness={1: gen(1), 2: gen(2), 3: gen(3)},
    )
    with pytest.raises(CertificateError, match="factor templates must be single words"):
        factor.check()


def test_parse_counts_the_factors_letters_as_it_reads_them(monkeypatch):
    # bases plus twice the conjugators, as the rewrite rules count before building
    text = "TARGET x^4\nFACTOR RAW x^2 CONJ y\nFACTOR RAW x^2 CONJ 1\nFACTOR RAW x CONJ 1\n"
    monkeypatch.setattr(words, "SIZE_BUDGET", 7)
    assert len(parse_certificate(text).factors) == 3
    monkeypatch.setattr(words, "SIZE_BUDGET", 6)
    with pytest.raises(ResourceBudgetError, match="^7 letters in the factors exceed"):
        parse_certificate(text)


def test_a_factor_counts_its_witness_image_before_forming_it(monkeypatch):
    # 100 body letters: x1 spells a long image once, x2 a letter 99 times
    template = template_from_word(gen(1) * power(gen(2), 99))
    monkeypatch.setattr(words, "SIZE_BUDGET", 1000)
    w_word_factor(template, {1: power(gen(3), 900), 2: gen(4)}).check()
    factor = w_word_factor(template, {1: power(gen(3), 902), 2: gen(4)})
    with pytest.raises(ResourceBudgetError, match="^1001 letters in a witnessed factor exceed"):
        factor.check()


# Few generators, so that neighbouring conjugators and bodies cancel often.
_words = st.lists(st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), max_size=7).map(Word)


@st.composite
def _conjugated_factors(draw):
    """RAW factors whose conjugators each relate to the one before: equal to
    it, extending it, sharing a prefix of it, empty, or drawn afresh; some
    bodies begin with a suffix of their conjugator's inverse, so they cancel
    into it, and some factors are inverted."""
    factors, last = [], EMPTY
    for _ in range(draw(st.integers(0, 6))):
        relation = draw(st.sampled_from(["equal", "extends", "shares", "empty", "fresh"]))
        tail = draw(_words)
        if relation == "equal":
            conj = last
        elif relation == "extends":
            conj = last * tail
        elif relation == "shares":
            conj = Word(last.letters[: draw(st.integers(0, len(last)))]) * tail
        else:
            conj = EMPTY if relation == "empty" else tail
        base = draw(_words)
        if draw(st.booleans()):
            cut = draw(st.integers(0, len(conj)))
            base = Word(conj.letters[cut:]).inverse() * base
        factors.append(Factor(FactorKind.RAW, base, conj, inverted=draw(st.booleans())))
        last = conj
    return tuple(factors)


@seed(30001)
@settings(max_examples=400, deadline=None, database=None)
@given(factors=_conjugated_factors())
def test_the_product_is_the_product_of_the_expanded_factors(factors):
    cert = Certificate(target=EMPTY, factors=factors)
    assert cert.product() == words.product(f.expanded() for f in factors)


@seed(30002)
@settings(max_examples=300, deadline=None, database=None)
@given(
    left=st.lists(st.integers(2, 5), max_size=40),
    keep=st.integers(0, 40),
    tail=st.lists(st.integers(2, 5), max_size=10),
)
def test_the_common_prefix_is_the_plain_loops(left, keep, tail):
    right = left[:keep] + tail
    want = 0
    while want < min(len(left), len(right)) and left[want] == right[want]:
        want += 1
    assert words._common_prefix(tuple(left), tuple(right)) == want
    assert words._common_prefix(tuple(right), tuple(left)) == want


@pytest.mark.parametrize(
    "base, conj",
    [
        ("[x1,x2]", "1"),
        ("[x1,  x2]\tx3", "(x1 x2)^x3"),
        ("x1\tx2  x1^-1", "x3  x3"),
        ("( x1 x2 ) ^ 2", "[x3 ,x1]"),
        ("x2 x1 x1", "x3^-1\t\tx2"),
    ],
)
def test_factor_fields_that_are_not_flat_read_as_their_texts(base, conj):
    names = NameTable()
    cert = parse_certificate(f"TARGET 1\nFACTOR RAW {base} CONJ {conj}\n", names)
    want = NameTable()
    assert (cert.factors[0].base, cert.factors[0].conjugator) == (parse(base, want), parse(conj, want))
    assert names == want


@pytest.mark.parametrize(
    "fields, message",
    [
        ("[x1,\tx2 CONJ 1", "unexpected end of input (expected ']')"),
        ("x1 ^^ 2 CONJ 1", "expected an atom, found '^'"),
        ("x1  CONJ  x2 ]", "trailing input starting at ']'"),
        ("x1 CONJ", "empty expression (use '1' for the identity)"),
        (" CONJ x1", "empty expression (use '1' for the identity)"),
        ("x1 CONJ (x2\t\t", "unexpected end of input (expected ')')"),
    ],
)
def test_factor_fields_that_do_not_parse_raise_as_their_texts(fields, message):
    with pytest.raises(ParseError) as caught:
        parse_certificate(f"TARGET 1\nFACTOR RAW {fields}\n")
    assert str(caught.value) == message
