"""Unit tests for the exact-rational interval engine and each propagation rule."""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from verba import bounds, experiments, grammar
from verba.bounds import BoundEngine, Context, Quantity, QuantityKind, format_interval
from verba.certificates import Certificate, commutator_factor
from verba.errors import (
    CertificateError,
    InconsistencyError,
    ParseError,
    UnknownNameError,
    VerbaError,
)
from verba.finite import load_group
from verba.identities import culler_identity
from verba.templates import (
    GAMMA3_FAMILY,
    beta_word,
    commutator_product_word,
    gamma_word,
    grope_word,
    template_from_word,
)
from verba.words import Word, commutator, gen, power

X, Y, Z = gen(1), gen(2), gen(3)
F = Fraction


def mk(engine, kind, context, word, template=None, exponent=None):
    return engine.make_quantity(kind, context, word, template, exponent)


# ---------------------------------------------------------------------------
# quantities: parsing, display, validation

def test_parse_quantity_round_trips():
    engine = BoundEngine()
    texts = [
        "SCL FREE [x,y]",
        "CL PERFECT x y",
        "L FREE [x,y] | gamma2 @ 3",
        "SL PERFECT g | gamma3",
        "L FREE x | [y,z] @ 2",
        "SL FREE [z,[x,y]] | Gamma3",
        "SL PERFECT_SCL_ZERO g | beta2",
        "SL FREE w | commutator_product2",
        "SL FREE w | grope3",
    ]
    for text in texts:
        q = engine.parse_quantity(text)
        again = engine.parse_quantity(engine.display(q))
        assert again.key() == q.key()


def test_template_spec_word_prefix_alias():
    engine = BoundEngine()
    plain = engine.parse_quantity("SL FREE [x,y] | [a,b]")
    prefixed = engine.parse_quantity("SL FREE [x,y] | w:[a,b]")
    named = engine.parse_quantity("SL FREE [x,y] | gamma2")
    assert prefixed.key() == plain.key() == named.key()


def test_parse_quantity_defaults_l_exponent_to_one():
    engine = BoundEngine()
    q = engine.parse_quantity("L FREE [x,y] | gamma2")
    assert q.exponent == 1
    assert q.key().endswith("@ 1")


def test_parse_quantity_errors():
    engine = BoundEngine()
    bad = [
        "L FREE [x,y]",  # missing template
        "SL FREE [x,y]",  # missing template
        "SCL FREE x | gamma2",  # template on a template-free kind
        "CL FREE x | gamma2",
        "SCL FREE [x,y] @ 2",  # exponent on a non-L kind
        "SL FREE x | gamma2 @ 2",
        "L FREE x | gamma2 @ 0",  # exponents start at 1
        "L FREE x | gamma2 @ z",
        "FOO FREE x",  # unknown kind
        "L BAR x | gamma2",  # unknown context
        "L FREE",  # too few tokens
    ]
    for text in bad:
        with pytest.raises(ParseError):
            engine.parse_quantity(text)


def test_quantity_validation_direct():
    with pytest.raises(ValueError):
        Quantity(QuantityKind.SCL, Context.FREE, X, gamma_word(2).key)
    with pytest.raises(ValueError):
        Quantity(QuantityKind.L, Context.FREE, X)
    with pytest.raises(ValueError):
        Quantity(QuantityKind.SL, Context.FREE, X, gamma_word(2).key, 2)
    with pytest.raises(ValueError):
        Quantity(QuantityKind.L, Context.FREE, X, gamma_word(2).key, 0)
    q = Quantity(QuantityKind.L, Context.FREE, X, gamma_word(2).key)
    assert q.exponent == 1


def test_quantity_key_is_built_once_and_stays_out_of_equality():
    w = commutator(X, power(Y, 2))
    q = Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2).key, 3)
    fresh = " ".join(
        ["L", "FREE", grammar.canonical_key(w), f"| {gamma_word(2).key}", "@ 3"]
    )
    assert q.key() == fresh
    assert q.key() is q.key()
    twin = Quantity(QuantityKind.L, Context.FREE, Word(w.letters), gamma_word(2).key, 3)
    assert twin == q and hash(twin) == hash(q)
    assert twin != Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2).key, 4)
    assert q.key() not in repr(q)
    scl = Quantity(QuantityKind.SCL, Context.PERFECT, w)
    assert scl.key() == f"SCL PERFECT {grammar.canonical_key(w)}"


def test_format_interval():
    assert format_interval(F(1, 2), None) == "[1/2, inf]"
    assert format_interval(F(1), F(1)) == "[1, 1]"
    assert format_interval(F(0), F(3, 4)) == "[0, 3/4]"


def test_interval_requires_declaration():
    engine = BoundEngine()
    with pytest.raises(UnknownNameError):
        engine.interval("SCL FREE [x,y]")
    engine.declare("SCL FREE [x,y]")
    assert engine.interval("SCL FREE [x,y]") == (F(0), None)


def test_declare_rejects_unregistered_template_key():
    engine = BoundEngine()
    with pytest.raises(UnknownNameError):
        engine.declare(Quantity(QuantityKind.SL, Context.FREE, X, "no-such-template"))


# ---------------------------------------------------------------------------
# fact entry, seeds, and files

def test_add_fact_and_explain_seed():
    engine = BoundEngine()
    engine.add_fact("SCL FREE [x,y]", F(1, 2), F(1, 2), label="seeded")
    assert engine.interval("SCL FREE [x,y]") == (F(1, 2), F(1, 2))
    text = engine.explain("SCL FREE [x,y]")
    assert "1/2 (exact)" in text
    assert "by SEED" in text
    assert "# seeded" in text


def test_explain_shows_defaults():
    engine = BoundEngine()
    engine.declare("SCL FREE [x,y]")
    text = engine.explain("SCL FREE [x,y]")
    assert "lo 0: default" in text
    assert "hi inf: default" in text


def test_default_seeds():
    engine = BoundEngine()
    assert engine.load_default_seeds() == 5
    assert engine.interval("SCL FREE [a,b]") == (F(1, 2), F(1, 2))
    assert engine.interval("SCL FREE [a,b]^2") == (F(1), F(1))
    assert engine.interval("SCL FREE [a,b][c,d]") == (F(3, 2), F(3, 2))
    assert engine.interval("SCL FREE [a,b][c,d][e,f][g,h]") == (F(7, 2), F(7, 2))


def test_facts_file_round_trip():
    engine = BoundEngine()
    engine.load_facts(
        "SCL FREE [x,y] => 1/2\n"
        "L FREE [x,y] | gamma2 @ 6 = 2 12\n"
        "SL PERFECT g | gamma3 = 0 inf\n"
        "# a comment line\n"
        "\n"
        "CL FREE [x,y] [z,t] = 1 2\n"
    )
    dumped = engine.dump_facts()
    other = BoundEngine()
    other.load_facts(dumped)
    assert other.dump_facts() == dumped
    for key in engine.facts:
        assert engine.facts[key].lo == other.facts[key].lo
        assert engine.facts[key].hi == other.facts[key].hi


def test_facts_parse_errors():
    engine = BoundEngine()
    bad = [
        "SCL FREE [x,y] => inf",  # exact values must be finite
        "SCL FREE [x,y] = 1",  # two bounds required
        "SCL FREE [x,y] = 1 2 3",
        "SCL FREE [x,y]",  # no relation
        "SCL FREE [x,y] => -1",  # bounds are nonnegative
        "SCL FREE [x,y] = inf 2",  # lower bounds are finite
        "FOO FREE x => 1",
        "SCL FREE [x,y] => 1/0",
    ]
    for line in bad:
        with pytest.raises(ParseError):
            engine.load_facts(line)


def test_facts_error_reports_line_number():
    engine = BoundEngine()
    with pytest.raises(ParseError, match="line 2"):
        engine.load_facts("SCL FREE [x,y] => 1/2\nSCL FREE [x,y] = oops\n")


def test_loading_a_ladder_parses_its_word_and_spec_once(monkeypatch):
    calls = [0]
    real = grammar.parse

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(grammar, "parse", counted)
    engine = BoundEngine()
    engine.load_facts(
        "".join(f"L FREE [a,b] | [a,b] @ {m} = 0 {m}\n" for m in range(1, 201))
    )
    assert len(engine.facts) == 200
    assert calls[0] <= 2


def test_a_bad_facts_line_fails_the_same_way_every_time():
    engine = BoundEngine()
    engine.load_facts("L FREE [a,b] | [a,b] @ 1 = 0 1\n")
    bad = [
        "L FREE [a,b | [a,b] @ 2 = 0 2",  # bad word
        "L FREE [a,b] | [a, @ 2 = 0 2",  # bad template spec
        "L FREE [a,b] | gamma99999999999999999999999 @ 2 = 0 2",
        "L FREE TARGET | [a,b] @ 2 = 0 2",  # reserved name
    ]
    for line in bad:
        messages = []
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                engine.load_facts(f"# first line\n{line}\n")
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("facts line 2: ")
    engine.load_facts("L FREE [a,b] | [a,b] @ 2 = 0 2\n")
    assert engine.interval("L FREE [a,b] | [a,b] @ 2") == (F(0), F(2))


# ---------------------------------------------------------------------------
# inconsistency and the event log

def test_inconsistency_carries_both_provenances():
    engine = BoundEngine()
    engine.add_fact("CL FREE [x,y]", lo=2, provenance="QUOTIENT", label="floor")
    with pytest.raises(InconsistencyError) as info:
        engine.add_fact("CL FREE [x,y]", hi=1, provenance="CERTIFICATE", label="ceiling")
    assert "QUOTIENT" in info.value.trace
    assert "CERTIFICATE" in info.value.trace


def test_propagation_inconsistency():
    engine = BoundEngine()
    engine.add_fact(
        "L FREE [x,y] | gamma2 @ 1", hi=0, provenance="CERTIFICATE", label="bogus"
    )
    with pytest.raises(InconsistencyError) as info:
        engine.propagate()
    assert "R0" in info.value.trace
    assert "CERTIFICATE" in info.value.trace


def test_record_lines_format():
    engine = BoundEngine()
    engine.add_fact("SCL FREE [x,y]", F(1, 2), F(1, 2), label="basic")
    q = engine.declare("SL FREE [x,y] | gamma2")
    engine.propagate()
    lines = engine.record_lines()
    assert lines, "events were recorded"
    for line in lines:
        body = line.split(" # ")[0]
        assert body.startswith("FACT ")
        assert " RULE " in body
        assert " FROM " in body
    assert any(" RULE SEED FROM -" in line for line in lines)
    assert any(" RULE R3 FROM " in line for line in lines)
    assert any(q.key() in line for line in lines)


def test_propagate_reaches_a_fixed_point():
    engine = BoundEngine()
    engine.load_default_seeds()
    engine.declare("SL FREE [a,b] | gamma2")
    engine.declare("SCL FREE [a,b]^3")
    engine.add_fact("L FREE [a,b] | gamma2 @ 3", hi=2, provenance="CERTIFICATE")
    first = engine.propagate()
    assert first > 0
    assert engine.propagate() == 0
    # Same inputs, same outputs: the engine is deterministic.
    twin = BoundEngine()
    twin.load_default_seeds()
    twin.declare("SL FREE [a,b] | gamma2")
    twin.declare("SCL FREE [a,b]^3")
    twin.add_fact("L FREE [a,b] | gamma2 @ 3", hi=2, provenance="CERTIFICATE")
    twin.propagate()
    assert twin.dump_facts() == engine.dump_facts()


def _ladder(word, his, seeds=False, extra=(), facts=()):
    """Facts ``L FREE word | word @ m = 0 his[m-1]`` for m = 1..len(his), propagated."""
    engine = BoundEngine()
    if seeds:
        engine.load_default_seeds()
    engine.load_facts(
        "".join(f"L FREE {word} | {word} @ {m} = 0 {hi}\n" for m, hi in enumerate(his, 1))
    )
    engine.load_facts("\n".join(facts))
    shown = [engine.declare(text) for text in (f"SL FREE {word} | {word}", *extra)]
    shown.append(engine.parse_quantity(f"L FREE {word} | {word} @ {len(his)}"))
    engine.propagate()
    return engine, shown


def _mirror_ladder():
    """A gamma2 ladder of [a,b] and some powers of its inverse [b,a], each short
    where the other is not, so R13 carries bounds across both ways."""
    engine = BoundEngine()
    engine.load_facts(
        "".join(f"L FREE [a,b] | gamma2 @ {m} = 0 {3 if m == 4 else m}\n" for m in range(1, 25))
        + "".join(
            f"L FREE [b,a] | gamma2 @ {m} = 0 {hi}\n"
            for m, hi in ((2, 2), (3, 2), (4, 4), (5, 3), (12, 12), (13, 7))
        )
    )
    shown = [
        engine.declare("SL FREE [a,b] | gamma2"),
        engine.parse_quantity("L FREE [a,b] | gamma2 @ 24"),
        engine.parse_quantity("L FREE [b,a] | gamma2 @ 13"),
    ]
    engine.propagate()
    return engine, shown


def _scenario(build):
    engine, *shown = build()
    return engine, shown


def _fresh_head_stable():
    """SL of grope2 over itself, with scl of its inner commutator product (R6)."""
    engine = BoundEngine()
    outer = grope_word(2)
    inner = commutator_product_word(2)
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, outer.body, outer))
    engine.declare(mk(engine, QuantityKind.SL, Context.FREE, inner.body, inner))
    engine.add_fact(
        mk(engine, QuantityKind.SCL, Context.FREE, inner.body), F(3, 2), F(3, 2)
    )
    engine.propagate()
    return engine, [q]


def _fresh_head_finite():
    """The cube of gamma3 over itself, from the square of gamma2 (R6)."""
    engine = BoundEngine()
    body = gamma_word(3).body
    q = engine.declare(mk(engine, QuantityKind.L, Context.FREE, body, gamma_word(3), 3))
    engine.add_fact(
        mk(engine, QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(2), 2),
        hi=3,
    )
    engine.propagate()
    return engine, [q]


def _one_step_beta():
    """SL over beta2 of a one-step nested element with vanishing scl (R14)."""
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(
        mk(engine, QuantityKind.SL, Context.PERFECT_SCL_ZERO, g, beta_word(2))
    )
    engine.add_fact(
        mk(engine, QuantityKind.L, Context.PERFECT_SCL_ZERO, g, gamma_word(3), 1),
        F(1),
        F(1),
    )
    engine.propagate()
    return engine, [q]


def _perfect_comparison_two_sided():
    """R8 with each side bounded at one end only, so both sides tighten in one round."""
    engine = BoundEngine()
    engine.load_facts("SL PERFECT g | gamma3 = 0 4\nSCL PERFECT g = 1/2 inf\n")
    shown = [engine.parse_quantity(text) for text in ("SL PERFECT g | gamma3", "SCL PERFECT g")]
    engine.propagate()
    return engine, shown


def _cl_alias_from_length():
    """CL read off the gamma2 length of the same word (R-CL)."""
    engine = BoundEngine()
    w = commutator(X, Y) * commutator(X, Z)
    cl_q = engine.declare(mk(engine, QuantityKind.CL, Context.FREE, w))
    l_q = engine.add_fact(
        mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 1), F(1), F(2)
    )
    engine.propagate()
    return engine, [cl_q, l_q]


def _cl_alias_to_length():
    """The gamma2 length read off CL of the same word (R-CL)."""
    engine = BoundEngine()
    u = commutator(X, Y)
    l_q = engine.declare(mk(engine, QuantityKind.L, Context.PERFECT, u, gamma_word(2), 1))
    cl_q = engine.add_fact(mk(engine, QuantityKind.CL, Context.PERFECT, u), F(2), F(3))
    engine.propagate()
    return engine, [l_q, cl_q]


# sha256 of record_lines() and explain() of each shown quantity, joined by
# newlines; a change to rule order, the order a rule visits facts in, rule
# output or text formats moves them.  The [a,b] ladder holds Culler's values
# cl([a,b]^m) = m//2 + 1, so the stable ratios (R4, R5) tighten many times in
# key order; the other ladders have one short power, which power splitting
# (R13) carries up the ladder over several rounds (four rounds, three of them
# with R13 events, for the 120 rungs of ladder_plain_long); ladder_mirror also
# carries them across to the inverse word and back.  The last six reach R6, R14
# and R-CL, which no other entry does, and R8 with both of its sides tightening
# in one round, which pins the order of the four linked proposals.
_PINNED_LOGS = {
    "ladder_commutator": (
        lambda: _ladder(
            "[a,b]",
            [m // 2 + 1 for m in range(1, 41)],
            seeds=True,
            extra=("SCL FREE [a,b]^3",),
        ),
        "7d46bea68e6b00c457656c24516e726c01c7bdd327f6cc7dd06716b6fe75eedd",
    ),
    "ladder_plain": (
        lambda: _ladder("a^2 b a^-1 b", [3 if m == 4 else m for m in range(1, 41)]),
        "1a28d90ebb4dc5147b6a578c564a38821fb135dfd08b9773e92cbe0b0a3914a4",
    ),
    "ladder_plain_long": (
        lambda: _ladder("a b^2 a^-1 b", [2 if m == 3 else m for m in range(1, 121)]),
        "c205fd6eec9f8eb7a4d0065b32ede934452f1f2d0e8db4b654b9ad3004db3ca9",
    ),
    "ladder_mirror": (
        _mirror_ladder,
        "ad9d6393a9e4cdb52d009bfee3d98f807ecd617b839108d6d6fed95f93920376",
    ),
    # [x,y^2] is one commutator, so the gamma2 ladder follows the diagonal one (R1)
    "ladder_scl": (
        lambda: _ladder(
            "[x,y^2]",
            [2 if m == 3 else m for m in range(1, 31)],
            extra=("SCL FREE [x,y^2]",),
            facts=[f"L FREE [x,y^2] | gamma2 @ {m} = 0 inf" for m in range(2, 31)]
            + ["L FREE [x,y^2] | gamma2 @ 1 => 1"],
        ),
        "e780fe596b0249bf5b9b0c2aca1a6f3e5297105cea1c16b12cd257ea8f7e3ac4",
    ),
    "power_pair_diagonal": (
        lambda: _scenario(lambda: experiments.scenario_power_pair_diagonal(2)),
        "c65fa8ef0bf69aa650aea019c62f4d5218442a082d53b22cbb8286987fbb5f39",
    ),
    "squared_commutator": (
        lambda: _scenario(experiments.scenario_squared_commutator),
        "dd714d73cba3e25bf39358690c402d653e2c35f86c3b57129f5e9fc548b68f21",
    ),
    "gamma_chain": (
        lambda: _scenario(lambda: experiments.scenario_gamma_chain(3)),
        "c5f3ffc625230211aff3868e634d731c3d7e523743ee59f5ee47d6c7047ec2b0",
    ),
    "commutator_product": (
        lambda: _scenario(lambda: experiments.scenario_commutator_product(2)),
        "2e05a1c495536f42de5ed8410cb403a776acd68eb85673598a78144723108086",
    ),
    "perfect_comparison": (
        lambda: _scenario(lambda: experiments.scenario_perfect_comparison(F(3, 2), 3)),
        "139fba162ff5c3352526bcd8f854390f1b3e14870ed74f240da8d0e953beaead",
    ),
    "grope_family": (
        lambda: _scenario(lambda: experiments.scenario_grope_family(2)),
        "db3ee323e04477188a1d9ebf83aa22dc717d8b3002f8caa8932ff63ad79a1615",
    ),
    "fresh_head_stable": (
        _fresh_head_stable,
        "e67f3c7827a12270eeb488a7f5b9d4cd95f09c710c3c0ab34432fdee46dd6634",
    ),
    "fresh_head_finite": (
        _fresh_head_finite,
        "d7309924e0735802b069182caf3d82d7e023a2dc801af5abd843d16f534069c4",
    ),
    "one_step_beta": (
        _one_step_beta,
        "416e8cb8d0ff8f40d2fc4502719a591a9846171d5a00a1e08c23c4a16e76d282",
    ),
    "perfect_comparison_two_sided": (
        _perfect_comparison_two_sided,
        "1c67a045f4cdf40d22286f01f945bd589519313e663f7103a6a2a474c6aaf751",
    ),
    "cl_alias_from_length": (
        _cl_alias_from_length,
        "fd284e682b2ca6e070ba0921d78bc49b4b2935b9461c9a20b609a5a67bed167d",
    ),
    "cl_alias_to_length": (
        _cl_alias_to_length,
        "9b3f0d2410eea405069daa7058dce3c794987bbf353890e6b55b09496ced07b5",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_LOGS))
def test_event_log_and_explain_are_pinned(name):
    build, expected = _PINNED_LOGS[name]
    engine, shown = build()
    text = "\n".join(engine.record_lines() + [engine.explain(q) for q in shown])
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_propagate_formats_words_linearly_in_the_ladder_length(monkeypatch):
    """Word formatting (how quantity keys are built) grows linearly, not per pair."""
    calls = {}
    real = grammar.format_word
    for n in (20, 80):
        engine = BoundEngine()
        engine.load_facts(
            "".join(f"L FREE [a,b] | [a,b] @ {m} = 0 {m}\n" for m in range(1, n + 1))
        )
        engine.declare("SL FREE [a,b] | [a,b]")
        engine.declare("SCL FREE [a,b]")
        count = [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(grammar, "format_word", counted)
        engine.propagate()
        monkeypatch.setattr(grammar, "format_word", real)
        calls[n] = count[0]
    # four times the facts: at most four times the formatting (pairwise would be ~16x)
    assert calls[80] <= 4 * calls[20]


def test_power_splitting_skips_splits_that_cannot_tighten(monkeypatch):
    """A split and its mirror are one sum, and settled splits are not summed again."""
    real = Fraction.__add__
    for n in (20, 80):
        engine = BoundEngine()
        engine.load_facts(
            "".join(f"L FREE [a,b] | [a,b] @ {m} = 0 {m}\n" for m in range(1, n + 1))
        )
        engine.declare("SL FREE [a,b] | [a,b]")
        engine.declare("SCL FREE [a,b]")
        count = [0]

        def counted(a, b):
            count[0] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, "__add__", counted)
        engine.propagate()
        monkeypatch.setattr(Fraction, "__add__", real)
        # every split in every round would be about n**2 sums
        assert count[0] <= n * n / 3, (n, count[0])


def _all_pairs_exponent_splitting(engine, facts):
    """Power splitting (R13) that proposes every split of every ladder in every round."""
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        n = tq.exponent
        ladder = facts.ladder(tq.context, tq.word, tq.template_key)
        for a, part in ladder.items():
            if part.hi is None:
                continue
            other = ladder.get(n - a)
            if other is None or other.hi is None:
                continue
            yield (
                tq,
                "hi",
                part.hi + other.hi,
                "R13",
                "factorizations of two powers concatenate",
                [part.quantity, other.quantity],
            )
        mirror = facts.ladder(tq.context, tq.word.inverse(), tq.template_key).get(n)
        if mirror is not None and mirror.hi is not None:
            yield (
                tq,
                "hi",
                mirror.hi,
                "R13",
                "inverting a factorization factors the inverse",
                [mirror.quantity],
            )


# a word, its inverse, and a second template
_SPLIT_WORDS = (
    ("[a,b]", "[b,a]", "gamma2"),
    ("a^2 b a^-1 b", "b^-1 a b^-1 a^-2", "gamma3"),
    ("a b^2", "b^-2 a^-1", "[a,b^2]"),
)


def _random_rungs(rng, word, template, top, lows):
    """Facts on some of the powers 1..top of ``word``, with whole, half and infinite bounds."""
    exponents = sorted(rng.sample(range(1, top + 1), rng.randint(1, top)))
    lines = []
    for m in exponents:
        roll = rng.random()
        if roll < 0.15:
            hi = "inf"
        elif roll < 0.4:
            hi = str(Fraction(rng.randint(m + 2, 4 * m + 2), 2))
        else:
            hi = str(rng.randint(m // 2 + 1, 2 * m))
        lo = rng.choice(lows)
        lines.append(f"L FREE {word} | {template} @ {m} = {lo} {hi}")
    return lines


def _random_split_run(rng):
    """Load, propagate, maybe add facts and propagate again; the log and every interval.

    Without stable ratios and with every lower bound at one, power splitting
    makes the first event of a round, which the skipping must not miss.
    """
    word, inverse, other_template = rng.choice(_SPLIT_WORDS)
    templates = [word] if rng.random() < 0.5 else [word, other_template]
    stable = rng.random() < 0.5
    lows = ("0", "0", "1", "1/2") if stable else ("1",)
    lines = []
    for template in templates:
        lines += _random_rungs(rng, word, template, rng.randint(2, 24), lows)
        if rng.random() < 0.5:
            lines += _random_rungs(rng, inverse, template, rng.randint(2, 16), lows)
    later = _random_rungs(rng, word, rng.choice(templates), rng.randint(2, 30), lows)
    shown = [f"SL FREE {word} | {template}" for template in templates if stable]
    engine = BoundEngine()
    engine.load_facts("\n".join(lines))
    for text in shown:
        engine.declare(text)
    engine.propagate()
    if rng.random() < 0.5:
        engine.load_facts("\n".join(later))
        engine.propagate()
    explained = [engine.explain(engine.facts[key].quantity) for key in sorted(engine.facts)]
    return "\n".join(engine.record_lines() + explained)


def test_power_splitting_matches_the_all_pairs_rule(monkeypatch):
    """Skipping splits changes no event, antecedent or event order."""
    oracle_rules = tuple(
        _all_pairs_exponent_splitting if rule is bounds._rule_exponent_splitting else rule
        for rule in bounds._RULES
    )
    rng = random.Random(1986)
    split = 0
    for case in range(200):
        seed = rng.randrange(2**32)
        fast = _random_split_run(random.Random(seed))
        monkeypatch.setattr(bounds, "_RULES", oracle_rules)
        slow = _random_split_run(random.Random(seed))
        monkeypatch.undo()
        assert fast == slow, (case, seed)
        split += "concatenate" in fast
    assert split >= 150, split


# ---------------------------------------------------------------------------
# individual rules

def test_rule_trivial_and_integrality():
    engine = BoundEngine()
    empty_q = engine.declare("L FREE 1 | gamma2 @ 4")
    q = engine.add_fact("L FREE [x,y] | gamma2 @ 2", lo=F(4, 3), hi=F(5, 2))
    engine.propagate()
    assert engine.interval(empty_q) == (F(0), F(0))
    assert engine.interval(q) == (F(2), F(2))


def test_rule_compose():
    engine = BoundEngine()
    w = commutator(X, Y) * commutator(Z, gen(4))
    target = engine.declare(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(3)))
    engine.add_fact(
        mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2)), hi=2
    )
    engine.add_fact(
        mk(engine, QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(3)), hi=3
    )
    engine.propagate()
    assert engine.interval(target) == (F(1), F(6))
    assert "R1" in engine.explain(target)


def test_rule_compose_zero_times_infinity():
    engine = BoundEngine()
    w = commutator(X, Y)
    target = engine.declare(mk(engine, QuantityKind.L, Context.PERFECT, w, gamma_word(3)))
    engine.add_fact(mk(engine, QuantityKind.L, Context.PERFECT, w, gamma_word(2)), hi=0)
    engine.declare(
        mk(engine, QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(3))
    )
    engine.propagate()
    assert engine.interval(target) == (F(0), F(0))


def test_rule_scl_bridge_stable_form():
    engine = BoundEngine()
    w = commutator(X, Y) * commutator(X, Z)
    scl_q = engine.declare(mk(engine, QuantityKind.SCL, Context.FREE, w))
    engine.add_fact(mk(engine, QuantityKind.SL, Context.FREE, w, gamma_word(2)), hi=1)
    engine.add_fact(
        mk(engine, QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(1))
    assert "R2" in engine.explain(scl_q)


def test_rule_scl_bridge_finite_form():
    engine = BoundEngine()
    w = commutator(X, Y)
    scl_q = engine.declare(mk(engine, QuantityKind.SCL, Context.FREE, power(w, 3)))
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 3), hi=2)
    engine.add_fact(
        mk(engine, QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(3, 2))


def test_rule_scl_bridge_clamps_at_zero():
    engine = BoundEngine()
    w = commutator(X, Y)
    scl_q = engine.declare(mk(engine, QuantityKind.SCL, Context.PERFECT, power(w, 2)))
    engine.add_fact(
        mk(engine, QuantityKind.L, Context.PERFECT, w, gamma_word(2), 2), hi=F(1, 2)
    )
    engine.add_fact(
        mk(engine, QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(0))


def test_rule_diagonal_window():
    engine = BoundEngine()
    body = gamma_word(2).body
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, body, gamma_word(2)))
    engine.add_fact(mk(engine, QuantityKind.SCL, Context.FREE, body), F(1, 2), F(1, 2))
    engine.propagate()
    # Window [scl/(scl+1/2), 1], here [1/2, 1], sharpened to hi 1/2 by the
    # nested-chain ceiling at index 2: the interval collapses.
    assert engine.interval(q) == (F(1, 2), F(1, 2))


def test_rule_diagonal_window_renamed_word():
    engine = BoundEngine()
    word = commutator(gen(7), gen(3))  # same shape, different letters
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, word, gamma_word(2)))
    engine.propagate()
    lo, hi = engine.interval(q)
    assert lo == F(1, 2)
    assert hi == F(1, 2)


def test_rule_power_ratio():
    engine = BoundEngine()
    w = commutator(X, Y)
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, w, gamma_word(3)))
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(3), 5), hi=3)
    engine.propagate()
    assert engine.interval(q) == (F(0), F(3, 5))
    assert "R4" in engine.explain(q)


def test_rule_stable_promotion_diagonal():
    engine = BoundEngine()
    body = gamma_word(2).body
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, body, gamma_word(2)))
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, body, gamma_word(2), 3), hi=2)
    engine.propagate()
    assert engine.interval(q) == (F(1, 2), F(1, 2))
    assert "R5" in engine.explain(q) or "R7" in engine.explain(q)


def test_rule_stable_promotion_off_diagonal():
    engine = BoundEngine()
    template = commutator_product_word(2)
    w = commutator(X, Y) * commutator(X, Z)
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, w, template))
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, template, 4), hi=3)
    engine.add_fact(
        mk(engine, QuantityKind.SL, Context.FREE, template.body, template),
        hi=F(3, 4),
    )
    engine.propagate()
    assert engine.interval(q) == (F(0), F(11, 16))
    assert "R5" in engine.explain(q)


def test_rule_fresh_head_stable():
    engine, (q,) = _fresh_head_stable()
    assert engine.interval(q) == (F(1, 2), F(7, 8))
    assert "R6" in engine.explain(q)


def test_rule_fresh_head_finite():
    engine, (q,) = _fresh_head_finite()
    assert engine.interval(q) == (F(1), F(4))
    assert "R6" in engine.explain(q)


def test_rule_chain_ceiling():
    engine = BoundEngine()
    for n, want in ((2, F(1, 2)), (3, F(3, 4)), (4, F(7, 8)), (6, F(31, 32))):
        body = gamma_word(n).body
        q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, body, gamma_word(n)))
        engine.propagate()
        lo, hi = engine.interval(q)
        assert hi == want
        assert lo == F(1, 2)


def test_rule_perfect_comparison():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(mk(engine, QuantityKind.SL, Context.PERFECT, g, gamma_word(3)))
    engine.add_fact(
        mk(engine, QuantityKind.SCL, Context.PERFECT, g), F(3, 2), F(3, 2)
    )
    engine.propagate()
    assert engine.interval(q) == (F(3, 2), F(3))
    assert "R8" in engine.explain(q)


def test_rule_perfect_comparison_reverse():
    engine = BoundEngine()
    g = X * Y
    scl_q = engine.declare(mk(engine, QuantityKind.SCL, Context.PERFECT, g))
    engine.add_fact(
        mk(engine, QuantityKind.SL, Context.PERFECT, g, gamma_word(4)), F(2), F(2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(1, 2), F(2))


def test_rule_perfect_comparison_not_in_free_context():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, g, gamma_word(3)))
    engine.add_fact(mk(engine, QuantityKind.SCL, Context.FREE, g), F(3, 2), F(3, 2))
    engine.propagate()
    assert engine.interval(q) == (F(0), None)


def test_rule_gamma3_bridge_free_needs_depth():
    engine = BoundEngine()
    deep = grope_word(2).body  # vanishes to depth 3
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, deep, gamma_word(3)))
    engine.add_fact(
        mk(engine, QuantityKind.SL, Context.FREE, deep, GAMMA3_FAMILY),
        F(1, 4),
        F(1),
    )
    engine.propagate()
    lo, hi = engine.interval(q)
    assert hi == F(2)
    assert lo == F(1, 4)
    assert "R9" in engine.explain(q)

    shallow = commutator(X, Y)  # depth 2: the free-context gate must refuse
    other = BoundEngine()
    q2 = other.declare(mk(other, QuantityKind.SL, Context.FREE, shallow, gamma_word(3)))
    other.add_fact(
        mk(other, QuantityKind.SL, Context.FREE, shallow, GAMMA3_FAMILY), hi=1
    )
    other.propagate()
    assert other.interval(q2)[1] is None


def test_rule_gamma3_bridge_declared_contexts():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(mk(engine, QuantityKind.SL, Context.PERFECT, g, gamma_word(3)))
    engine.add_fact(
        mk(engine, QuantityKind.SL, Context.PERFECT, g, GAMMA3_FAMILY), hi=1
    )
    engine.propagate()
    assert engine.interval(q)[1] == F(2)


def test_rule_gamma3_bridge_reverse_transfer():
    engine = BoundEngine()
    g = X * Y
    partner = engine.declare(
        mk(engine, QuantityKind.SL, Context.PERFECT, g, GAMMA3_FAMILY)
    )
    engine.add_fact(
        mk(engine, QuantityKind.SL, Context.PERFECT, g, gamma_word(3)), F(1, 2), F(3, 2)
    )
    engine.propagate()
    assert engine.interval(partner) == (F(1, 4), F(3, 2))


def test_rule_gamma3_bridge_skips_over_budget_words():
    engine = BoundEngine()
    wide = Word()
    for i in range(1, 12):
        wide = wide * gen(i)
    q = engine.declare(mk(engine, QuantityKind.SL, Context.FREE, wide, gamma_word(3)))
    engine.add_fact(mk(engine, QuantityKind.SL, Context.FREE, wide, GAMMA3_FAMILY), hi=1)
    engine.propagate()
    assert engine.interval(q)[1] is None


def test_rule_unbalanced_vanish():
    engine = BoundEngine()
    lopsided = template_from_word(power(X, 2) * Y)
    for context in (Context.FREE, Context.PERFECT):
        q = engine.declare(
            mk(engine, QuantityKind.SL, context, commutator(X, Y), lopsided)
        )
        engine.propagate()
        assert engine.interval(q)[1] == F(0)
        assert "R10" in engine.explain(q)


def test_rule_block_division():
    engine = BoundEngine()
    u = power(commutator(X, Y), 2)
    q = engine.declare(
        mk(engine, QuantityKind.SL, Context.FREE, u, commutator_product_word(2))
    )
    engine.add_fact(mk(engine, QuantityKind.SCL, Context.FREE, u), hi=F(3, 2))
    engine.propagate()
    assert engine.interval(q) == (F(0), F(3, 4))
    assert "R12" in engine.explain(q)


def test_rule_exponent_splitting():
    engine = BoundEngine()
    w = commutator(X, Y)
    q = engine.declare(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 5))
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 2), hi=1)
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 3), hi=2)
    engine.propagate()
    assert engine.interval(q) == (F(1), F(3))
    assert "R13" in engine.explain(q)


def test_rule_inverse_mirror():
    engine = BoundEngine()
    w = commutator(X, Y)
    q = engine.declare(
        mk(engine, QuantityKind.L, Context.FREE, w.inverse(), gamma_word(2), 2)
    )
    engine.add_fact(mk(engine, QuantityKind.L, Context.FREE, w, gamma_word(2), 2), hi=4)
    engine.propagate()
    assert engine.interval(q) == (F(1), F(4))
    assert "R13" in engine.explain(q)


def test_rule_one_step_beta():
    engine, (q,) = _one_step_beta()
    assert engine.interval(q)[1] == F(1)
    assert "R14" in engine.explain(q)

    # The same facts in a merely perfect context must not conclude anything.
    other = BoundEngine()
    g = X * Y
    q2 = other.declare(mk(other, QuantityKind.SL, Context.PERFECT, g, beta_word(2)))
    other.add_fact(
        mk(other, QuantityKind.L, Context.PERFECT, g, gamma_word(3), 1), F(1), F(1)
    )
    other.propagate()
    assert other.interval(q2)[1] is None


def test_rule_cl_alias_both_directions():
    engine, (cl_q, _) = _cl_alias_from_length()
    assert engine.interval(cl_q) == (F(1), F(2))

    other, (l_q, _) = _cl_alias_to_length()
    assert other.interval(l_q) == (F(2), F(3))


# ---------------------------------------------------------------------------
# certificate and quotient entry points

def test_add_certificate_fact():
    engine = BoundEngine()
    cert = culler_identity(X, Y)
    q = engine.add_certificate_fact(commutator(X, Y), gamma_word(2), 3, cert)
    assert engine.interval(q) == (F(0), F(2))
    assert "CERTIFICATE" in engine.explain(q)


def test_add_certificate_fact_rejects_wrong_power():
    engine = BoundEngine()
    cert = culler_identity(X, Y)
    with pytest.raises(VerbaError):
        engine.add_certificate_fact(commutator(X, Y), gamma_word(2), 2, cert)


def test_add_certificate_fact_rejects_foreign_factors():
    engine = BoundEngine()
    cert = culler_identity(X, Y)
    with pytest.raises(VerbaError):
        engine.add_certificate_fact(commutator(X, Y), gamma_word(3), 3, cert)


def test_add_certificate_fact_rejects_broken_certificates():
    engine = BoundEngine()
    cert = Certificate(
        target=power(commutator(X, Y), 3),
        factors=(commutator_factor(X, Y),),
    )
    with pytest.raises(CertificateError):
        engine.add_certificate_fact(commutator(X, Y), gamma_word(2), 3, cert)


def test_add_certificate_fact_family_matching():
    engine = BoundEngine()
    inner = commutator(X, Y) * commutator(Z, gen(4))
    w = commutator(gen(5), inner)
    cert = Certificate(target=w, factors=(commutator_factor(gen(5), inner),))
    q = engine.add_certificate_fact(w, GAMMA3_FAMILY, 1, cert)
    assert engine.interval(q)[1] == F(1)

    plain = commutator(X, Y)
    bad = Certificate(target=plain, factors=(commutator_factor(X, Y),))
    with pytest.raises(VerbaError):
        engine.add_certificate_fact(plain, GAMMA3_FAMILY, 1, bad)


def test_add_quotient_floor():
    engine = BoundEngine()
    group = load_group("S3")
    flip = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) == group.identity
    )
    rotation = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) != group.identity
    )
    q = engine.declare("CL FREE [x,y]")
    got = engine.add_quotient_floor(q, group, {1: flip, 2: rotation})
    assert got == 1
    assert engine.interval(q) == (F(1), None)
    assert "QUOTIENT" in engine.explain(q)


def test_add_quotient_floor_unreachable_image():
    engine = BoundEngine()
    group = load_group("S3")
    flip = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) == group.identity
    )
    q = engine.declare("L FREE x | gamma2 @ 1")
    assert engine.add_quotient_floor(q, group, {1: flip}) is None
    assert engine.interval(q) == (F(0), None)


def test_add_quotient_floor_requires_length_kind():
    engine = BoundEngine()
    group = load_group("S3")
    with pytest.raises(VerbaError):
        engine.add_quotient_floor("SCL FREE [x,y]", group, {1: 0, 2: 0})
