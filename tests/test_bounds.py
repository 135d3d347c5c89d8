"""Unit tests for the exact-rational interval engine and each propagation rule."""
from __future__ import annotations

import ast
import gc
import hashlib
import inspect
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from verba import bounds, experiments, grammar
from verba.bounds import BoundEngine, Context, Quantity, QuantityKind, format_interval
from verba.certificates import (
    Certificate,
    Factor,
    FactorKind,
    beta2_factor,
    commutator_factor,
    gamma3_factor,
    raw_factor,
)
from verba.errors import (
    CertificateError,
    InconsistencyError,
    ParseError,
    ResourceBudgetError,
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
from verba.words import Word, canonical_renumber, commutator, gen, power

X, Y, Z = gen(1), gen(2), gen(3)
F = Fraction


def intervals(engine):
    return {key: (fact.lo, fact.hi) for key, fact in engine.facts.items()}


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
        Quantity(QuantityKind.SCL, Context.FREE, X, gamma_word(2))
    with pytest.raises(ValueError):
        Quantity(QuantityKind.L, Context.FREE, X)
    with pytest.raises(ValueError):
        Quantity(QuantityKind.SL, Context.FREE, X, gamma_word(2), 2)
    with pytest.raises(ValueError):
        Quantity(QuantityKind.L, Context.FREE, X, gamma_word(2), 0)
    q = Quantity(QuantityKind.L, Context.FREE, X, gamma_word(2))
    assert q.exponent == 1


def test_quantity_key_is_built_once_and_stays_out_of_equality():
    w = commutator(X, power(Y, 2))
    q = Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 3)
    fresh = " ".join(
        ["L", "FREE", grammar.canonical_key(w), f"| {gamma_word(2).key}", "@ 3"]
    )
    assert q.key() == fresh
    assert q.key() is q.key()
    twin = Quantity(QuantityKind.L, Context.FREE, Word(w.letters), gamma_word(2), 3)
    assert twin == q and hash(twin) == hash(q)
    assert twin != Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 4)
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


def test_every_shipped_seed_is_free():
    text = (Path(bounds.__file__).parent / "data" / "seed.facts").read_text()
    lines = [line for line in text.splitlines() if line.split("#", 1)[0].strip()]
    assert len(lines) == len(bounds._default_seeds()) == 5
    assert all(line.split()[1] == "FREE" for line in lines)
    assert all(q.context is Context.FREE for _, q, *_ in bounds._default_seeds())


def test_a_seed_outside_free_is_refused():
    # a perfect context's word would bind names in the engine that parsed it
    with pytest.raises(ParseError, match="facts line 2: a default seed must be FREE, not PERFECT"):
        bounds._parse_seeds("SCL FREE [a,b] => 1/2\nSCL PERFECT [g,h] => 1/2\n")


def test_default_seeds_are_parsed_once_and_logged_as_a_facts_file_logs_them(monkeypatch):
    bounds._default_seeds()
    parsed = []
    real = BoundEngine.parse_quantity
    monkeypatch.setattr(
        BoundEngine, "parse_quantity", lambda self, text: parsed.append(text) or real(self, text)
    )
    seeded = BoundEngine()
    assert seeded.load_default_seeds() == 5
    assert parsed == []
    loaded = BoundEngine()
    loaded.load_facts((Path(bounds.__file__).parent / "data" / "seed.facts").read_text())
    assert len(parsed) == 5
    assert seeded.record_lines() == loaded.record_lines()
    assert seeded.explain("SCL FREE [a,b][c,d]") == loaded.explain("SCL FREE [a,b][c,d]")


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
    keyed = "".join(
        f"{key} = {lo} {'inf' if hi is None else hi}\n"
        for key, (lo, hi) in intervals(engine).items()
    )
    other = BoundEngine()
    other.load_facts(keyed)
    assert intervals(other) == intervals(engine)


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


def test_an_engine_is_freed_with_its_last_reference():
    # with the collector off, a reference cycle through the engine (say, a
    # parse memo keyed by a bound method) would keep it alive
    gc.disable()
    try:
        engine = BoundEngine()
        engine.load_default_seeds()
        engine.load_facts(
            "".join(f"L FREE [a,b] | [a,b] @ {m} = 0 {m}\n" for m in range(1, 21))
        )
        engine.declare("SL FREE [a,b] | w:[p,q]")
        engine.propagate()
        freed = weakref.ref(engine)
        del engine
        assert freed() is None
    finally:
        gc.enable()


def test_a_bad_facts_line_fails_the_same_way_every_time():
    engine = BoundEngine()
    engine.load_facts("L FREE [a,b] | [a,b] @ 1 = 0 1\n")
    bad = [
        ("L FREE [a,b | [a,b] @ 2 = 0 2", ParseError),  # bad word
        ("L FREE [a,b] | [a, @ 2 = 0 2", ParseError),  # bad template spec
        ("L FREE [a,b] | gamma99999999999999999999999 @ 2 = 0 2", ResourceBudgetError),
        ("L FREE TARGET | [a,b] @ 2 = 0 2", ParseError),  # reserved name
    ]
    for line, error in bad:
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
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
    assert intervals(twin) == intervals(engine)


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
    """A gamma2 ladder of [a,b^2] and some powers of its inverse [b^2,a], each
    short where the other is not, so R13 carries bounds across both ways.  (The
    inverse [b,a] of [a,b] is a renaming of it, so the same quantity.)"""
    engine = BoundEngine()
    engine.load_facts(
        "".join(f"L FREE [a,b^2] | gamma2 @ {m} = 0 {3 if m == 4 else m}\n" for m in range(1, 25))
        + "".join(
            f"L FREE [b^2,a] | gamma2 @ {m} = 0 {hi}\n"
            for m, hi in ((2, 2), (3, 2), (4, 4), (5, 3), (12, 12), (13, 7))
        )
    )
    shown = [
        engine.declare("SL FREE [a,b^2] | gamma2"),
        engine.parse_quantity("L FREE [a,b^2] | gamma2 @ 24"),
        engine.parse_quantity("L FREE [b^2,a] | gamma2 @ 13"),
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
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, outer.body, outer))
    engine.declare(Quantity(QuantityKind.SL, Context.FREE, inner.body, inner))
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.FREE, inner.body), F(3, 2), F(3, 2)
    )
    engine.propagate()
    return engine, [q]


def _fresh_head_finite():
    """The cube of gamma3 over itself, from the square of gamma2 (R6)."""
    engine = BoundEngine()
    body = gamma_word(3).body
    q = engine.declare(Quantity(QuantityKind.L, Context.FREE, body, gamma_word(3), 3))
    engine.add_fact(
        Quantity(QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(2), 2),
        hi=3,
    )
    engine.propagate()
    return engine, [q]


def _one_step_beta():
    """SL over beta2 of a one-step nested element with vanishing scl (R14)."""
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(
        Quantity(QuantityKind.SL, Context.PERFECT_SCL_ZERO, g, beta_word(2))
    )
    engine.add_fact(
        Quantity(QuantityKind.L, Context.PERFECT_SCL_ZERO, g, gamma_word(3), 1),
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
    cl_q = engine.declare(Quantity(QuantityKind.CL, Context.FREE, w))
    l_q = engine.add_fact(
        Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 1), F(1), F(2)
    )
    engine.propagate()
    return engine, [cl_q, l_q]


def _cl_alias_to_length():
    """The gamma2 length read off CL of the same word (R-CL)."""
    engine = BoundEngine()
    u = commutator(X, Y)
    l_q = engine.declare(Quantity(QuantityKind.L, Context.PERFECT, u, gamma_word(2), 1))
    cl_q = engine.add_fact(Quantity(QuantityKind.CL, Context.PERFECT, u), F(2), F(3))
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
        "6c8485b62d9316a104d514453249789f96399b5c79bf06be3c4594ca422ebef9",
    ),
    "ladder_plain": (
        lambda: _ladder("a^2 b a^-1 b", [3 if m == 4 else m for m in range(1, 41)]),
        "29690cf7c2907b457fc39208514cdde915f427a9ef7aadbf3e262c1ad55f6392",
    ),
    "ladder_plain_long": (
        lambda: _ladder("a b^2 a^-1 b", [2 if m == 3 else m for m in range(1, 121)]),
        "a933e50bc2d2c817a20d469a581293d4beeb3672761e1ee7515b5406aed28521",
    ),
    "ladder_mirror": (
        _mirror_ladder,
        "8c2772bff25ac93b327cc7d0c7ce8fe23d841ad68f51632dda6897746b9c456d",
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
        "f42f8a0696a2dc8f21bea56c849cb93e1ee94633c9d4e35d54feb2fe35061a31",
    ),
    "power_pair_diagonal": (
        lambda: _scenario(lambda: experiments.scenario_power_pair_diagonal(2)),
        "3bad15f40a1a798846f7ee4926017167f058b1e4ae18c2769957a368ae9b0d18",
    ),
    "squared_commutator": (
        lambda: _scenario(experiments.scenario_squared_commutator),
        "7bd7d9588a90b86411c69e4b6854ef1ddedae5584228f54e9ffab362678c3b5e",
    ),
    "gamma_chain": (
        lambda: _scenario(lambda: experiments.scenario_gamma_chain(3)),
        "809629a2c58a46d2e6de88d71523836d84a6797d6d7d855de989e5575e6b815f",
    ),
    "commutator_product": (
        lambda: _scenario(lambda: experiments.scenario_commutator_product(2)),
        "8e87185c64677d0e36043f205f59d72b77691a16e38d9fef5dc6cc2d34f3fb92",
    ),
    "perfect_comparison": (
        lambda: _scenario(lambda: experiments.scenario_perfect_comparison(F(3, 2), 3)),
        "97074820ae279734327b99342226708cd3555d1b89e01477d30287ae6a300af3",
    ),
    "grope_family": (
        lambda: _scenario(lambda: experiments.scenario_grope_family(2)),
        "1cb7d7069261a73702fdd59b8a6a6220246af79eb32d59e4c0ecd70f14c6af05",
    ),
    "fresh_head_stable": (
        _fresh_head_stable,
        "e03a84ef46585953f723fd85f3d1c14084feae0e62f22584fc4be9376ef5c693",
    ),
    "fresh_head_finite": (
        _fresh_head_finite,
        "625999d5c3978174d2407c74fa19e2c894f30e23bdf0f31b4180a29501a27a26",
    ),
    "one_step_beta": (
        _one_step_beta,
        "fc296d783ce4efb393f9a2fc6ba0d40ccfdc515c65ee18153597463b40522b1e",
    ),
    "perfect_comparison_two_sided": (
        _perfect_comparison_two_sided,
        "28be695aa10acebfe84a4f6ef6f7c6ea45258476d4fe0fe38d85f132ad8806bb",
    ),
    "cl_alias_from_length": (
        _cl_alias_from_length,
        "02f711b5e8af9e1081020a2b6f22bb0817d552b2bbe709c35f1d4f6f997199f4",
    ),
    "cl_alias_to_length": (
        _cl_alias_to_length,
        "221ad42634fd44fd96944fbac151c1b1e9ee6dcdcb43b23e9d7e924e3c597125",
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
    """A ladder whose splits cannot tighten is not summed split by split in any round."""
    real = bounds._SplitTable.splits
    for n in (20, 80):
        engine = BoundEngine()
        engine.load_facts(
            "".join(f"L FREE [a,b] | [a,b] @ {m} = 0 {m}\n" for m in range(1, n + 1))
        )
        engine.declare("SL FREE [a,b] | [a,b]")
        engine.declare("SCL FREE [a,b]")
        count = [0]

        def counted(table, m):
            splits = real(table, m)
            count[0] += len(splits)  # every split R13 sums, whole or not
            return splits

        monkeypatch.setattr(bounds._SplitTable, "splits", counted)
        engine.propagate()
        monkeypatch.undo()
        # every split sums to n = hi, so round one skips every target at once,
        # and no rung moves after it; all splits would be n**2/4 sums a round
        assert count[0] <= n, (n, count[0])


def test_power_splitting_proposes_no_fact_to_itself(monkeypatch):
    """The inverse [b,a] of [a,b] renumbers to [a,b], so every rung of a
    [a,b] ladder is its own mirror; R13 proposes none of them to itself."""
    proposals = []

    def recording(facts):
        for proposal in bounds._rule_exponent_splitting(facts):
            proposals.append(proposal)
            yield proposal

    catalog = tuple(recording if r is bounds._rule_exponent_splitting else r for r in bounds._RULES)
    monkeypatch.setattr(bounds, "_RULES", catalog)
    # one short rung, so that R13 has splits to propose
    _ladder("[a,b]", [2 if m == 3 else m for m in range(1, 201)])
    assert any(rule == "R13" for _, _, _, rule, *_ in proposals)
    assert [p for p in proposals if p[5] == [p[0]]] == []


_SHORT_RUNG = "".join(
    f"L FREE a b^2 a^-1 b | a b^2 a^-1 b @ {m} = 0 {2 if m == 3 else m}\n" for m in range(1, 81)
)


def _with_round_marker(monkeypatch, mark):
    """Run ``mark(facts)`` at the start of every round of ``propagate``."""
    def marker(facts):
        mark(facts)
        return iter(())

    monkeypatch.setattr(bounds, "_RULES", (marker,) + bounds._RULES)


def test_power_splitting_sums_no_split_in_the_round_that_proposes_nothing(monkeypatch):
    """One short rung moves many targets, but once nothing can tighten, the
    last round sums no split, and the log is the all-pairs rule's."""
    counts = []
    real = bounds._SplitTable.splits

    def counted(table, m):
        splits = real(table, m)
        counts[-1] += len(splits)
        return splits

    monkeypatch.setattr(bounds._SplitTable, "splits", counted)
    _with_round_marker(monkeypatch, lambda facts: counts.append(0))
    engine = BoundEngine()
    engine.load_facts(_SHORT_RUNG)
    engine.propagate()
    monkeypatch.undo()
    assert len(counts) >= 3 and counts[0] > 0 and counts[-1] == 0, counts
    oracle = tuple(
        _all_pairs_exponent_splitting if rule is bounds._rule_exponent_splitting else rule
        for rule in bounds._RULES
    )
    monkeypatch.setattr(bounds, "_RULES", oracle)
    expected = BoundEngine()
    expected.load_facts(_SHORT_RUNG)
    expected.propagate()
    assert engine.record_lines() == expected.record_lines()


def test_propagate_indexes_the_facts_once_per_call(monkeypatch):
    """No rule adds a fact, so every round of one call reads the same index."""
    seen = []
    _with_round_marker(monkeypatch, seen.append)
    engine = BoundEngine()
    engine.load_facts(_SHORT_RUNG)
    engine.propagate()
    assert len(seen) >= 3 and all(facts is seen[0] for facts in seen), len(seen)
    engine.load_facts("L FREE a b^2 a^-1 b | a b^2 a^-1 b @ 81 = 0 80\n")
    engine.propagate()
    assert seen[-1] is not seen[0]  # a new call indexes the facts loaded since


def _all_pairs_exponent_splitting(facts):
    """Power splitting (R13) that proposes every split of every ladder in every round."""
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        n = tq.exponent
        ladder = facts.ladder(tq.context, tq.word, tq.template.key)
        for a, part in ladder.items():
            if part.hi is None:
                continue
            other = ladder.get(n - a)
            if other is None or other.hi is None:
                continue
            yield (
                target,
                "hi",
                part.hi + other.hi,
                "R13",
                "factorizations of two powers concatenate",
                [part, other],
            )
        inverse = tq.word.inverse()
        if tq.context is Context.FREE:  # a FREE quantity holds its word up to renaming
            inverse = canonical_renumber(inverse)
        mirror = facts.ladder(tq.context, inverse, tq.template.key).get(n)
        if mirror is not None and mirror.hi is not None:
            yield (
                target,
                "hi",
                mirror.hi,
                "R13",
                "inverting a factorization factors the inverse",
                [mirror],
            )


# a word, its inverse, and a second template
_SPLIT_WORDS = (
    ("[a,b]", "[b,a]", "gamma2"),
    ("a^2 b a^-1 b", "b^-1 a b^-1 a^-2", "gamma3"),
    ("a b^2", "b^-2 a^-1", "[a,b^2]"),
)


def _random_rungs(rng, word, template, top, lows, halves):
    """Facts on some of the powers 1..top of ``word``: infinite bounds, a share
    ``halves`` of half bounds, and whole ones."""
    exponents = sorted(rng.sample(range(1, top + 1), rng.randint(1, top)))
    lines = []
    for m in exponents:
        roll = rng.random()
        if roll < 0.15:
            hi = "inf"
        elif roll < 0.15 + halves:
            hi = str(Fraction(rng.randint(m + 2, 4 * m + 2), 2))
        else:
            hi = str(rng.randint(m // 2 + 1, 2 * m))
        lo = rng.choice(lows)
        lines.append(f"L FREE {word} | {template} @ {m} = {lo} {hi}")
    return lines


def _random_split_run(rng):
    """Load, propagate, maybe add facts and propagate again; the log and every interval.

    Without stable ratios and with every lower bound at one, power splitting
    makes the first event of a round, which the skipping must not miss.  Some
    ladders run to 80 rungs with gaps.  Some are whole while the inverse
    word's ladder has halves: where no R0 floors them, a mirror proposal can
    make a whole ladder fractional part way through a round.  The inverse of
    ``[a,b]`` renames to ``[a,b]``, so its mirror ladder is the ladder itself.
    """
    word, inverse, other_template = rng.choice(_SPLIT_WORDS)
    templates = [word] if rng.random() < 0.5 else [word, other_template]
    stable = rng.random() < 0.5
    lows = ("0", "0", "1", "1/2") if stable else ("1",)
    lines = []
    for template in templates:
        top = rng.randint(2, 80 if rng.random() < 0.3 else 24)
        halves = 0.0 if rng.random() < 0.3 else 0.25
        lines += _random_rungs(rng, word, template, top, lows, halves)
        if rng.random() < 0.5:
            lines += _random_rungs(rng, inverse, template, rng.randint(2, 16), lows, 0.4)
    later = _random_rungs(rng, word, rng.choice(templates), rng.randint(2, 30), lows, 0.25)
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
    """Skipping splits changes no event, antecedent or event order.

    Each case also runs with power splitting alone, where no R0 floors the
    half bounds first, so sums mix ints and Fractions and a mirror proposal
    can bring a half into a whole ladder part way through a round.
    """
    def oracle(rules):
        return tuple(
            _all_pairs_exponent_splitting if rule is bounds._rule_exponent_splitting else rule
            for rule in rules
        )

    rng = random.Random(1986)
    split = 0
    for case in range(200):
        seed = rng.randrange(2**32)
        for rules in (bounds._RULES, (bounds._rule_exponent_splitting,)):
            runs = []
            for catalog in (rules, oracle(rules)):
                monkeypatch.setattr(bounds, "_RULES", catalog)
                runs.append(_random_split_run(random.Random(seed)))
                monkeypatch.undo()
            assert runs[0] == runs[1], (case, seed, len(rules))
            split += rules is bounds._RULES and "concatenate" in runs[0]
    assert split >= 150, split


@pytest.mark.parametrize(
    "rungs",
    [
        [(10**12, "inf")],
        [(1, "1")] + [(2**k, 2**k * (3 if k % 2 else 1)) for k in range(1, 31)],
    ],
    ids=["one-far-rung", "powers-of-two"],
)
def test_power_splitting_holds_only_the_ladders_own_exponents(monkeypatch, rungs):
    """A far or sparse ladder splits as the all-pairs rule splits it, in room
    that grows with its rungs, not with its largest exponent."""
    facts = "".join(f"L FREE [a,b] | gamma2 @ {m} = 1 {hi}\n" for m, hi in rungs)
    oracle = tuple(
        _all_pairs_exponent_splitting if rule is bounds._rule_exponent_splitting else rule
        for rule in bounds._RULES
    )
    logs = []
    for catalog in (bounds._RULES, oracle):
        monkeypatch.setattr(bounds, "_RULES", catalog)
        engine = BoundEngine()
        engine.load_facts(facts)
        engine.propagate()
        logs.append(engine.record_lines())
        monkeypatch.undo()
    assert logs[0] == logs[1]
    # the odd powers of two start at three times their exponent; splits halve them
    assert len(rungs) == 1 or sum("concatenate" in line for line in logs[0]) == 15


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
    target = engine.declare(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(3)))
    engine.add_fact(
        Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2)), hi=2
    )
    engine.add_fact(
        Quantity(QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(3)), hi=3
    )
    engine.propagate()
    assert engine.interval(target) == (F(1), F(6))
    assert "R1" in engine.explain(target)


def test_rule_compose_zero_times_infinity():
    engine = BoundEngine()
    w = commutator(X, Y)
    target = engine.declare(Quantity(QuantityKind.L, Context.PERFECT, w, gamma_word(3)))
    engine.add_fact(Quantity(QuantityKind.L, Context.PERFECT, w, gamma_word(2)), hi=0)
    engine.declare(
        Quantity(QuantityKind.L, Context.FREE, gamma_word(2).body, gamma_word(3))
    )
    engine.propagate()
    assert engine.interval(target) == (F(0), F(0))


def test_rule_scl_bridge_stable_form():
    engine = BoundEngine()
    w = commutator(X, Y) * commutator(X, Z)
    scl_q = engine.declare(Quantity(QuantityKind.SCL, Context.FREE, w))
    engine.add_fact(Quantity(QuantityKind.SL, Context.FREE, w, gamma_word(2)), hi=1)
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(1))
    assert "R2" in engine.explain(scl_q)


def test_rule_scl_bridge_finite_form():
    engine = BoundEngine()
    w = commutator(X, Y)
    scl_q = engine.declare(Quantity(QuantityKind.SCL, Context.FREE, power(w, 3)))
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 3), hi=2)
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(3, 2))


def test_rule_scl_bridge_builds_only_powers_of_the_target_length(monkeypatch):
    """R2 compares lengths first: of a 200-rung ladder it builds only the powers
    as long as an SCL target, ``[a,b]^1`` for ``[a,b]`` and ``[a,b]^3``."""
    engine = BoundEngine()
    engine.load_facts("".join(f"L FREE [a,b] | gamma2 @ {m} = 0 {m}\n" for m in range(1, 201)))
    engine.add_fact("SCL FREE [a,b]", hi=F(1, 2))
    scl_q = engine.declare("SCL FREE [a,b]^3")
    built = []
    real = bounds.power

    def counted(w, n):
        built.append(n)
        return real(w, n)

    monkeypatch.setattr(bounds, "power", counted)
    engine.propagate()
    assert set(built) == {1, 3}, built
    assert engine.interval(scl_q)[1] == F(5, 2)


def _scl_bridge_facts(n: int) -> str:
    """``n`` triples of SCL, SL and L facts on distinct 9-letter ``PERFECT`` words
    over ``abcd`` with no two equal neighbours: every fact is a partner R2 reads."""
    rng = random.Random(26)
    words: dict[str, None] = {}
    while len(words) < n:
        letters = [rng.choice("abcd")]
        while len(letters) < 9:
            letter = rng.choice("abcd")
            if letter != letters[-1]:
                letters.append(letter)
        words[" ".join(letters)] = None
    return "".join(
        f"SCL PERFECT {w} = 0 5\nSL PERFECT {w} | gamma2 = 0 3\nL PERFECT {w} | gamma3 @ 2 = 1 9\n"
        for w in words
    )


def test_rule_scl_bridge_measures_each_power_once_per_call(monkeypatch):
    """R2 reads its partners from the fact index: one ``propagate`` call measures
    the power of each L fact at most once, not once per SCL target and round."""
    engine = BoundEngine()
    engine.load_facts(_scl_bridge_facts(300))
    engine.declare("SCL PERFECT a b")
    measured = []
    real = bounds.power_length

    def counted(w, n):
        measured.append(n)
        return real(w, n)

    monkeypatch.setattr(bounds, "power_length", counted)
    engine.propagate()
    assert len(measured) <= len(engine.facts) // 3, len(measured)
    text = "\n".join(engine.record_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7b464ce15a01790e8b5bf9688a3475821129b07fded179e0ce6a91210fb05b69"
    )


def test_rule_scl_bridge_clamps_at_zero():
    engine = BoundEngine()
    w = commutator(X, Y)
    scl_q = engine.declare(Quantity(QuantityKind.SCL, Context.PERFECT, power(w, 2)))
    engine.add_fact(
        Quantity(QuantityKind.L, Context.PERFECT, w, gamma_word(2), 2), hi=F(1, 2)
    )
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.FREE, gamma_word(2).body), hi=F(1, 2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(0), F(0))


def test_rule_diagonal_window():
    engine = BoundEngine()
    body = gamma_word(2).body
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, body, gamma_word(2)))
    engine.add_fact(Quantity(QuantityKind.SCL, Context.FREE, body), F(1, 2), F(1, 2))
    engine.propagate()
    # Window [scl/(scl+1/2), 1], here [1/2, 1], sharpened to hi 1/2 by the
    # nested-chain ceiling at index 2: the interval collapses.
    assert engine.interval(q) == (F(1, 2), F(1, 2))


def test_rule_diagonal_window_renamed_word():
    engine = BoundEngine()
    word = commutator(gen(7), gen(3))  # same shape, different letters
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, word, gamma_word(2)))
    engine.propagate()
    lo, hi = engine.interval(q)
    assert lo == F(1, 2)
    assert hi == F(1, 2)


def test_rule_power_ratio():
    engine = BoundEngine()
    w = commutator(X, Y)
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, w, gamma_word(3)))
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(3), 5), hi=3)
    engine.propagate()
    assert engine.interval(q) == (F(0), F(3, 5))
    assert "R4" in engine.explain(q)


def test_rule_stable_promotion_diagonal():
    engine = BoundEngine()
    body = gamma_word(2).body
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, body, gamma_word(2)))
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, body, gamma_word(2), 3), hi=2)
    engine.propagate()
    assert engine.interval(q) == (F(1, 2), F(1, 2))
    assert "R5" in engine.explain(q) or "R7" in engine.explain(q)


def test_rule_stable_promotion_off_diagonal():
    engine = BoundEngine()
    template = commutator_product_word(2)
    w = commutator(X, Y) * commutator(X, Z)
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, w, template))
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, template, 4), hi=3)
    engine.add_fact(
        Quantity(QuantityKind.SL, Context.FREE, template.body, template),
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
        q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, body, gamma_word(n)))
        engine.propagate()
        lo, hi = engine.interval(q)
        assert hi == want
        assert lo == F(1, 2)


def test_rule_perfect_comparison():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(Quantity(QuantityKind.SL, Context.PERFECT, g, gamma_word(3)))
    engine.add_fact(
        Quantity(QuantityKind.SCL, Context.PERFECT, g), F(3, 2), F(3, 2)
    )
    engine.propagate()
    assert engine.interval(q) == (F(3, 2), F(3))
    assert "R8" in engine.explain(q)


def test_rule_perfect_comparison_reverse():
    engine = BoundEngine()
    g = X * Y
    scl_q = engine.declare(Quantity(QuantityKind.SCL, Context.PERFECT, g))
    engine.add_fact(
        Quantity(QuantityKind.SL, Context.PERFECT, g, gamma_word(4)), F(2), F(2)
    )
    engine.propagate()
    assert engine.interval(scl_q) == (F(1, 2), F(2))


def test_rule_perfect_comparison_not_in_free_context():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, g, gamma_word(3)))
    engine.add_fact(Quantity(QuantityKind.SCL, Context.FREE, g), F(3, 2), F(3, 2))
    engine.propagate()
    assert engine.interval(q) == (F(0), None)


def test_rule_gamma3_bridge_free_needs_depth():
    engine = BoundEngine()
    deep = grope_word(2).body  # vanishes to depth 3
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, deep, gamma_word(3)))
    engine.add_fact(
        Quantity(QuantityKind.SL, Context.FREE, deep, GAMMA3_FAMILY),
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
    q2 = other.declare(Quantity(QuantityKind.SL, Context.FREE, shallow, gamma_word(3)))
    other.add_fact(
        Quantity(QuantityKind.SL, Context.FREE, shallow, GAMMA3_FAMILY), hi=1
    )
    other.propagate()
    assert other.interval(q2)[1] is None


def test_rule_gamma3_bridge_declared_contexts():
    engine = BoundEngine()
    g = X * Y
    q = engine.declare(Quantity(QuantityKind.SL, Context.PERFECT, g, gamma_word(3)))
    engine.add_fact(
        Quantity(QuantityKind.SL, Context.PERFECT, g, GAMMA3_FAMILY), hi=1
    )
    engine.propagate()
    assert engine.interval(q)[1] == F(2)


def test_rule_gamma3_bridge_reverse_transfer():
    engine = BoundEngine()
    g = X * Y
    partner = engine.declare(
        Quantity(QuantityKind.SL, Context.PERFECT, g, GAMMA3_FAMILY)
    )
    engine.add_fact(
        Quantity(QuantityKind.SL, Context.PERFECT, g, gamma_word(3)), F(1, 2), F(3, 2)
    )
    engine.propagate()
    assert engine.interval(partner) == (F(1, 4), F(3, 2))


def test_rule_gamma3_bridge_skips_over_budget_words():
    engine = BoundEngine()
    wide = Word()
    for i in range(1, 12):
        wide = wide * gen(i)
    q = engine.declare(Quantity(QuantityKind.SL, Context.FREE, wide, gamma_word(3)))
    engine.add_fact(Quantity(QuantityKind.SL, Context.FREE, wide, GAMMA3_FAMILY), hi=1)
    engine.propagate()
    assert engine.interval(q)[1] is None


def test_rule_unbalanced_vanish():
    engine = BoundEngine()
    lopsided = template_from_word(power(X, 2) * Y)
    for context in (Context.FREE, Context.PERFECT):
        q = engine.declare(
            Quantity(QuantityKind.SL, context, commutator(X, Y), lopsided)
        )
        engine.propagate()
        assert engine.interval(q)[1] == F(0)
        assert "R10" in engine.explain(q)


def test_rule_block_division():
    engine = BoundEngine()
    u = power(commutator(X, Y), 2)
    q = engine.declare(
        Quantity(QuantityKind.SL, Context.FREE, u, commutator_product_word(2))
    )
    engine.add_fact(Quantity(QuantityKind.SCL, Context.FREE, u), hi=F(3, 2))
    engine.propagate()
    assert engine.interval(q) == (F(0), F(3, 4))
    assert "R12" in engine.explain(q)


def test_rule_exponent_splitting():
    engine = BoundEngine()
    w = commutator(X, Y)
    q = engine.declare(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 5))
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 2), hi=1)
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 3), hi=2)
    engine.propagate()
    assert engine.interval(q) == (F(1), F(3))
    assert "R13" in engine.explain(q)


def test_rule_inverse_mirror():
    engine = BoundEngine()
    w = commutator(X, Y**2)  # [y,x], the inverse of [x,y], is a renaming of it
    q = engine.declare(
        Quantity(QuantityKind.L, Context.FREE, w.inverse(), gamma_word(2), 2)
    )
    engine.add_fact(Quantity(QuantityKind.L, Context.FREE, w, gamma_word(2), 2), hi=4)
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
    q2 = other.declare(Quantity(QuantityKind.SL, Context.PERFECT, g, beta_word(2)))
    other.add_fact(
        Quantity(QuantityKind.L, Context.PERFECT, g, gamma_word(3), 1), F(1), F(1)
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

    # a three-variable chain and a commutator of commutators are Gamma3 values
    u, v, t = gen(5), gen(6), gen(7)
    assert bounds._factor_matches_template(gamma3_factor(X, Y, Z), GAMMA3_FAMILY)
    assert bounds._factor_matches_template(beta2_factor(X, Y, Z, u), GAMMA3_FAMILY)
    # a longer chain and an untagged factor are not visibly one
    gamma4 = gamma_word(4)
    chain = Factor(
        FactorKind.GAMMA_N_WORD,
        base=gamma4.instance({1: X, 2: Y, 3: u, 4: v}),
        template=gamma4,
        witness={1: X, 2: Y, 3: u, 4: v},
    )
    chain.check()
    assert not bounds._factor_matches_template(chain, GAMMA3_FAMILY)
    assert not bounds._factor_matches_template(raw_factor(commutator(t, X)), GAMMA3_FAMILY)


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


def test_add_quotient_floor_maps_the_generators_of_the_quantitys_word():
    """A FREE quantity numbers its generators by first appearance, and its
    images are for that numbering, whatever the word it was made from."""
    group = load_group("S3")
    engine = BoundEngine()
    q = engine.declare(Quantity(QuantityKind.CL, Context.FREE, commutator(gen(5), gen(3))))
    assert q.word == commutator(X, Y)
    for a in range(group.order):
        for b in range(group.order):
            want = 0 if group.multiply(a, b) == group.multiply(b, a) else 1
            assert engine.add_quotient_floor(q, group, {1: a, 2: b}) == want


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


# ---------------------------------------------------------------------------
# exact values: ints where whole, Fractions only where proper

def _exact_values(engine):
    """Every value the engine holds: fact bounds, event values, antecedent snapshots."""
    for fact in engine.facts.values():
        yield fact.lo
        yield fact.hi
    for event in engine.events:
        yield event.value
        for antecedent in event.antecedents:
            yield antecedent.lo
            yield antecedent.hi


def _held_exactly(value) -> bool:
    return (
        value is None
        or type(value) is int
        or (type(value) is Fraction and value.denominator > 1)
    )


_EXACT_WORDS = {
    Context.FREE: (
        "[a,b]", "[a,b]^2", "[a,[b,c]]", "[a,b][c,d]", "[a,b][a,c]", "[c,a^2 b]", "a^2 b",
    ),
    Context.PERFECT: ("g", "g h", "[g,h]"),
    Context.PERFECT_SCL_ZERO: ("g", "g h"),
}
_EXACT_TEMPLATES = (
    "gamma2", "gamma3", "gamma4", "Gamma3", "beta2", "commutator_product2", "[a,b]^2", "a^2 b",
)


def _random_rational(rng, low: int, top: int) -> str:
    """A bound in ``[low, top]`` in halves, thirds or sixths, sometimes spelled unreduced."""
    q = rng.choice((1, 2, 3, 2, 3, 6))
    p = rng.randint(low * q, top * q)
    return f"{p}/{q}" if q > 1 or rng.random() < 0.2 else str(p)


def _random_exact_facts(rng):
    """A facts file on a few words in random contexts, and quantities only declared:
    ladders with halves and thirds, and SL, SCL and CL facts.  A ``FREE`` word is
    often its own template, so the diagonal rules run."""
    lines, declared = [], []
    for _ in range(rng.randint(1, 3)):
        context = rng.choice(list(Context))
        word = rng.choice(_EXACT_WORDS[context])
        head = f"{context.value} {word}"
        templates = rng.sample(_EXACT_TEMPLATES, 2)
        if context is Context.FREE and rng.random() < 0.7:
            templates.append(word)
            if word == "[c,a^2 b]":  # R6 reads the diagonal of its fresh head's inner word
                declared.append("SL FREE a^2 b | a^2 b")
        for _ in range(rng.randint(2, 6)):
            kind = rng.choice(("L", "L", "SL", "SL", "SCL", "CL"))
            template = rng.choice(templates)
            if kind == "L":
                rungs = sorted(rng.sample(range(1, 13), rng.randint(1, 6)))
                texts = [f"L {head} | {template} @ {m}" for m in rungs]
                if head == "FREE [a,b]" and template == "gamma2":
                    # each rung's power is an SCL target, so R2 reads its L
                    # partners over the body's scl, which no bound drawn crosses
                    declared += [f"SCL FREE [a,b]^{m}" for m in rungs if m > 1]
                    lines.append("SCL FREE [a,b] = 0 1")
            else:
                texts = [f"{kind} {head}" + (f" | {template}" if kind == "SL" else "")]
            for text in texts:
                if rng.random() < 0.3:
                    declared.append(text)
                    continue
                lo = "0" if rng.random() < 0.7 else rng.choice(("1/3", "1/2", "1"))
                hi = "inf" if rng.random() < 0.1 else _random_rational(rng, 1, 6)
                lines.append(f"{text} = {lo} {hi}")
    return lines, declared


def _run_exact(lines, declared):
    """The engine after loading and propagating, and its log, explanations and
    error text: random bounds may cross, or feed a rule that only converges."""
    engine = BoundEngine()
    error = ""
    try:
        for text in declared:
            engine.declare(text)
        engine.load_facts("\n".join(lines))
        engine.propagate()
    except VerbaError as exc:
        error = f"{exc}\n{getattr(exc, 'trace', '')}"
    explained = [engine.explain(engine.facts[key].quantity) for key in sorted(engine.facts)]
    return engine, "\n".join(engine.record_lines() + explained + [error])


def test_every_bound_is_an_int_where_whole():
    rng = random.Random(2411)
    rules, kinds = set(), set()
    for _ in range(300):
        engine, _ = _run_exact(*_random_exact_facts(rng))
        for value in _exact_values(engine):
            assert _held_exactly(value), (value, engine.record_lines())
            kinds.add(type(value))
        rules.update(event.rule for event in engine.events)
    assert kinds == {int, Fraction, type(None)}
    # every rule that divides has run
    assert rules >= {"R0", "R2", "R3", "R4", "R5", "R6", "R8", "R9", "R12", "R13", "R-CL"}, rules


def test_seeded_exact_facts_give_r2_its_l_partners():
    """The seeded files that ``test_the_rules_reach_one_fixed_point_in_any_order``
    reads bound some ``SCL FREE [a,b]^m`` by R2 from the ladder rung
    ``L FREE [a,b] | gamma2 @ m``."""
    rng = random.Random(2413)
    cases = [_random_exact_facts(rng) for _ in range(400)]
    partnered = 0
    for lines, declared in cases:
        if not any(text.startswith("SCL FREE [a,b]^") for text in declared):
            continue
        engine, _ = _run_exact(lines, declared)
        partnered += any(
            event.rule == "R2" and event.antecedents[0].key.startswith("L ")
            for event in engine.events
        )
    assert partnered >= 3, partnered


def test_every_seeded_exact_facts_file_reaches_a_fixed_point():
    """R2 over an ``SCL`` target that is its own base, ``scl <= sl * (scl + 1/2)``,
    would tighten in every round; its fixed point ``sl / (2 (1 - sl))`` ends it."""
    rng = random.Random(2411)
    own_base = 0
    for _ in range(300):
        lines, declared = _random_exact_facts(rng)
        engine, text = _run_exact(lines, declared)
        assert "did not stabilize" not in text, (lines, declared)
        own_base += any(
            event.rule == "R2" and event.antecedents[-1].key == event.quantity_key
            for event in engine.events
        )
    assert own_base >= 5, own_base


def _final_intervals(lines, declared):
    """Every fact's interval once propagation stops, or ``None`` on a contradiction."""
    engine = BoundEngine()
    try:
        for text in declared:
            engine.declare(text)
        engine.load_facts("\n".join(lines))
        engine.propagate()
    except InconsistencyError:
        return None
    return {key: (fact.lo, fact.hi) for key, fact in engine.facts.items()}


def test_the_rules_reach_one_fixed_point_in_any_order(monkeypatch):
    """Monotone rules that reach a fixed point reach the same one in any order:
    each seeded facts file contradicts itself under every order of ``_RULES``,
    or ends with the same interval on every fact.  An order that does not
    stabilize raises a ``VerbaError`` that is no contradiction, and fails."""
    orders = [bounds._RULES]
    for seed in range(3):
        order = list(bounds._RULES)
        random.Random(seed).shuffle(order)
        orders.append(tuple(order))
    assert len(set(orders)) == 4
    rng = random.Random(2413)
    contradictions = 0
    for _ in range(400):
        lines, declared = _random_exact_facts(rng)
        outcomes = []
        for order in orders:
            monkeypatch.setattr(bounds, "_RULES", order)
            outcomes.append(_final_intervals(lines, declared))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:]), (lines, declared)
        contradictions += outcomes[0] is None
    assert 0 < contradictions < 400, contradictions


def test_rules_read_the_fact_index_alone(monkeypatch):
    """Each rule is a function of the index and finds its partners there, by
    the fields of their quantities; propagating builds no ``Quantity``."""
    assert all(list(inspect.signature(rule).parameters) == ["facts"] for rule in bounds._RULES)
    rng = random.Random(2411)
    engines = []
    for _ in range(300):
        lines, declared = _random_exact_facts(rng)
        engine = BoundEngine()
        for text in declared:
            engine.declare(text)
        try:
            engine.load_facts("\n".join(lines))
        except InconsistencyError:
            continue
        engines.append(engine)

    def no_quantity(*args):
        raise AssertionError("a rule built a Quantity")

    monkeypatch.setattr(bounds, "Quantity", no_quantity)
    rules = set()
    for engine in engines:
        try:
            engine.propagate()
        except InconsistencyError:
            pass
        rules.update(event.rule for event in engine.events)
    assert rules >= {"R1", "R2", "R3", "R5", "R6", "R8", "R9", "R12", "R13", "R-CL"}, rules


def test_ints_print_and_propagate_as_fractions_do(monkeypatch):
    """The engine holding every value as a Fraction gives the same log and explanations."""
    rng = random.Random(2412)
    cases = [_random_exact_facts(rng) for _ in range(200)]
    got = [_run_exact(*case)[1] for case in cases]
    monkeypatch.setattr(bounds, "_exact", Fraction)
    want = [_run_exact(*case)[1] for case in cases]
    for case, a, b in zip(cases, got, want):
        assert a == b, case
    assert sum("R4" in text for text in got) > 20


@pytest.mark.parametrize(
    "lines, shown, rule, value",
    [
        (["L FREE [a,b] | gamma2 @ 3 = 0 2"], "SL FREE [a,b] | gamma2", "R4", F(2, 3)),
        (  # (3 - 1) / (4 - 1)
            ["L FREE [a,b] | gamma2 @ 4 = 0 3"], "SL FREE [a,b] | gamma2", "R5", F(2, 3),
        ),
        (  # (2 - 1 + 3/4) / 3, off the diagonal
            [
                "L FREE [a,b][a,c] | commutator_product2 @ 3 = 0 2",
                "SL FREE [a,b][c,d] | commutator_product2 = 0 3/4",
            ],
            "SL FREE [a,b][a,c] | commutator_product2",
            "R5",
            F(7, 12),
        ),
        (  # 2 * 1 + (2 - 1) / 2
            ["L FREE [a,b] | gamma2 @ 3 = 0 2", "SCL FREE [a,b] = 0 1"],
            "SCL FREE [a,b]^3",
            "R2",
            F(5, 2),
        ),
        (  # 1 / (1 + 1/2)
            ["SCL FREE [a,[b,c]] = 1 inf"], "SL FREE [a,[b,c]] | gamma3", "R3", F(2, 3),
        ),
        (  # (1 + 0) / 2, the inner word unbalanced
            ["SL FREE [z,a^2 b] | [z,a^2 b] = 0 inf"], "SL FREE a^2 b | a^2 b", "R6", F(1, 2),
        ),
        (["SL PERFECT g | gamma4 = 1 inf"], "SCL PERFECT g", "R8", F(1, 4)),
        (["SL PERFECT g | gamma3 = 1 inf"], "SL PERFECT g | Gamma3", "R9", F(1, 2)),
        (
            ["SCL FREE [a,b]^2 = 0 3"], "SL FREE [a,b]^2 | commutator_product2", "R12", F(3, 2),
        ),
    ],
    ids=["R4", "R5-diagonal", "R5", "R2", "R3", "R6", "R8", "R9", "R12"],
)
def test_a_rule_whose_ints_do_not_divide_proposes_a_fraction(lines, shown, rule, value):
    engine = BoundEngine()
    engine.load_facts("\n".join(lines))
    engine.declare(shown)
    engine.propagate()
    values = [event.value for event in engine.events if event.rule == rule]
    assert value in values, engine.record_lines()
    assert all(_held_exactly(v) for v in values), values
    assert type(values[values.index(value)]) is Fraction


def test_a_float_bound_is_refused():
    engine = BoundEngine()
    for bound in ({"hi": 0.1}, {"lo": 0.5}, {"hi": 2.0}):
        with pytest.raises(TypeError):
            engine.add_fact("SCL FREE a b a b", **bound)
    assert engine.events == []
    engine.add_fact("SCL FREE a b a b", lo=F(4, 2), hi=F(6, 2))
    assert [type(v) for v in engine.interval("SCL FREE a b a b")] == [int, int]


def test_the_bound_engine_divides_only_in_its_division_helper():
    """``int / int`` is a float, so every quotient of bounds goes through ``_div``."""
    tree = ast.parse(Path(bounds.__file__).read_text())
    helper = next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_div"
    )

    def divisions(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
        ]

    outside = [n.lineno for n in divisions(tree) if n not in divisions(helper)]
    assert outside == [], f"bounds.py divides outside _div at lines {outside}"
