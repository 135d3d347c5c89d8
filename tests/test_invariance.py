"""Metamorphic checks across layers: answers must not depend on how a group's
elements are named, on how a template's variables are named, or on what the
distance-table cache holds.

Relabelling a group's elements gives an isomorphic group, so its distance
histograms are the same.  Ore's conjecture (Liebeck, O'Brien, Shalev and
Tiep, 2010) makes every element of A5, A6 and A7 a commutator.  Renaming the
generators of a certificate by a signed permutation is an automorphism of the
free group, so the renamed certificate still checks, with the same counts,
and the bound engine gives a ``FREE`` quantity the same interval, derivation
and records however its generators are numbered.
"""
from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from helpers import random_word, relabel, table_text
from verba import cache
from verba.bounds import BoundEngine, Context, Quantity, QuantityKind
from verba.certificates import Certificate, parse_certificate
from verba.cli import main
from verba.finite import load_group, registry_small_groups
from verba.grammar import NameTable, format_word
from verba.identities import REWRITE_RULES
from verba.templates import (
    beta_word,
    commutator_product_word,
    gamma_word,
    grope_word,
    template_from_word,
)
from verba.words import commutator, gen, power, substitute


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))


def wlength(capsys, *args):
    code = main(["wlength", *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("spec", registry_small_groups())
def test_relabelled_table_has_the_same_histograms(capsys, tmp_path, spec):
    group = load_group(spec)
    ids = np.arange(group.order)
    perm = np.random.default_rng(sum(map(ord, spec))).permutation(group.order)
    path = tmp_path / f"{spec}-relabelled.tbl"
    path.write_text(table_text(relabel(group.mul(ids[:, None], ids).astype(np.int64), perm)))
    flags = ("--no-cache", "--check-bi-invariance")
    for template in ("gamma2", "gamma3", "Gamma3"):
        want = wlength(capsys, "--group", spec, "--template", template, *flags)
        got = wlength(capsys, "--group", f"table:{path}", "--template", template, *flags)
        assert got == want, template
        assert got.endswith("\nbi-invariance: PASS\n"), template


@pytest.mark.parametrize("spec, order", [("A5", 60), ("A6", 360), ("A7", 2520)])
def test_ore_every_element_is_a_commutator(capsys, spec, order):
    out = wlength(capsys, "--group", spec, "--template", "gamma2", "--no-cache")
    assert out.splitlines() == ["0 1", f"1 {order - 1}"]


@pytest.mark.parametrize(
    "spec, n, extra",
    [("S4", 3, []), ("D10", 2, ["--element", "x^2 y", "--images", "3,11"])],
)
def test_cold_warm_and_corrupted_caches_print_the_same(capsys, spec, n, extra):
    argv = ["--group", spec, "--template", f"gamma{n}", *extra]
    uncached = wlength(capsys, *argv, "--no-cache")
    cold = wlength(capsys, *argv)
    path = cache.cache_path(load_group(spec), gamma_word(n))
    stamp = path.stat().st_mtime_ns
    warm = wlength(capsys, *argv)
    assert path.stat().st_mtime_ns == stamp  # a hit, not a rewrite
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    with pytest.warns(UserWarning, match="discarding corrupt cache file"):
        corrupted = wlength(capsys, *argv)
    assert cold == warm == corrupted == uncached


def _word(rng):
    return random_word(rng, rank=4, max_length=4)


def _bracket(rng):
    return commutator(_word(rng), _word(rng)) if rng.random() < 0.5 else _word(rng)


#: seeded arguments for each rule, in the order ``RewriteRule.fn`` takes them
RULE_INPUTS = {
    "culler_identity": lambda rng: (_word(rng), _word(rng)),
    "culler_chain_squares": lambda rng: (_word(rng), _word(rng)),
    "culler_power_pair": lambda rng: (rng.randrange(1, 5),),
    "herd_powers": lambda rng: (_word(rng), _word(rng), rng.randrange(1, 5)),
    "rotate_product": lambda rng: (rng.randrange(0, 4), [_word(rng) for _ in range(3)]),
    "telescope_line": lambda rng: (
        [_word(rng), _word(rng)], [rng.randrange(-3, 4) for _ in "ab"], [rng.randrange(-3, 4) for _ in "ab"]
    ),
    "square_to_gamma3": lambda rng: (_word(rng), _bracket(rng), rng.randrange(0, 3)),
    "gamma3_triangle": lambda rng: (_word(rng), _word(rng), rng.randrange(0, 4)),
    "hall_witt_split": lambda rng: (_word(rng), _bracket(rng), _bracket(rng)),
    "oddball_step": lambda rng: (_word(rng), _word(rng), _word(rng), rng.randrange(1, 4)),
    "oddball_iterate": lambda rng: (_word(rng), _word(rng), _word(rng), rng.randrange(1, 4)),
}


def _renamed(cert: Certificate, images: dict) -> Certificate:
    def rename(w):
        return substitute(w, images)

    factors = tuple(
        dataclasses.replace(
            f,
            base=rename(f.base),
            conjugator=rename(f.conjugator),
            witness=None if f.witness is None else {v: rename(w) for v, w in f.witness.items()},
        )
        for f in cert.factors
    )
    return Certificate(rename(cert.target), factors, cert.flags)


@pytest.mark.parametrize("rule", sorted(REWRITE_RULES))
def test_renaming_generators_keeps_certificates_checked(rule):
    assert set(RULE_INPUTS) == set(REWRITE_RULES)
    rng = random.Random(f"rename {rule}")
    for _ in range(25):
        cert = REWRITE_RULES[rule].fn(*RULE_INPUTS[rule](rng))
        targets = rng.sample(range(1, 5), 4)
        images = {i: gen(p) ** rng.choice((1, -1)) for i, p in enumerate(targets, 1)}
        renamed = _renamed(cert, images)
        renamed.check()
        assert renamed.counts() == cert.counts()
        for c in (cert, renamed):
            assert parse_certificate(c.serialize()) == c


# -- template spellings ------------------------------------------------------
#
# A template's variables are bound in its own text (Neumann, *Varieties of
# Groups*, 1967), so renaming them changes no verbal subgroup and no length.
# Each stock template is spelt by its name, as ``w:`` and a word whose variable
# names are drawn from a pool that collides with the seeds' names (``a`` to
# ``h``), with canonical names (``x1``) and with the names of the words the
# template is measured on, and as its canonical key.

_TEMPLATES = {
    "gamma2": gamma_word(2),
    "gamma3": gamma_word(3),
    "beta2": beta_word(2),
    "commutator_product2": commutator_product_word(2),
}
_NAME_POOL = ("a", "b", "c", "x", "y", "x1", "x2", "x4", "p", "gamma2")


def _spellings(name):
    template = _TEMPLATES[name]
    rng = random.Random(f"spell {name}")
    spellings = [name, template.key]
    for _ in range(3):
        names = NameTable()
        for var, chosen in zip(template.variables, rng.sample(_NAME_POOL, len(template.variables))):
            names.bind(chosen, var)
        spellings.append("w:" + format_word(template.body, names))
    return template, spellings


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(_TEMPLATES))
def test_bound_does_not_depend_on_how_a_template_is_spelt(capsys, name):
    template, spellings = _spellings(name)
    seed_names = NameTable()  # a, b, c, ... as the default seeds name generators 1, 2, 3, ...
    for var in template.variables:
        seed_names.bind("abcdefgh"[var - 1], var)
    word = format_word(template.body, seed_names)
    outputs = set()
    for spec in spellings:
        declared = (f"SL FREE {word} | {spec}", f"L FREE {word} x | {spec} @ 3")
        argv = [arg for text in declared for arg in ("--declare", text)]
        code, out, err = _cli(capsys, "bound", *argv, "--records")
        assert (code, err) == (0, ""), spec
        shown = out.splitlines()[: len(declared)]
        for line in shown:
            assert f" | {template.label if spec == name else template.key} " in line
            code, again, err = _cli(capsys, "bound", "--declare", line.rsplit(" = ", 1)[0])
            assert (code, err, again) == (0, "", line + "\n"), spec
        outputs.add(out.replace(f" | {name} ", f" | {template.key} "))
    assert len(outputs) == 1


@pytest.mark.parametrize("name", sorted(_TEMPLATES))
def test_wlength_does_not_depend_on_how_a_template_is_spelt(capsys, name):
    _, spellings = _spellings(name)
    for group, images in (("S3", "3,1,2"), ("A5", "7,30,2")):
        outputs = set()
        for spec in spellings:
            argv = ["--group", group, "--template", spec, "--element", "a x1^-1 x"]
            outputs.add(wlength(capsys, *argv, "--images", images))
        assert len(outputs) == 1, (group, outputs)


# -- word spellings ----------------------------------------------------------
#
# Renaming the generators of a free group is an automorphism, and verbal
# subgroups are fully invariant, so no ``FREE`` length changes: a ``FREE``
# quantity is keyed and printed up to renaming.  A ``PERFECT`` word names an
# element of some unknown group, where two names are two elements.

_L, _SL, _SCL, _CL = QuantityKind.L, QuantityKind.SL, QuantityKind.SCL, QuantityKind.CL
_X, _Y, _Z, _W, _V = (gen(i) for i in range(1, 6))
_XY2 = commutator(_X, _Y**2)
_SQUARE = power(commutator(_X, _Y), 2)
_BLOCKS = commutator(_Y, _Z) * commutator(_W, _V)
_TWO_X = commutator(_X, _Y) * commutator(_X, _Z)

# (kind, word, template, exponent, lo, hi): a ladder and its mirror (R4, R5,
# R13), the README window (R3, R5), a grope's inner blocks (R6, R12) and a
# gamma2 length for CL (R-CL); over generators 1..5, beside the default seeds
_FREE_FACTS = (
    *((_L, _XY2, gamma_word(2), m, 0, hi) for m, hi in enumerate((1, 2, 3, 3, 5, 6), 1)),
    (_L, _XY2.inverse(), gamma_word(2), 3, 0, 2),
    (_L, _SQUARE, template_from_word(_SQUARE), 6, 0, 5),
    (_SCL, _BLOCKS, None, None, 0, 2),
    (_L, _TWO_X, gamma_word(2), 1, 1, 2),
)
_FREE_DECLARED = (
    (_SL, _XY2, gamma_word(2), None),
    (_SL, _SQUARE, template_from_word(_SQUARE), None),
    (_SL, gamma_word(3).body, gamma_word(3), None),  # R7
    (_SL, grope_word(2).body, grope_word(2), None),
    (_SL, _BLOCKS, template_from_word(_BLOCKS), None),
    (_CL, _TWO_X, None, None),
    (_SL, commutator(_X, _Y) * commutator(_Z, _W), commutator_product_word(2), None),
)


def _free_answers(images):
    """Records, and each declared quantity's interval and explain text, with
    every fact's and declaration's word renamed by ``images``."""
    engine = BoundEngine()
    engine.load_default_seeds()

    def quantity(kind, word, template, exponent):
        return Quantity(kind, Context.FREE, substitute(word, images), template, exponent)

    for kind, word, template, exponent, lo, hi in _FREE_FACTS:
        engine.add_fact(quantity(kind, word, template, exponent), lo, hi)
    shown = [engine.declare(quantity(*row)) for row in _FREE_DECLARED]
    engine.propagate()
    return engine.record_lines(), [(engine.interval(q), engine.explain(q)) for q in shown]


def test_renaming_generators_changes_no_free_answer():
    records, shown = want = _free_answers({})
    rules = {line.split(" RULE ")[1].split()[0] for line in records}
    assert {"R3", "R5", "R6", "R7", "R12", "R13", "R-CL"} <= rules
    assert all(text.startswith(("SL FREE x1 ", "CL FREE x1 ")) for _, text in shown)
    rng = random.Random("rename free")
    for _ in range(6):
        # into generators 1..8, where the default seeds live
        images = {i: gen(p) for i, p in enumerate(rng.sample(range(1, 9), 5), 1)}
        assert _free_answers(images) == want, images


def test_every_records_key_declares_back_to_itself(capsys, tmp_path):
    facts = tmp_path / "extra.facts"
    facts.write_text("SCL PERFECT g = 1/2 inf\nL FREE [p,q]^3 | [p,q] @ 3 = 0 2\n")
    declared = (
        "SL FREE [y,x] | gamma2",
        "SL FREE [p,q]^3 | [p,q]",
        "SL PERFECT g | gamma3",
        "CL FREE [x,y][x,z]",
        "SL FREE [u,[v,w]] | gamma3",
    )
    argv = [arg for text in declared for arg in ("--declare", text)]
    code, out, err = _cli(capsys, "bound", "--facts", str(facts), *argv, "--records")
    assert (code, err) == (0, "")
    keys = set()
    for line in out.splitlines()[len(declared):]:
        head, _, refs = line.partition(" FROM ")
        keys.add(head.removeprefix("FACT ").rsplit(" ", 4)[0])
        refs = refs.split(" # ")[0]
        keys.update(ref.rsplit("=", 1)[0] for ref in refs.split(";") if ref != "-")
    assert len(keys) >= 10 and any(" PERFECT " in key for key in keys)
    for key in sorted(keys):
        code, again, err = _cli(capsys, "bound", "--declare", key)
        assert (code, err) == (0, ""), key
        assert again.rsplit(" = ", 1)[0] == key


def test_a_free_word_is_one_quantity_under_every_spelling(capsys):
    want = "SCL FREE x1 x2 x1^-1 x2^-1 = [1/2, 1/2]\n"
    for word in ("[a,b]", "[x,y]", "[b,a]", "[x1,x2]", "[x2,x1]", "[y,x1]", "x1 x2 x1^-1 x2^-1"):
        assert _cli(capsys, "bound", "--declare", f"SCL FREE {word}") == (0, want, ""), word
    line = "SL FREE x1 x2 x1^-1 x2^-1 | gamma2"
    assert _cli(capsys, "bound", "--declare", line) == (0, f"{line} = [1/2, 1/2]\n", "")


def test_perfect_words_stay_literal():
    engine = BoundEngine()
    engine.load_default_seeds()
    g = engine.add_fact("SCL PERFECT g", 1, 1)
    h = engine.declare("SCL PERFECT h")
    engine.propagate()
    assert g.key() != h.key()
    assert engine.interval(g) == (1, 1)
    assert engine.interval(h) == (0, None)
    assert [engine.display(q) for q in (g, h)] == ["SCL PERFECT g", "SCL PERFECT h"]
