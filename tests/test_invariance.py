"""Metamorphic checks across layers: answers must not depend on how a group's
elements are named, on how a template's variables are named, or on what the
distance-table cache holds.

Relabelling a group's elements gives an isomorphic group, so its distance
histograms are the same.  Ore's conjecture (Liebeck, O'Brien, Shalev and
Tiep, 2010) makes every element of A5, A6 and A7 a commutator.  Renaming the
generators of a certificate by a signed permutation is an automorphism of the
free group, so the renamed certificate still checks, with the same counts.
"""
from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from helpers import random_word, relabel, table_text
from verba import cache
from verba.certificates import Certificate, parse_certificate
from verba.cli import main
from verba.finite import load_group, registry_small_groups
from verba.grammar import NameTable, format_word
from verba.identities import REWRITE_RULES
from verba.templates import beta_word, commutator_product_word, gamma_word
from verba.words import commutator, gen, substitute


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
    path = cache.cache_path(spec, gamma_word(n))
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
def test_bound_does_not_depend_on_how_a_template_is_spelt(capsys, monkeypatch, name):
    monkeypatch.delenv("VERBA_SEEDS", raising=False)
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
