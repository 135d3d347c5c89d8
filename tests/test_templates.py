"""Word templates: constructors and structure tests."""
from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from helpers import random_nonempty_word, random_word

from verba import experiments, grammar, templates, words
from verba.bounds import BoundEngine
from verba.cli import main
from verba.errors import ResourceBudgetError
from verba.finite import load_group, template_values
from verba.templates import (
    GAMMA3_FAMILY,
    Shape,
    beta_word,
    commutator_blocks,
    commutator_product_word,
    fresh_head_inner,
    gamma_index,
    gamma_word,
    grope_word,
    parse_template_spec,
    template_from_word,
    visible_commutator,
)
from verba.words import EMPTY, Word, canonical_renumber, commutator, gen, power, product


def test_family_shapes():
    assert gamma_word(1).body == gen(1)
    assert gamma_word(2).body == commutator(gen(1), gen(2))
    assert gamma_word(3).body == commutator(gen(1), commutator(gen(2), gen(3)))
    assert beta_word(1).body == commutator(gen(1), gen(2))
    assert beta_word(2).body == commutator(
        commutator(gen(1), gen(2)), commutator(gen(3), gen(4))
    )
    assert len(gamma_word(4).variables) == 4
    assert len(beta_word(3).variables) == 8
    assert len(commutator_product_word(3).variables) == 6
    assert len(grope_word(2).variables) == 5
    assert GAMMA3_FAMILY.body is None


def test_a_family_template_has_no_instance():
    with pytest.raises(ValueError, match="no body word to instantiate"):
        GAMMA3_FAMILY.instance({})


def test_gamma_index_is_structural():
    for n in range(1, 7):
        assert gamma_index(gamma_word(n)) == n
    assert gamma_index(beta_word(2)) is None
    renamed = template_from_word(commutator(gen(5), commutator(gen(2), gen(9))))
    assert gamma_index(renamed) == 3


def test_gamma_index_builds_no_template():
    # the chain length is read from the shape; no gamma_word is built to compare
    others = [template_from_word(Word(((1, 1),) * k)) for k in range(1, 12)]
    others += [beta_word(2), commutator_product_word(2), GAMMA3_FAMILY]
    gamma_word.cache_clear()
    assert [gamma_index(t) for t in others] == [1] + [None] * 13
    assert gamma_index(template_from_word(gen(1).inverse())) is None
    assert gamma_word.cache_info().misses == 0


def test_stock_templates_are_built_once_per_index():
    gamma_word.cache_clear()
    beta_word.cache_clear()
    experiments.scenario_power_pair_diagonal(2)
    experiments.scenario_squared_commutator()
    experiments.scenario_gamma_chain(3)
    experiments.scenario_commutator_product(2)
    experiments.scenario_perfect_comparison(Fraction(1, 2), 4)
    experiments.scenario_grope_family(2)
    engine = BoundEngine()
    engine.load_default_seeds()
    engine.load_facts(
        "".join(f"L FREE [a,b] | gamma2 @ {m} = 0 {m}\n" for m in range(1, 51))
        + "L PERFECT_SCL_ZERO g | gamma3 @ 1 = 1 1\n"
    )
    for text in (
        "SL FREE [a,b] | gamma2",
        "CL FREE [a,b]",
        "SL PERFECT_SCL_ZERO g | beta2",
        "SL FREE [a,[b,c]] | gamma3",
        "SL FREE [a,[b,c]] | Gamma3",
        "SL PERFECT g | gamma3",
        "SCL PERFECT g",
    ):
        engine.declare(text)
    assert engine.propagate() > 50
    for build in (gamma_word, beta_word):
        info = build.cache_info()
        assert 0 < info.currsize < info.maxsize  # nothing evicted
        assert info.misses == info.currsize, build  # each index built once
        assert info.hits > info.misses
    assert gamma_word(2) is gamma_word(2)


@pytest.mark.parametrize(
    "spec, want",
    [
        ("gamma3", gamma_word(3)),
        (" beta2 ", beta_word(2)),
        ("commutator_product2", commutator_product_word(2)),
        ("grope1", grope_word(1)),
        ("Gamma3", GAMMA3_FAMILY),
        ("w:[p,q]", gamma_word(2)),
        ("[y, x]", gamma_word(2)),
        ("gamma0", template_from_word(gen(1))),  # no family index: a word named gamma0
    ],
)
def test_parse_template_spec(spec, want):
    assert parse_template_spec(spec) == want


def spelled(shape):
    """The word a shape spells with each leaf's variables renamed apart, up
    to renaming: the body back exactly when every split it made was over
    disjoint variables."""
    offset = 0

    def spell(node):
        nonlocal offset
        if node.op == "word":
            offset += 100
            return Word(tuple((offset + index, sign) for index, sign in node.parts[0].letters))
        parts = [spell(part) for part in node.parts]
        return commutator(*parts) if node.op == "commutator" else product(parts)

    return canonical_renumber(spell(shape))


def _expected_shape(family, n):
    x = Shape("word", (gen(1),))
    gamma2 = Shape("commutator", (x, x))
    if family == "gamma":
        shape = x
        for _ in range(n - 1):
            shape = Shape("commutator", (x, shape))
        return shape
    if family == "beta":
        shape = gamma2
        for _ in range(n - 1):
            shape = Shape("commutator", (shape, shape))
        return shape
    blocks = gamma2 if n == 1 else Shape("product", (gamma2,) * n)
    return blocks if family == "commutator_product" else Shape("commutator", (x, blocks))


@pytest.mark.parametrize(
    "family, n",
    [("gamma", n) for n in range(2, 6)] + [("beta", 1), ("beta", 2)]
    + [("commutator_product", g) for g in range(1, 4)] + [("grope", 1), ("grope", 2)],
)
def test_stock_families_recognise_to_bracket_shapes(family, n):
    template = parse_template_spec(f"{family}{n}")
    assert template.shape == _expected_shape(family, n)
    assert spelled(template.shape) == template.body
    assert template.shape is template.shape  # recognised once


@pytest.mark.parametrize(
    "text",
    # the last bracket reads A B A^-1 B^-1, but A = x^2 and B = z x^2 z^-1 share x
    ["[x,[x,y]]", "[x,y][x,z]", "[x,y]^2", "x^2", "x y x^-1", "[x y, y z]", "[x^2, z x^2 z^-1]", "1"],
)
def test_words_sharing_a_variable_across_a_bracket_are_leaves(text):
    template = parse_template_spec(text)
    assert template.shape == Shape("word", (template.body,))


def test_shapes_split_products_and_brackets_of_any_word():
    shape = parse_template_spec("[x^2, y z^3] [u,v]^2 w^-1").shape
    assert shape.op == "product" and len(shape.parts) == 3
    bracket, leaf, letter = shape.parts
    assert bracket.op == "commutator"
    assert [part.op for part in bracket.parts] == ["word", "product"]
    assert spelled(shape) == parse_template_spec("[x^2, y z^3] [u,v]^2 w^-1").body
    # leaves are renumbered from 1: equal subtrees compare equal
    assert leaf.parts[0] == parse_template_spec("[x,y]^2").body
    assert letter == Shape("word", (gen(1).inverse(),))


def test_one_body_has_one_key_and_one_shape():
    same = [parse_template_spec(text) for text in ("gamma3", "[x,[y,z]]", "w:[y,[z,x]]")]
    assert len({t.key for t in same}) == 1
    assert len({t.shape for t in same}) == 1
    assert GAMMA3_FAMILY.shape == Shape(
        "commutator", (Shape("word", (gen(1),)), Shape("closure", (gamma_word(2).shape,)))
    )


def test_shape_recognition_counts_scanned_letters(monkeypatch):
    # [x,[y,z]] scans its 10 letters and the 4 of [y,z]; single letters
    # are leaves at once
    body = gamma_word(3).body
    monkeypatch.setattr(words, "SIZE_BUDGET", 14)
    assert template_from_word(body).shape == gamma_word(3).shape
    monkeypatch.setattr(words, "SIZE_BUDGET", 13)
    with pytest.raises(ResourceBudgetError, match="14 letters scanned for a bracket shape"):
        template_from_word(body).shape


def test_parse_template_spec_returns_the_stock_object():
    assert parse_template_spec("gamma2") is gamma_word(2)
    with pytest.raises(ResourceBudgetError, match="template index of 5000 digits"):
        parse_template_spec("gamma" + "9" * 5000)


def test_template_from_word_canonicalizes():
    a = template_from_word(commutator(gen(1), gen(2)))
    b = template_from_word(commutator(gen(7), gen(3)))
    assert a.key == b.key
    assert a.body == b.body


def test_instance_substitution():
    t = gamma_word(2)
    x, y = gen(3) * gen(4), gen(5).inverse()
    assert t.instance({1: x, 2: y}) == commutator(x, y)


def test_commutator_product_decomposition():
    for g in range(1, 5):
        assert commutator_blocks(commutator_product_word(g)) == g
    assert commutator_blocks(gamma_word(3)) is None
    repeated = commutator(gen(1), gen(2)) * commutator(gen(1), gen(3))
    assert commutator_blocks(template_from_word(repeated)) is None


def test_fresh_commutator_split():
    for n in range(2, 6):
        inner = fresh_head_inner(gamma_word(n))
        assert inner == gamma_word(n - 1)
        shifted = Word(tuple((i + 1, sign) for i, sign in inner.body.letters))
        assert commutator(gen(1), shifted) == gamma_word(n).body
        assert fresh_head_inner(gamma_word(n)) is inner  # read once per template
    assert fresh_head_inner(template_from_word(gen(1) * gen(2))) is None
    tangled = commutator(gen(1), gen(1) * gen(2))
    assert fresh_head_inner(template_from_word(tangled)) is None
    assert fresh_head_inner(GAMMA3_FAMILY) is None


# The letter-level builders and matchers that the declared shapes replaced,
# kept as reference oracles.

def _old_gamma_body(n):
    body = gen(n)
    for i in range(n - 1, 0, -1):
        body = commutator(gen(i), body)
    return body


def _old_beta_body(n, first=1):
    if n == 1:
        return commutator(gen(first), gen(first + 1))
    half = 2 ** (n - 1)
    return commutator(_old_beta_body(n - 1, first), _old_beta_body(n - 1, first + half))


def _old_commutator_product_body(g):
    return product(commutator(gen(2 * i + 1), gen(2 * i + 2)) for i in range(g))


def _old_grope_body(n):
    inner = product(commutator(gen(2 * i + 2), gen(2 * i + 3)) for i in range(n))
    return commutator(gen(1), inner)


def _old_gamma_index(w):
    """``n`` when ``w`` is literally the body of ``gamma_word(n)``."""
    half, rest = divmod(len(w) + 2, 3)  # gamma_word(n) has 3 * 2**(n-1) - 2 letters
    n = half.bit_length()
    return n if not rest and half == 1 << (n - 1) and _old_gamma_body(n) == w else None


def _old_commutator_product_decomposition(w):
    """The generator pairs when ``w`` is literally ``[a1,b1][a2,b2]...`` over
    pairwise distinct generators, else ``None``."""
    letters = w.letters
    if len(letters) % 4 != 0 or not letters:
        return None
    pairs, seen = [], set()
    for block in range(0, len(letters), 4):
        (a, sa), (b, sb), (a2, sa2), (b2, sb2) = letters[block : block + 4]
        if (sa, sb, sa2, sb2) != (1, 1, -1, -1) or (a2, b2) != (a, b):
            return None
        if a in seen or b in seen or a == b:
            return None
        seen.update((a, b))
        pairs.append((a, b))
    return pairs


def _old_fresh_commutator_split(w):
    """``(x, v)`` when ``w == [x, v]`` with ``x`` a generator not in ``v``."""
    letters = w.letters
    if len(letters) < 4 or len(letters) % 2 != 0:
        return None
    index, sign = letters[0]
    if sign != 1:
        return None
    inner = Word(letters[1 : len(letters) // 2])
    if index in inner.generators():
        return None
    return (index, inner) if commutator(gen(index), inner) == w else None


_OLD_BODIES = {
    gamma_word: _old_gamma_body,
    beta_word: _old_beta_body,
    commutator_product_word: _old_commutator_product_body,
    grope_word: _old_grope_body,
}


def _random_tree(rng, names):
    """A random bracket and product tree over the variables ``names``, which
    may repeat, with random leaf signs."""
    if len(names) == 1 or rng.random() < 0.2:
        return product(power(gen(i), rng.choice((1, -1))) for i in names)
    cut = rng.randint(1, len(names) - 1)
    left, right = _random_tree(rng, names[:cut]), _random_tree(rng, names[cut:])
    return commutator(left, right) if rng.random() < 0.6 else left * right


def test_stock_bodies_match_the_old_builders():
    for family, build in _OLD_BODIES.items():
        for n in range(1, 9):
            assert family(n) == template_from_word(build(n)), (family, n)
            assert family(n).body == build(n)


@pytest.mark.parametrize(
    "spec, key",
    [
        ("gamma3", "[x1,[x2,x3]]"),
        ("w:[y,[z,x]]", "[x1,[x2,x3]]"),
        ("beta2", "[[x1,x2],[x3,x4]]"),
        ("commutator_product2", "[x1,x2] [x3,x4]"),
        ("grope2", "[x1,[x2,x3] [x4,x5]]"),
        ("[x^2, y z^3] [u,v]^2 w^-1", "[x1^2,x2 x3^3] x4 x5 x4^-1 x5^-1 x4 x5 x4^-1 x5^-1 x6^-1"),
        ("[x,y]^2", "x1 x2 x1^-1 x2^-1 x1 x2 x1^-1 x2^-1"),  # a leaf keeps its canonical text
        ("y^-1 x^2", "x1^-1 x2^2"),
        ("1", "1"),
    ],
)
def test_a_key_is_the_shape_written_in_the_grammar(spec, key):
    template = parse_template_spec(spec)
    assert template.key == key
    assert parse_template_spec(key) == template
    if not templates._SPEC_RE.match(spec):
        assert template.label == key  # a word template is shown by its key


def test_keys_parse_back_to_the_bodies_they_key():
    rng = random.Random(2318)
    pairs = set()
    for _ in range(2000):
        k = rng.randint(1, 5)
        if rng.random() < 0.6:  # distinct variables, or some repeated
            names = rng.sample(range(1, 7), k) if rng.random() < 0.7 else rng.choices(range(1, 7), k=k)
            w = _random_tree(rng, names)
        else:
            w = random_word(rng, k, 12)
        t = template_from_word(w)
        body = canonical_renumber(w)
        assert grammar.parse(t.key, grammar.canonical_table()) == body == t.body, t.key
        again = template_from_word(body)
        assert (again.key, again.shape) == (t.key, t.shape)
        assert (t.letters, t.variables) == (len(body), body.generators())
        pairs.add((t.key, body))
    # one key for each body and one body for each key, over many repeats
    assert len({key for key, _ in pairs}) == len({body for _, body in pairs}) == len(pairs)
    assert len(pairs) < 1500


def _counted_spellings(monkeypatch) -> list[str]:
    """The keys of the templates whose bodies are spelled from now on."""
    spelled = []
    spell = templates.Template.__dict__["body"].func

    def body(self):
        spelled.append(self.key)
        return spell(self)

    counted = functools.cached_property(body)
    counted.__set_name__(templates.Template, "body")
    monkeypatch.setattr(templates.Template, "body", counted)
    return spelled


def test_big_stock_templates_are_built_and_read_without_their_bodies(monkeypatch, capsys):
    spelled = _counted_spellings(monkeypatch)
    gamma_word.cache_clear()
    beta_word.cache_clear()
    big = [gamma_word(22), beta_word(11)]
    assert [t.key.count("x") for t in big] == [22, 2**11]
    assert [t.letters for t in big] == [3 * 2**21 - 2, 4**11]
    assert [len(t.variables) for t in big] == [22, 2**11]
    group = load_group("S4")
    assert [len(template_values(group, t)) for t in big] == [12, 1]
    assert main(["bound", "--declare", "SL FREE [x,y] | gamma22"]) == 0
    assert capsys.readouterr().out == "SL FREE x1 x2 x1^-1 x2^-1 | gamma22 = [0, inf]\n"
    assert spelled == []
    # a word template keeps the body it was recognised from
    template = parse_template_spec("[a,[b,c]]")
    assert template.body == template.body == commutator(gen(1), commutator(gen(2), gen(3)))
    assert spelled == []
    # a stock body is spelled where its letters are read, once
    assert gamma_word(3).body == gamma_word(3).body == template.body
    assert spelled == ["[x1,[x2,x3]]"]


def test_shape_readers_agree_with_the_letter_matchers():
    rng = random.Random(1808)
    templates = [GAMMA3_FAMILY] + [family(n) for family in _OLD_BODIES for n in range(1, 9)]
    for _ in range(1500):
        k = rng.randint(1, 5)
        if rng.random() < 0.7:  # distinct variables, or some repeated
            names = rng.sample(range(1, 6), k) if rng.random() < 0.7 else rng.choices(range(1, 6), k=k)
            templates.append(template_from_word(_random_tree(rng, names)))
        else:
            templates.append(template_from_word(random_word(rng, k, 12)))
    counts = {"gamma": 0, "blocks": 0, "fresh": 0}
    for t in templates:
        if t.body is None:
            assert (gamma_index(t), commutator_blocks(t), fresh_head_inner(t)) == (None,) * 3
            continue
        assert gamma_index(t) == _old_gamma_index(t.body), t.key
        pairs = _old_commutator_product_decomposition(t.body)
        assert commutator_blocks(t) == (len(pairs) if pairs else None), t.key
        split = _old_fresh_commutator_split(t.body)
        inner = fresh_head_inner(t)
        assert inner == (split and template_from_word(split[1])), t.key
        assert split is None or inner.body == canonical_renumber(split[1]), t.key
        assert split is None or split[0] == 1  # bodies are numbered by first appearance
        counts["gamma"] += gamma_index(t) is not None
        counts["blocks"] += pairs is not None
        counts["fresh"] += split is not None
    assert min(counts.values()) > 30, counts


def _old_visible_commutator(w: Word):
    """The exhaustive search the fast one replaced: every prefix split, built."""
    letters = w.letters
    for i in range(1, len(letters)):
        u = Word(letters[:i])
        for j in range(i + 1, len(letters) + 1):
            v = Word(letters[i:j])
            if commutator(u, v) == w:
                return (u, v)
    return None


def test_visible_commutator_agrees_with_the_exhaustive_search():
    rng = random.Random(1302)
    found = 0
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.4:
            w = commutator(random_word(rng, 3, 6), random_word(rng, 3, 6))
        elif roll < 0.55:  # u and v that cancel where they meet
            u = random_word(rng, 2, 3)
            w = commutator(u, power(u, rng.randint(-2, 2)) * random_word(rng, 2, 3))
        elif roll < 0.8:
            w = power(commutator(random_word(rng, 2, 3), random_word(rng, 2, 3)), rng.randint(1, 3))
        else:
            w = random_word(rng, 2, 12)
        want = _old_visible_commutator(w)
        assert visible_commutator(w) == want, w
        found += want is not None
    assert found > 600


def test_visible_commutator_splits_long_commutators():
    rng = random.Random(1303)
    for _ in range(5):
        w = commutator(random_nonempty_word(rng, 4, 400), random_nonempty_word(rng, 4, 400))
        split = visible_commutator(w)
        assert split is not None and commutator(*split) == w
    assert visible_commutator(grammar.parse("[a,b]^1000")) is None


def test_visible_commutator_agrees_on_powers_and_one_generator_words():
    """Periodic words and words that cancel deeply, where many cuts share borders."""
    rng = random.Random(1304)
    found = 0
    for _ in range(1500):
        u = random_nonempty_word(rng, rng.randint(1, 2), 4)
        v = random_nonempty_word(rng, rng.randint(1, 2), 4)
        roll = rng.random()
        if roll < 0.35:
            w = commutator(power(u, rng.randint(1, 3)), power(v, rng.randint(-3, 3)) * u)
        elif roll < 0.7:
            w = power(commutator(u, v), rng.randint(1, 3))
        else:
            w = commutator(u, v) * commutator(v, u ** rng.randint(1, 2))
        want = _old_visible_commutator(w)
        assert visible_commutator(w) == want, w
        found += want is not None
    assert found > 300


def test_visible_commutator_counts_its_comparisons(monkeypatch):
    w = grammar.parse("[a,b]^30")
    # no cut is a candidate, so only the two border tables are charged: 6 per letter
    monkeypatch.setattr(words, "SIZE_BUDGET", 6 * len(w))
    assert visible_commutator(w) is None
    monkeypatch.setattr(words, "SIZE_BUDGET", 6 * len(w) - 1)
    with pytest.raises(ResourceBudgetError, match="letter comparisons"):
        visible_commutator(w)
    # a word outside [F, F] is no commutator, and is not searched
    assert visible_commutator(w * gen(1)) is None
    assert visible_commutator(commutator(gen(1) * gen(2), gen(3))) == (gen(1) * gen(2), gen(3))


def test_border_lengths_match_a_brute_force_scan():
    """Every pair of equal-length texts over two letters, up to seven letters."""
    for length in range(8):
        for pattern in itertools.product("ab", repeat=length):
            for text in itertools.product("ab", repeat=length):
                want = [k for k in range(length, -1, -1) if text[length - k :] == pattern[:k]]
                assert templates._border_lengths(text, pattern) == want, (text, pattern)


def test_visible_commutator_takes_linear_time_on_long_powers(monkeypatch):
    monkeypatch.setattr(words, "SIZE_BUDGET", 10**5)
    assert visible_commutator(grammar.parse("[a,b]^4000")) is None
    w = commutator(power(gen(1), 4000), gen(2))
    assert visible_commutator(w) == (power(gen(1), 4000), gen(2))
    # past the border tables, the letters compared for each (cut, cancel) pair count too
    monkeypatch.setattr(words, "SIZE_BUDGET", 6 * len(w))
    with pytest.raises(ResourceBudgetError, match="letter comparisons"):
        visible_commutator(w)


def test_hall_witt_split_certifies_a_long_power(capsys, tmp_path):
    """The search of ``[a,b]^2300`` compared 10,000,425 letters by slicing at
    every cut; by border tables it finds no split, so the factors stay RAW."""
    assert main(["rewrite", "hall_witt_split", "g", "[a,b]^2300", "[c,d]"]) == 0
    text = capsys.readouterr().out
    assert "FLAG commutator-of-commutators tags withheld" in text
    path = tmp_path / "split.cert"
    path.write_text(text)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("PASS: product of 2 factors")


def test_hall_witt_split_on_a_long_power_ends_quickly(capsys):
    start = time.perf_counter()
    code = main(["rewrite", "hall_witt_split", "g", "[a,b]^1000", "[c,d]"])
    assert time.perf_counter() - start < 10
    assert code in (0, 3)
    if code == 3:
        assert "letter comparisons" in capsys.readouterr().err
