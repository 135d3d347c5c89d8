"""Word templates: the parametrized words whose instances are counted as factors.

A template is a word in variables ``1..k``; an *instance* is any substitution
image of its body.  The stock families:

* ``gamma_word(n)`` -- the right-nested chain ``[x1, [x2, [... , xn]]]``
  (``gamma_word(1)`` is the single variable, ``gamma_word(2)`` a commutator).
* ``beta_word(n)`` -- the balanced tree ``[beta_{n-1}, beta_{n-1}']`` on
  ``2**n`` variables; ``beta_word(2) = [[x1,x2],[x3,x4]]``.
* ``commutator_product_word(g)`` -- ``[x1,x2][x3,x4]...`` with ``g`` blocks.
* ``grope_word(n)`` -- ``[x1, [x2,x3][x4,x5]...]`` with ``n`` blocks inside.
* ``GAMMA3_FAMILY`` -- the set-valued family of commutators whose second entry
  lies in the commutator subgroup; it has no single body word.

A template is its bracket ``shape``: products and commutators over pairwise
disjoint variables, down to leaf words.  The stock families declare theirs; a
template made from a word, such as ``[x,[y,z]]``, has it recognised from its
body.  Both are keyed by the shape's text (``gamma3`` and ``[x,[y,z]]`` by
``[x1,[x2,x3]]``) and spell their bodies from it only where letters are read.
``GAMMA3_FAMILY`` is the commutator of a variable with the subgroup that
``gamma_word(2)``'s values generate.  :func:`verba.finite.template_values`
evaluates the shape, and the bound rules read structure from it.

This module is the one home of the stock templates.  ``parse_template_spec``
reads their names (``gamma3``, ``beta2``, ``Gamma3``, ...) for the bound
engine and the CLI, and ``gamma_word`` and ``beta_word``, the families that
the bound rules and the certificate kinds name, build each index once and
hand every later caller the same object.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import grammar
from .words import (
    Word,
    _inverse_codes,
    _reduced,
    canonical_renumber,
    check_power_size,
    check_size,
    in_commutator_subgroup,
    substitute,
)

Substitution = dict[int, Word]


@dataclass(frozen=True)
class Shape:
    """A node of a template's bracket shape.

    ``op`` is ``"word"`` for a leaf, whose ``parts`` is its body word alone,
    its variables renumbered from 1 (values do not depend on their names, so
    equal subtrees compare equal); ``"product"`` (``A B ...``) or
    ``"commutator"`` (``[A, B]``) over parts whose variables are pairwise
    disjoint; or ``"closure"``, the subgroup that its one part's values
    generate.
    """

    op: str
    parts: tuple

    @functools.cached_property
    def sizes(self) -> tuple[int, int] | None:
        """The letters and variables of this node's body, once per node; ``None`` with a closure."""
        if self.op == "word":
            return len(self.parts[0]), len(self.parts[0].generators())
        sizes = [part.sizes for part in self.parts]
        if self.op == "closure" or None in sizes:
            return None
        letters, variables = map(sum, zip(*sizes))
        return (2 * letters if self.op == "commutator" else letters), variables


@dataclass(frozen=True)
class Template:
    key: str
    label: str = field(compare=False)  # a display name; templates compare by key
    shape: Shape = field(compare=False, repr=False)

    def instance(self, images: Substitution) -> Word:
        if self.body is None:
            raise ValueError(f"template {self.label} has no body word to instantiate")
        return substitute(self.body, images)

    @functools.cached_property
    def letters(self) -> int | None:
        return self.shape.sizes and self.shape.sizes[0]

    @functools.cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(range(1, self.shape.sizes[1] + 1)) if self.shape.sizes else ()

    @functools.cached_property
    def body(self) -> Word | None:
        """The body: a word template's own, or spelled by parsing the key on first use."""
        return None if self.letters is None else grammar.parse(self.key, grammar.canonical_table())


# the shapes of the letters x1 and x1^-1, by the low bit of the letter code
_LETTER_SHAPES = tuple(Shape("word", (_reduced((code,)),)) for code in (2, 3))
_X = _LETTER_SHAPES[0]
_COMMUTATOR = Shape("commutator", (_X, _X))


def _shape_text(shape: Shape, top: int) -> str:
    """``shape`` in the expression grammar, its variables numbered on from ``top``."""
    if shape.op == "word":
        codes = shape.parts[0].codes
        if len(codes) == 1:  # a letter, written without a formatter call
            return f"x{top + 1}^-1" if codes[0] & 1 else f"x{top + 1}"
        return grammar.canonical_key(_reduced(tuple([code + 2 * top for code in codes])))
    texts = []
    for part in shape.parts:
        texts.append(_shape_text(part, top))
        top += part.sizes[1]
    return f"[{texts[0]},{texts[1]}]" if shape.op == "commutator" else " ".join(texts)


def _template(shape: Shape, label: str | None) -> Template:
    key = _shape_text(shape, 0)
    return Template(key, label or key, shape)


def _bracket_shape(body: Word) -> Shape:
    """Split ``body`` into products and commutators over disjoint variables.

    A product is cut wherever no variable before the cut occurs after it; a
    word without such a cut that reads ``A B A^-1 B^-1``, with nonempty ``A``
    and ``B`` over disjoint variables, is ``[A, B]``; anything else is a leaf.
    Each node scans its letters a bounded number of times, and the letters
    scanned over all nodes count against ``words.SIZE_BUDGET``.
    """
    codes = body.codes
    scanned = 0

    def split(lo: int, hi: int) -> Shape:
        nonlocal scanned
        if hi - lo == 1:
            return _LETTER_SHAPES[codes[lo] & 1]
        scanned += hi - lo
        check_size(scanned, "letters scanned for a bracket shape")
        cuts = _product_cuts(codes, lo, hi)
        if len(cuts) > 2:
            return Shape("product", tuple(split(a, b) for a, b in zip(cuts, cuts[1:])))
        middle = _commutator_middle(codes, lo, hi)
        if middle is not None:
            return Shape("commutator", (split(lo, middle), split(middle, (lo + hi) // 2)))
        return Shape("word", (canonical_renumber(_reduced(codes[lo:hi])),))

    return split(0, len(codes))


def _product_cuts(codes: tuple[int, ...], lo: int, hi: int) -> list[int]:
    """``lo``, every cut of ``codes[lo:hi]`` no variable crosses, and ``hi``."""
    last = {code >> 1: p for p, code in enumerate(codes[lo:hi], lo)}
    cuts, reach = [lo], lo
    for p in range(lo, hi):
        reach = max(reach, last[codes[p] >> 1])
        if reach == p:
            cuts.append(p + 1)
    return cuts


def _commutator_middle(codes: tuple[int, ...], lo: int, hi: int) -> int | None:
    """Where ``B`` starts when ``codes[lo:hi]`` is ``A B A^-1 B^-1`` over
    disjoint variables, else ``None``.  The last letter's variable is ``B``'s
    first, and ``A`` has none of ``B``'s variables, so ``B`` starts at its
    first occurrence."""
    if hi - lo < 4 or (hi - lo) % 2:
        return None
    half = lo + (hi - lo) // 2
    first_of_b = codes[hi - 1] >> 1
    middle = next((p for p in range(lo, half) if codes[p] >> 1 == first_of_b), lo)
    a, b = codes[lo:middle], codes[middle:half]
    if not a or {code >> 1 for code in a} & {code >> 1 for code in b}:
        return None
    # A^-1 B^-1 is (B A)^-1
    return middle if codes[half:hi] == _inverse_codes(b + a) else None


#: Commutators ``[u, v]`` with ``v`` in the commutator subgroup.
GAMMA3_FAMILY = Template(
    "Gamma3", "Gamma3", Shape("commutator", (_X, Shape("closure", (_COMMUTATOR,))))
)


def template_from_word(body: Word, label: str | None = None) -> Template:
    """Wrap a word as a template, its shape recognised from it renumbered canonically.

    Renaming variables does not change the set of instances, so every
    structurally identical template gets the same key.  The renumbered word
    is the key's body, so it is kept as ``body`` rather than spelled again.
    """
    body = canonical_renumber(body)
    template = _template(_bracket_shape(body), label)
    template.__dict__["body"] = body  # what the cached property would parse from the key
    return template


@functools.lru_cache(maxsize=32)  # bounded: n comes from spec and certificate text
def gamma_word(n: int) -> Template:
    if n < 1:
        raise ValueError("gamma_word needs n >= 1")
    check_power_size(2, n - 1, f"letters or more in gamma{n}")
    check_size(3 * 2 ** (n - 1) - 2, f"letters in gamma{n}")
    shape = _X
    for _ in range(n - 1):
        shape = Shape("commutator", (_X, shape))
    return _template(shape, f"gamma{n}")


@functools.lru_cache(maxsize=32)
def beta_word(n: int) -> Template:
    if n < 1:
        raise ValueError("beta_word needs n >= 1")
    check_power_size(4, n, f"letters in beta{n}")
    shape = _COMMUTATOR
    for _ in range(n - 1):
        shape = Shape("commutator", (shape, shape))
    return _template(shape, f"beta{n}")


def _blocks(g: int) -> Shape:  # [x1,x2][x3,x4]... with g blocks
    return _COMMUTATOR if g == 1 else Shape("product", (_COMMUTATOR,) * g)


def commutator_product_word(g: int) -> Template:
    if g < 1:
        raise ValueError("commutator_product_word needs g >= 1")
    check_size(4 * g, f"letters in commutator_product{g}")
    return _template(_blocks(g), f"commutator_product{g}")


def grope_word(n: int) -> Template:
    if n < 1:
        raise ValueError("grope_word needs n >= 1")
    check_size(8 * n + 2, f"letters in grope{n}")
    return _template(Shape("commutator", (_X, _blocks(n))), f"grope{n}")


def gamma_index(t: Template) -> int | None:
    """``n`` when ``t`` is structurally ``gamma_word(n)``, else ``None``."""
    shape, n = t.shape, 1
    while shape.op == "commutator" and shape.parts[0] == _X:
        shape, n = shape.parts[1], n + 1
    return n if shape == _X else None


def commutator_blocks(t: Template) -> int | None:
    """``g`` when ``t`` is structurally ``commutator_product_word(g)``, else ``None``."""
    blocks = t.shape.parts if t.shape.op == "product" else (t.shape,)
    return len(blocks) if all(block == _COMMUTATOR for block in blocks) else None


@functools.lru_cache(maxsize=32)  # once per template: R6 asks in every round
def fresh_head_inner(t: Template) -> Template | None:
    """The template ``v`` when ``t`` is ``[x, v]``, ``x`` a variable not in ``v``; else ``None``."""
    if t.letters is None or t.shape.op != "commutator" or t.shape.parts[0] != _X:
        return None
    return _template(t.shape.parts[1], None)


_FAMILIES = {
    "gamma": gamma_word, "beta": beta_word,
    "commutator_product": commutator_product_word, "grope": grope_word,
}
_SPEC_RE = re.compile(f"({'|'.join(_FAMILIES)})([1-9][0-9]*)\\Z")


def parse_template_spec(text: str) -> Template:
    """The template a spec names: ``gamma<n>``, ``beta<n>``, ``commutator_product<g>``,
    ``grope<n>``, ``Gamma3``, or a word, optionally prefixed ``w:``.

    A word's variables are bound in its own text, in a fresh name table:
    renaming them changes no template, and no other text's names.
    """
    text = text.strip()
    if text == GAMMA3_FAMILY.key:
        return GAMMA3_FAMILY
    match = _SPEC_RE.match(text)
    if match is not None:
        return _FAMILIES[match.group(1)](grammar.read_decimal(match.group(2), "template index"))
    return template_from_word(grammar.parse(text.removeprefix("w:")))


def _border_lengths(text: tuple, pattern: tuple) -> list[int]:
    """Every ``k`` with ``text[len(text) - k:] == pattern[:k]``, longest first
    and ``0`` last, from the Knuth-Morris-Pratt border table of ``pattern``.
    ``text`` is no longer than ``pattern``."""
    border = [0] * (len(pattern) + 1)  # border[q]: longest proper border of pattern[:q]
    k = 0
    for q in range(1, len(pattern)):
        while k and pattern[q] != pattern[k]:
            k = border[k]
        if pattern[q] == pattern[k]:
            k += 1
        border[q + 1] = k
    k = 0
    for letter in text:
        while k and letter != pattern[k]:
            k = border[k]
        if letter == pattern[k]:  # k < len(pattern) until the last letter
            k += 1
    lengths = [k]
    while k:
        k = border[k]
        lengths.append(k)
    return lengths


def visible_commutator(w: Word) -> tuple[Word, Word] | None:
    """The first split ``w == [u, v]`` with ``u = w[:i]`` and ``v = w[i:j]``,
    in ``(i, j)`` order, or ``None``.

    ``w = u v r`` is reduced, so ``[u, v] == w`` exactly when ``v u`` reduces
    to ``r^-1``.  Counting letters, ``v`` and ``u`` then cancel ``s = j - m``
    letters where they meet, with ``m = |w| / 2``, so ``i <= m``; and what is
    left, ``w[i:m] w[s:i]``, spells ``r^-1``, the first ``m - s`` letters of
    ``w^-1``.  At ``i = m`` all of ``v`` cancels, ``v = w[:s]^-1``, and
    ``[u, v] = [w[:s], w[s:m]]`` is found first, so ``i < m``.  A commutator
    lies in ``[F, F]``, so no other word is searched.

    The cuts ``i`` where ``w[:m]`` ends in ``w^-1[:m - i]``, and the ``s``
    where ``w^-1`` ends in ``w[m:m + s]``, are each read from one border
    table, in time linear in ``|w|``; only ``w[s:i]`` is compared per pair.
    The letters compared count against ``words.SIZE_BUDGET``
    (``ResourceBudgetError`` beyond it).
    """
    codes = w.codes
    n = len(codes)
    if not in_commutator_subgroup(w):
        return None
    m = n // 2  # a word in [F, F] has even length
    inverse = w.inverse().codes
    what = "letter comparisons in a commutator search"
    compared = 6 * n  # two border tables and their scans, each at most 3 comparisons a letter
    check_size(compared, what)
    cuts = [m - k for k in _border_lengths(codes[:m], inverse[:m]) if 0 < k < m]
    cancels = _border_lengths(inverse[m:], codes[m:])[::-1]  # s ascending, from 0
    for i in cuts:
        for s in cancels:
            if s > i:
                break
            compared += i - s
            check_size(compared, what)
            # v's last s letters cancel u's first s, and w[s:i] ends r^-1
            if codes[s:i] == inverse[m - i : m - s]:
                return _reduced(codes[:i]), _reduced(codes[i : m + s])
    return None
