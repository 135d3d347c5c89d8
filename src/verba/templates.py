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

Templates compare by structure: the key of a single-word template is the
canonical string of its body, so differently named but identical templates
coincide.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import grammar
from .words import (
    EMPTY,
    Word,
    canonical_renumber,
    commutator,
    conjugate,
    gen,
    substitute,
)

Substitution = dict[int, Word]


@dataclass(frozen=True)
class Template:
    key: str
    label: str
    body: Word | None
    variables: tuple[int, ...]

    def instance(self, images: Substitution) -> Word:
        if self.body is None:
            raise ValueError(f"template {self.label} has no body word to instantiate")
        return substitute(self.body, images)


#: Commutators ``[u, v]`` with ``v`` in the commutator subgroup.
GAMMA3_FAMILY = Template(key="Gamma3", label="Gamma3", body=None, variables=())


def template_from_word(body: Word, label: str | None = None) -> Template:
    """Wrap a word as a template, renumbering its variables canonically.

    Renaming variables does not change the set of instances, so every
    structurally identical template gets the same key.
    """
    body = canonical_renumber(body)
    key = grammar.canonical_key(body)
    return Template(key=key, label=label or key, body=body, variables=body.generators())


def gamma_word(n: int) -> Template:
    if n < 1:
        raise ValueError("gamma_word needs n >= 1")
    body = gen(n)
    for i in range(n - 1, 0, -1):
        body = commutator(gen(i), body)
    return template_from_word(body, f"gamma{n}")


def beta_word(n: int) -> Template:
    if n < 1:
        raise ValueError("beta_word needs n >= 1")

    def build(level: int, first: int) -> Word:
        if level == 1:
            return commutator(gen(first), gen(first + 1))
        half = 2 ** (level - 1)
        return commutator(build(level - 1, first), build(level - 1, first + half))

    return template_from_word(build(n, 1), f"beta{n}")


def commutator_product_word(g: int) -> Template:
    if g < 1:
        raise ValueError("commutator_product_word needs g >= 1")
    body = EMPTY
    for i in range(g):
        body = body * commutator(gen(2 * i + 1), gen(2 * i + 2))
    return template_from_word(body, f"commutator_product{g}")


def grope_word(n: int) -> Template:
    if n < 1:
        raise ValueError("grope_word needs n >= 1")
    inner = EMPTY
    for i in range(n):
        inner = inner * commutator(gen(2 * i + 2), gen(2 * i + 3))
    return template_from_word(commutator(gen(1), inner), f"grope{n}")


def gamma_index(t: Template) -> int | None:
    """``n`` when ``t`` is structurally ``gamma_word(n)``, else ``None``."""
    if t.body is None:
        return None
    n = 1
    while True:
        candidate = gamma_word(n).body
        if len(candidate) > len(t.body):
            return None
        if candidate == t.body:
            return n
        n += 1


def commutator_product_decomposition(w: Word) -> list[tuple[int, int]] | None:
    """Split ``w`` as ``[a1,b1][a2,b2]...`` over pairwise distinct generators.

    Returns the list of generator pairs, or ``None`` when ``w`` is not
    literally such a product.
    """
    letters = w.letters
    if len(letters) % 4 != 0 or not letters:
        return None
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for block in range(0, len(letters), 4):
        (a, sa), (b, sb), (a2, sa2), (b2, sb2) = letters[block : block + 4]
        if (sa, sb, sa2, sb2) != (1, 1, -1, -1) or (a2, b2) != (a, b):
            return None
        if a in seen or b in seen or a == b:
            return None
        seen.update((a, b))
        pairs.append((a, b))
    return pairs


def fresh_commutator_split(w: Word) -> tuple[int, Word] | None:
    """Match ``w == [x, v]`` with ``x`` a generator not occurring in ``v``."""
    letters = w.letters
    if len(letters) < 4 or len(letters) % 2 != 0:
        return None
    index, sign = letters[0]
    if sign != 1:
        return None
    half = (len(letters) - 2) // 2
    inner = Word(letters[1 : 1 + half])
    if index in inner.generators():
        return None
    if commutator(gen(index), inner) == w:
        return (index, inner)
    return None


def iter_commutator_splits(w: Word):
    """Yield pairs ``(u, v)`` of subword prefixes with ``[u, v] == w``."""
    letters = w.letters
    for i in range(1, len(letters)):
        u = Word(letters[:i])
        for j in range(i + 1, len(letters) + 1):
            v = Word(letters[i:j])
            if commutator(u, v) == w:
                yield u, v


def visible_commutator(w: Word) -> tuple[Word, Word] | None:
    """First commutator split of ``w`` found, or ``None``."""
    for u, v in iter_commutator_splits(w):
        return (u, v)
    return None


def _shift(sub: Substitution, offset: int) -> Substitution:
    """Shift variable keys *and* the variables inside images (both in template space)."""
    shift_map = {i: gen(i + offset) for image in sub.values() for i in image.generators()}
    return {var + offset: substitute(image, shift_map) for var, image in sub.items()}


def _shift_keys(sub: Substitution, offset: int) -> Substitution:
    """Shift variable keys only; images are ambient words and stay untouched."""
    return {var + offset: image for var, image in sub.items()}


def reflexivity_certificate(
    t: Template, search_length: int = 2, search_cap: int = 200_000
) -> Substitution | None:
    """A substitution sending the template body to its inverse, or ``None``.

    The stock families have closed-form certificates.  Other single-word
    templates fall back to a bounded search over images of length at most
    ``search_length`` in the template variables (at most ``search_cap``
    candidate substitutions); exhaustion returns ``None``, which means
    *unknown*, not *irreflexive*.
    """
    if t.body is None:
        raise ValueError("reflexivity certificates apply to single-word templates")
    closed = _closed_form_reflexivity(t)
    if closed is not None:
        return closed
    return _search_reflexivity(t, search_length, search_cap)


def _closed_form_reflexivity(t: Template) -> Substitution | None:
    n = gamma_index(t)
    if n is not None:
        return _gamma_reflexivity(n)
    body = t.body
    for level in itertools.count(1):
        beta = beta_word(level)
        if len(beta.body) > len(body):
            break
        if beta.body == body:
            half = 2 ** (level - 1)
            sub = {i: gen(i + half) for i in range(1, half + 1)}
            sub.update({i + half: gen(i) for i in range(1, half + 1)})
            return sub
    pairs = commutator_product_decomposition(body)
    if pairs is not None:
        return _pair_reversal(pairs)
    split = fresh_commutator_split(body)
    if split is not None:
        head, inner = split
        inner_pairs = commutator_product_decomposition(inner)
        if inner_pairs is not None:
            sub = _pair_reversal(inner_pairs)
            sub[head] = conjugate(gen(head), inner)
            return sub
    return None


def _gamma_reflexivity(n: int) -> Substitution:
    if n == 1:
        return {1: gen(1).inverse()}
    tail = gamma_word(n - 1)
    shifted_tail = substitute(tail.body, {i: gen(i + 1) for i in tail.variables})
    inner = _shift(_gamma_reflexivity(n - 1), 1)
    inner[1] = conjugate(gen(1), shifted_tail)
    return inner


def _pair_reversal(pairs: list[tuple[int, int]]) -> Substitution:
    sub: Substitution = {}
    for (a, b), (c, d) in zip(pairs, reversed(pairs)):
        sub[a] = gen(d)
        sub[b] = gen(c)
    return sub


def _search_reflexivity(
    t: Template, search_length: int, search_cap: int
) -> Substitution | None:
    body = t.body
    target = body.inverse()
    alphabet = [gen(i) for i in t.variables] + [gen(i).inverse() for i in t.variables]
    candidates: list[Word] = [EMPTY]
    frontier = [EMPTY]
    for _ in range(search_length):
        frontier = [
            w * a for w in frontier for a in alphabet if len(w * a) == len(w) + 1
        ]
        candidates.extend(frontier)
    total = len(candidates) ** len(t.variables)
    if total > search_cap:
        return None
    for images in itertools.product(candidates, repeat=len(t.variables)):
        sub = dict(zip(t.variables, images))
        if substitute(body, sub) == target:
            return sub
    return None


def nested_bracket_certificate(
    tree: grammar.BracketTree, names: grammar.NameTable | None = None
) -> Substitution | None:
    """Express a bracket tree as an instance of ``gamma_word(#leaves)``.

    ``tree`` is either a ``grammar.parse_bracket_tree`` result, a string to be
    parsed as one, or a ``Word`` leaf.  Succeeds exactly when every bracket in
    the tree has at least one leaf side (possibly after flipping with
    ``[a,b] = [b^a, a^-1]``); a bracket of two composite sides returns
    ``None``.  On success the returned substitution ``s`` satisfies
    ``gamma_word(len(s)).instance(s) == tree word``.
    """
    if isinstance(tree, str):
        tree = grammar.parse_bracket_tree(tree, names)
    solved = _solve_nested(tree)
    return None if solved is None else solved[1]


def _solve_nested(tree: grammar.BracketTree) -> tuple[int, Substitution] | None:
    if isinstance(tree, Word):
        return 1, {1: tree}
    left, right = tree
    if isinstance(left, Word):
        inner = _solve_nested(right)
        if inner is None:
            return None
        m, sub = inner
        out = _shift_keys(sub, 1)
        out[1] = left
        return m + 1, out
    if isinstance(right, Word):
        inner = _solve_nested(left)
        if inner is None:
            return None
        m, sub = inner
        left_word = gamma_word(m).instance(sub)
        reflex = _gamma_reflexivity(m)
        inverted_sub = {
            var: substitute(reflex[var], sub) for var in gamma_word(m).variables
        }
        out = _shift_keys(inverted_sub, 1)
        out[1] = conjugate(right, left_word)
        return m + 1, out
    return None
