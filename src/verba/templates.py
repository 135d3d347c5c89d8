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

from dataclasses import dataclass, field

from . import grammar
from .words import (
    Word,
    canonical_renumber,
    check_power_size,
    check_size,
    commutator,
    gen,
    product,
    substitute,
)

Substitution = dict[int, Word]


@dataclass(frozen=True)
class Template:
    key: str
    label: str = field(compare=False)  # a display name; templates compare by structure
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
    check_power_size(2, n - 1, f"letters or more in gamma{n}")
    check_size(3 * 2 ** (n - 1) - 2, f"letters in gamma{n}")
    body = gen(n)
    for i in range(n - 1, 0, -1):
        body = commutator(gen(i), body)
    return template_from_word(body, f"gamma{n}")


def beta_word(n: int) -> Template:
    if n < 1:
        raise ValueError("beta_word needs n >= 1")
    check_power_size(4, n, f"letters in beta{n}")

    def build(level: int, first: int) -> Word:
        if level == 1:
            return commutator(gen(first), gen(first + 1))
        half = 2 ** (level - 1)
        return commutator(build(level - 1, first), build(level - 1, first + half))

    return template_from_word(build(n, 1), f"beta{n}")


def commutator_product_word(g: int) -> Template:
    if g < 1:
        raise ValueError("commutator_product_word needs g >= 1")
    check_size(4 * g, f"letters in commutator_product{g}")
    body = product(commutator(gen(2 * i + 1), gen(2 * i + 2)) for i in range(g))
    return template_from_word(body, f"commutator_product{g}")


def grope_word(n: int) -> Template:
    if n < 1:
        raise ValueError("grope_word needs n >= 1")
    check_size(8 * n + 2, f"letters in grope{n}")
    inner = product(commutator(gen(2 * i + 2), gen(2 * i + 3)) for i in range(n))
    return template_from_word(commutator(gen(1), inner), f"grope{n}")


def gamma_index(t: Template) -> int | None:
    """``n`` when ``t`` is structurally ``gamma_word(n)``, else ``None``."""
    if t.body is None:
        return None
    n = 1
    while 3 * 2 ** (n - 1) - 2 <= len(t.body):  # the length of gamma_word(n)
        if gamma_word(n).body == t.body:
            return n
        n += 1
    return None


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
