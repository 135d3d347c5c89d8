"""Freely reduced words over a countable alphabet of generators.

A word is an immutable sequence of letters; a letter is ``(index, sign)``
with ``index >= 1`` and ``sign`` either ``+1`` or ``-1``.  Every ``Word`` is
freely reduced at construction time, so equality of words is equality in the
free group and the empty word is the identity.

Conventions used throughout the package:

* ``conjugate(w, t)`` is ``t * w * t.inverse()``, written ``w ^ t`` in the
  expression grammar, so ``conjugate(conjugate(w, u), v) == conjugate(w, v * u)``.
* ``commutator(a, b)`` is ``a * b * a.inverse() * b.inverse()``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ResourceBudgetError

Letter = tuple[int, int]

#: Most letters ``power`` builds into one word, most factors or letters a
#: rewrite rule such as ``square_to_gamma3`` builds into one certificate, and
#: most points ``cover.boundary_cover`` permutes; ``ResourceBudgetError`` is
#: raised before anything larger is built.
SIZE_BUDGET = 10**7


def check_size(count: int, what: str) -> None:
    """Raise ``ResourceBudgetError`` when ``count`` exceeds ``SIZE_BUDGET``."""
    if count > SIZE_BUDGET:
        raise ResourceBudgetError(f"{count} {what} exceed the size budget of {SIZE_BUDGET}")


def check_power_size(base: int, n: int, what: str) -> None:
    """``check_size(base**n, what)`` for ``base >= 2``, without forming the
    power when ``n`` alone puts it past ``SIZE_BUDGET``."""
    if n >= SIZE_BUDGET.bit_length() or base**n > SIZE_BUDGET:
        raise ResourceBudgetError(f"{base}^{n} {what} exceed the size budget of {SIZE_BUDGET}")


def _reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for index, sign in letters:
        if stack and stack[-1][0] == index and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((index, sign))
    return tuple(stack)


def _seam(left: Sequence[Letter], right: Sequence[Letter]) -> int:
    """How many letters cancel where reduced ``left`` meets reduced ``right``."""
    k, top = 0, min(len(left), len(right))
    while k < top and left[-1 - k][0] == right[k][0] and left[-1 - k][1] == -right[k][1]:
        k += 1
    return k


@dataclass(frozen=True, slots=True)
class Word:
    """A freely reduced word; construct via ``gen``, operators, or ``grammar.parse``."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        for index, sign in self.letters:
            if not (isinstance(index, int) and index >= 1 and sign in (1, -1)):
                raise ValueError(f"bad letter {(index, sign)!r}")
        reduced = _reduce(self.letters)
        if reduced != self.letters:
            object.__setattr__(self, "letters", reduced)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left, right = self.letters, other.letters
        k = _seam(left, right)
        return _reduced(left[: len(left) - k] + right[k:])

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> "Word":
        return _reduced(tuple((i, -s) for i, s in reversed(self.letters)))

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _ in self.letters}))

    def __repr__(self) -> str:
        from . import grammar

        return f"Word({grammar.format_word(self)!r})"


def _reduced(letters: tuple[Letter, ...]) -> Word:
    """A ``Word`` of letters already known to be valid and freely reduced."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


EMPTY = Word()


def gen(index: int) -> Word:
    """The length-one word for generator ``index`` (1-based)."""
    return Word(((index, 1),))


def _shell_length(letters: tuple[Letter, ...]) -> int:
    """Length of ``s`` in ``s c s^-1``, with ``c`` cyclically reduced."""
    head = 0
    while head < len(letters) - head - 1 and letters[head] == (
        letters[-1 - head][0],
        -letters[-1 - head][1],
    ):
        head += 1
    return head


def power_length(w: Word, n: int) -> int:
    """``len(power(w, n))``, without building the power."""
    if n == 0 or not w:
        return 0
    head = _shell_length(w.letters)
    return 2 * head + (len(w) - 2 * head) * abs(n)


def power(w: Word, n: int) -> Word:
    """``w`` raised to an integer power (negative powers invert)."""
    if n < 0:
        w, n = w.inverse(), -n
    if n == 0 or not w:
        return EMPTY
    # Strip the conjugating shell once so repetition only cancels at the seam.
    letters = w.letters
    head = _shell_length(letters)
    shell = letters[:head]
    core = letters[head : len(letters) - head]
    check_size(2 * head + len(core) * n, "letters")
    # ``core`` is cyclically reduced, so its repetitions do not cancel.
    return _reduced(shell + core * n + tuple((i, -s) for i, s in reversed(shell)))


def product(words: Iterable[Word]) -> Word:
    """``w1 * w2 * ...`` in one pass, cancelling only at each seam."""
    stack: list[Letter] = []
    for w in words:
        k = _seam(stack, w.letters)
        del stack[len(stack) - k :]
        stack.extend(w.letters[k:])
    return _reduced(tuple(stack))


def conjugate(w: Word, t: Word) -> Word:
    """``t * w * t**-1``."""
    return t * w * t.inverse()


def commutator(a: Word, b: Word) -> Word:
    """``a * b * a**-1 * b**-1``."""
    return a * b * a.inverse() * b.inverse()


def substitute(w: Word, images: Mapping[int, Word]) -> Word:
    """Apply the endomorphism sending generator ``i`` to ``images[i]``.

    Generators absent from ``images`` are fixed.
    """
    table = {letter: _reduced((letter,)) for letter in set(w.letters)}
    for index, image in images.items():
        table[index, 1] = image
        table[index, -1] = image.inverse()
    return product(map(table.__getitem__, w.letters))


def abelianization(w: Word) -> dict[int, int]:
    """Exponent sum of each generator, omitting zero entries."""
    sums: dict[int, int] = {}
    for index, sign in w.letters:
        sums[index] = sums.get(index, 0) + sign
        if sums[index] == 0:
            del sums[index]
    return sums


def in_commutator_subgroup(w: Word) -> bool:
    """True when every generator's exponent sum vanishes."""
    return not abelianization(w)


def canonical_renumber(w: Word) -> Word:
    """Relabel generators as 1, 2, ... in order of first occurrence.

    The result is the representative of ``w`` under renaming, used to compare
    words with template bodies structurally; ``w`` itself when it is already
    numbered so.
    """
    top = 0  # the generators seen so far are 1..top while the numbering holds
    for index, _ in w.letters:
        if index > top:
            if index != top + 1:
                break
            top = index
    else:
        return w
    mapping = {index: n for n, index in enumerate(dict.fromkeys(i for i, _ in w.letters), 1)}
    # a bijection of generators keeps the word reduced
    return _reduced(tuple((mapping[index], sign) for index, sign in w.letters))
