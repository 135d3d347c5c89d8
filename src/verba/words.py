"""Freely reduced words over a countable alphabet of generators.

A word is an immutable sequence of letters.  Each letter is stored as one
non-negative int, its *code*: ``2i`` for the generator ``x_i`` and ``2i + 1``
for ``x_i^-1`` (``i >= 1``).  The inverse of a letter is then ``c ^ 1`` and its
generator ``c >> 1``, so reduction, multiplication, inversion and
substitution compare and build ints, with no 2-tuple made per letter.
Every ``Word`` is freely reduced at construction time, so equality of words is
equality in the free group and the empty word is the identity.

The public constructor still takes ``(index, sign)`` pairs, with ``index >= 1``
and ``sign`` either ``+1`` or ``-1``, and ``Word.letters`` gives them back as a
read-only view built on each read; the package itself reads ``Word.codes``.
A letter is ``2i + 1`` and not ``-i`` because CPython hashes ``-1`` as ``-2``:
with signed indices ``x1^-1`` and ``x2^-1`` would share a hash in every dict
keyed by letter, such as the printer's table of letter texts.

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


def _reduce(codes: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for code in codes:
        if stack and stack[-1] == code ^ 1:
            stack.pop()
        else:
            stack.append(code)
    return tuple(stack)


def _seam(left: Sequence[int], right: Sequence[int]) -> int:
    """How many letters cancel where reduced ``left`` meets reduced ``right``."""
    if not (left and right and left[-1] ^ right[0] == 1):
        return 0  # most seams cancel nothing
    k, top = 1, min(len(left), len(right))
    while k < top and left[-1 - k] ^ right[k] == 1:
        k += 1
    return k


def _inverse_codes(codes: Sequence[int]) -> tuple[int, ...]:
    """The codes of the inverse word: reversed, each letter inverted."""
    return tuple([code ^ 1 for code in reversed(codes)])


@dataclass(frozen=True, init=False)
class Word:
    """A freely reduced word; construct via ``gen``, operators, or ``grammar.parse``."""

    # by hand: with ``slots=True``, Python 3.11 raises TypeError, not
    # FrozenInstanceError, on assigning a name that is no field, such as ``letters``
    __slots__ = ("codes",)
    codes: tuple[int, ...]

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        codes = []
        for index, sign in letters:
            if not (isinstance(index, int) and index >= 1 and sign in (1, -1)):
                raise ValueError(f"bad letter {(index, sign)!r}")
            codes.append(2 * index if sign == 1 else 2 * index + 1)
        object.__setattr__(self, "codes", _reduce(codes))

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The letters as ``(index, sign)`` pairs, made on each read."""
        return tuple(self)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return ((code >> 1, -1 if code & 1 else 1) for code in self.codes)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        left, right = self.codes, other.codes
        k = _seam(left, right)
        return _reduced(left[: len(left) - k] + right[k:])

    def __pow__(self, n: int) -> "Word":
        if not isinstance(n, int):
            return NotImplemented
        return power(self, n)

    @property
    def is_identity(self) -> bool:
        return not self.codes

    def inverse(self) -> "Word":
        return _reduced(_inverse_codes(self.codes))

    def generators(self) -> tuple[int, ...]:
        return tuple(sorted({code >> 1 for code in self.codes}))

    def __repr__(self) -> str:
        from . import grammar

        return f"Word({grammar.format_word(self)!r})"

    def __reduce__(self):
        # the frozen ``__setattr__`` refuses the default restore of a slot
        return _reduced, (self.codes,)


def _reduced(codes: tuple[int, ...]) -> Word:
    """A ``Word`` of letter codes already known to be valid and freely reduced."""
    word = object.__new__(Word)
    object.__setattr__(word, "codes", codes)
    return word


EMPTY = Word()


def gen(index: int) -> Word:
    """The length-one word for generator ``index`` (1-based)."""
    return Word(((index, 1),))


def _shell_length(codes: tuple[int, ...]) -> int:
    """Length of ``s`` in ``s c s^-1``, with ``c`` cyclically reduced."""
    head = 0
    while head < len(codes) - head - 1 and codes[head] == codes[-1 - head] ^ 1:
        head += 1
    return head


def power_length(w: Word, n: int) -> int:
    """``len(power(w, n))``, without building the power."""
    if n == 0 or not w:
        return 0
    head = _shell_length(w.codes)
    return 2 * head + (len(w) - 2 * head) * abs(n)


def power(w: Word, n: int) -> Word:
    """``w`` raised to an integer power (negative powers invert)."""
    if n < 0:
        w, n = w.inverse(), -n
    if n == 0 or not w:
        return EMPTY
    # Strip the conjugating shell once so repetition only cancels at the seam.
    codes = w.codes
    head = _shell_length(codes)
    shell = codes[:head]
    core = codes[head : len(codes) - head]
    check_size(2 * head + len(core) * n, "letters")
    # ``core`` is cyclically reduced, so its repetitions do not cancel.
    return _reduced(shell + core * n + _inverse_codes(shell))


def product(words: Iterable[Word]) -> Word:
    """``w1 * w2 * ...`` in one pass, cancelling only at each seam."""
    stack: list[int] = []
    for w in words:
        k = _seam(stack, w.codes)
        del stack[len(stack) - k :]
        stack.extend(w.codes[k:])
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
    table = {code: _reduced((code,)) for code in set(w.codes)}
    for index, image in images.items():
        table[2 * index] = image
        table[2 * index + 1] = image.inverse()
    return product(map(table.__getitem__, w.codes))


def abelianization(w: Word) -> dict[int, int]:
    """Exponent sum of each generator, omitting zero entries."""
    sums: dict[int, int] = {}
    for code in w.codes:
        index = code >> 1
        sums[index] = sums.get(index, 0) + (-1 if code & 1 else 1)
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
    for code in w.codes:
        if code >> 1 > top:
            if code >> 1 != top + 1:
                break
            top += 1
    else:
        return w
    codes = {}
    for n, index in enumerate(dict.fromkeys(code >> 1 for code in w.codes), 1):
        codes[2 * index], codes[2 * index + 1] = 2 * n, 2 * n + 1
    # a bijection of generators keeps the word reduced
    return _reduced(tuple(map(codes.__getitem__, w.codes)))
