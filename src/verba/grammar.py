"""Parsing and printing of word expressions.

Grammar (whitespace separates tokens and is otherwise ignored)::

    word := term+
    term := atom ['^' (integer | atom)]
    atom := NAME | '1' | '(' word ')' | '[' word ',' word ']'

``NAME`` is ``[A-Za-z][A-Za-z0-9_]*``.  ``x^3`` and ``x^-2`` are integer
powers; ``a^b`` with ``b`` an atom is the conjugate ``b a b^-1``.  ``'^'``
does not chain: write ``(x^2)^y``.  ``[a,b]`` is the commutator
``a b a^-1 b^-1`` and ``1`` is the identity.

Names are bound to generator indices through a ``NameTable``; parsing with a
fresh table binds names to 1, 2, ... in order of first appearance.  Printing
renders maximal runs of one generator as a single power, e.g. ``x^2 y^-1``.

A *flat* text, whitespace-separated terms ``NAME`` or ``NAME^[-]digits`` as
``format_word`` prints every word but ``1``, is read in one pass over its
terms instead of by the recursive descent.  That lane gives the same words,
binds the same names in the same order and raises the same errors as the full
parser; any other text, and so every syntax error, goes to the full parser.

No word is formed past ``words.SIZE_BUDGET`` letters: a product is refused
when its terms' letters sum past it, a commutator ``[a,b]`` at
``2(|a| + |b|)`` and a conjugate ``a^b`` at ``|a| + 2|b|``, before the letters
are formed (``ResourceBudgetError``).  The flat lane refuses the same texts,
from the sum over all its terms, so its message may name a larger count.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import eq

from .errors import ParseError, ResourceBudgetError
from .words import EMPTY, Word, _reduced, check_size, commutator, conjugate, gen, power, product

# A token, or the first stray non-space character, after optional whitespace.
_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_]*|\d+|[-^()\[\],])|(\S))")
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_CANONICAL_RE = re.compile(r"x([1-9][0-9]*)\Z")
# A term of a flat text, as ``format_word`` prints a run of one generator.
_FLAT_TERM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:\^-?\d+)?")

#: Keywords of the line-based file formats; never usable as generator names.
RESERVED_NAMES = frozenset(
    {"TARGET", "FACTOR", "CONJ", "WITNESS", "TEMPLATE", "FLAG", "COUNTS"}
)


@dataclass
class NameTable:
    """Mutable two-way binding between display names and generator indices."""

    by_name: dict[str, int] = field(default_factory=dict)
    by_index: dict[int, str] = field(default_factory=dict)

    def bind(self, name: str, index: int) -> None:
        if not _NAME_RE.match(name):
            raise ParseError(f"invalid name {name!r}")
        if name in RESERVED_NAMES:
            raise ParseError(f"{name!r} is a reserved keyword, not a generator name")
        old_index = self.by_name.get(name)
        if old_index not in (None, index):
            raise ParseError(f"name {name!r} already bound to generator {old_index}")
        old_name = self.by_index.get(index)
        if old_name not in (None, name):
            raise ParseError(f"generator {index} already named {old_name!r}")
        self.by_name[name] = index
        self.by_index[index] = name

    def index(self, name: str) -> int:
        """Index bound to ``name``, binding the next free index if new."""
        found = self.by_name.get(name)
        if found is not None:
            return found
        index = 1
        while index in self.by_index:
            index += 1
        self.bind(name, index)
        return index

    def name(self, index: int) -> str:
        """Display name for ``index``, inventing and binding one if needed."""
        found = self.by_index.get(index)
        if found is not None:
            return found
        candidate = f"x{index}"
        while candidate in self.by_name:
            candidate += "_"
        self.bind(candidate, index)
        return candidate


class CanonicalNameTable(NameTable):
    """A table where ``x<i>`` always means generator ``i``; parses canonical output."""

    def index(self, name: str) -> int:
        found = self.by_name.get(name)
        if found is not None:
            return found
        match = _CANONICAL_RE.match(name)
        if match is not None:
            index = read_decimal(match.group(1), "generator index")
            self.bind(name, index)
            return index
        return super().index(name)


def read_decimal(text: str, what: str) -> int | None:
    """The number ``text`` spells in decimal digits (what ``str.isdecimal``
    accepts), or ``None`` for any other text, which each caller reports as
    its own ``ParseError``.

    Every number in input text is read here; more digits than Python converts
    to an int raise ``ResourceBudgetError`` naming ``what``.
    """
    if not text.isdecimal():
        return None
    try:
        return int(text)
    except ValueError:  # past Python's limit on int-string conversion
        raise ResourceBudgetError(f"{what} of {len(text)} digits") from None


def read_integer(text: str, what: str) -> int | None:
    """``read_decimal`` with an optional leading ``-``; the caller judges the sign."""
    value = read_decimal(text.removeprefix("-"), what)
    return -value if value is not None and text.startswith("-") else value


def canonical_table() -> CanonicalNameTable:
    """A fresh table that resolves canonical ``x<i>`` names to index ``i``."""
    return CanonicalNameTable()


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for token, stray in _TOKEN_RE.findall(text):
        if stray:
            raise ParseError(f"unexpected character {stray!r}")
        tokens.append(token)
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], names: NameTable):
        self.tokens: list[str | None] = tokens + [None]  # None marks the end
        self.pos = 0
        self.names = names
        self.generators: dict[str, Word] = {}  # a bound name never changes index

    def peek(self) -> str | None:
        return self.tokens[self.pos]

    def take(self, expected: str) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input (expected {expected!r})")
        if tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def take_any(self, what: str) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input (expected {what})")
        self.pos += 1
        return tok

    def expression(self) -> Word:
        """The whole input, read as one word."""
        if self.peek() is None:
            raise ParseError("empty expression (use '1' for the identity)")
        result = self.word()
        if self.peek() is not None:
            raise ParseError(f"trailing input starting at {self.peek()!r}")
        return result

    def word(self) -> Word:
        terms = [self.term()]
        letters = len(terms[0])  # the product's letters are at most its terms'
        while self.peek() not in (None, ")", "]", ","):
            terms.append(self.term())
            letters += len(terms[-1])
            check_size(letters, "letters")
        return terms[0] if len(terms) == 1 else product(terms)

    def term(self) -> Word:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take("^")
        tok = self.peek()
        if tok == "-" or (tok is not None and tok.isdigit()):
            negative = tok == "-"
            if negative:
                self.take("-")
            digits = self.take_any("an exponent")
            exponent = read_decimal(digits, "exponent")
            if exponent is None:
                raise ParseError(f"expected an exponent, found {digits!r}")
            result = power(base, -exponent if negative else exponent)
        else:
            by = self.atom()
            check_size(len(base) + 2 * len(by), "letters")
            result = conjugate(base, by)
        if self.peek() == "^":
            raise ParseError("'^' does not chain; parenthesize, e.g. (x^2)^y")
        return result

    def atom(self) -> Word:
        tok = self.take_any("an atom")
        if tok == "1":
            return EMPTY
        if tok == "(":
            inner = self.word()
            self.take(")")
            return inner
        if tok == "[":
            left = self.word()
            self.take(",")
            right = self.word()
            self.take("]")
            check_size(2 * (len(left) + len(right)), "letters")
            return commutator(left, right)
        found = self.generators.get(tok)
        if found is not None:
            return found
        if _NAME_RE.match(tok):
            found = self.generators[tok] = gen(self.names.index(tok))
            return found
        raise ParseError(f"expected an atom, found {tok!r}")


def _parse_flat(text: str, names: NameTable) -> Word | None:
    """``parse`` of a flat text, or ``None`` when ``text`` is not flat.

    Each term is one run of its generator.  Distinct terms are bound and
    checked in order of first appearance, as the full parser meets them.
    When every exponent is +-1 and no two neighbouring terms name one
    generator, each term is a letter and the word is those letters;
    otherwise adjacent runs of one generator merge, so the runs left are
    reduced.
    """
    terms = text.split()  # at the whitespace ``\s`` matches in ``_TOKEN_RE``
    seen: dict[str, tuple[int, int] | None] = dict.fromkeys(terms)
    if not terms or not all(map(_FLAT_TERM_RE.fullmatch, seen)):
        return None
    generator: dict[str, int] = {}
    code: dict[str, int] = {}  # the letter code of a term of exponent +-1
    letters_only = True
    for term in seen:
        name, _, digits = term.partition("^")
        index, exponent = names.index(name), 1
        if digits:
            exponent = read_integer(digits, "exponent")
            check_size(abs(exponent), "letters")  # as ``power`` checks a term
            letters_only = letters_only and exponent in (1, -1)
        seen[term] = (index, exponent)
        generator[term] = index
        code[term] = 2 * index + (exponent < 0)
    if letters_only:
        check_size(len(terms), "letters")  # as the full parser counts the terms
        indices = list(map(generator.__getitem__, terms))
        if not any(map(eq, indices, islice(indices, 1, None))):
            return _reduced(tuple(map(code.__getitem__, terms)))
    runs: list[tuple[int, int]] = []  # nonzero exponents, neighbours differ
    letters = 0
    for term in terms:
        run = seen[term]
        letters += abs(run[1])
        if runs and runs[-1][0] == run[0]:
            exponent = runs[-1][1] + run[1]
            if exponent:
                runs[-1] = (run[0], exponent)
            else:
                runs.pop()
        elif run[1]:
            runs.append(run)
    check_size(letters, "letters")  # as the full parser counts the terms
    pieces = [(2 * index + (e < 0),) * abs(e) for index, e in runs]
    return _reduced(pieces[0] if len(pieces) == 1 else tuple(chain.from_iterable(pieces)))


def parse(text: str, names: NameTable | None = None) -> Word:
    """Parse ``text`` into a reduced ``Word``, binding new names in ``names``."""
    names = names if names is not None else NameTable()
    flat = _parse_flat(text, names)
    if flat is not None:
        return flat
    return _Parser(_tokenize(text), names).expression()


class _CanonicalTexts(dict):
    """The canonical text of each letter code, ``x<i>`` or ``x<i>^-1``, made on
    first use; cleared when it reaches ``_CANONICAL_TEXTS_BOUND`` letters."""

    def __missing__(self, code: int) -> str:
        if len(self) >= _CANONICAL_TEXTS_BOUND:
            self.clear()
        text = self[code] = f"x{code >> 1}^-1" if code & 1 else f"x{code >> 1}"
        return text


_CANONICAL_TEXTS_BOUND = 4096
_CANONICAL_TEXTS = _CanonicalTexts()
_GALLOP_STEP_CAP = 4096  # letters in the longest slice a run's length is counted in


def _run_length(codes: tuple[int, ...], start: int) -> int:
    """Length of the run of ``codes[start]`` that begins at ``start``,
    counted in slices that double, up to a cap, and then halve."""
    code = codes[start]
    run, step = 1, 1
    while codes[start + run : start + run + step].count(code) == step:
        run += step
        step = min(2 * step, _GALLOP_STEP_CAP)
    while step > 1:  # the run ends within the next ``step`` letters
        step //= 2
        if codes[start + run : start + run + step].count(code) == step:
            run += step
    return run


def format_word(w: Word, names: NameTable | None = None) -> str:
    """Render ``w`` as space-separated powers; canonical ``x<i>`` names by default.

    Names a ``names`` table lacks are invented and bound in order of first
    appearance.  A word with no two equal neighbouring letters is one term
    per letter, joined without a Python step per letter.
    """
    codes = w.codes
    if not codes:
        return "1"
    if names is None:
        texts: dict[int, str] = _CANONICAL_TEXTS
    else:
        texts = {}
        for code in dict.fromkeys(codes):
            name = names.name(code >> 1)
            texts[code] = f"{name}^-1" if code & 1 else name
    if not any(map(eq, codes, islice(codes, 1, None))):
        return " ".join(map(texts.__getitem__, codes))
    parts: list[str] = []
    start = 0
    while start < len(codes):
        code = codes[start]
        run = _run_length(codes, start)
        if run == 1:
            parts.append(texts[code])
        else:
            name = names.name(code >> 1) if names is not None else f"x{code >> 1}"
            parts.append(f"{name}^{-run if code & 1 else run}")
        start += run
    return " ".join(parts)


def canonical_key(w: Word) -> str:
    """Name-independent canonical string for ``w`` (parseable via ``canonical_table``)."""
    return format_word(w, None)
