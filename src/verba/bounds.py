"""Exact rational interval propagation for word-length quantities.

The engine tracks *facts*: intervals ``[lo, hi]`` (``hi`` may be infinite)
for quantities of four kinds, each tied to an ambient context:

* ``L <ctx> <g> | <w> @ <n>`` -- least number of ``w``-instances and inverses
  multiplying to ``g^n``;
* ``SL <ctx> <g> | <w>`` -- the stable ratio ``lim L(g,w,n)/n``;
* ``SCL <ctx> <g>`` -- the stable ratio over the basic commutator;
* ``CL <ctx> <g>`` -- plain commutator length.

Contexts: ``FREE`` (the word is the element), ``PERFECT`` (the word merely
names an element of some perfect ambient group), and ``PERFECT_SCL_ZERO``
(perfect with vanishing stable commutator lengths).

Bounds enter by seeding (``add_fact``), from verified rewrite certificates
(``add_certificate_fact``), or from finite quotients
(``add_quotient_floor``); ``propagate`` then applies a fixed catalog of
monotone rules until nothing tightens.  Every tightening is an event
recording its rule and antecedent snapshots, so ``explain`` can print the
full derivation tree and ``record_lines`` a replayable log.

Facts file format (one fact per line, ``#`` comments)::

    SCL FREE [x,y] => 1/2            # exact value
    L FREE [x,y]^2 | [x,y]^2 @ 6 = 1 5
    SL PERFECT g | gamma3 = 1/2 inf

i.e. ``=> value`` for exact, or ``= lo hi`` with ``inf`` allowed as the
upper bound.  The ``| spec`` text is read by ``templates.parse_template_spec``
(``gamma<n>``, ``beta<n>``, ``commutator_product<g>``, ``grope<n>``,
``Gamma3``, or any word expression, whose variables are bound in the spec's
own text), and the rules take their stock templates from ``templates``, which
builds each one once.  A ``Quantity`` holds its ``Template``; its key names
the template by its shape's text (``| [x1,x2]`` for ``| [a,b]``) and
``display`` by the label it was made with.

Verbal subgroups are fully invariant (H. Neumann, *Varieties of Groups*,
1967), so a ``FREE`` word is one up to renaming: its text binds its own names,
and a ``Quantity`` holds, keys and displays it renumbered by first appearance
(``[x,y]`` and ``[b,a]`` are ``x1 x2 x1^-1 x2^-1``).  A perfect context's
word stays literal and is spelt in the engine's name table.
"""
from __future__ import annotations

import enum
import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import repeat

from . import grammar, magnus
from .certificates import Certificate, FactorKind
from .errors import (
    InconsistencyError,
    ParseError,
    ResourceBudgetError,
    UnknownNameError,
    VerbaError,
)
from .templates import (
    GAMMA3_FAMILY,
    Shape,
    Template,
    beta_word,
    commutator_blocks,
    fresh_head_inner,
    gamma_index,
    gamma_word,
    parse_template_spec,
)
from .words import EMPTY, Word, canonical_renumber, in_commutator_subgroup, power, power_length

Value = int | Fraction  # an int when whole, a Fraction only with denominator > 1
Bound = Value | None  # None is +infinity (upper bounds only)
_HALF = Fraction(1, 2)
_MAX_ROUNDS = 50  # propagate gives up after this many rounds that tighten


class Context(enum.Enum):
    FREE = "FREE"
    PERFECT = "PERFECT"
    PERFECT_SCL_ZERO = "PERFECT_SCL_ZERO"


class QuantityKind(enum.Enum):
    L = "L"
    SL = "SL"
    SCL = "SCL"
    CL = "CL"


@dataclass(frozen=True)
class Quantity:
    kind: QuantityKind
    context: Context
    word: Word
    template: Template | None = None
    exponent: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (QuantityKind.L, QuantityKind.SL):
            if self.template is None:
                raise ValueError(f"{self.kind.value} quantities need a template")
        else:
            if self.template is not None:
                raise ValueError(f"{self.kind.value} quantities take no template")
        if self.kind is QuantityKind.L:
            exponent = self.exponent if self.exponent is not None else 1
            if exponent < 1:
                raise ValueError("L quantities need exponent >= 1")
            object.__setattr__(self, "exponent", exponent)
        elif self.exponent is not None:
            raise ValueError(f"{self.kind.value} quantities take no exponent")
        object.__setattr__(self, "word", _keyed_word(self.context, self.word))
        parts = [self.kind.value, self.context.value, grammar.canonical_key(self.word)]
        if self.template is not None:
            parts.append(f"| {self.template.key}")
        if self.kind is QuantityKind.L:
            parts.append(f"@ {self.exponent}")
        # built once; not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_key", " ".join(parts))

    def key(self) -> str:
        return self._key


def _keyed_word(context: Context, word: Word) -> Word:
    """``word`` as a quantity in ``context`` holds it: up to renaming in ``FREE``."""
    return canonical_renumber(word) if context is Context.FREE else word


def _parse_free_word(text: str) -> Word:
    """A ``FREE`` word text in its own names; ``canonical_renumber`` numbers them."""
    return grammar.parse(text, grammar.NameTable())


@dataclass(frozen=True)
class Antecedent:
    """Snapshot of a fact at the moment it justified an event."""

    key: str
    lo: Value
    hi: Bound
    lo_event: int | None
    hi_event: int | None


@dataclass(frozen=True)
class Event:
    id: int
    side: str  # "lo" or "hi"
    quantity_key: str
    value: Value
    provenance: str  # SEED / CERTIFICATE / QUOTIENT / RULE
    rule: str | None
    label: str
    antecedents: tuple[Antecedent, ...] = ()


@dataclass
class Fact:
    quantity: Quantity
    lo: Value = 0
    hi: Bound = None
    lo_event: int | None = None
    hi_event: int | None = None


def _fmt_bound(value: Bound) -> str:
    return "inf" if value is None else str(value)


def _exact(value: Value) -> Value:
    """``value`` as the engine holds it: an int when whole, else a Fraction.

    Ints compare and add at C speed; a float, inexact by nature, is refused.
    """
    if type(value) is int:
        return value
    if type(value) is Fraction:
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"a bound is an int or a Fraction, not {type(value).__name__}")


def _div(a: Value, b: Value) -> Value:
    """``a / b`` exactly: the int quotient when ints divide, else a Fraction.

    The one division of the rule catalog, where ``int / int`` would be a float.
    """
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _exact(Fraction(a, b))


def _parse_bound(token: str, allow_inf: bool) -> Bound:
    if token == "inf":
        if not allow_inf:
            raise ParseError("only upper bounds may be infinite")
        return None
    numerator, slash, denominator = token.partition("/")
    p = grammar.read_decimal(numerator, "bound")
    q = grammar.read_decimal(denominator, "bound") if slash else 1
    if p is None or not q:  # not decimal digits, or a zero denominator
        raise ParseError(f"bad rational {token!r}")
    return _exact(Fraction(p, q)) if slash else p


def _parse_seeds(text: str) -> tuple:
    """The ``_parse_facts`` rows of ``text``, every one ``FREE``: a perfect
    context's word would bind names in the engine that parsed it."""
    seeds = tuple(BoundEngine()._parse_facts(text))
    for lineno, quantity, *_ in seeds:
        if quantity.context is not Context.FREE:
            context = quantity.context.value
            raise ParseError(f"facts line {lineno}: a default seed must be FREE, not {context}")
    return seeds


@functools.cache
def _default_seeds() -> tuple:
    """``data/seed.facts``, parsed once per process; its quantities are frozen."""
    return _parse_seeds(resources.files("verba").joinpath("data/seed.facts").read_text())


class BoundEngine:
    """Holds declared quantities, their intervals, and the event log."""

    def __init__(self) -> None:
        self.names = grammar.canonical_table()
        self.facts: dict[str, Fact] = {}
        self.events: list[Event] = []
        # (parser, text) -> parsed word or template; names are only ever added
        # to self.names, so a word text that parsed once parses the same way again
        self._parsed: dict[tuple, Word | Template] = {}

    # -- declaration and parsing -------------------------------------------

    def parse_quantity(self, text: str) -> Quantity:
        head, _, exp_part = text.partition("@")
        head, _, template_part = head.partition("|")
        tokens = head.split(None, 2)
        if len(tokens) != 3:
            raise ParseError(f"quantity needs '<kind> <context> <word>': {text!r}")
        try:
            kind = QuantityKind(tokens[0])
        except ValueError:
            raise ParseError(f"unknown quantity kind {tokens[0]!r}") from None
        try:
            context = Context(tokens[1])
        except ValueError:
            raise ParseError(f"unknown context {tokens[1]!r}") from None
        if context is Context.FREE:
            word = self._parse_once(_parse_free_word, tokens[2])
        else:
            word = self._parse_once(grammar.parse, tokens[2], self.names)
        template = None
        if template_part.strip():
            template = self._parse_once(parse_template_spec, template_part)
        exponent = None
        exp_text = exp_part.strip()
        if exp_text:
            exponent = grammar.read_integer(exp_text, "exponent")
            if exponent is None:
                raise ParseError(f"bad exponent {exp_text!r}")
        try:
            return Quantity(kind, context, word, template, exponent)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def _parse_once(self, parse, text: str, *args):
        """``parse(text, *args)``, once per text; a text that fails is not stored."""
        key = (parse, text)
        parsed = self._parsed.get(key)
        if parsed is None:
            parsed = self._parsed[key] = parse(text, *args)
        return parsed

    def declare(self, quantity: Quantity | str) -> Quantity:
        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        self.facts.setdefault(quantity.key(), Fact(quantity))
        return quantity

    def display(self, quantity: Quantity) -> str:
        names = None if quantity.context is Context.FREE else self.names
        parts = [
            quantity.kind.value,
            quantity.context.value,
            grammar.format_word(quantity.word, names),
        ]
        if quantity.template is not None:
            parts.append(f"| {quantity.template.label}")
        if quantity.kind is QuantityKind.L:
            parts.append(f"@ {quantity.exponent}")
        return " ".join(parts)

    def _declared(self, quantity: Quantity | str) -> tuple[Quantity, Fact]:
        """``quantity``, parsed when a text, and its fact; it must be declared."""
        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        fact = self.facts.get(quantity.key())
        if fact is None:
            raise UnknownNameError(f"quantity {quantity.key()!r} is not declared")
        return quantity, fact

    def interval(self, quantity: Quantity | str) -> tuple[Value, Bound]:
        _, fact = self._declared(quantity)
        return fact.lo, fact.hi

    # -- fact entry ---------------------------------------------------------

    def add_fact(
        self,
        quantity: Quantity | str,
        lo: Value | None = None,
        hi: Value | None = None,
        provenance: str = "SEED",
        label: str = "",
    ) -> Quantity:
        quantity = self.declare(quantity)
        fact = self.facts[quantity.key()]
        if lo is not None:
            self._tighten(quantity, fact, "lo", lo, None, label, (), provenance)
        if hi is not None:
            self._tighten(quantity, fact, "hi", hi, None, label, (), provenance)
        return quantity

    def add_certificate_fact(
        self,
        base: Word,
        template: Template,
        exponent: int,
        cert: Certificate,
        label: str = "",
    ) -> Quantity:
        """Record ``L(base, template, exponent) <= #factors`` from ``cert``.

        The certificate must verify and every factor must visibly be an
        instance (or inverse of an instance, possibly conjugated -- both
        preserve membership) of ``template``.
        """
        cert.check()
        if power(base, exponent) != cert.target:
            raise VerbaError("certificate target is not the declared power")
        for factor in cert.factors:
            if not _factor_matches_template(factor, template):
                raise VerbaError(
                    f"factor {factor.kind_token()} is not a visible"
                    f" {template.label} instance"
                )
        quantity = Quantity(QuantityKind.L, Context.FREE, base, template, exponent)
        return self.add_fact(
            quantity, hi=len(cert.factors), provenance="CERTIFICATE", label=label
        )

    def add_quotient_floor(
        self, quantity: Quantity | str, group, images: dict[int, int]
    ) -> int | None:
        """Lower-bound an ``L`` or ``CL`` quantity through a finite quotient.

        Lengths never increase under homomorphisms, so the length of the
        image is a floor.  ``images`` maps the generators of ``quantity.word``,
        which ``FREE`` numbers by first appearance, to group elements.
        Returns the image length, or ``None`` when the
        image is not a product of template values at all (in which case no
        finite fact is added -- the quantity is infinite and any finite upper
        bound would be inconsistent, which ``add_fact`` would surface).
        """
        from . import finite

        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        if quantity.kind is QuantityKind.L:
            word = power(quantity.word, quantity.exponent or 1)
            template = quantity.template
        elif quantity.kind is QuantityKind.CL:
            word = quantity.word
            template = gamma_word(2)
        else:
            raise VerbaError("quotient floors apply to L and CL quantities")
        value = finite.quotient_length(word, template, group, images)
        if value is None:
            return None
        fact = self.facts[self.declare(quantity).key()]
        label = f"image length in {group.spec}"
        self._tighten(quantity, fact, "lo", value, None, label, (), "QUOTIENT")
        return value

    # -- facts files ---------------------------------------------------------

    def load_facts(self, text: str) -> int:
        return self._add_facts(self._parse_facts(text))

    def load_default_seeds(self) -> int:
        return self._add_facts(_default_seeds())

    def _parse_facts(self, text: str):
        """``(line number, quantity, lo, hi, label)`` for each fact of ``text``, parsed
        as it is asked for, so a file's names bind and its errors rise in line order."""
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                quantity, lo, hi = self._parse_fact_line(line)
            except VerbaError as exc:
                exc.args = (f"facts line {lineno}: {exc}",)
                raise
            yield lineno, quantity, lo, hi, raw.partition("#")[2].strip()

    def _add_facts(self, rows) -> int:
        count = 0
        for lineno, quantity, lo, hi, label in rows:
            try:
                # a lower bound of 0 tightens nothing and records no event
                self.add_fact(quantity, lo, hi, "SEED", label)
            except VerbaError as exc:
                # keep the error's class, so a budget still exits 3 and a contradiction 1
                exc.args = (f"facts line {lineno}: {exc}",)
                raise
            count += 1
        return count

    def _parse_fact_line(self, line: str) -> tuple[Quantity, Value, Bound]:
        if "=>" in line:
            quantity_text, _, value_text = line.partition("=>")
            lo = hi = _parse_bound(value_text.strip(), allow_inf=False)
        elif "=" in line:
            quantity_text, _, value_text = line.partition("=")
            tokens = value_text.split()
            if len(tokens) != 2:
                raise ParseError("expected '= <lo> <hi>' (or '=> <value>')")
            lo = _parse_bound(tokens[0], allow_inf=False)
            hi = _parse_bound(tokens[1], allow_inf=True)
        else:
            raise ParseError("facts line needs '=' or '=>'")
        return self.parse_quantity(quantity_text.strip()), lo, hi

    # -- tightening and the event log ---------------------------------------

    def _tighten(
        self,
        quantity: Quantity,
        fact: Fact,
        side: str,
        value: Value,
        rule: str | None,
        label: str,
        antecedents: tuple[Fact, ...],
        provenance: str,
    ) -> bool:
        """Tighten ``fact``, the fact of ``quantity``, which names it in a contradiction."""
        value = _exact(value)
        if side == "lo":
            if value <= fact.lo:
                return False
        elif fact.hi is not None and value >= fact.hi:
            return False
        event = Event(
            id=len(self.events),
            side=side,
            quantity_key=quantity.key(),
            value=value,
            provenance=provenance,
            rule=rule,
            label=label,
            antecedents=tuple(
                Antecedent(a.quantity.key(), a.lo, a.hi, a.lo_event, a.hi_event)
                for a in antecedents
            ),
        )
        self.events.append(event)
        if side == "lo":
            fact.lo = value
            fact.lo_event = event.id
        else:
            fact.hi = value
            fact.hi_event = event.id
        if fact.hi is not None and fact.lo > fact.hi:
            raise InconsistencyError(
                f"contradiction on {self.display(quantity)}:"
                f" lower bound {fact.lo} exceeds upper bound {fact.hi}",
                trace=self.explain(quantity),
            )
        return True

    # -- propagation ----------------------------------------------------------

    def propagate(self) -> int:
        """Apply the rule catalog to a fixed point; returns tightenings made."""
        total = 0
        facts = _FactIndex([self.facts[key] for key in sorted(self.facts)])
        for _ in range(_MAX_ROUNDS):
            changed = 0
            for rule in _RULES:
                for fact, *proposal in rule(facts):
                    changed += self._tighten(fact.quantity, fact, *proposal, "RULE")
            total += changed
            if changed == 0:
                return total
        raise VerbaError(f"propagation did not stabilize in {_MAX_ROUNDS} rounds")

    # -- reporting -------------------------------------------------------------

    def explain(self, quantity: Quantity | str) -> str:
        quantity, fact = self._declared(quantity)
        lines = [f"{self.display(quantity)} = {_explained_interval(fact.lo, fact.hi)}"]
        seen: set[int] = set()
        for side, event_id in (("lo", fact.lo_event), ("hi", fact.hi_event)):
            if event_id is None:
                bound = fact.lo if side == "lo" else fact.hi
                lines.append(f"  {side} {_fmt_bound(bound)}: default")
            else:
                self._explain_event(event_id, 1, lines, seen)
        return "\n".join(lines)

    def _explain_event(self, event_id: int, depth: int, lines: list[str], seen: set[int]) -> None:
        event = self.events[event_id]
        pad = "  " * depth
        source = event.provenance if event.rule is None else f"{event.provenance} {event.rule}"
        note = f"  # {event.label}" if event.label else ""
        lines.append(f"{pad}{event.side} {event.value} by {source}{note}")
        if event_id in seen:
            if event.antecedents:
                lines.append(f"{pad}  (derivation shown above)")
            return
        seen.add(event_id)
        for antecedent in event.antecedents:
            lines.append(
                f"{pad}  from {antecedent.key} = "
                f"{_explained_interval(antecedent.lo, antecedent.hi)}"
            )
            for sub_id in (antecedent.lo_event, antecedent.hi_event):
                if sub_id is not None:
                    self._explain_event(sub_id, depth + 2, lines, seen)

    def record_lines(self) -> list[str]:
        """One machine-readable line per event: FACT ... RULE ... FROM ..."""
        lines = []
        for event in self.events:
            refs = ";".join(
                f"{a.key}=[{a.lo},{_fmt_bound(a.hi)}]" for a in event.antecedents
            )
            source = event.rule if event.rule is not None else event.provenance
            label = f" # {event.label}" if event.label else ""
            lines.append(
                f"FACT {event.quantity_key} {event.side} {event.value}"
                f" RULE {source} FROM {refs or '-'}{label}"
            )
        return lines


def format_interval(lo: Value, hi: Bound) -> str:
    """``[lo, hi]``, with ``inf`` for an infinite upper bound."""
    return f"[{lo}, {_fmt_bound(hi)}]"


def _explained_interval(lo: Value, hi: Bound) -> str:
    if hi is not None and lo == hi:
        return f"{lo} (exact)"
    return format_interval(lo, hi)


def _factor_matches_template(factor, template: Template) -> bool:
    """Is the factor visibly an instance of ``template`` (up to conj/inverse)?

    Conjugating an instance conjugates each witness image, and inverses count
    in length bookkeeping, so the conjugator and inversion flag are ignored.
    """
    if template.key == GAMMA3_FAMILY.key:
        if factor.kind is FactorKind.GAMMA_N_WORD and factor.template is not None:
            return len(factor.template.variables) == 3
        if factor.kind is FactorKind.BETA2_WORD:
            return True
        if factor.kind is FactorKind.COMMUTATOR and factor.witness is not None:
            return in_commutator_subgroup(factor.witness[2])
        return False
    return factor.template is not None and factor.template.key == template.key


# ---------------------------------------------------------------------------
# the rule catalog
#
# Every rule is a function of a ``_FactIndex`` alone, which holds all the
# facts in key order, those of one kind through ``of``, and each by the fields
# of its quantity: one partner through ``find``, the L facts that rules pair up
# through ``ladder`` and ``same_power``.  No rule adds a fact, so the index
# holds for the whole ``propagate`` call; it holds the ``Fact`` objects
# themselves, so a rule reads the bounds tightened before it.
#
# A rule yields proposals (fact, side, value, rule id, note, antecedent facts)
# naming the facts it read, so none is looked up again.  Values are exact:
# ints where whole and Fractions otherwise, every quotient taken by ``_div``
# and every value normalised by ``_tighten`` through ``_exact``.  An
# upper-bound product with an infinite input is skipped unless the other side
# is zero (length zero forces the identity, whose length is zero over anything).

class _FactIndex:
    """The facts in key order, by kind, by their quantities' fields, and SCL word lengths.

    Kinds and contexts enter keys as their values, read from ``_value_``, a
    plain attribute: a member's own ``__hash__`` and ``value`` run Python code
    in ``enum.py`` on every lookup."""

    _L = QuantityKind.L._value_

    def __init__(self, facts: list[Fact]) -> None:
        self._facts = facts
        self._by_kind: dict[str, list[Fact]] = {kind._value_: [] for kind in QuantityKind}
        # (kind, context, word, template key) -> {exponent: fact}, in key order,
        # the exponent None but for L; a template is keyed by its key, as it hashes
        self._by_fields: dict[tuple, dict[int | None, Fact]] = {}
        # (context, word, exponent) -> L facts over every template, in key order
        self._same_power: dict[tuple, list[Fact]] = {}
        for fact in facts:
            q = fact.quantity
            kind, context = q.kind._value_, q.context._value_
            self._by_kind[kind].append(fact)
            fields = (kind, context, q.word, None if q.template is None else q.template.key)
            self._by_fields.setdefault(fields, {})[q.exponent] = fact
            if kind == self._L:
                self._same_power.setdefault((context, q.word, q.exponent), []).append(fact)
        self.scl_lengths = {len(f.quantity.word) for f in self.of(QuantityKind.SCL)}

    def __iter__(self):
        return iter(self._facts)

    def of(self, kind: QuantityKind) -> list[Fact]:
        """The facts of quantities of ``kind``, in key order."""
        return self._by_kind[kind._value_]

    def find(
        self,
        kind: QuantityKind,
        context: Context,
        word: Word,
        template: Template | None = None,
        exponent: int | None = None,
    ) -> Fact | None:
        """The fact of the quantity with these fields, or ``None`` when it is not declared."""
        template_key = None if template is None else template.key
        key = (kind._value_, context._value_, _keyed_word(context, word), template_key)
        return self._by_fields.get(key, {}).get(exponent)

    def ladder(self, context: Context, word: Word, template_key: str) -> dict[int, Fact]:
        """The L facts over ``template_key`` of the powers of ``word``, by exponent."""
        return self._by_fields.get((self._L, context._value_, word, template_key), {})

    def same_power(self, context: Context, word: Word, exponent: int) -> list[Fact]:
        """The L facts of ``word ** exponent`` over every template."""
        return self._same_power.get((context._value_, word, exponent), [])

    def sl_of(self, context: Context, word: Word) -> list[Fact]:
        """The SL facts of ``word`` over every template, in key order."""
        return self._sl_by_word.get((context._value_, word), [])

    def l_of_length(self, context: Context, length: int) -> list[Fact]:
        """The L facts whose power of their word has ``length`` letters, in key order."""
        return self._l_by_length.get((context._value_, length), [])

    # R2's partners, indexed at R2's first target: a call with no SCL fact measures no power

    @functools.cached_property
    def _sl_by_word(self) -> dict[tuple, list[Fact]]:
        by_word: dict[tuple, list[Fact]] = {}
        for fact in self.of(QuantityKind.SL):
            by_word.setdefault((fact.quantity.context._value_, fact.quantity.word), []).append(fact)
        return by_word

    @functools.cached_property
    def _l_by_length(self) -> dict[tuple, list[Fact]]:
        by_length: dict[tuple, list[Fact]] = {}
        for fact in self.of(QuantityKind.L):
            q = fact.quantity
            key = (q.context._value_, power_length(q.word, q.exponent))
            by_length.setdefault(key, []).append(fact)
        return by_length


def _mul_hi(a: Bound, b: Bound) -> Bound:
    if a == 0 or b == 0:
        return 0
    if a is None or b is None:
        return None
    return a * b


def _body_template(q: Quantity) -> Template | None:
    """The template of ``q`` when it has a body word, else ``None``."""
    if q.template is None or q.template.letters is None:
        return None
    return q.template


def _template_scl(facts: _FactIndex, q: Quantity) -> Fact | None:
    """The ``SCL FREE`` fact of ``q``'s template body when it has an upper bound, else ``None``."""
    template = _body_template(q)
    if template is None or template.letters not in facts.scl_lengths:
        return None  # no SCL word is as long as the body, which stays unspelled
    base = facts.find(QuantityKind.SCL, Context.FREE, template.body)
    return None if base is None or base.hi is None else base


def _linked(inner: Fact, outer: Fact, c: int, rule: str, note: str):
    """The four proposals of ``outer <= inner <= c * outer``, inner side first."""
    if outer.hi is not None:
        yield (inner, "hi", c * outer.hi, rule, note, [outer])
    yield (inner, "lo", outer.lo, rule, note, [outer])
    if inner.hi is not None:
        yield (outer, "hi", inner.hi, rule, note, [inner])
    yield (outer, "lo", _div(inner.lo, c), rule, note, [inner])


def _rule_trivial(facts: _FactIndex):
    for fact in facts:
        q = fact.quantity
        if q.word == EMPTY:
            yield (fact, "hi", 0, "R0", "the identity has length zero", [])
        elif q.kind is QuantityKind.L and q.context is Context.FREE:
            yield (fact, "lo", 1, "R0", "a nontrivial word needs at least one factor", [])


def _rule_integrality(facts: _FactIndex):
    for fact in facts:
        if fact.quantity.kind not in (QuantityKind.L, QuantityKind.CL):
            continue
        note = "factor counts are whole numbers"
        if fact.hi is not None and fact.hi.denominator != 1:
            yield (fact, "hi", math.floor(fact.hi), "R0", note, [])
        if fact.lo.denominator != 1:
            yield (fact, "lo", math.ceil(fact.lo), "R0", note, [])


def _rule_compose(facts: _FactIndex):
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        for mid in facts.same_power(tq.context, tq.word, tq.exponent):
            mq = mid.quantity
            if mq.template.key == tq.template.key or mid.hi is None:
                continue
            mid_template = _body_template(mq)
            if mid_template is None:
                continue
            bridge = facts.find(QuantityKind.L, Context.FREE, mid_template.body, tq.template, 1)
            if bridge is None:
                continue
            value = _mul_hi(mid.hi, bridge.hi)
            if value is None:
                continue
            yield (
                target,
                "hi",
                value,
                "R1",
                "rewrite each factor through the second template",
                [mid, bridge],
            )


def _rule_scl_bridge(facts: _FactIndex):
    for target in facts.of(QuantityKind.SCL):
        tq = target.quantity
        for sl in facts.sl_of(tq.context, tq.word):
            if sl.hi is None:
                continue
            base = _template_scl(facts, sl.quantity)
            if base is None:
                continue
            if base is not target:
                value = sl.hi * (base.hi + _HALF)
            elif sl.hi < 1:  # scl <= sl * (scl + 1/2) at its fixed point
                value = _div(sl.hi, 2 * (1 - sl.hi))
            else:
                continue  # sl * (scl + 1/2) is never below scl
            yield (
                target,
                "hi",
                value,
                "R2",
                "stable factors each cost their own stable commutator length"
                " plus a half for joining",
                [sl, base],
            )
        for lf in facts.l_of_length(tq.context, len(tq.word)):
            lq = lf.quantity  # only a power as long as the target is built to compare
            if lf.hi is None or power(lq.word, lq.exponent) != tq.word:
                continue
            base = _template_scl(facts, lq)
            if base is None:
                continue
            value = max(0, lf.hi * base.hi + _div(lf.hi - 1, 2))
            yield (
                target,
                "hi",
                value,
                "R2",
                "a finite factorization bounds the stable commutator length",
                [lf, base],
            )


def _diagonal(q: Quantity) -> Template | None:
    """The template when ``q`` is ``SL(w | w)`` or ``L(w | w)``, else ``None``; both
    words are numbered by first appearance in ``FREE``, where the rules ask."""
    template = _body_template(q)
    if template is None or len(q.word) != template.letters or q.word != template.body:
        return None
    return template


def _rule_diagonal_window(facts: _FactIndex):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.FREE:
            continue
        template = _diagonal(q)
        if template is None or q.word == EMPTY:
            continue
        yield (fact, "hi", 1, "R3", "a template over itself stabilizes at one", [])
        if in_commutator_subgroup(q.word):
            note = "balanced templates over themselves stay above a half"
            yield (fact, "lo", _HALF, "R3", note, [])
        scl = facts.find(QuantityKind.SCL, Context.FREE, q.word)
        if scl is not None and scl.lo > 0:
            yield (
                fact,
                "lo",
                _div(scl.lo, scl.lo + _HALF),
                "R3",
                "the stable commutator length pushes the diagonal up",
                [scl],
            )


def _rule_power_ratio(facts: _FactIndex):
    for target in facts.of(QuantityKind.SL):
        tq = target.quantity
        for n, lf in facts.ladder(tq.context, tq.word, tq.template.key).items():
            if lf.hi is None:
                continue
            yield (
                target,
                "hi",
                _div(lf.hi, n),
                "R4",
                "any power factorization bounds the stable ratio",
                [lf],
            )


def _rule_stable_promotion(facts: _FactIndex):
    for target in facts.of(QuantityKind.SL):
        tq = target.quantity
        ladder = facts.ladder(tq.context, tq.word, tq.template.key)
        template = _body_template(tq)
        diagonal = tq.context is Context.FREE and _diagonal(tq) is not None
        diag = None
        if ladder and not diagonal and template is not None:
            diag = facts.find(QuantityKind.SL, Context.FREE, template.body, tq.template)
        for n, lf in ladder.items():
            if lf.hi is None or lf.hi < 1:
                continue
            if diagonal:
                if n >= 2:
                    yield (
                        target,
                        "hi",
                        _div(lf.hi - 1, n - 1),
                        "R5",
                        "one factor seeds the next power of the template",
                        [lf],
                    )
                continue
            if diag is None or diag.hi is None:
                continue
            yield (
                target,
                "hi",
                _div(lf.hi - 1 + diag.hi, n),
                "R5",
                "one factor of each power block is recycled into the next",
                [lf, diag],
            )


def _rule_fresh_head(facts: _FactIndex):
    for fact in facts:
        q = fact.quantity
        if q.context is not Context.FREE or _diagonal(q) is None:
            continue
        if q.kind is QuantityKind.L and (q.exponent < 3 or q.exponent % 2 == 0):
            continue
        v = fresh_head_inner(q.template)
        if v is None:
            continue
        if q.kind is QuantityKind.SL:
            inner = facts.find(QuantityKind.SL, Context.FREE, v.body, v)
            note = "a fresh head generator lets consecutive blocks pair up"
        else:
            n = (q.exponent - 1) // 2
            inner = facts.find(QuantityKind.L, Context.FREE, v.body, v, n + 1)
            note = "odd powers of a fresh-head bracket fold pairwise"
        if inner is None or inner.hi is None:
            continue
        value = _div(1 + inner.hi, 2) if q.kind is QuantityKind.SL else n + inner.hi
        yield (fact, "hi", value, "R6", note, [inner])


def _rule_chain_ceiling(facts: _FactIndex):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.FREE:
            continue
        template = _diagonal(q)
        if template is None:
            continue
        n = gamma_index(template)
        if n is None or n < 2:
            continue
        yield (
            fact,
            "hi",
            1 - Fraction(1, 2 ** (n - 1)),
            "R7",
            "nested chains over themselves stabilize below one",
            [],
        )


def _rule_perfect_comparison(facts: _FactIndex):
    """scl(g) <= sl_gamma_n(g) <= 2^(n-2) scl(g) in a perfect ambient group."""
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.PERFECT:
            continue
        template = _body_template(q)
        if template is None:
            continue
        n = gamma_index(template)
        if n is None or n < 2:
            continue
        scl = facts.find(QuantityKind.SCL, Context.PERFECT, q.word)
        if scl is None:
            continue
        yield from _linked(
            fact,
            scl,
            2 ** (n - 2),
            "R8",
            "in perfect ambient groups nested chains track commutators",
        )


def _rule_gamma3_bridge(facts: _FactIndex):
    gamma3_key = gamma_word(3).key
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.template.key != gamma3_key:
            continue
        partner = facts.find(QuantityKind.SL, q.context, q.word, GAMMA3_FAMILY)
        if partner is None:
            continue
        if q.context is Context.FREE:
            try:
                if not magnus.depth_at_least(q.word, 3):
                    continue
            except ResourceBudgetError:
                continue
        yield from _linked(
            fact, partner, 2, "R9", "any commutator-of-derived factor splits into two nested ones"
        )


def _rule_unbalanced_vanish(facts: _FactIndex):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        template = _body_template(q)
        if template is None or _balanced(template.shape):
            continue
        note = "an exponent surplus in the template absorbs powers for free"
        yield (fact, "hi", 0, "R10", note, [])


def _balanced(shape: Shape) -> bool:
    """Does every variable's exponent sum vanish in the body ``shape`` spells?"""
    if shape.op == "word":
        return in_commutator_subgroup(shape.parts[0])
    return shape.op == "commutator" or all(map(_balanced, shape.parts))


def _rule_block_division(facts: _FactIndex):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        template = _body_template(q)
        if template is None:
            continue
        blocks = commutator_blocks(template)
        if blocks is None:
            continue
        scl = facts.find(QuantityKind.SCL, q.context, q.word)
        if scl is None or scl.hi is None:
            continue
        yield (
            fact,
            "hi",
            _div(scl.hi, blocks),
            "R12",
            "disjoint commutator blocks divide the stable commutator length",
            [scl],
        )


class _SplitTable:
    """One ladder's upper bounds for power splitting (R13), by exponent, as
    the facts hold them (ints where whole; R0 floors L bounds before R13
    runs), with ``math.inf`` where infinite.  Only the ladder's own exponents
    are held, however large or far apart they are."""

    def __init__(self, ladder: dict[int, Fact]):
        self.rank = {m: i for i, m in enumerate(ladder)}  # key order
        self.rungs = sorted(ladder)
        self.hi: dict[int, int | Fraction | float] = {}
        for m, fact in ladder.items():
            self.read(m, fact)

    def read(self, m: int, fact: Fact) -> None:
        self.hi[m] = math.inf if fact.hi is None else fact.hi

    def splits(self, n: int) -> list[int]:
        """The parts ``a`` of the splits ``(a, n-a)`` to sum for ``n``, in key order.

        A split and its mirror ``(n-a, a)`` are one sum, taken at the part
        earlier in key order.  None is summed when even the least sum is not
        below ``hi[n]``: no split could tighten it.
        """
        hi, rank = self.hi, self.rank
        lows = self.rungs[: bisect_right(self.rungs, n // 2)]  # each pair at its lesser part
        highs = map(hi.get, map(n.__sub__, lows), repeat(math.inf))
        if min(map(operator.add, map(hi.__getitem__, lows), highs), default=math.inf) >= hi[n]:
            return []
        return [a for a in rank if n - a in rank and rank[a] <= rank[n - a]]


def _rule_exponent_splitting(facts: _FactIndex):
    """``L(w^n) <= L(w^a) + L(w^(n-a))``, and ``L(w^n) <= L(w^-n)``.

    Only a split that can tighten is proposed, read from one ``_SplitTable``
    per ladder, made at the ladder's first target.  The table re-reads a
    target after each proposal, as later targets split over it.  A word whose
    inverse renumbers to itself, as a commutator's does, is its own mirror,
    which is not proposed.
    """
    tables: dict[tuple, tuple[_SplitTable, dict[int, Fact], dict[int, Fact]]] = {}
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        n = tq.exponent
        key = (tq.context._value_, tq.word, tq.template.key)  # no Enum.__hash__, as in _FactIndex
        entry = tables.get(key)
        if entry is None:
            ladder = facts.ladder(tq.context, tq.word, tq.template.key)
            inverse = _keyed_word(tq.context, tq.word.inverse())
            mirrors = facts.ladder(tq.context, inverse, tq.template.key)
            entry = tables[key] = (_SplitTable(ladder), ladder, mirrors)
        table, ladder, mirrors = entry
        hi = table.hi
        for a in table.splits(n):
            value = hi[a] + hi[n - a]
            if value >= hi[n]:
                continue
            yield (
                target,
                "hi",
                value,
                "R13",
                "factorizations of two powers concatenate",
                [ladder[a], ladder[n - a]],
            )
            table.read(n, target)
        mirror = mirrors.get(n)
        if mirror is not None and mirror is not target and mirror.hi is not None:
            yield (
                target,
                "hi",
                mirror.hi,
                "R13",
                "inverting a factorization factors the inverse",
                [mirror],
            )
            table.read(n, target)


def _rule_one_step_beta(facts: _FactIndex):
    beta2_key = beta_word(2).key
    gamma3 = gamma_word(3)
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.PERFECT_SCL_ZERO or q.template.key != beta2_key:
            continue
        lf = facts.find(QuantityKind.L, Context.PERFECT_SCL_ZERO, q.word, gamma3, 1)
        if lf is None or lf.lo != 1 or lf.hi != 1:
            continue
        yield (
            fact,
            "hi",
            1,
            "R14",
            "a one-step nested element has short commutator-of-commutator powers",
            [lf],
        )


def _rule_cl_alias(facts: _FactIndex):
    gamma2 = gamma_word(2)
    for fact in facts.of(QuantityKind.CL):
        q = fact.quantity
        alias = facts.find(QuantityKind.L, q.context, q.word, gamma2, 1)
        if alias is None:
            continue
        yield from _linked(
            fact, alias, 1, "R-CL", "commutator length is the length over the basic commutator"
        )


_RULES = (
    _rule_trivial,
    _rule_integrality,
    _rule_compose,
    _rule_scl_bridge,
    _rule_diagonal_window,
    _rule_power_ratio,
    _rule_stable_promotion,
    _rule_fresh_head,
    _rule_chain_ceiling,
    _rule_perfect_comparison,
    _rule_gamma3_bridge,
    _rule_unbalanced_vanish,
    _rule_block_division,
    _rule_exponent_splitting,
    _rule_one_step_beta,
    _rule_cl_alias,
)
