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
upper bound.  Template specs are ``gamma<n>``, ``beta<n>``,
``commutator_product<g>``, ``grope<n>``, ``Gamma3``, or any word expression.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

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
    Template,
    beta_word,
    commutator_product_decomposition,
    commutator_product_word,
    fresh_commutator_split,
    gamma_index,
    gamma_word,
    grope_word,
    template_from_word,
)
from .words import EMPTY, Word, canonical_renumber, in_commutator_subgroup, power

Bound = Fraction | None  # None is +infinity (upper bounds only)


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
    template_key: str | None = None
    exponent: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (QuantityKind.L, QuantityKind.SL):
            if self.template_key is None:
                raise ValueError(f"{self.kind.value} quantities need a template")
        else:
            if self.template_key is not None:
                raise ValueError(f"{self.kind.value} quantities take no template")
        if self.kind is QuantityKind.L:
            exponent = self.exponent if self.exponent is not None else 1
            if exponent < 1:
                raise ValueError("L quantities need exponent >= 1")
            object.__setattr__(self, "exponent", exponent)
        elif self.exponent is not None:
            raise ValueError(f"{self.kind.value} quantities take no exponent")
        parts = [self.kind.value, self.context.value, grammar.canonical_key(self.word)]
        if self.template_key is not None:
            parts.append(f"| {self.template_key}")
        if self.kind is QuantityKind.L:
            parts.append(f"@ {self.exponent}")
        # built once; not a field, so eq, hash and repr ignore it
        object.__setattr__(self, "_key", " ".join(parts))

    def key(self) -> str:
        return self._key


@dataclass(frozen=True)
class Antecedent:
    """Snapshot of a fact at the moment it justified an event."""

    key: str
    lo: Fraction
    hi: Bound
    lo_event: int | None
    hi_event: int | None


@dataclass(frozen=True)
class Event:
    id: int
    side: str  # "lo" or "hi"
    quantity_key: str
    value: Fraction
    provenance: str  # SEED / CERTIFICATE / QUOTIENT / RULE
    rule: str | None
    label: str
    antecedents: tuple[Antecedent, ...] = ()


@dataclass
class Fact:
    quantity: Quantity
    lo: Fraction = Fraction(0)
    hi: Bound = None
    lo_event: int | None = None
    hi_event: int | None = None


def _fmt_bound(value: Bound) -> str:
    return "inf" if value is None else str(value)


def _parse_bound(token: str, allow_inf: bool) -> Bound:
    if token == "inf":
        if not allow_inf:
            raise ParseError("only upper bounds may be infinite")
        return None
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}") from exc
    if value < 0:
        raise ParseError("bounds are nonnegative")
    return value


_TEMPLATE_SPEC_RE = re.compile(r"(gamma|beta|commutator_product|grope)([1-9][0-9]*)\Z")


def parse_template_spec(text: str, names: grammar.NameTable) -> Template:
    text = text.strip()
    if text == GAMMA3_FAMILY.key:
        return GAMMA3_FAMILY
    if text.startswith("w:"):
        return template_from_word(grammar.parse(text[2:], names))
    match = _TEMPLATE_SPEC_RE.match(text)
    if match is not None:
        builder = {
            "gamma": gamma_word,
            "beta": beta_word,
            "commutator_product": commutator_product_word,
            "grope": grope_word,
        }[match.group(1)]
        try:
            index = int(match.group(2))
        except ValueError:  # past Python's limit on int-string conversion
            raise ResourceBudgetError(f"template index of {len(match.group(2))} digits") from None
        return builder(index)
    return template_from_word(grammar.parse(text, names))


class BoundEngine:
    """Holds declared quantities, their intervals, and the event log."""

    def __init__(self) -> None:
        self.names = grammar.canonical_table()
        self.templates: dict[str, Template] = {GAMMA3_FAMILY.key: GAMMA3_FAMILY}
        self.facts: dict[str, Fact] = {}
        self.events: list[Event] = []
        # (parser, text) -> parsed word or template; names are only ever added
        # to self.names, so a text that parsed once parses the same way again
        self._parsed: dict[tuple, Word | Template] = {}

    # -- declaration and parsing -------------------------------------------

    def register_template(self, template: Template) -> str:
        existing = self.templates.get(template.key)
        if existing is None:
            self.templates[template.key] = template
        return template.key

    def template_for(self, key: str) -> Template:
        try:
            return self.templates[key]
        except KeyError:
            raise UnknownNameError(f"template {key!r} is not registered") from None

    def make_quantity(
        self,
        kind: QuantityKind,
        context: Context,
        word: Word,
        template: Template | None = None,
        exponent: int | None = None,
    ) -> Quantity:
        key = self.register_template(template) if template is not None else None
        return Quantity(kind, context, word, key, exponent)

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
        word = self._parse_once(grammar.parse, tokens[2])
        template = None
        if template_part.strip():
            template = self._parse_once(parse_template_spec, template_part)
        exponent = None
        if exp_part.strip():
            if not exp_part.strip().lstrip("-").isdigit():
                raise ParseError(f"bad exponent {exp_part.strip()!r}")
            exponent = int(exp_part.strip())
        try:
            return self.make_quantity(kind, context, word, template, exponent)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    def _parse_once(self, parse, text: str):
        """``parse(text, self.names)``, once per text; a text that fails is not stored."""
        key = (parse, text)
        parsed = self._parsed.get(key)
        if parsed is None:
            parsed = self._parsed[key] = parse(text, self.names)
        return parsed

    def declare(self, quantity: Quantity | str) -> Quantity:
        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        if quantity.template_key is not None and quantity.template_key not in self.templates:
            raise UnknownNameError(f"template {quantity.template_key!r} is not registered")
        self.facts.setdefault(quantity.key(), Fact(quantity))
        return quantity

    def display(self, quantity: Quantity) -> str:
        parts = [
            quantity.kind.value,
            quantity.context.value,
            grammar.format_word(quantity.word, self.names),
        ]
        if quantity.template_key is not None:
            template = self.templates.get(quantity.template_key)
            label = template.label if template is not None else quantity.template_key
            parts.append(f"| {label}")
        if quantity.kind is QuantityKind.L:
            parts.append(f"@ {quantity.exponent}")
        return " ".join(parts)

    def _fact(
        self,
        kind: QuantityKind,
        context: Context,
        word: Word,
        template_key: str | None = None,
        exponent: int | None = None,
    ) -> Fact | None:
        """The fact of the quantity with these fields, or ``None`` when it is not declared."""
        return self.facts.get(Quantity(kind, context, word, template_key, exponent).key())

    def interval(self, quantity: Quantity | str) -> tuple[Fraction, Bound]:
        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        fact = self.facts.get(quantity.key())
        if fact is None:
            raise UnknownNameError(f"quantity {quantity.key()!r} is not declared")
        return fact.lo, fact.hi

    # -- fact entry ---------------------------------------------------------

    def add_fact(
        self,
        quantity: Quantity | str,
        lo: Fraction | int | None = None,
        hi: Fraction | int | None = None,
        provenance: str = "SEED",
        label: str = "",
    ) -> Quantity:
        quantity = self.declare(quantity)
        if lo is not None:
            self._tighten(quantity, "lo", Fraction(lo), provenance, None, label, ())
        if hi is not None:
            self._tighten(quantity, "hi", Fraction(hi), provenance, None, label, ())
        return quantity

    def add_certificate_fact(
        self,
        base: Word,
        template: Template,
        exponent: int,
        cert: Certificate,
        context: Context = Context.FREE,
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
        quantity = self.make_quantity(
            QuantityKind.L, context, base, template, exponent
        )
        return self.add_fact(
            quantity, hi=len(cert.factors), provenance="CERTIFICATE", label=label
        )

    def add_quotient_floor(
        self,
        quantity: Quantity | str,
        group,
        images: dict[int, int],
        budget: int | None = None,
        label: str = "",
    ) -> int | None:
        """Lower-bound an ``L`` or ``CL`` quantity through a finite quotient.

        Lengths never increase under homomorphisms, so the length of the
        image is a floor.  Returns the image length, or ``None`` when the
        image is not a product of template values at all (in which case no
        finite fact is added -- the quantity is infinite and any finite upper
        bound would be inconsistent, which ``add_fact`` would surface).
        """
        from . import finite

        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        if quantity.kind is QuantityKind.L:
            word = power(quantity.word, quantity.exponent or 1)
            template = self.template_for(quantity.template_key)
        elif quantity.kind is QuantityKind.CL:
            word = quantity.word
            template = gamma_word(2)
        else:
            raise VerbaError("quotient floors apply to L and CL quantities")
        kwargs = {} if budget is None else {"budget": budget}
        value = finite.quotient_length(word, template, group, images, **kwargs)
        if value is None:
            return None
        self.declare(quantity)
        self._tighten(
            quantity,
            "lo",
            Fraction(value),
            "QUOTIENT",
            None,
            label or f"image length in {group.spec}",
            (),
        )
        return value

    # -- facts files ---------------------------------------------------------

    def load_facts(self, text: str, provenance: str = "SEED") -> int:
        count = 0
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            label = raw.partition("#")[2].strip()
            if not line:
                continue
            try:
                self._load_fact_line(line, label, provenance)
            except VerbaError as exc:
                raise ParseError(f"facts line {lineno}: {exc}") from exc
            count += 1
        return count

    def _load_fact_line(self, line: str, label: str, provenance: str) -> None:
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
        # a lower bound of 0 tightens nothing and records no event
        self.add_fact(quantity_text.strip(), lo, hi, provenance, label)

    def load_default_seeds(self) -> int:
        text = resources.files("verba").joinpath("data/seed.facts").read_text()
        return self.load_facts(text)

    def dump_facts(self) -> str:
        lines = []
        for key in sorted(self.facts):
            fact = self.facts[key]
            if fact.hi is not None and fact.lo == fact.hi:
                lines.append(f"{key} => {fact.lo}")
            else:
                lines.append(f"{key} = {fact.lo} {_fmt_bound(fact.hi)}")
        return "\n".join(lines) + "\n"

    # -- tightening and the event log ---------------------------------------

    def _snapshot(self, quantity: Quantity) -> Antecedent:
        fact = self.facts[quantity.key()]
        return Antecedent(quantity.key(), fact.lo, fact.hi, fact.lo_event, fact.hi_event)

    def _tighten(
        self,
        quantity: Quantity,
        side: str,
        value: Fraction,
        provenance: str,
        rule: str | None,
        label: str,
        antecedents: tuple[Quantity, ...],
    ) -> bool:
        fact = self.facts[quantity.key()]
        if side == "lo":
            if value <= fact.lo:
                return False
        else:
            if fact.hi is not None and value >= fact.hi:
                return False
        event = Event(
            id=len(self.events),
            side=side,
            quantity_key=quantity.key(),
            value=value,
            provenance=provenance,
            rule=rule,
            label=label,
            antecedents=tuple(self._snapshot(a) for a in antecedents),
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
                trace=self.explain(quantity, _allow_inconsistent=True),
            )
        return True

    # -- propagation ----------------------------------------------------------

    def propagate(self, max_rounds: int = 50) -> int:
        """Apply the rule catalog to a fixed point; returns tightenings made."""
        total = 0
        since = None  # the first event of the previous round
        for _ in range(max_rounds):
            start = len(self.events)
            changed = 0
            for proposal in self._proposals(since):
                quantity, side, value, rule, label, antecedents = proposal
                if self._tighten(quantity, side, value, "RULE", rule, label, antecedents):
                    changed += 1
            total += changed
            if changed == 0:
                return total
            since = start
        raise VerbaError(f"propagation did not stabilize in {max_rounds} rounds")

    def _proposals(self, since: int | None):
        facts = _RoundFacts([self.facts[key] for key in sorted(self.facts)], since)
        for rule in _RULES:
            yield from rule(self, facts)

    # -- reporting -------------------------------------------------------------

    def explain(self, quantity: Quantity | str, _allow_inconsistent: bool = False) -> str:
        if isinstance(quantity, str):
            quantity = self.parse_quantity(quantity)
        fact = self.facts.get(quantity.key())
        if fact is None:
            raise UnknownNameError(f"quantity {quantity.key()!r} is not declared")
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


def format_interval(lo: Fraction, hi: Bound) -> str:
    """``[lo, hi]``, with ``inf`` for an infinite upper bound."""
    return f"[{lo}, {_fmt_bound(hi)}]"


def _explained_interval(lo: Fraction, hi: Bound) -> str:
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
# Every rule reads the current facts and yields proposals
# (quantity, side, value, rule id, note, antecedent quantities).  Values are
# exact Fractions; an upper-bound product with an infinite input is skipped
# unless the other side is zero (length zero forces the identity, whose
# length is zero over anything).
#
# A rule gets the round's facts as a ``_RoundFacts``: all of them in key order,
# those of one kind through ``of``, and the L facts indexed for the rules that
# pair them up.  A rule that needs one partner fact looks it up with
# ``engine._fact``.  No rule adds a fact, so ``engine.facts`` and the index
# hold for the whole round; both hold the ``Fact`` objects themselves, so a
# rule reads the bounds tightened earlier in its round.  ``since`` is the
# first event of the previous round of the same ``propagate`` call (``None``
# in its first round): a fact whose bound event is older has not moved since
# the previous round proposed from it.

class _RoundFacts:
    """The facts of one round in key order, by kind, with their L facts indexed."""

    def __init__(self, facts: list[Fact], since: int | None) -> None:
        self._facts = facts
        self.since = since
        self._by_kind: dict[QuantityKind, list[Fact]] = {kind: [] for kind in QuantityKind}
        # (context, word, template key) -> {exponent: fact}, in key order
        self._ladders: dict[tuple, dict[int, Fact]] = {}
        # (context, word, exponent) -> facts over every template, in key order
        self._same_power: dict[tuple, list[Fact]] = {}
        for fact in facts:
            q = fact.quantity
            self._by_kind[q.kind].append(fact)
            if q.kind is QuantityKind.L:
                ladder = self._ladders.setdefault((q.context, q.word, q.template_key), {})
                ladder[q.exponent] = fact
                self._same_power.setdefault((q.context, q.word, q.exponent), []).append(fact)

    def __iter__(self):
        return iter(self._facts)

    def of(self, kind: QuantityKind) -> list[Fact]:
        """The facts of quantities of ``kind``, in key order."""
        return self._by_kind[kind]

    def ladder(self, context: Context, word: Word, template_key: str | None) -> dict[int, Fact]:
        """The L facts over ``template_key`` of the powers of ``word``, by exponent."""
        return self._ladders.get((context, word, template_key), {})

    def same_power(self, context: Context, word: Word, exponent: int) -> list[Fact]:
        """The L facts of ``word ** exponent`` over every template."""
        return self._same_power.get((context, word, exponent), [])


def _mul_hi(a: Bound, b: Bound) -> Bound:
    if a == 0 or b == 0:
        return Fraction(0)
    if a is None or b is None:
        return None
    return a * b


def _body_template(engine: BoundEngine, q: Quantity) -> Template | None:
    """The template of ``q`` when it is registered and is a single word, else ``None``."""
    template = engine.templates.get(q.template_key or "")
    if template is None or template.body is None:
        return None
    return template


def _template_scl(engine: BoundEngine, q: Quantity) -> Fact | None:
    """The ``SCL FREE`` fact of ``q``'s template body when it has an upper bound, else ``None``."""
    template = _body_template(engine, q)
    if template is None:
        return None
    base = engine._fact(QuantityKind.SCL, Context.FREE, template.body)
    if base is None or base.hi is None:
        return None
    return base


def _linked(inner: Fact, outer: Fact, c: Fraction | int, rule: str, note: str):
    """The four proposals of ``outer <= inner <= c * outer``, inner side first."""
    if outer.hi is not None:
        yield (inner.quantity, "hi", c * outer.hi, rule, note, [outer.quantity])
    yield (inner.quantity, "lo", outer.lo, rule, note, [outer.quantity])
    if inner.hi is not None:
        yield (outer.quantity, "hi", inner.hi, rule, note, [inner.quantity])
    yield (outer.quantity, "lo", inner.lo / c, rule, note, [inner.quantity])


def _rule_trivial(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts:
        q = fact.quantity
        if q.word == EMPTY:
            yield (q, "hi", Fraction(0), "R0", "the identity has length zero", [])
        elif q.kind is QuantityKind.L and q.context is Context.FREE:
            yield (
                q,
                "lo",
                Fraction(1),
                "R0",
                "a nontrivial word needs at least one factor",
                [],
            )


def _rule_integrality(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts:
        if fact.quantity.kind not in (QuantityKind.L, QuantityKind.CL):
            continue
        note = "factor counts are whole numbers"
        if fact.hi is not None and fact.hi.denominator != 1:
            yield (fact.quantity, "hi", Fraction(math.floor(fact.hi)), "R0", note, [])
        if fact.lo.denominator != 1:
            yield (fact.quantity, "lo", Fraction(math.ceil(fact.lo)), "R0", note, [])


def _rule_compose(engine: BoundEngine, facts: _RoundFacts):
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        for mid in facts.same_power(tq.context, tq.word, tq.exponent):
            mq = mid.quantity
            if mq.template_key == tq.template_key or mid.hi is None:
                continue
            mid_template = _body_template(engine, mq)
            if mid_template is None:
                continue
            bridge = engine._fact(
                QuantityKind.L, Context.FREE, mid_template.body, tq.template_key, 1
            )
            if bridge is None:
                continue
            value = _mul_hi(mid.hi, bridge.hi)
            if value is None:
                continue
            yield (
                tq,
                "hi",
                value,
                "R1",
                "rewrite each factor through the second template",
                [mid.quantity, bridge.quantity],
            )


def _rule_scl_bridge(engine: BoundEngine, facts: _RoundFacts):
    for target in facts.of(QuantityKind.SCL):
        tq = target.quantity
        for sl in facts.of(QuantityKind.SL):
            sq = sl.quantity
            if sq.word != tq.word or sq.context is not tq.context or sl.hi is None:
                continue
            base = _template_scl(engine, sq)
            if base is None:
                continue
            yield (
                tq,
                "hi",
                sl.hi * (base.hi + Fraction(1, 2)),
                "R2",
                "stable factors each cost their own stable commutator length"
                " plus a half for joining",
                [sl.quantity, base.quantity],
            )
        for lf in facts.of(QuantityKind.L):
            lq = lf.quantity
            if lq.context is not tq.context or lf.hi is None:
                continue
            if power(lq.word, lq.exponent) != tq.word:
                continue
            base = _template_scl(engine, lq)
            if base is None:
                continue
            value = max(Fraction(0), lf.hi * base.hi + (lf.hi - 1) / 2)
            yield (
                tq,
                "hi",
                value,
                "R2",
                "a finite factorization bounds the stable commutator length",
                [lf.quantity, base.quantity],
            )


def _diagonal(engine: BoundEngine, q: Quantity) -> Template | None:
    """The template when ``q`` is ``SL(w | w)`` or ``L(w | w)`` up to renaming, else ``None``."""
    template = _body_template(engine, q)
    if template is None or canonical_renumber(q.word) != template.body:
        return None
    return template


def _rule_diagonal_window(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.FREE:
            continue
        template = _diagonal(engine, q)
        if template is None or q.word == EMPTY:
            continue
        yield (q, "hi", Fraction(1), "R3", "a template over itself stabilizes at one", [])
        if in_commutator_subgroup(q.word):
            yield (
                q,
                "lo",
                Fraction(1, 2),
                "R3",
                "balanced templates over themselves stay above a half",
                [],
            )
        scl = engine._fact(QuantityKind.SCL, Context.FREE, q.word)
        if scl is not None and scl.lo > 0:
            yield (
                q,
                "lo",
                scl.lo / (scl.lo + Fraction(1, 2)),
                "R3",
                "the stable commutator length pushes the diagonal up",
                [scl.quantity],
            )


def _rule_power_ratio(engine: BoundEngine, facts: _RoundFacts):
    for target in facts.of(QuantityKind.SL):
        tq = target.quantity
        for n, lf in facts.ladder(tq.context, tq.word, tq.template_key).items():
            if lf.hi is None:
                continue
            yield (
                tq,
                "hi",
                lf.hi / n,
                "R4",
                "any power factorization bounds the stable ratio",
                [lf.quantity],
            )


def _rule_stable_promotion(engine: BoundEngine, facts: _RoundFacts):
    for target in facts.of(QuantityKind.SL):
        tq = target.quantity
        template = _body_template(engine, tq)
        diagonal = tq.context is Context.FREE and _diagonal(engine, tq) is not None
        diag = None
        if not diagonal and template is not None:
            diag = engine._fact(QuantityKind.SL, Context.FREE, template.body, tq.template_key)
        for n, lf in facts.ladder(tq.context, tq.word, tq.template_key).items():
            if lf.hi is None or lf.hi < 1:
                continue
            if diagonal:
                if n >= 2:
                    yield (
                        tq,
                        "hi",
                        (lf.hi - 1) / (n - 1),
                        "R5",
                        "one factor seeds the next power of the template",
                        [lf.quantity],
                    )
                continue
            if diag is None or diag.hi is None:
                continue
            yield (
                tq,
                "hi",
                (lf.hi - 1 + diag.hi) / n,
                "R5",
                "one factor of each power block is recycled into the next",
                [lf.quantity, diag.quantity],
            )


def _rule_fresh_head(engine: BoundEngine, facts: _RoundFacts):
    diagonal_sl: dict[str, Fact] = {}
    for fact in facts:
        q = fact.quantity
        if q.kind is QuantityKind.SL and q.context is Context.FREE:
            if _diagonal(engine, q) is not None:
                diagonal_sl[grammar.canonical_key(canonical_renumber(q.word))] = fact
    for fact in facts:
        q = fact.quantity
        if q.context is not Context.FREE:
            continue
        if q.kind is QuantityKind.SL:
            if _diagonal(engine, q) is None:
                continue
            split = fresh_commutator_split(canonical_renumber(q.word))
            if split is None:
                continue
            inner = diagonal_sl.get(
                grammar.canonical_key(canonical_renumber(split[1]))
            )
            if inner is None or inner.hi is None:
                continue
            yield (
                q,
                "hi",
                (1 + inner.hi) / 2,
                "R6",
                "a fresh head generator lets consecutive blocks pair up",
                [inner.quantity],
            )
        elif q.kind is QuantityKind.L:
            template = _diagonal(engine, q)
            exponent = q.exponent or 1
            if template is None or exponent % 2 == 0:
                continue
            n = (exponent - 1) // 2
            if n < 1:
                continue
            split = fresh_commutator_split(canonical_renumber(q.word))
            if split is None:
                continue
            inner_template = template_from_word(split[1])
            inner = engine._fact(
                QuantityKind.L, Context.FREE, inner_template.body, inner_template.key, n + 1
            )
            if inner is None or inner.hi is None:
                continue
            yield (
                q,
                "hi",
                n + inner.hi,
                "R6",
                "odd powers of a fresh-head bracket fold pairwise",
                [inner.quantity],
            )


def _rule_chain_ceiling(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.FREE:
            continue
        template = _diagonal(engine, q)
        if template is None:
            continue
        n = gamma_index(template)
        if n is None or n < 2:
            continue
        yield (
            q,
            "hi",
            1 - Fraction(1, 2 ** (n - 1)),
            "R7",
            "nested chains over themselves stabilize below one",
            [],
        )


def _rule_perfect_comparison(engine: BoundEngine, facts: _RoundFacts):
    """scl(g) <= sl_gamma_n(g) <= 2^(n-2) scl(g) in a perfect ambient group."""
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.PERFECT:
            continue
        template = _body_template(engine, q)
        if template is None:
            continue
        n = gamma_index(template)
        if n is None or n < 2:
            continue
        scl = engine._fact(QuantityKind.SCL, Context.PERFECT, q.word)
        if scl is None:
            continue
        yield from _linked(
            fact,
            scl,
            Fraction(2 ** (n - 2)),
            "R8",
            "in perfect ambient groups nested chains track commutators",
        )


def _rule_gamma3_bridge(engine: BoundEngine, facts: _RoundFacts):
    gamma3_key = gamma_word(3).key
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.template_key != gamma3_key:
            continue
        partner = engine._fact(QuantityKind.SL, q.context, q.word, GAMMA3_FAMILY.key)
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


def _rule_unbalanced_vanish(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        template = _body_template(engine, q)
        if template is None or in_commutator_subgroup(template.body):
            continue
        yield (
            q,
            "hi",
            Fraction(0),
            "R10",
            "an exponent surplus in the template absorbs powers for free",
            [],
        )


def _rule_block_division(engine: BoundEngine, facts: _RoundFacts):
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        template = _body_template(engine, q)
        if template is None:
            continue
        pairs = commutator_product_decomposition(template.body)
        if not pairs:
            continue
        scl = engine._fact(QuantityKind.SCL, q.context, q.word)
        if scl is None or scl.hi is None:
            continue
        yield (
            q,
            "hi",
            scl.hi / len(pairs),
            "R12",
            "disjoint commutator blocks divide the stable commutator length",
            [scl.quantity],
        )


def _rule_exponent_splitting(engine: BoundEngine, facts: _RoundFacts):
    """``L(w^n) <= L(w^a) + L(w^(n-a))``, and ``L(w^n) <= L(w^-n)``.

    Only a split that can tighten is proposed.  Its mirror ``(n-a, a)`` gives
    the same value from the same facts, so the one later in ladder (key)
    order is skipped.  After the first round, a split whose parts have not
    moved since the previous round proposed it is skipped too: ``hi`` only
    falls.
    """
    since = facts.since
    for target in facts.of(QuantityKind.L):
        tq = target.quantity
        n = tq.exponent
        ladder = facts.ladder(tq.context, tq.word, tq.template_key)
        for a, part in ladder.items():
            if part.hi is None:
                continue
            other = ladder.get(n - a)  # exponents are at least 1, so a < n here
            if other is None or other.hi is None:
                continue
            if since is not None and part.hi_event < since and other.hi_event < since:
                continue
            if other.quantity.key() < part.quantity.key():
                continue
            value = part.hi + other.hi
            if target.hi is not None and value >= target.hi:
                continue
            yield (
                tq,
                "hi",
                value,
                "R13",
                "factorizations of two powers concatenate",
                [part.quantity, other.quantity],
            )
        mirror = facts.ladder(tq.context, tq.word.inverse(), tq.template_key).get(n)
        if mirror is not None and mirror.hi is not None:
            yield (
                tq,
                "hi",
                mirror.hi,
                "R13",
                "inverting a factorization factors the inverse",
                [mirror.quantity],
            )


def _rule_one_step_beta(engine: BoundEngine, facts: _RoundFacts):
    beta2_key = beta_word(2).key
    gamma3_key = gamma_word(3).key
    for fact in facts.of(QuantityKind.SL):
        q = fact.quantity
        if q.context is not Context.PERFECT_SCL_ZERO or q.template_key != beta2_key:
            continue
        lf = engine._fact(QuantityKind.L, Context.PERFECT_SCL_ZERO, q.word, gamma3_key, 1)
        if lf is None or lf.lo != 1 or lf.hi != 1:
            continue
        yield (
            q,
            "hi",
            Fraction(1),
            "R14",
            "a one-step nested element has short commutator-of-commutator powers",
            [lf.quantity],
        )


def _rule_cl_alias(engine: BoundEngine, facts: _RoundFacts):
    gamma2_key = gamma_word(2).key
    for fact in facts.of(QuantityKind.CL):
        q = fact.quantity
        alias = engine._fact(QuantityKind.L, q.context, q.word, gamma2_key, 1)
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
