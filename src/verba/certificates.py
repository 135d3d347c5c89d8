"""Rewrite certificates: a target word as an explicit product of tagged factors.

A certificate records ``target = f_1 * f_2 * ... * f_k`` where each factor
expands to ``conjugator * base^(+/-1) * conjugator^-1``.  Verification is free
reduction of that product, in one pass that spells no factor: each
conjugator enters as the bridge from the one before, past their common
prefix (``Certificate.product``).  A factor may additionally carry a witness
substitution showing its base is an instance of a template (a commutator, a
nested-commutator word, a commutator-of-commutators word, or any word
template), which is what downstream length bookkeeping counts.  A factor of
a stock kind must carry that kind's own template.

Text form (one item per line; words in the expression grammar)::

    TARGET <word>
    FACTOR <kind>[:INV] <base word> CONJ <conjugator word>
    TEMPLATE <canonical template body>      (W_WORD factors only)
    WITNESS <var> = <word> ; <var> = <word> ; ...
    FLAG <free text>
    COUNTS <kind>=<n> ...

``TEMPLATE`` and ``WITNESS`` lines attach to the factor above them, at most
one of each.  A ``WITNESS`` variable or ``COUNTS`` kind given twice, a second
``TARGET`` line and a ``COUNTS`` line that disagrees with an earlier one are
parse errors; a ``COUNTS`` line repeated as it was is read.  A ``FACTOR``
line's base and conjugator are read from its whitespace-split tokens.
"""
from __future__ import annotations

import dataclasses
import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from . import grammar, words
from .errors import CertificateError, ParseError
from .templates import Template, beta_word, gamma_word, template_from_word
from .words import EMPTY, Word, _inverse_codes, check_size, commutator, substitute


class FactorKind(enum.Enum):
    W_WORD = "W_WORD"
    GAMMA_N_WORD = "GAMMA_N_WORD"
    BETA2_WORD = "BETA2_WORD"
    COMMUTATOR = "COMMUTATOR"
    RAW = "RAW"


@dataclass(frozen=True, eq=True)
class Factor:
    """One factor: ``conjugator * base^(+/-1) * conjugator^-1`` plus its tag."""

    kind: FactorKind
    base: Word
    conjugator: Word = EMPTY
    inverted: bool = False
    template: Template | None = None
    witness: dict[int, Word] | None = field(default=None, hash=False)

    def expanded(self) -> Word:
        body = self.base.inverse() if self.inverted else self.base
        return self.conjugator * body * self.conjugator.inverse()

    def kind_token(self) -> str:
        token = self.kind.value
        if self.kind is FactorKind.GAMMA_N_WORD:
            token += f":{len(self.template.variables) if self.template else 0}"
        return token

    def check(self) -> None:
        """Raise ``CertificateError`` unless the tag's witness data is coherent."""
        if self.kind is FactorKind.RAW:
            if self.template is not None or self.witness is not None:
                raise CertificateError("RAW factors carry no template or witness")
            return
        if self.template is None or self.witness is None:
            raise CertificateError(f"{self.kind.value} factor needs a template and witness")
        body, witness = self.template.body, self.witness
        if body is None:
            raise CertificateError("factor templates must be single words")
        # each body letter spells one letter or a witness image, so the image
        # is short when this bound is; past the budget, count it exactly
        if len(body) * (1 + sum(map(len, witness.values()))) > words.SIZE_BUDGET:
            uses = Counter(code >> 1 for code in body.codes)
            check_size(
                sum(n * len(witness[i]) if i in witness else n for i, n in uses.items()),
                "letters in a witnessed factor",
            )
        image = substitute(body, witness)
        if image != self.base:
            raise CertificateError(
                f"witness does not produce the factor base: got {grammar.canonical_key(image)!r},"
                f" expected {grammar.canonical_key(self.base)!r}"
            )
        if self.kind is not FactorKind.W_WORD:
            n = len(self.template.variables)
            if n < 1 or self.template != _stock_template(self.kind, n):
                raise CertificateError(f"{self.kind.value} factor has a malformed template")


@dataclass(frozen=True, eq=True)
class Certificate:
    target: Word
    factors: tuple[Factor, ...]
    flags: tuple[str, ...] = ()

    def product(self) -> Word:
        """The factors' product, reduced in one pass with no factor expanded.

        Between two factors ``c_{i-1}^-1 c_i`` is pushed as the bridge
        ``(c_{i-1}[p:])^-1 c_i[p:]``, ``p`` their common prefix, so letters a
        run of conjugators shares are never pushed only to cancel.
        """
        return words._product_codes(self._pieces())

    def _pieces(self) -> Iterator[tuple[int, ...]]:
        last: tuple[int, ...] = ()  # the previous factor's conjugator
        for factor in self.factors:
            conj, base = factor.conjugator.codes, factor.base.codes
            p = words._common_prefix(last, conj)
            yield _inverse_codes(last[p:])
            yield conj[p:]
            yield _inverse_codes(base) if factor.inverted else base
            last = conj
        yield _inverse_codes(last)

    def verify(self) -> bool:
        """True when every factor is coherent and the product reduces to the target."""
        try:
            self.check()
        except CertificateError:
            return False
        return True

    def check(self) -> None:
        for factor in self.factors:
            factor.check()
        got = self.product()
        if got != self.target:
            raise CertificateError(
                f"factor product {grammar.canonical_key(got)!r} does not reduce to"
                f" target {grammar.canonical_key(self.target)!r}"
            )

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for factor in self.factors:
            token = factor.kind_token()
            out[token] = out.get(token, 0) + 1
        return dict(sorted(out.items()))

    def serialize(self, names: grammar.NameTable | None = None) -> str:
        def fmt(w: Word) -> str:
            return grammar.format_word(w, names)

        lines = [f"TARGET {fmt(self.target)}"]
        for factor in self.factors:
            token = factor.kind_token() + (":INV" if factor.inverted else "")
            lines.append(f"FACTOR {token} {fmt(factor.base)} CONJ {fmt(factor.conjugator)}")
            if factor.kind is FactorKind.W_WORD and factor.template is not None:
                lines.append(f"TEMPLATE {grammar.canonical_key(factor.template.body)}")
            if factor.witness is not None:
                parts = [f"{i} = {fmt(w)}" for i, w in sorted(factor.witness.items())]
                lines.append("WITNESS " + " ; ".join(parts))
        for flag in self.flags:
            lines.append(f"FLAG {flag}")
        lines.append(self.counts_line())
        return "\n".join(lines) + "\n"

    def counts_line(self) -> str:
        """The ``COUNTS`` line: each kind token and its factor count, or ``-``."""
        counts = " ".join(f"{k}={v}" for k, v in self.counts().items())
        return f"COUNTS {counts or '-'}"


# ---------------------------------------------------------------------------
# factor constructors


def _stock_template(kind: FactorKind, n: int) -> Template | None:
    """The template a ``kind`` factor must carry (``n`` indexes ``GAMMA_N_WORD``),
    or ``None`` for ``W_WORD`` and ``RAW``."""
    if kind in (FactorKind.W_WORD, FactorKind.RAW):
        return None
    if kind is FactorKind.BETA2_WORD:
        return beta_word(2)
    return gamma_word(n if kind is FactorKind.GAMMA_N_WORD else 2)


def raw_factor(base: Word, conj: Word = EMPTY) -> Factor:
    return Factor(FactorKind.RAW, base=base, conjugator=conj)


def commutator_factor(u: Word, v: Word, conj: Word = EMPTY) -> Factor:
    return Factor(
        FactorKind.COMMUTATOR,
        base=commutator(u, v),
        conjugator=conj,
        template=gamma_word(2),
        witness={1: u, 2: v},
    )


def gamma3_factor(w1: Word, w2: Word, w3: Word) -> Factor:
    return Factor(
        FactorKind.GAMMA_N_WORD,
        base=commutator(w1, commutator(w2, w3)),
        template=gamma_word(3),
        witness={1: w1, 2: w2, 3: w3},
    )


def beta2_factor(p1: Word, p2: Word, p3: Word, p4: Word, conj: Word = EMPTY) -> Factor:
    return Factor(
        FactorKind.BETA2_WORD,
        base=commutator(commutator(p1, p2), commutator(p3, p4)),
        conjugator=conj,
        template=beta_word(2),
        witness={1: p1, 2: p2, 3: p3, 4: p4},
    )


def w_word_factor(
    template: Template,
    witness: dict[int, Word],
    conj: Word = EMPTY,
    inverted: bool = False,
) -> Factor:
    return Factor(
        FactorKind.W_WORD,
        base=template.instance(witness),
        conjugator=conj,
        inverted=inverted,
        template=template,
        witness=witness,
    )


def with_conjugator_prefix(factor: Factor, prefix: Word) -> Factor:
    return dataclasses.replace(factor, conjugator=prefix * factor.conjugator)


def _parse_kind(token: str) -> tuple[FactorKind, Template | None, bool]:
    """The kind, stock template and inversion a ``FACTOR`` token names."""
    parts = token.split(":")
    inverted = parts[-1] == "INV"
    if inverted:
        parts = parts[:-1]
    try:
        kind = FactorKind(parts[0])
    except ValueError:
        raise ParseError(f"unknown factor kind {parts[0]!r}") from None
    if kind is not FactorKind.GAMMA_N_WORD:
        if len(parts) != 1:
            raise ParseError(f"malformed factor kind {token!r}")
        return kind, _stock_template(kind, 0), inverted
    n = grammar.read_decimal(parts[1], "factor kind index") if len(parts) == 2 else None
    if not n:  # no index, not decimal digits, or 0
        raise ParseError(f"malformed factor kind {token!r}")
    return kind, gamma_word(n), inverted


def _parse_witness(text: str, names: grammar.NameTable) -> dict[int, Word]:
    """The images a ``WITNESS`` line gives, each variable once."""
    witness: dict[int, Word] = {}
    for part in text.split(";"):
        digits, eq, expr = part.partition("=")
        var = grammar.read_decimal(digits.strip(), "WITNESS variable") if eq else None
        if var is None:
            raise ParseError(f"malformed WITNESS entry {part.strip()!r}")
        if var in witness:
            raise ParseError(f"WITNESS variable {var} given twice")
        witness[var] = grammar.parse(expr.strip(), names)
    return witness


def parse_certificate(text: str, names: grammar.NameTable | None = None) -> Certificate:
    """Inverse of :meth:`Certificate.serialize` (canonical names by default).

    The factors' bases plus twice their conjugators, the letters a rewrite
    rule counts before it builds, are refused past ``words.SIZE_BUDGET`` as
    each factor is read, before the certificate is expanded.
    """
    if names is None:
        names = grammar.canonical_table()
    target: Word | None = None
    letters = 0  # in the factors read so far, bases plus twice the conjugators
    rows: list[dict] = []
    flags: list[str] = []
    declared_counts: dict[str, int] | None = None
    attached: set[str] = set()  # the TEMPLATE and WITNESS lines of the last factor
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, rest = line.partition(" ")
        rest = rest.strip()
        if tag == "TARGET":
            if target is not None:
                raise ParseError("duplicate TARGET line")
            target = grammar.parse(rest, names)
        elif tag == "FACTOR":
            token, _, remainder = rest.partition(" ")
            kind, template, inverted = _parse_kind(token)
            tokens = remainder.split()
            if "CONJ" not in tokens:
                raise ParseError("FACTOR line missing CONJ")
            split = tokens.index("CONJ")
            base = grammar.parse_terms(tokens[:split], names)
            conj = grammar.parse_terms(tokens[split + 1 :], names)
            letters += len(base) + 2 * len(conj)
            check_size(letters, "letters in the factors")
            rows.append(
                dict(kind=kind, base=base, conjugator=conj, inverted=inverted,
                     template=template, witness=None)
            )
            attached.clear()
        elif tag in ("TEMPLATE", "WITNESS"):
            if not rows:
                raise ParseError(f"{tag} line before any FACTOR")
            if tag in attached:
                raise ParseError(f"second {tag} line for one factor")
            attached.add(tag)
            if tag == "TEMPLATE":
                rows[-1]["template"] = template_from_word(
                    grammar.parse(rest, grammar.canonical_table())
                )
            else:
                rows[-1]["witness"] = _parse_witness(rest, names)
        elif tag == "FLAG":
            flags.append(rest)
        elif tag == "COUNTS":
            counts: dict[str, int] = {}
            if rest != "-":
                for part in rest.split():
                    key, eq, value = part.partition("=")
                    count = grammar.read_decimal(value, "COUNTS value") if eq else None
                    if count is None:
                        raise ParseError(f"malformed COUNTS entry {part!r}")
                    if key in counts:
                        raise ParseError(f"COUNTS entry {key!r} given twice")
                    counts[key] = count
            # ``rewrite --records`` repeats the census line; a repeat must agree
            if declared_counts is not None and declared_counts != counts:
                raise ParseError("second COUNTS line disagrees with the first")
            declared_counts = counts
        else:
            raise ParseError(f"unknown certificate line {tag!r}")
    if target is None:
        raise ParseError("certificate has no TARGET line")
    cert = Certificate(
        target=target,
        factors=tuple(Factor(**row) for row in rows),
        flags=tuple(flags),
    )
    if declared_counts is not None and declared_counts != cert.counts():
        raise CertificateError(
            f"COUNTS line {declared_counts} disagrees with factors {cert.counts()}"
        )
    return cert
