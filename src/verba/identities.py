"""Commutator identities and the rewrite rules that turn them into certificates.

Every public rule returns a :class:`~verba.certificates.Certificate` that has
already been checked by free reduction, with conjugators written out
explicitly -- nothing is left as "some conjugate".  The five base identities
are exposed both as word equalities (``base_identity``) and through the rules
that iterate them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import grammar
from .certificates import (
    Certificate,
    Factor,
    beta2_factor as _beta2_factor,
    commutator_factor as _commutator_factor,
    gamma3_factor as _gamma3_factor,
    raw_factor as _raw,
    w_word_factor as _w_factor,
    with_conjugator_prefix as _prefix_conj,
)
from .errors import ParseError
from .templates import template_from_word, visible_commutator
from .words import (
    EMPTY,
    Word,
    check_power_size,
    check_size,
    commutator,
    conjugate,
    gen,
    in_commutator_subgroup,
    power,
    power_length,
)


def verify_identity(*forms: Word) -> bool:
    """True when all the given (already reduced) words are equal."""
    return all(form == forms[0] for form in forms[1:])


def base_identity(i: int, x: Word, y: Word, z: Word | None = None) -> tuple[Word, ...]:
    """The ``i``-th stock identity, instantiated; all returned words are equal.

    1. ``[x,y] = [y^x, x^-1]``
    2. ``[x,y]^-1 = [y,x] = [x^y, y^-1]``
    3. ``[x,yz] = [x,y] [x,z]^y = [x,y] [x,z] [[z,x],y]``
    4. ``[xy,z] = [x,z] [y,z]^(x^z) = [x,z] [y,z] [[z,y],x^z]``
    5. ``[[y,x],z^x] [[x,z],y^z] [[z,y],x^y] = 1``
    """
    if i in (3, 4, 5) and z is None:
        raise ValueError(f"identity {i} needs three words")
    if i == 1:
        return (commutator(x, y), commutator(conjugate(y, x), x.inverse()))
    if i == 2:
        return (
            commutator(x, y).inverse(),
            commutator(y, x),
            commutator(conjugate(x, y), y.inverse()),
        )
    if i == 3:
        return (
            commutator(x, y * z),
            commutator(x, y) * conjugate(commutator(x, z), y),
            commutator(x, y) * commutator(x, z) * commutator(commutator(z, x), y),
        )
    if i == 4:
        return (
            commutator(x * y, z),
            commutator(x, z) * conjugate(commutator(y, z), conjugate(x, z)),
            commutator(x, z) * commutator(y, z) * commutator(commutator(z, y), conjugate(x, z)),
        )
    if i == 5:
        return (hall_witt(x, y, z), EMPTY)
    raise ValueError(f"no identity numbered {i}")


def hall_witt(x: Word, y: Word, z: Word) -> Word:
    """``[[y,x],z^x] [[x,z],y^z] [[z,y],x^y]`` -- reduces to the identity."""
    return (
        commutator(commutator(y, x), conjugate(z, x))
        * commutator(commutator(x, z), conjugate(y, z))
        * commutator(commutator(z, y), conjugate(x, y))
    )


def _powers_length(w: Word, n: int) -> int:
    """``len(w^1) + ... + len(w^n)``; ``len(w^i)`` is affine in ``i >= 1``."""
    one, two = power_length(w, 1), power_length(w, 2)
    return n * (2 * one - two) + (two - one) * n * (n + 1) // 2


def _check_build(factors: int, letters: int) -> None:
    """Refuse a certificate before it is built when its ``letters`` (bases plus
    twice the conjugators) and 256 per factor pass ``words.SIZE_BUDGET``: an
    empty factor takes as long to build as about 300 letters."""
    check_size(letters + 256 * factors, "letters (with 256 per factor)")


def _checked(target: Word, factors: Sequence[Factor], flags: Sequence[str] = ()) -> Certificate:
    cert = Certificate(target=target, factors=tuple(factors), flags=tuple(flags))
    cert.check()
    return cert


# ---------------------------------------------------------------------------
# rewrite rules

def culler_pairs(x: Word, y: Word) -> tuple[tuple[Word, Word], tuple[Word, Word]]:
    """The pairs ``(u, v)`` of the two commutators ``[u,v]`` whose product is ``[x,y]^3``."""
    return (
        (conjugate(y, x), conjugate(x, y.inverse()) * power(x, -2)),
        (conjugate(x, y.inverse()), power(y, 2)),
    )


def culler_identity(x: Word, y: Word) -> Certificate:
    """``[x,y]^3`` as a product of two explicit commutators."""
    return _checked(
        power(commutator(x, y), 3), [_commutator_factor(*pair) for pair in culler_pairs(x, y)]
    )


def culler_chain_squares(x: Word, y: Word) -> Certificate:
    """``([x,y]^2)^6`` as five squared commutators.

    Squaring the two-commutator expression for ``[x,y]^3`` twice and shuffling
    with the exact filler ``c = [b^-1, b^-1 a^-1 b^-1]`` (which satisfies
    ``abab = a^2 b^2 c``) gives ``(ab)^4 = a^2 b^2 c^2 (a^2)^(c^-1) (b^2)^(c^-1)``,
    and ``(ab)^4 = [x,y]^12`` is the sixth power of ``[x,y]^2``.
    """
    pair_a, pair_b = culler_pairs(x, y)
    a, b = commutator(*pair_a), commutator(*pair_b)
    c_first = b.inverse()
    c_second = b.inverse() * a.inverse() * b.inverse()
    square = template_from_word(
        power(commutator(gen(1), gen(2)), 2), label="square_of_commutator"
    )
    witness_a, witness_b = dict(enumerate(pair_a, 1)), dict(enumerate(pair_b, 1))
    witness_c = {1: c_first, 2: c_second}
    c = commutator(c_first, c_second)
    return _checked(
        power(power(commutator(x, y), 2), 6),
        [
            _w_factor(square, witness_a),
            _w_factor(square, witness_b),
            _w_factor(square, witness_c),
            _w_factor(square, witness_a, conj=c.inverse()),
            _w_factor(square, witness_b, conj=c.inverse()),
        ],
    )


def culler_power_pair(k: int) -> Certificate:
    """``[x, y^k]^3`` as two instances of the template ``[x1, x2^k]``.

    Substituting ``y -> y^k`` into the three-to-two identity gives factors
    ``[(y^x)^k, q]`` and ``[x^(y^-k), (y^2)^k]``.  The first has its power in
    the wrong slot, so it is recorded as the *inverse* of ``[q, (y^x)^k]``,
    which is a template instance; inverses count the same.
    """
    if k < 1:
        raise ValueError("culler_power_pair needs k >= 1")
    x, y = gen(1), gen(2)
    yk = power(y, k)
    template = template_from_word(commutator(gen(1), power(gen(2), k)))
    q = conjugate(x, yk.inverse()) * power(x, -2)
    return _checked(
        power(commutator(x, yk), 3),
        [
            _w_factor(template, {1: q, 2: conjugate(y, x)}, inverted=True),
            _w_factor(template, {1: conjugate(x, yk.inverse()), 2: power(y, 2)}),
        ],
    )


def herd_powers(g: Word, h: Word, n: int) -> Certificate:
    """``g^n h^n = (gh)^n`` times ``n-1`` explicit conjugated commutators.

    The ``i``-th extra factor is ``[g^i, h]`` conjugated by ``h^-i g^-i h^-1``.
    """
    if n < 1:
        raise ValueError("herd_powers needs n >= 1")
    # (gh)^n, then [g^i, h] conjugated by h^-i g^-i h^-1 for i < n
    letters = power_length(g * h, n) + 4 * len(h) * (n - 1)
    _check_build(n, letters + 4 * _powers_length(g, n - 1) + 2 * _powers_length(h, n - 1))
    factors = [_raw(power(g * h, n))]
    for i in range(1, n):
        conj = power(h, -i) * power(g, -i) * h.inverse()
        factors.append(_commutator_factor(power(g, i), h, conj=conj))
    return _checked(power(g, n) * power(h, n), factors)


def rotate_product(ws: Sequence[Word], k: int) -> Certificate:
    """``(w1 ... wm)^k = w1^k`` times ``(m-1)k`` conjugates of the later ``w_j``.

    Every extra factor is some ``w_j`` (``j >= 2``) conjugated by a power of
    ``w1``.
    """
    if not ws:
        raise ValueError("rotate_product needs at least one word")
    if k < 0:
        raise ValueError("rotate_product needs k >= 0")
    head = ws[0]
    # head^k, then each later w_j conjugated by head^-i for i < k
    tail = sum(k * len(w) + 2 * _powers_length(head, max(k - 1, 0)) for w in ws[1:])
    _check_build(1 + (len(ws) - 1) * k, power_length(head, k) + tail)
    factors = [_raw(power(head, k))]
    for i in range(k - 1, -1, -1):
        conj = power(head, -i)
        for w in ws[1:]:
            factors.append(_raw(w, conj=conj))
    target = EMPTY
    for w in ws:
        target = target * w
    return _checked(power(target, k), factors)


def telescope_line(
    gs: Sequence[Word], before: Sequence[int], after: Sequence[int]
) -> Certificate:
    """Difference of two straight-line products of powers, factor by factor.

    Writes ``(g1^a1 ... gm^am)^-1 (g1^b1 ... gm^bm)`` as ``m`` factors, where
    the factor for position ``i`` is ``g_i^(b_i - a_i)`` conjugated by the
    inverse of the suffix ``g_{i+1}^{b_{i+1}} ... g_m^{b_m}``; factors appear
    in order ``i = m .. 1``.
    """
    if not (len(gs) == len(before) == len(after)):
        raise ValueError("telescope_line needs equally long word and exponent lists")
    # g_i^(b_i - a_i) conjugated by the later g_j^b_j; the two products hold
    # each g_i^a_i and g_i^b_i once
    lengths = [
        (power_length(g, b - a) + power_length(g, a), power_length(g, b))
        for g, a, b in zip(gs, before, after)
    ]
    _check_build(len(gs), sum(own + (2 * j + 1) * b for j, (own, b) in enumerate(lengths)))
    suffix = EMPTY  # g_{i+1}^{b_{i+1}} ... g_m^{b_m}, maintained right to left
    factors: list[Factor] = []
    for g, a, b in zip(reversed(gs), reversed(before), reversed(after)):
        factors.append(_raw(power(g, b - a), conj=suffix.inverse()))
        suffix = power(g, b) * suffix
    left = EMPTY
    right = EMPTY
    for g, a, b in zip(gs, before, after):
        left = left * power(g, a)
        right = right * power(g, b)
    return _checked(left.inverse() * right, factors)


def square_to_gamma3(a: Word, b: Word, n: int) -> Certificate:
    """``[a,b]^(2^n) = [a^(2^n), b]`` times ``2^n - 1`` nested-commutator factors.

    Iterates the doubling step ``[A,b]^2 = [A^2,b] [A^b,[b,A]]``.  The extra
    factors carry nested-commutator witnesses; they are tagged as such only
    when ``b`` has vanishing exponent sums, and are downgraded to RAW with an
    explanatory flag otherwise.
    """
    if n < 0:
        raise ValueError("square_to_gamma3 needs n >= 0")
    check_power_size(2, n, "factors")
    if commutator(a, b) == EMPTY:
        return _checked(EMPTY, [])
    tagged = in_commutator_subgroup(b)
    tail: list[Factor] = []
    letters = 0  # in the expanded tail; prefixing a copy adds at most 2 * len(prefix)
    for j in range(n):
        head_word = commutator(power(a, 2**j), b)
        step = _gamma3_factor(conjugate(power(a, 2**j), b), b, power(a, 2**j))
        if not tagged:
            step = _raw(step.base)
        prefix = head_word.inverse()
        letters = len(step.base) + 2 * letters + 2 * len(prefix) * len(tail)
        check_size(letters, "letters")
        tail = [step] + [_prefix_conj(f, prefix) for f in tail] + tail
    head = _commutator_factor(power(a, 2**n), b)
    flags = ()
    if not tagged and n >= 1:
        flags = ("nested-commutator tags withheld: second input has nonzero exponent sums",)
    return _checked(power(commutator(a, b), 2**n), [head] + tail, flags)


def gamma3_triangle(g: Word, k: Word, m: int) -> Certificate:
    """``g^m k^m (gk)^-m`` as exactly ``m(m-1)/2`` conjugates of ``[g,k]``.

    Combines ``herd_powers`` with the expansion
    ``[g^i, k] = prod_t [g,k]^((g^k)^t)`` and pushes the trailing ``(gk)^-m``
    through as a conjugation.
    """
    if m < 0:
        raise ValueError("gamma3_triangle needs m >= 0")
    count = m * (m - 1) // 2
    _check_build(count, 0)
    g_in_k = conjugate(g, k)
    # [g,k] conjugated by (gk)^m k^-(j-1) g^-(j-1) k^-1 (g^k)^t, t < j-1
    shift_length = power_length(g * k, m)
    letters = 0
    for j in range(2, m + 1):
        sigma_length = power_length(k, j - 1) + power_length(g, j - 1) + len(k)
        letters += (j - 1) * (2 * len(g) + 2 * len(k) + 2 * (shift_length + sigma_length))
        letters += 2 * _powers_length(g_in_k, j - 2)
        _check_build(count, letters)
    shift = power(g * k, m)
    factors: list[Factor] = []
    for j in range(2, m + 1):
        sigma = power(k, -(j - 1)) * power(g, -(j - 1)) * k.inverse()
        for t in range(j - 1):
            conj = shift * sigma * power(g_in_k, t)
            factors.append(_commutator_factor(g, k, conj=conj))
    target = power(g, m) * power(k, m) * power(g * k, m).inverse()
    return _checked(target, factors)


def hall_witt_split(g: Word, a: Word, b: Word) -> Certificate:
    """``[g,[a,b]]`` as two factors via the three-term identity.

    With ``c = b^-1 g b`` the identity gives
    ``[g,[a,b]] = [[b,c], a^c] [[c,a], b^a]``.  When ``a`` and ``b`` are visibly
    single commutators both factors carry commutator-of-commutators witnesses;
    otherwise they are RAW with a flag.
    """
    if commutator(g, commutator(a, b)) == EMPTY:
        return _checked(EMPTY, [])
    c = conjugate(g, b.inverse())
    a_pair = visible_commutator(a)
    b_pair = visible_commutator(b)
    if a_pair is not None and b_pair is not None:
        factors = [
            _beta2_factor(b, c, conjugate(a_pair[0], c), conjugate(a_pair[1], c)),
            _beta2_factor(c, a, conjugate(b_pair[0], a), conjugate(b_pair[1], a)),
        ]
        flags: tuple[str, ...] = ()
    else:
        factors = [
            _raw(commutator(commutator(b, c), conjugate(a, c))),
            _raw(commutator(commutator(c, a), conjugate(b, a))),
        ]
        flags = ("commutator-of-commutators tags withheld: inputs not split as commutators",)
    return _checked(commutator(g, commutator(a, b)), factors, flags)


def oddball_step(x: Word, y: Word, z: Word, n: int) -> Certificate:
    """``[x,[y,z]] [x,[y,z]^n]`` as ``[x,[y,z]^(n+1)]`` times one tagged factor.

    The identity behind it: ``[a,b][a,c] = [a,bc] [[a,c],b]^[c,a]``.
    """
    if n < 1:
        raise ValueError("oddball_step needs n >= 1")
    yz = commutator(y, z)
    if commutator(x, yz) == EMPTY:
        return _checked(EMPTY, [])
    head = _commutator_factor(x, power(yz, n + 1))
    tail = _beta2_factor(x, power(yz, n), y, z, conj=commutator(power(yz, n), x))
    target = commutator(x, yz) * commutator(x, power(yz, n))
    return _checked(target, [head, tail])


def oddball_iterate(x: Word, y: Word, z: Word, n: int) -> Certificate:
    """``[x,[y,z]]^n = [x,[y,z]^n]`` times ``n-1`` commutator-of-commutator factors."""
    if n < 1:
        raise ValueError("oddball_iterate needs n >= 1")
    yz = commutator(y, z)
    if commutator(x, yz) == EMPTY:
        return _checked(EMPTY, [])
    # [x, yz^n], then [[x, yz^k], yz] conjugated by [yz^k, x] for k < n
    letters = 2 * len(x) + 2 * power_length(yz, n) + (n - 1) * (8 * len(x) + 2 * len(yz))
    _check_build(n, letters + 8 * _powers_length(yz, n - 1))
    factors = [_commutator_factor(x, power(yz, n))]
    for k in range(n - 1, 0, -1):
        factors.append(
            _beta2_factor(x, power(yz, k), y, z, conj=commutator(power(yz, k), x))
        )
    return _checked(power(commutator(x, yz), n), factors)


# ---------------------------------------------------------------------------
# CLI registry

# argument converters: (text, names) -> value
_word = grammar.parse


def _words(text: str, names: grammar.NameTable) -> list[Word]:
    return [grammar.parse(part, names) for part in text.split(";") if part.strip()]


def _ints(text: str, names: grammar.NameTable) -> list[int]:
    return [_int(part.strip(), names) for part in text.split(",") if part.strip()]


def _int(text: str, names: grammar.NameTable) -> int:
    value = grammar.read_integer(text, "integer")
    if value is None:
        raise ParseError(f"bad integer {text!r}")
    return value


Converter = Callable[[str, grammar.NameTable], object]


@dataclass(frozen=True)
class RewriteRule:
    """A rule as the CLI calls it: ``fn`` applied to the converted arguments.

    ``args`` holds one converter per argument; a rule with ``rest`` takes one
    or more further arguments, converted by ``rest`` and passed as one list.
    """

    usage: str
    fn: Callable[..., Certificate]
    args: tuple[Converter, ...]
    rest: Converter | None = None

    def build(self, args: list[str], names: grammar.NameTable) -> Certificate:
        count = len(self.args)
        if self.rest is None and len(args) != count:
            raise ParseError(f"expected {count} arguments: {self.usage}")
        if self.rest is not None and len(args) <= count:
            raise ParseError(f"expected at least {count + 1} arguments: {self.usage}")
        try:
            values = [convert(text, names) for convert, text in zip(self.args, args)]
            if self.rest is not None:
                values.append([self.rest(text, names) for text in args[count:]])
            return self.fn(*values)
        except ValueError as exc:  # a rule's guard on its arguments
            raise ParseError(str(exc)) from None


REWRITE_RULES: dict[str, RewriteRule] = {
    "culler_identity": RewriteRule("<x> <y>", culler_identity, (_word, _word)),
    "culler_chain_squares": RewriteRule("<x> <y>", culler_chain_squares, (_word, _word)),
    "culler_power_pair": RewriteRule("<k>", culler_power_pair, (_int,)),
    "herd_powers": RewriteRule("<g> <h> <n>", herd_powers, (_word, _word, _int)),
    "rotate_product": RewriteRule(
        "<k> <w1> [<w2> ...]", lambda k, ws: rotate_product(ws, k), (_int,), rest=_word
    ),
    "telescope_line": RewriteRule(
        "<g1;g2;...> <a1,a2,...> <b1,b2,...>", telescope_line, (_words, _ints, _ints)
    ),
    "square_to_gamma3": RewriteRule("<a> <b> <n>", square_to_gamma3, (_word, _word, _int)),
    "gamma3_triangle": RewriteRule("<g> <k> <m>", gamma3_triangle, (_word, _word, _int)),
    "hall_witt_split": RewriteRule("<g> <a> <b>", hall_witt_split, (_word, _word, _word)),
    "oddball_step": RewriteRule("<x> <y> <z> <n>", oddball_step, (_word, _word, _word, _int)),
    "oddball_iterate": RewriteRule("<x> <y> <z> <n>", oddball_iterate, (_word, _word, _word, _int)),
}
