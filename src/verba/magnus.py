"""Truncated power-series expansion of free-group words.

Generator ``i`` maps to ``1 + X_i`` (and its inverse to the truncated
geometric series ``1 - X_i + X_i^2 - ...``) inside the ring of integer
polynomials in noncommuting variables, truncated above a chosen total degree.
A nontrivial word's image is ``1 +`` (terms of degree >= its depth), and the
depth equals the word's lower-central-series level, which is what the bound
rules use as a gate.

Series are plain dicts mapping monomials -- tuples of generator indices -- to
integer coefficients; the empty tuple is the constant term.
"""
from __future__ import annotations

from .errors import ResourceBudgetError
from .words import Word

Series = dict[tuple[int, ...], int]

MAX_DEGREE = 6
MAX_GENERATORS = 10


def _letter_series(code: int, degree: int) -> Series:
    index = code >> 1
    if not code & 1:
        return {(): 1, (index,): 1}
    return {(index,) * k: (-1) ** k for k in range(degree + 1)}


def _multiply(left: Series, right: Series, degree: int) -> Series:
    out: Series = {}
    for mono_l, coeff_l in left.items():
        room = degree - len(mono_l)
        for mono_r, coeff_r in right.items():
            if len(mono_r) > room:
                continue
            key = mono_l + mono_r
            value = out.get(key, 0) + coeff_l * coeff_r
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


def expand(w: Word, degree: int) -> Series:
    """Truncated expansion of ``w``; raises ``ResourceBudgetError`` over the caps."""
    if degree > MAX_DEGREE:
        raise ResourceBudgetError(f"expansion degree {degree} exceeds cap {MAX_DEGREE}")
    if len(w.generators()) > MAX_GENERATORS:
        raise ResourceBudgetError(
            f"word uses {len(w.generators())} generators, cap is {MAX_GENERATORS}"
        )
    series: Series = {(): 1}
    for code in w.codes:
        series = _multiply(series, _letter_series(code, degree), degree)
    return series


def depth_at_least(w: Word, n: int) -> bool:
    """True when every term of ``expand(w)`` of degree 1..n-1 vanishes."""
    if n <= 1:
        return True
    series = expand(w, n - 1)
    return all(not mono for mono in series)


def depth(w: Word) -> int | None:
    """Lowest degree with a nonzero term, or ``None`` for the identity.

    Raises ``ResourceBudgetError`` when the depth exceeds ``MAX_DEGREE``.
    """
    if w.is_identity:
        return None
    for d in range(1, MAX_DEGREE + 1):
        series = expand(w, d)
        degrees = [len(mono) for mono in series if mono]
        if degrees:
            return min(degrees)
    raise ResourceBudgetError(f"depth of word exceeds cap {MAX_DEGREE}")
