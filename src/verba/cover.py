"""Odd-degree permutation covers of the one-relator surface picture.

For each ``n >= 1`` there is a transitive action of the rank-2 free group on
``2n+1`` points under which the basic commutator maps to a single
``(2n+1)``-cycle.  Gluing the corresponding cover of a once-punctured torus
gives a genus ``n+1`` surface with one boundary component wrapping the
commutator ``2n+1`` times -- the geometric reason ``[x,y]^(2n+1)`` splits
into ``n+1`` commutators whose second entries are powers of ``y``.

Words act on points on the left, letter by letter: the image of a point under
``u v`` is its image under ``u`` followed by ``v``.  (With this reading the
degree-3 action below sends the commutator to the cycle ``0 -> 1 -> 2``.)
"""
from __future__ import annotations

from dataclasses import dataclass

from .certificates import Certificate, FactorKind, commutator_factor
from .errors import CertificateError
from .words import Word, check_size, commutator, conjugate, gen, power

Permutation = tuple[int, ...]


def identity_permutation(degree: int) -> Permutation:
    return tuple(range(degree))


def then(p: Permutation, q: Permutation) -> Permutation:
    """The permutation 'first ``p``, then ``q``'."""
    return tuple(q[value] for value in p)


def invert_permutation(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, value in enumerate(p):
        out[value] = i
    return tuple(out)


def cycle_lengths(p: Permutation) -> tuple[int, ...]:
    seen = [False] * len(p)
    lengths: list[int] = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        point = start
        while not seen[point]:
            seen[point] = True
            point = p[point]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def word_permutation(w: Word, images: dict[int, Permutation]) -> Permutation:
    degrees = {len(p) for p in images.values()}
    if len(degrees) != 1:
        raise ValueError("all generator images must act on the same points")
    result = identity_permutation(degrees.pop())
    for code in w.codes:
        p = invert_permutation(images[code >> 1]) if code & 1 else images[code >> 1]
        result = then(result, p)
    return result


def boundary_cover(n: int) -> dict[int, Permutation]:
    """Generator images on ``2n+1`` points: ``x`` reverses, ``y`` cycles ``0..n``."""
    if n < 1:
        raise ValueError("boundary_cover needs n >= 1")
    degree = 2 * n + 1
    check_size(degree, "points")
    x_image = tuple(degree - 1 - i for i in range(degree))
    y_image = tuple(i + 1 if i < n else (0 if i == n else i) for i in range(degree))
    return {1: x_image, 2: y_image}


@dataclass(frozen=True)
class CoverInvariants:
    degree: int
    x_cycle_lengths: tuple[int, ...]
    y_cycle_lengths: tuple[int, ...]
    commutator_cycle_lengths: tuple[int, ...]
    euler_characteristic: int
    boundary_components: int
    genus: int


def cover_invariants(n: int) -> CoverInvariants:
    """Cycle data and the genus of the glued surface for the degree ``2n+1`` action."""
    images = boundary_cover(n)
    degree = 2 * n + 1
    boundary = word_permutation(commutator(gen(1), gen(2)), images)
    boundary_cycles = cycle_lengths(boundary)
    # The base surface (one-holed torus) has Euler characteristic -1; a
    # degree-d cover scales it, and capping b boundary circles off a closed
    # genus-g surface satisfies chi = 2 - 2g - b.
    chi = -degree
    b = len(boundary_cycles)
    if (2 - b - chi) % 2 != 0:
        raise ValueError("parity error: invalid cover data")
    return CoverInvariants(
        degree=degree,
        x_cycle_lengths=cycle_lengths(images[1]),
        y_cycle_lengths=cycle_lengths(images[2]),
        commutator_cycle_lengths=boundary_cycles,
        euler_characteristic=chi,
        boundary_components=b,
        genus=(2 - b - chi) // 2,
    )


def check_shape_certificate(n: int, cert: Certificate) -> None:
    """Require ``cert`` to split ``[x,y]^(2n+1)`` in the cover-predicted shape.

    The certificate must verify by reduction, use only uninverted commutator
    factors, and have exactly one factor whose second witness entry is
    ``y^(n+1)`` plus exactly ``n`` whose second entry is ``y``.
    """
    x, y = gen(1), gen(2)
    expected = power(commutator(x, y), 2 * n + 1)
    if cert.target != expected:
        raise CertificateError(f"target is not the {2*n+1}-th power of the commutator")
    cert.check()
    long_entry = power(y, n + 1)
    long_count = 0
    short_count = 0
    for factor in cert.factors:
        if factor.kind is not FactorKind.COMMUTATOR or factor.inverted:
            raise CertificateError("shape certificates use plain commutator factors only")
        second = (factor.witness or {}).get(2)
        if second == long_entry:
            long_count += 1
        elif second == y:
            short_count += 1
        else:
            raise CertificateError("factor second entry is neither y^(n+1) nor y")
    if (long_count, short_count) != (1, n):
        raise CertificateError(
            f"expected 1 long + {n} short factors, found {long_count} + {short_count}"
        )


def verify_shape_certificate(n: int, cert: Certificate) -> bool:
    try:
        check_shape_certificate(n, cert)
    except CertificateError:
        return False
    return True


def known_shape_certificate(n: int) -> Certificate | None:
    """The closed-form shape certificate, currently available for ``n = 1``.

    ``[x,y]^3 = [x^(y^-1), y^2] * [x^-1 v^-1 x, y]^(b^-1 v x)`` with
    ``v = x^(y^-1) x^-2`` and ``b`` the first factor.
    """
    if n != 1:
        return None
    x, y = gen(1), gen(2)
    v = conjugate(x, y.inverse()) * power(x, -2)
    c = x.inverse() * v.inverse() * x
    b = commutator(conjugate(x, y.inverse()), power(y, 2))
    cert = Certificate(
        target=power(commutator(x, y), 3),
        factors=(
            commutator_factor(conjugate(x, y.inverse()), power(y, 2)),
            commutator_factor(c, y, conj=b.inverse() * v * x),
        ),
    )
    check_shape_certificate(1, cert)
    return cert
