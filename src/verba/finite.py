"""Finite groups with dense integer element ids, and word lengths inside them.

Backends:

* ``S<n>`` / ``A<n>`` for ``n <= 8`` -- permutations ordered lexicographically
  by image tuple;
* ``SL2_<p>`` for prime ``p <= 13`` -- determinant-one 2x2 matrices over the
  ``p``-element field, ordered lexicographically by ``(a, b, c, d)``;
* ``D<k>`` for ``3 <= k <= 1024`` -- dihedral groups, built as an array and
  validated by the table backend;
* ``table:<path>`` -- an explicit multiplication table file: a line
  ``order N`` followed by ``N`` rows of ``N`` ids (validated to be a group).

Multiplication is "first left, then right" for permutation-like backends,
matching how words act in :mod:`verba.cover`.

Value-set enumeration, conjugacy classes, subgroup closure and breadth-first
ball growth use one contract: :meth:`FiniteGroup.mul` over broadcast numpy id
arrays, plus :meth:`FiniteGroup.inverses`.  ``mul`` looks products up in a
dense table of 16-bit ids built on first use, except for permutation groups
of order above ``TABLE_CAP`` (S7, S8, A8), where it composes the
permutations directly.
The scalar ``multiply`` / ``inverse`` use each backend's own arithmetic and
serve as an independent check of ``mul``.
"""
from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ResourceBudgetError, UnknownNameError
from .templates import GAMMA3_FAMILY, Template
from .words import Word

TABLE_CAP = 4096
# Dense tables have order at most 4096 (TABLE_CAP, SL2_13 at 2184, and
# _TABLE_ORDER_CAP), so 16-bit ids halve their memory.
_TABLE_IDS = np.int16
ENUMERATION_BUDGET = 10**8
_CHUNK = 1 << 18  # products per vectorized block
_TABLE_ORDER_CAP = 2048

_SL2_PRIMES = (2, 3, 5, 7, 11, 13)


class FiniteGroup:
    """Base class; elements are ids ``0 .. order-1``."""

    spec: str
    order: int
    identity: int

    def __init__(self, spec: str, order: int, identity: int) -> None:
        self.spec = spec
        self.order = order
        self.identity = identity
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._classes: tuple[np.ndarray, np.ndarray] | None = None
        # quotient_length's tables, keyed by (template key, budget)
        self._distance_tables: dict[tuple[str, int], DistanceTable] = {}

    def multiply(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def element_name(self, a: int) -> str:
        return str(a)

    def _build_table(self) -> np.ndarray:
        raise NotImplementedError

    def mul(self, a_ids, b_ids) -> np.ndarray:
        """Products ``a * b`` of broadcast id arrays, by table lookup."""
        if self._table is None:
            self._table = self._build_table()
        return self._table[a_ids, b_ids]

    def inverses(self) -> np.ndarray:
        if self._inverses is None:
            self._inverses = np.array(
                [self.inverse(a) for a in range(self.order)], dtype=np.int32
            )
        return self._inverses

    def conjugacy_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, reps)``: ``labels[a]`` is the class id of ``a`` and
        ``reps[c]`` the least id in class ``c``."""
        if self._classes is None:
            inv = self.inverses()
            ids = np.arange(self.order)
            labels = np.full(self.order, -1, dtype=np.int32)
            reps = []
            for a in range(self.order):
                if labels[a] < 0:
                    labels[self.mul(self.mul(inv, a), ids)] = len(reps)  # g^-1 a g
                    reps.append(a)
            self._classes = (labels, np.array(reps, dtype=np.int32))
        return self._classes


class PermutationGroup(FiniteGroup):
    def __init__(self, spec: str, degree: int, even_only: bool) -> None:
        perms = np.array(list(itertools.permutations(range(degree))), dtype=np.int64)
        if even_only:
            i, j = np.triu_indices(degree, 1)
            perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
        self.degree = degree
        self._perms = perms
        radix = degree ** np.arange(degree, dtype=np.int64)
        self._radix = radix
        codes = self._perms @ radix
        lookup = np.full(degree**degree, -1, dtype=np.int32)
        lookup[codes] = np.arange(len(perms), dtype=np.int32)
        self._lookup = lookup
        identity = int(lookup[np.arange(degree, dtype=np.int64) @ radix])
        super().__init__(spec, len(perms), identity)

    def multiply(self, a: int, b: int) -> int:
        composed = self._perms[b][self._perms[a]]  # first a, then b
        return int(self._lookup[composed @ self._radix])

    def inverse(self, a: int) -> int:
        perm = self._perms[a]
        inv = np.empty_like(perm)
        inv[perm] = np.arange(self.degree, dtype=np.int64)
        return int(self._lookup[inv @ self._radix])

    def element_name(self, a: int) -> str:
        return "(" + " ".join(str(v) for v in self._perms[a]) + ")"

    def mul(self, a_ids, b_ids) -> np.ndarray:
        # Above the cap a dense table (order**2 ids) costs more memory and
        # build time than composing the permutations of each product.
        if self.order <= TABLE_CAP:
            return super().mul(a_ids, b_ids)
        # first a, then b: composed[..., j] = perms[b][perms[a][j]]
        offsets = self.degree * np.asarray(b_ids)[..., None]
        composed = self._perms.ravel()[offsets + self._perms[a_ids]]
        return self._lookup[composed @ self._radix]

    def _build_table(self) -> np.ndarray:
        table = np.empty((self.order, self.order), dtype=_TABLE_IDS)
        for a in range(self.order):
            composed = self._perms[:, self._perms[a]]  # rows: all b after a
            table[a] = self._lookup[composed @ self._radix]
        return table


class SL2Group(FiniteGroup):
    def __init__(self, p: int) -> None:
        if p not in _SL2_PRIMES:
            raise UnknownNameError(f"SL2 backend supports primes {_SL2_PRIMES}, not {p}")
        self.p = p
        mats = [
            (a, b, c, d)
            for a in range(p)
            for b in range(p)
            for c in range(p)
            for d in range(p)
            if (a * d - b * c) % p == 1
        ]
        self._mats = np.array(mats, dtype=np.int64)
        radix = np.array([p**3, p**2, p, 1], dtype=np.int64)
        self._radix = radix
        lookup = np.full(p**4, -1, dtype=np.int32)
        lookup[self._mats @ radix] = np.arange(len(mats), dtype=np.int32)
        self._lookup = lookup
        identity = int(lookup[np.array([1, 0, 0, 1], dtype=np.int64) @ radix])
        super().__init__(f"SL2_{p}", len(mats), identity)

    def _mul_rows(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        a1, b1, c1, d1 = left.T
        a2, b2, c2, d2 = right.T
        p = self.p
        return np.stack(
            [
                (a1 * a2 + b1 * c2) % p,
                (a1 * b2 + b1 * d2) % p,
                (c1 * a2 + d1 * c2) % p,
                (c1 * b2 + d1 * d2) % p,
            ],
            axis=-1,
        )

    def multiply(self, a: int, b: int) -> int:
        prod = self._mul_rows(self._mats[a][None, :], self._mats[b][None, :])[0]
        return int(self._lookup[prod @ self._radix])

    def inverse(self, a: int) -> int:
        m = self._mats[a]
        p = self.p
        inv = np.array([m[3] % p, -m[1] % p, -m[2] % p, m[0] % p], dtype=np.int64)
        return int(self._lookup[inv @ self._radix])

    def element_name(self, a: int) -> str:
        m = self._mats[a]
        return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"

    def _build_table(self) -> np.ndarray:
        table = np.empty((self.order, self.order), dtype=_TABLE_IDS)
        for a in range(self.order):
            prod = self._mul_rows(self._mats[a][None, :], self._mats)
            table[a] = self._lookup[prod @ self._radix]
        return table


class TableGroup(FiniteGroup):
    def __init__(self, spec: str, table: np.ndarray) -> None:
        order = table.shape[0]
        if order > _TABLE_ORDER_CAP:
            raise ResourceBudgetError(
                f"table backend validates groups up to order {_TABLE_ORDER_CAP}"
            )
        identity = _validate_table(table)
        super().__init__(spec, order, identity)
        self._table = table.astype(_TABLE_IDS)
        # a validated table is a group, so right inverses are inverses
        self._inverses = np.argmax(self._table == identity, axis=1).astype(np.int32)

    def multiply(self, a: int, b: int) -> int:
        return int(self._table[a, b])

    def inverse(self, a: int) -> int:
        return int(self._inverses[a])


def _validate_table(table: np.ndarray) -> int:
    """Check that ``table`` is a group's multiplication table; return its identity.

    Associativity is Light's test: the ``s`` with ``(xs)y == x(sy)`` for all
    ``x, y`` are closed under products, so it runs on a greedy generating set
    only, of at most ``log2(order)`` elements (each at least doubles the span).
    """
    order = table.shape[0]
    if table.shape != (order, order):
        raise ParseError("multiplication table must be square")
    if table.min() < 0 or table.max() >= order:
        raise ParseError("table entries must be ids in range")
    # the sorts and gathers below copy the table; the smallest id type keeps them small
    table = table.astype(np.min_scalar_type(order))
    ids = np.arange(order)
    if not (np.sort(table, axis=1) == ids).all():
        raise ParseError("table rows are not permutations (not left-cancellative)")
    if not (np.sort(table, axis=0) == ids[:, None]).all():
        raise ParseError("table columns are not permutations (not right-cancellative)")
    units = np.flatnonzero((table == ids).all(axis=1) & (table == ids[:, None]).all(axis=0))
    if units.size == 0:
        raise ParseError("table has no identity element")
    spanned = ids == units[0]
    while not spanned.all():
        s = int(np.argmin(spanned))  # the least id outside the span
        if not _associates_through(table, s):
            raise ParseError(f"table is not associative (first failure at element {s})")
        spanned[s] = True
        while True:
            members = np.flatnonzero(spanned)
            spanned[table[np.ix_(members, members)]] = True
            if spanned.sum() == members.size:
                break
    return int(units[0])


def _associates_through(table: np.ndarray, s: int) -> bool:
    return np.array_equal(table[table[:, s], :], table[:, table[s, :]])  # (xs)y == x(sy)


def parse_table_text(spec: str, text: str) -> TableGroup:
    rows: list[np.ndarray] = []
    order: int | None = None
    with warnings.catch_warnings():
        # numpy stops at the first token that is not an integer, and warns
        warnings.simplefilter("error", DeprecationWarning)
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if order is None:
                head, _, value = line.partition(" ")
                if head != "order" or not value.strip().isdigit():
                    raise ParseError("table file must start with 'order N'")
                order = int(value)
                continue
            try:
                rows.append(np.fromstring(line, dtype=np.int64, sep=" "))
            except (ValueError, DeprecationWarning) as exc:
                raise ParseError(f"bad table row {line!r}") from exc
    if order is None:
        raise ParseError("empty table file")
    if len(rows) != order or any(row.size != order for row in rows):
        raise ParseError(f"expected {order} rows of {order} entries")
    return TableGroup(spec, np.array(rows, dtype=np.int64))


def dihedral_table(k: int) -> np.ndarray:
    """Multiplication table of the order ``2k`` dihedral group.

    Element ``i + k*f`` is (rotation ``i``, flip ``f``), with
    ``(i,f) * (j,e) = (i + j*(-1)^f mod k, f xor e)``.
    """
    if k < 3:
        raise ValueError("dihedral groups need k >= 3")
    flip, rot = np.divmod(np.arange(2 * k), k)
    return (rot[:, None] + (1 - 2 * flip[:, None]) * rot) % k + k * (flip[:, None] ^ flip)


def load_group(spec: str) -> FiniteGroup:
    """Instantiate a group from its spec string (see module docstring)."""
    if spec.startswith("table:"):
        path = Path(spec[len("table:") :])
        try:
            text = path.read_text()
        except OSError as exc:
            raise UnknownNameError(f"cannot read table file {path}: {exc}") from exc
        return parse_table_text(spec, text)
    # at most 9 digits, so no int() runs on a long digit string
    match = re.fullmatch(r"(S|A|SL2_|D)([0-9]{1,9})", spec)
    if match is None:
        raise UnknownNameError(f"unknown group spec {spec!r}")
    kind, n = match.group(1), int(match.group(2))
    if kind == "SL2_":
        return SL2Group(n)
    if kind == "D":
        if n < 3:
            raise UnknownNameError(f"D<k> backend supports 3 <= k <= {_TABLE_ORDER_CAP // 2}")
        if 2 * n > _TABLE_ORDER_CAP:
            raise ResourceBudgetError(
                f"D{n} has order {2 * n}; the table backend validates groups"
                f" up to order {_TABLE_ORDER_CAP}"
            )
        return TableGroup(spec, dihedral_table(n))
    low = 2 if kind == "S" else 3
    if not (low <= n <= 8):
        raise UnknownNameError(f"{kind}<n> backend supports {low} <= n <= 8")
    return PermutationGroup(spec, n, even_only=kind == "A")


def registry_small_groups() -> list[str]:
    """The stock groups of order at most 60 used by the cross-checks."""
    return ["S3", "S4", "A4", "A5", "SL2_3", "D4", "D6", "D7", "D10"]


# ---------------------------------------------------------------------------
# word evaluation and verbal value sets

def eval_word(group: FiniteGroup, w: Word, images: dict[int, int]) -> int:
    """Image of ``w`` under generator assignment ``images`` (ids)."""
    missing = [i for i in w.generators() if i not in images]
    if missing:
        raise ValueError(f"assignment misses generators {missing}")
    acc = group.identity
    for index, sign in w.letters:
        value = images[index] if sign == 1 else group.inverse(images[index])
        acc = group.multiply(acc, value)
    return acc


def _assignment_columns(
    group: FiniteGroup, first: np.ndarray, count: int, start: int, stop: int
) -> list[np.ndarray]:
    """Columns of the mixed-radix assignment block ``start..stop``: the first
    variable runs over the ids ``first``, the others over the whole group."""
    idx = np.arange(start, stop, dtype=np.int64)
    columns = [first[idx % len(first)]]
    idx //= len(first)
    for _ in range(count - 1):
        columns.append((idx % group.order).astype(np.int32))
        idx //= group.order
    return columns


def _eval_template_block(
    group: FiniteGroup, body: Word, columns: dict[int, np.ndarray], size: int
) -> np.ndarray:
    inv = group.inverses()
    acc = np.full(size, group.identity, dtype=np.int32)
    for index, sign in body.letters:
        col = columns[index] if sign == 1 else inv[columns[index]]
        acc = group.mul(acc, col)
    return acc


def _row_blocks(ids: np.ndarray, width: int):
    """``ids`` as column vectors of at most ``_CHUNK // width`` rows each."""
    step = max(1, _CHUNK // max(width, 1))
    for start in range(0, len(ids), step):
        yield ids[start : start + step, None]


def template_values(
    group: FiniteGroup, template: Template, budget: int = ENUMERATION_BUDGET
) -> np.ndarray:
    """Sorted ids of all values of ``template`` in ``group``.

    A word map commutes with simultaneous conjugation, so with ``k >= 2``
    variables the first runs over one representative per conjugacy class,
    the others over the whole group, and the values found are closed under
    conjugation: ``classes * order**(k-1)`` assignments.  The budget still
    counts ``order**k`` (``ResourceBudgetError`` beyond it).  The set-valued
    commutator-of-derived-element family is computed from the derived
    subgroup instead of by assignment enumeration.
    """
    if template is GAMMA3_FAMILY or template.key == GAMMA3_FAMILY.key:
        return _gamma3_family_values(group, budget)
    if template.body is None:
        raise UnknownNameError(f"cannot enumerate template {template.label!r}")
    k = len(template.variables)
    total = group.order**k
    if total > budget:
        raise ResourceBudgetError(
            f"enumerating {template.label} over {group.spec} needs {group.order}^{k} assignments"
            f" (budget {budget})"
        )
    if k < 2:
        first, count = np.arange(group.order, dtype=np.int32), total
    else:
        first = group.conjugacy_labels()[1]
        count = len(first) * group.order ** (k - 1)
    seen = np.zeros(group.order, dtype=bool)
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        cols = _assignment_columns(group, first, k, start, stop)
        columns = dict(zip(template.variables, cols))
        seen[_eval_template_block(group, template.body, columns, stop - start)] = True
    if k >= 2:
        seen = _conjugates(group, seen)
    return np.flatnonzero(seen).astype(np.int32)


def _conjugates(group: FiniteGroup, seen: np.ndarray) -> np.ndarray:
    """The mask ``seen`` widened to every conjugate of a marked element."""
    labels = group.conjugacy_labels()[0]
    return np.isin(labels, labels[seen])


def _bfs_distances(group: FiniteGroup, seed_ids: np.ndarray) -> np.ndarray:
    """Breadth-first levels from the identity, one step being right
    multiplication by a seed or its inverse; ``-1`` where never reached."""
    steps = np.unique(np.concatenate([seed_ids, group.inverses()[seed_ids]]))
    distances = np.full(group.order, -1, dtype=np.int32)
    distances[group.identity] = 0
    frontier = np.array([group.identity], dtype=np.int32)
    unplaced = group.order - 1
    level = 0
    while frontier.size and unplaced:
        level += 1
        hit = np.zeros(group.order, dtype=bool)
        for rows in _row_blocks(frontier, len(steps)):
            hit[group.mul(rows, steps)] = True
        frontier = np.nonzero(hit & (distances < 0))[0].astype(np.int32)
        distances[frontier] = level
        unplaced -= frontier.size
    return distances


def closure(group: FiniteGroup, seed_ids: np.ndarray) -> np.ndarray:
    """Ids of the subgroup generated by ``seed_ids`` (products of seeds)."""
    return np.nonzero(_bfs_distances(group, seed_ids) >= 0)[0].astype(np.int32)


def derived_subgroup(group: FiniteGroup, budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    from .templates import gamma_word

    commutators = template_values(group, gamma_word(2), budget)
    return closure(group, commutators)


def _gamma3_family_values(group: FiniteGroup, budget: int) -> np.ndarray:
    derived = derived_subgroup(group, budget)
    if group.order * len(derived) > budget:
        raise ResourceBudgetError("commutator-of-derived enumeration over budget")
    # The derived subgroup is normal, so [u, d] need only run over one u
    # per conjugacy class.
    inv = group.inverses()
    seen = np.zeros(group.order, dtype=bool)
    for u in _row_blocks(group.conjugacy_labels()[1], len(derived)):
        ud = group.mul(u, derived)
        seen[group.mul(group.mul(ud, inv[u]), inv[derived])] = True
    return np.flatnonzero(_conjugates(group, seen)).astype(np.int32)


# ---------------------------------------------------------------------------
# ball growth

@dataclass
class DistanceTable:
    """Distances from the identity in the (symmetrized) verbal Cayley graph.

    ``distances[g]`` is the least number of template values and inverses of
    values multiplying to ``g``, or ``-1`` when ``g`` is not a product of
    them at all.
    """

    group_spec: str
    template_key: str
    distances: np.ndarray

    def distance(self, element: int) -> int | None:
        value = int(self.distances[element])
        return None if value < 0 else value

    def reachable_count(self) -> int:
        return int((self.distances >= 0).sum())

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.distances[self.distances >= 0], return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def wlength_table(
    group: FiniteGroup, template: Template, budget: int = ENUMERATION_BUDGET
) -> DistanceTable:
    """Breadth-first word lengths over the template's value set in ``group``."""
    values = template_values(group, template, budget)
    return DistanceTable(group.spec, template.key, _bfs_distances(group, values))


def bi_invariance_check(
    group: FiniteGroup,
    table: DistanceTable,
    trials: int = 1000,
    seed: int = 0,
) -> bool:
    """Spot-check ``d(g,h) = d(fg,fh) = d(gf,hf)`` on random triples.

    ``d(g,h)`` means the table distance of ``g^-1 h``; ``g`` and ``h`` are
    sampled from the reachable set so the distances are defined, ``f`` from
    the whole group.
    """
    rng = np.random.default_rng(seed)
    reachable = np.nonzero(table.distances >= 0)[0]
    if reachable.size == 0:
        return True
    g = rng.choice(reachable, size=trials)
    h = rng.choice(reachable, size=trials)
    f = rng.integers(group.order, size=trials)
    inv = group.inverses()
    d = table.distances
    base = d[group.mul(inv[g], h)]
    left = d[group.mul(inv[group.mul(f, g)], group.mul(f, h))]
    right = d[group.mul(inv[group.mul(g, f)], group.mul(h, f))]
    return bool(np.array_equal(base, left) and np.array_equal(base, right))


def quotient_length(
    w: Word,
    template: Template,
    group: FiniteGroup,
    images: dict[int, int],
    budget: int = ENUMERATION_BUDGET,
) -> int | None:
    """Length of the image of ``w`` in ``group`` over the template's values.

    ``None`` means the image is not a product of values at all, which
    certifies that ``w`` itself is no such product.  Any finite result is a
    lower bound for the length of ``w`` wherever the assignment lifts.  The
    distance table is built once per group instance, template and budget.
    """
    key = (template.key, budget)
    if key not in group._distance_tables:
        group._distance_tables[key] = wlength_table(group, template, budget)
    return group._distance_tables[key].distance(eval_word(group, w, images))
