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

Word evaluation, value-set enumeration, conjugacy classes and breadth-first
ball growth use one contract: :meth:`FiniteGroup.mul` over
broadcast numpy id arrays, plus :meth:`FiniteGroup.inverses`.  Each
arithmetic backend has one vectorized ``_product``, its own arithmetic on
broadcast ids.  ``mul`` alone chooses: a dense table of 16-bit ids up to
``TABLE_CAP`` (2048, so a table holds at most 8 MiB), ``_product`` above it
(S7, A7, SL2_13, S8, A8).  The base class builds each such table from the
``_product`` rows of a greedy generating set, one right coset at a time.
``inverses`` comes from each backend's arrays: an argsort of the
permutations, the matrices' adjugates, or the identity's position in each
table row.  The scalar ``multiply`` / ``inverse`` only check ``mul`` and ``inverses``.

Every template's values come from its bracket shape (``template_values``):
a commutator or product of parts over disjoint variables pairs the class
representatives among one part's values with all of the other's and closes
the result under conjugation (``_times``); a leaf word enumerates its
assignments, the first of two or more variables over class representatives;
``Gamma3`` is ``[x1, d]`` with ``d`` over the subgroup the commutators
generate.  Balls are unions of classes too, and the breadth-first search
forms each level by ``_times``.  ``ENUMERATION_BUDGET`` counts the products
and assignments formed, and the search's frontier classes times steps.  A
distance table is bi-invariant exactly when it is constant on each class.

``load_group`` builds each stock group once per process (it keeps the last
32 stock specs loaded, ``S07`` being ``S7``) and serves it to every later
caller, with all it has derived: its dense table, inverses, conjugacy
classes and ``wlength_table``'s last ``_TABLES_HELD`` tables, the one memo
of distance tables.  All of it is read-only, as every caller shares it.  A
``table:`` group is read afresh on every load, as its file can change; this
is the file's only reader, and the group's ``source`` is the sha256 of the
table it parsed (``""`` for every other group), by which :mod:`verba.cache`
names its entries.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import grammar
from .errors import ParseError, ResourceBudgetError, UnknownNameError
from .templates import Shape, Template
from .words import Word, commutator, gen

# The largest order with a dense table, built or read from a table file.
# Its 16-bit ids keep a table at most 8 MiB, and memoized groups hold theirs.
TABLE_CAP = 2048
_TABLE_IDS = np.int16
ENUMERATION_BUDGET = 10**8
_TABLES_HELD = 16  # wlength_table's distance tables kept per group, the oldest dropped first
_CHUNK = 1 << 18  # products per vectorized block

_SL2_PRIMES = (2, 3, 5, 7, 11, 13)


class FiniteGroup:
    """Base class; elements are ids ``0 .. order-1``."""

    spec: str
    order: int
    identity: int
    source = ""  # a ``table:`` group's sha256 of the table it parsed

    def __init__(self, spec: str, order: int, identity: int) -> None:
        self.spec = spec
        self.order = order
        self.identity = identity
        self._table: np.ndarray | None = None
        self._inverses: np.ndarray | None = None
        self._classes: tuple[np.ndarray, np.ndarray] | None = None
        # wlength_table's last _TABLES_HELD tables, the one memo of them, by template key
        self._distance_tables: dict[str, DistanceTable] = {}

    def multiply(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def element_name(self, a: int) -> str:
        return str(a)

    def _product(self, a_ids, b_ids) -> np.ndarray:
        """Products ``a * b`` of broadcast id arrays, by the backend's own arithmetic."""
        raise NotImplementedError

    def mul(self, a_ids, b_ids) -> np.ndarray:
        """Products ``a * b`` of broadcast id arrays: a dense-table lookup up to
        ``TABLE_CAP``, where the table is built on first use, ``_product`` above."""
        if self.order > TABLE_CAP:
            return self._product(a_ids, b_ids)
        if self._table is None:
            self._table = _frozen(self._build_table())
        return self._table[a_ids, b_ids]

    def _build_table(self) -> np.ndarray:
        """The dense table, by Dimino's coset enumeration: ``_product`` gives the
        row of each generator ``y`` (the least id outside the span ``H`` so far),
        and as ``(hy)b = h(yb)`` each new coset ``H*y`` is ``H``'s rows gathered
        through ``y``'s row, in blocks of at most ``_CHUNK`` entries."""
        order = self.order
        ids = np.arange(order)
        table = np.empty((order, order), dtype=_TABLE_IDS)
        table[self.identity] = ids
        spanned, generators = ids == self.identity, []
        while not spanned.all():
            y = int(np.argmin(spanned))
            table[y] = self._product(y, ids)
            generators.append(y)
            subgroup, reps = np.flatnonzero(spanned), [y]
            for r in reps:  # the coset representatives, appended to while read
                if spanned[r]:
                    continue
                for rows in _row_blocks(subgroup, order):
                    table[table[rows[:, 0], r]] = np.take(table[rows[:, 0]], table[r], axis=1)
                spanned[table[subgroup, r]] = True
                for s in generators:
                    rs = int(table[r, s])
                    if not spanned[rs]:
                        table[rs] = table[r, table[s]]  # (rs)b = r(sb)
                        reps.append(rs)
        return table

    def _build_inverses(self) -> np.ndarray:
        raise NotImplementedError

    def inverses(self) -> np.ndarray:
        """``inverses()[a]`` is the id of ``a``'s inverse, built on first use."""
        if self._inverses is None:
            self._inverses = _frozen(self._build_inverses())
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
            self._classes = (_frozen(labels), _frozen(np.array(reps, dtype=np.int32)))
        return self._classes


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a memoized group shares it with every caller."""
    array.setflags(write=False)
    return array


class PermutationGroup(FiniteGroup):
    def __init__(self, spec: str, degree: int, even_only: bool) -> None:
        perms = np.array(list(itertools.permutations(range(degree))), dtype=np.int64)
        if even_only:
            i, j = np.triu_indices(degree, 1)
            perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
        self.degree = degree
        self._perms = perms
        # the first degree - 1 images fix a permutation, so the last gets radix 0
        radix = degree ** np.arange(degree, dtype=np.int64)
        radix[-1] = 0
        self._radix = radix
        codes = self._perms @ radix
        # ids as narrow as the dense table's; above TABLE_CAP ``mul`` returns them
        ids = _TABLE_IDS if len(perms) <= TABLE_CAP else np.int32
        lookup = np.full(degree ** (degree - 1), -1, dtype=ids)
        lookup[codes] = np.arange(len(perms))
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

    def _build_inverses(self) -> np.ndarray:
        # sorting a permutation's images by value lists its inverse
        return self._lookup[np.argsort(self._perms, axis=1) @ self._radix].astype(np.int32)

    def _product(self, a_ids, b_ids) -> np.ndarray:
        # first a, then b: composed[..., j] = perms[b][perms[a][j]]
        offsets = self.degree * np.asarray(b_ids)[..., None]
        composed = self._perms.ravel()[offsets + self._perms[a_ids]]
        return self._lookup[composed @ self._radix]


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

    def _product(self, a_ids, b_ids) -> np.ndarray:
        squares = self._mats.reshape(-1, 2, 2)
        prod = (squares[a_ids] @ squares[b_ids]) % self.p  # broadcast 2x2 matrix products
        return self._lookup[prod.reshape(prod.shape[:-2] + (4,)) @ self._radix]

    def multiply(self, a: int, b: int) -> int:
        (a1, b1, c1, d1), (a2, b2, c2, d2) = self._mats[a], self._mats[b]
        prod = [a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2]
        return int(self._lookup[(np.array(prod) % self.p) @ self._radix])

    def inverse(self, a: int) -> int:
        m = self._mats[a]
        p = self.p
        inv = np.array([m[3] % p, -m[1] % p, -m[2] % p, m[0] % p], dtype=np.int64)
        return int(self._lookup[inv @ self._radix])

    def element_name(self, a: int) -> str:
        m = self._mats[a]
        return f"[[{m[0]},{m[1]}],[{m[2]},{m[3]}]]"

    def _build_inverses(self) -> np.ndarray:
        # determinant one, so the inverse is the adjugate (d, -b, -c, a)
        a, b, c, d = self._mats.T
        adjugate = np.stack([d, -b % self.p, -c % self.p, a], axis=-1)
        return self._lookup[adjugate @ self._radix].astype(np.int32)


class TableGroup(FiniteGroup):
    def __init__(self, spec: str, table: np.ndarray) -> None:
        order = table.shape[0]
        if order > TABLE_CAP:
            raise ResourceBudgetError(f"table backend validates groups up to order {TABLE_CAP}")
        identity = _validate_table(table)
        super().__init__(spec, order, identity)
        self._table = table.astype(_TABLE_IDS, copy=False)
        # a validated table is a group, so right inverses are inverses
        self._inverses = _frozen(np.argmax(self._table == identity, axis=1).astype(np.int32))

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
                if head == "order":
                    order = grammar.read_decimal(value.strip(), "table order")
                if order is None:
                    raise ParseError("table file must start with 'order N'")
                continue
            try:
                row = np.fromstring(line, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning) as exc:
                raise ParseError(f"bad table row {line!r}") from exc
            # narrowed as read; -1 stands in for an id out of range, which validation rejects
            rows.append(np.where((row >= 0) & (row < order), row, -1).astype(_TABLE_IDS))
    if order is None:
        raise ParseError("empty table file")
    if len(rows) != order or any(row.size != order for row in rows):
        raise ParseError(f"expected {order} rows of {order} entries")
    table = np.array(rows, dtype=_TABLE_IDS)
    group = TableGroup(spec, table)
    group.source = hashlib.sha256(table).hexdigest()  # read from the buffer, not copied
    return group


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
    """The group of a spec string (see module docstring).  A stock group's
    number is read without leading zeros, so ``S07`` is ``S7``, the same
    object for the life of the process."""
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
    return _stock_group(match.group(1), int(match.group(2)))


@functools.lru_cache(maxsize=32)
def _stock_group(kind: str, n: int) -> FiniteGroup:
    """The stock group ``<kind><n>``, built once per process; a refused spec
    raises, and is not memoized."""
    if kind == "SL2_":
        return SL2Group(n)
    if kind == "D":
        if n < 3:
            raise UnknownNameError(f"D<k> backend supports 3 <= k <= {TABLE_CAP // 2}")
        if 2 * n > TABLE_CAP:
            raise ResourceBudgetError(
                f"D{n} has order {2 * n}; the table backend validates groups"
                f" up to order {TABLE_CAP}"
            )
        return TableGroup(f"D{n}", dihedral_table(n))
    low = 2 if kind == "S" else 3
    if not (low <= n <= 8):
        raise UnknownNameError(f"{kind}<n> backend supports {low} <= n <= 8")
    return PermutationGroup(f"{kind}{n}", n, even_only=kind == "A")


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
    return int(_evaluate(group, w, images))


def _evaluate(group: FiniteGroup, body: Word, values):
    """Image of ``body`` with generator ``i`` sent to ``values[i]``, an id or
    an array of ids (one entry per assignment), multiplied through ``mul``."""
    inv = group.inverses()
    acc = group.identity
    for n, code in enumerate(body.codes):
        value = inv[values[code >> 1]] if code & 1 else values[code >> 1]
        acc = value if n == 0 else group.mul(acc, value)
    return acc


def _row_blocks(ids: np.ndarray, width: int):
    """``ids`` as column vectors of at most ``_CHUNK // width`` rows each."""
    step = max(1, _CHUNK // max(width, 1))
    for start in range(0, len(ids), step):
        yield ids[start : start + step, None]


def template_values(group: FiniteGroup, template: Template) -> np.ndarray:
    """Sorted ids of all values of ``template`` in ``group``, from its bracket
    shape (``Template.shape``).

    A word map commutes with simultaneous conjugation, so every value set is
    closed under it (Segal, *Words: notes on verbal width in groups*, 2009).
    A product or commutator of parts over disjoint variables is ``_times``
    of its parts' values; a product of more parts folds from the left, and
    skips a factor whose values once left the fold unchanged.  A single
    letter takes every value; any other leaf evaluates its body on every
    assignment of its variables, the first over class representatives when
    there are two or more.  A closure is the subgroup its part's values
    generate.  Equal shapes have equal values and are evaluated once.
    ``ENUMERATION_BUDGET`` counts the products each node forms, a leaf's
    being its assignments times one less than its length, before forming
    them (``ResourceBudgetError`` once the total passes it).
    """
    spend = _budget(f"enumerating {template.label} over {group.spec}", "products and assignments")
    return np.flatnonzero(_shape_values(group, template.shape, spend, {})).astype(np.int32)


def _shape_values(group: FiniteGroup, shape: Shape, spend, known: dict) -> np.ndarray:
    """The mask of ``shape``'s values; ``known`` maps each shape evaluated so
    far to its mask.  (A module-level function: a recursive closure would be
    a reference cycle that keeps the group and its table alive until the
    cyclic garbage collector runs.)"""
    mask = known.get(shape)
    if mask is None:
        if shape.op == "word":
            mask = _word_values(group, shape.parts[0], spend)
        else:
            parts = [_shape_values(group, part, spend, known) for part in shape.parts]
            mask = _node_values(group, shape.op, parts, spend)
        known[shape] = mask
    return mask


_PAIR_BODIES = {"product": gen(1) * gen(2), "commutator": commutator(gen(1), gen(2))}


def _node_values(group: FiniteGroup, op: str, masks: list, spend) -> np.ndarray:
    """The mask of a closure, commutator or product of parts with value masks
    ``masks``; ``spend(count)`` before forming ``count`` products."""
    if op == "closure":
        return _bfs_distances(group, np.flatnonzero(masks[0])) >= 0
    # Conjugation-closed sets commute (nm = (n m n^-1) n), so once
    # values * right == values it stays so however the fold grows.
    values, settled = masks[0], set()
    for right in masks[1:]:
        if id(right) in settled:
            continue
        seen = _times(group, op, values, right, spend)
        if np.array_equal(seen, values):
            settled.add(id(right))
        values = seen
    return values


def _times(group: FiniteGroup, op: str, left: np.ndarray, right: np.ndarray, spend) -> np.ndarray:
    """The mask of the ``op`` ("product" or "commutator") of ``a`` in mask
    ``left`` and ``b`` in mask ``right``, both closed under conjugation;
    ``spend(count)`` before forming ``count``.  As ``(a^g) b = (a b^(g^-1))^g``
    and ``[a^g, b] = [a, b^(g^-1)]^g``, ``a`` runs over ``left``'s class
    representatives only, in blocks of ``_CHUNK``, and the result is widened."""
    reps = group.conjugacy_labels()[1]
    firsts, seconds = reps[left[reps]], np.flatnonzero(right)
    spend(len(firsts) * len(seconds))
    seen = np.zeros(group.order, dtype=bool)
    for rows in _row_blocks(firsts, len(seconds)):
        seen[_evaluate(group, _PAIR_BODIES[op], {1: rows, 2: seconds})] = True
    return _conjugates(group, seen)


def _budget(what: str, formed: str):
    """A ``spend(count)`` that raises once its counts pass ``ENUMERATION_BUDGET``."""
    spent = 0

    def spend(count: int) -> None:
        nonlocal spent
        spent += count
        if spent > ENUMERATION_BUDGET:
            raise ResourceBudgetError(
                f"{what} needs at least {spent} {formed} (budget {ENUMERATION_BUDGET})"
            )

    return spend


def _word_values(group: FiniteGroup, body: Word, spend) -> np.ndarray:
    """The mask of ``body``'s values, by one loop over every assignment in
    blocks of ``_CHUNK``; with two or more variables the first runs over
    class representatives and the values found are widened to their
    conjugates."""
    if len(body) == 1:
        return np.ones(group.order, dtype=bool)
    variables = body.generators()
    k = len(variables)
    domains = dict.fromkeys(variables, np.arange(group.order, dtype=np.int32))
    if k >= 2:
        domains[variables[0]] = group.conjugacy_labels()[1]
    count = len(domains[variables[0]]) * group.order ** (k - 1) if k else 1
    spend(count * max(len(body) - 1, 0))  # the products _evaluate forms
    seen = np.zeros(group.order, dtype=bool)
    for start in range(0, count, _CHUNK):
        rest = np.arange(start, min(start + _CHUNK, count), dtype=np.int32)  # count <= budget < 2**31
        columns = {}
        for var, ids in domains.items():  # mixed radix, the first variable the fastest digit
            columns[var] = ids[rest % len(ids)]
            rest //= len(ids)
        seen[_evaluate(group, body, columns)] = True
    return _conjugates(group, seen) if k >= 2 else seen


def _conjugates(group: FiniteGroup, seen: np.ndarray) -> np.ndarray:
    """The mask ``seen`` widened to every conjugate of a marked element."""
    labels, reps = group.conjugacy_labels()
    classes = np.zeros(len(reps), dtype=bool)
    classes[labels[seen]] = True
    return classes[labels]


def _bfs_distances(group: FiniteGroup, seed_ids: np.ndarray) -> np.ndarray:
    """Breadth-first levels from the identity, one step being right
    multiplication by a seed or its inverse; ``-1`` where never reached.
    The seeds must be a union of conjugacy classes, as every value set is;
    then so is each level, the last one ``_times`` the steps, and
    ``ENUMERATION_BUDGET`` counts its classes times the steps."""
    steps = np.zeros(group.order, dtype=bool)
    steps[seed_ids] = steps[group.inverses()[seed_ids]] = True
    distances = np.full(group.order, -1, dtype=np.int32)
    distances[group.identity] = 0
    frontier = distances == 0
    spend = _budget(f"breadth-first search over {group.spec}", "products")
    level = 0
    while frontier.any() and (distances < 0).any():
        level += 1
        frontier = _times(group, "product", frontier, steps, spend) & (distances < 0)
        distances[frontier] = level
    return distances


# ---------------------------------------------------------------------------
# ball growth

@dataclass(frozen=True)
class DistanceTable:
    """Distances from the identity in the (symmetrized) verbal Cayley graph.

    ``distances[g]`` is the least number of template values and inverses of
    values multiplying to ``g``, or ``-1`` when ``g`` is not a product of
    them at all.  Frozen, as a group shares the tables it holds.
    """

    distances: np.ndarray

    def distance(self, element: int) -> int | None:
        value = int(self.distances[element])
        return None if value < 0 else value

    def reachable_count(self) -> int:
        return int((self.distances >= 0).sum())

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.distances[self.distances >= 0], return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def wlength_table(group: FiniteGroup, template: Template) -> DistanceTable:
    """Breadth-first word lengths over the template's values in ``group``, held by the group."""
    tables = group._distance_tables
    if template.key not in tables:
        table = _build_distance_table(group, template)  # reads the budget; raises holding nothing
        if len(tables) >= _TABLES_HELD:
            del tables[next(iter(tables))]  # the oldest first
        tables[template.key] = table
    return tables[template.key]


def _build_distance_table(group: FiniteGroup, template: Template) -> DistanceTable:
    return DistanceTable(_frozen(_bfs_distances(group, template_values(group, template))))


def bi_invariance_check(group: FiniteGroup, table: DistanceTable) -> bool:
    """Decide whether the metric ``d(g,h) = table distance of g^-1 h`` is bi-invariant.

    It is left-invariant in every group, as ``(fg)^-1 fh = g^-1 h``.  It is
    right-invariant exactly when ``d(f^-1 x f) = d(x)`` for every ``x`` and
    ``f``: when ``d`` is constant on each conjugacy class.
    """
    labels, reps = group.conjugacy_labels()
    return np.array_equal(table.distances[reps[labels]], table.distances)


def quotient_length(
    w: Word, template: Template, group: FiniteGroup, images: dict[int, int]
) -> int | None:
    """Length of the image of ``w`` in ``group`` over the template's values.

    ``None`` means the image is not a product of values at all, which certifies
    that ``w`` itself is no such product; a finite result is a lower bound for the
    length of ``w`` wherever the assignment lifts.  The table is ``wlength_table``'s.
    """
    return wlength_table(group, template).distance(eval_word(group, w, images))
