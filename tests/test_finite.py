"""Finite-group backends, verbal value sets, and Cayley-graph distances.

The distance checks here compare the vectorized implementation against a
deliberately naive oracle: enumerate template values by looping over raw
assignments with ``multiply``/``inverse`` only, then run a set-based
breadth-first search one level at a time.
"""
from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from helpers import relabel, table_text
from verba import finite, grammar
from verba.errors import ParseError, ResourceBudgetError, UnknownNameError
from verba.finite import (
    TABLE_CAP,
    TableGroup,
    bi_invariance_check,
    closure,
    dihedral_table,
    eval_word,
    load_group,
    parse_table_text,
    quotient_length,
    registry_small_groups,
    template_values,
    wlength_table,
)
from verba.templates import (
    GAMMA3_FAMILY,
    beta_word,
    commutator_product_word,
    gamma_word,
    template_from_word,
)
from verba.words import EMPTY, Word, commutator, gen, power


# ---------------------------------------------------------------------------
# independent oracles

def oracle_eval(group, word, images):
    acc = group.identity
    for index, sign in word.letters:
        value = images[index] if sign == 1 else group.inverse(images[index])
        acc = group.multiply(acc, value)
    return acc


def oracle_values(group, body, variables):
    out = set()
    for assignment in itertools.product(range(group.order), repeat=len(variables)):
        out.add(oracle_eval(group, body, dict(zip(variables, assignment))))
    return out


def oracle_is_group(table):
    """The cubic check: a Latin square with a two-sided identity in which
    ``(ab)c == a(bc)`` for every triple."""
    t = np.asarray(table).tolist()
    ids = list(range(len(t)))
    if any(sorted(row) != ids for row in t) or any(sorted(col) != ids for col in zip(*t)):
        return False
    if not any(t[e] == ids and [row[e] for row in t] == ids for e in ids):
        return False
    return all(t[t[a][b]][c] == t[a][t[b][c]] for a, b, c in itertools.product(ids, repeat=3))


def oracle_distances(group, values):
    """Set-based level BFS from the identity over values and their inverses."""
    gens = set(values) | {group.inverse(v) for v in values}
    dist = {group.identity: 0}
    frontier = [group.identity]
    level = 0
    while frontier:
        level += 1
        fresh = []
        for a in frontier:
            for s in gens:
                b = group.multiply(a, s)
                if b not in dist:
                    dist[b] = level
                    fresh.append(b)
        frontier = fresh
    return dist


def oracle_subgroup_closure(group, seed):
    members = {group.identity}
    frontier = [group.identity]
    gens = set(seed) | {group.inverse(v) for v in seed}
    while frontier:
        fresh = []
        for a in frontier:
            for s in gens:
                b = group.multiply(a, s)
                if b not in members:
                    members.add(b)
                    fresh.append(b)
        frontier = fresh
    return members


def oracle_gamma3_family(group):
    """Commutators [u, d] with d in the subgroup generated by all commutators."""
    plain = oracle_values(group, gamma_word(2).body, gamma_word(2).variables)
    derived = oracle_subgroup_closure(group, plain)
    want = set()
    for u in range(group.order):
        for d in derived:
            ud = group.multiply(u, d)
            want.add(group.multiply(group.multiply(ud, group.inverse(u)), group.inverse(d)))
    return want


@functools.lru_cache(maxsize=None)
def scalar_table(spec):
    """The group ``spec`` with ``multiply`` and ``inverse`` of every id as
    plain lists: ``(group, products, inverses)``."""
    group = load_group(spec)
    ids = range(group.order)
    products = [[group.multiply(a, b) for b in ids] for a in ids]
    return group, products, [group.inverse(a) for a in ids]


def tabled_oracle_values(spec, template):
    """Brute force over every assignment, like ``oracle_values``, by lookups
    in ``scalar_table``."""
    group, products, inverses = scalar_table(spec)
    letters = [(template.variables.index(i), sign) for i, sign in template.body.letters]
    out = set()
    for assignment in itertools.product(range(group.order), repeat=len(template.variables)):
        acc = group.identity
        for pos, sign in letters:
            value = assignment[pos]
            acc = products[acc][value if sign == 1 else inverses[value]]
        out.add(acc)
    return out


def structure_values(spec):
    """Each stock template's value set from its structure: ``[x,y]``,
    ``[u,c]``, ``[u,d]``, ``[c,d]`` and ``c*d`` for commutator values ``c``
    and ``d`` and ``d`` in the derived subgroup."""
    group, products, inverses = scalar_table(spec)

    def comm(a, b):
        return products[products[products[a][b]][inverses[a]]][inverses[b]]

    ids = range(group.order)
    commutators = {comm(x, y) for x in ids for y in ids}
    derived = oracle_subgroup_closure(group, commutators)
    return {
        "gamma2": commutators,
        "gamma3": {comm(u, c) for u in ids for c in commutators},
        "Gamma3": {comm(u, d) for u in ids for d in derived},
        "beta2": {comm(c, d) for c in commutators for d in commutators},
        "commutator_product2": {products[c][d] for c in commutators for d in commutators},
    }


STOCK_TEMPLATES = {
    "gamma2": gamma_word(2),
    "gamma3": gamma_word(3),
    "Gamma3": GAMMA3_FAMILY,
    "beta2": beta_word(2),
    "commutator_product2": commutator_product_word(2),
}


EXPECTED_ORDERS = {
    "S3": 6,
    "S4": 24,
    "A4": 12,
    "A5": 60,
    "SL2_3": 24,
    "D4": 8,
    "D6": 12,
    "D7": 14,
    "D10": 20,
}


# ---------------------------------------------------------------------------
# backends

def test_registry_groups_load_with_expected_orders():
    assert set(registry_small_groups()) == set(EXPECTED_ORDERS)
    for spec in registry_small_groups():
        group = load_group(spec)
        assert group.order == EXPECTED_ORDERS[spec]
        e = group.identity
        assert group.multiply(e, e) == e
        for a in range(group.order):
            assert group.multiply(a, group.inverse(a)) == e
            assert group.multiply(group.inverse(a), a) == e
            assert group.multiply(a, e) == a


def test_group_axioms_on_random_triples():
    for spec in ("S4", "SL2_3", "D7"):
        group = load_group(spec)
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.integers(group.order, size=3))
            left = group.multiply(group.multiply(a, b), c)
            right = group.multiply(a, group.multiply(b, c))
            assert left == right


@pytest.mark.parametrize("n", range(3, 9))
def test_alternating_ids_are_even_permutations_in_lexicographic_order(n):
    def parity(p):  # n minus the number of cycles, mod 2
        seen, cycles = set(), 0
        for start in range(n):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = p[start]
        return (n - cycles) % 2

    group = load_group(f"A{n}")
    want = [p for p in itertools.permutations(range(n)) if parity(p) == 0]
    assert group.order == len(want)
    got = [group.element_name(a) for a in range(group.order)]
    assert got == ["(" + " ".join(map(str, p)) + ")" for p in want]


def test_element_names_are_distinct():
    for spec in ("S3", "SL2_3", "D4"):
        group = load_group(spec)
        names = {group.element_name(a) for a in range(group.order)}
        assert len(names) == group.order


def test_load_group_rejections():
    with pytest.raises(UnknownNameError):
        load_group("S9")
    with pytest.raises(UnknownNameError):
        load_group("A2")
    with pytest.raises(UnknownNameError):
        load_group("Q8")
    with pytest.raises(UnknownNameError):
        load_group("table:/nonexistent/path.tbl")


def test_dihedral_table_text():
    group = TableGroup("D5", dihedral_table(5))
    assert group.order == 10
    # The rotation generator has order 5; any flip has order 2.
    r, f = 1, 5
    acc, count = r, 1
    while acc != group.identity:
        acc = group.multiply(acc, r)
        count += 1
    assert count == 5
    assert group.multiply(f, f) == group.identity
    # Dihedral relation: f r f^-1 = r^-1.
    conj = group.multiply(group.multiply(f, r), group.inverse(f))
    assert conj == group.inverse(r)
    with pytest.raises(ValueError):
        dihedral_table(2)


def test_dihedral_table_matches_the_formula():
    for k in range(3, 65):
        want = [
            [(a % k + (-1) ** (a // k) * (b % k)) % k + k * ((a // k) ^ (b // k)) for b in range(2 * k)]
            for a in range(2 * k)
        ]
        assert dihedral_table(k).tolist() == want


_BAD_TABLE_FILES = [
    ("", "empty table file"),
    ("# only a comment\n\n", "empty table file"),
    ("2\n0 1\n1 0\n", "table file must start with 'order N'"),
    ("order two\n0 1\n1 0\n", "table file must start with 'order N'"),
    ("order 2\n0 1\n", "expected 2 rows of 2 entries"),
    ("order 2\n0 1\n1 0\n0 1\n", "expected 2 rows of 2 entries"),
    ("order 2\n0 1 0\n1 0 1\n", "expected 2 rows of 2 entries"),
    ("order 3\n0 1 2\n1 2 0 2\n2 0\n", "expected 3 rows of 3 entries"),
    ("order 2\n0 x\n1 0\n", "bad table row '0 x'"),
    ("order 3\n0 1 2\n1 2.5 0\n2 0 1\n", "bad table row '1 2.5 0'"),
    ("order 3\n0 1 2\n1 2 0 # ok\n2 0 1x\n", "bad table row '2 0 1x'"),
    ("order 2\n0 1\n1,0\n", "bad table row '1,0'"),
    # a bad token is reported before the row count is checked
    ("order 3\n0 1 2\n1 y 0\n", "bad table row '1 y 0'"),
    ("order 2\n0 1\n1 99999999999999999999\n", "table entries must be ids in range"),
    ("order 2\n0 -1\n1 0\n", "table entries must be ids in range"),
    ("order 0\n", "multiplication table must be square"),
]


def test_parse_table_text_errors():
    for text, message in _BAD_TABLE_FILES:
        with pytest.raises(ParseError) as info:
            parse_table_text("t", text)
        assert str(info.value) == message, text


def test_table_file_of_order_2048_loads_to_the_dihedral_table(tmp_path):
    want = dihedral_table(1024)
    path = tmp_path / "d1024.tbl"
    path.write_text(table_text(want))
    group = load_group(f"table:{path}")
    assert group.order == 2048 and group.identity == 0
    ids = np.arange(2048)
    assert np.array_equal(group.mul(ids[:, None], ids), want)


_REJECTED_TABLES = [
    (np.zeros((2, 3), dtype=np.int64), "multiplication table must be square"),
    (np.array([[0, 1], [1, 2]]), "table entries must be ids in range"),
    (np.array([[0, -1], [1, 0]]), "table entries must be ids in range"),
    (np.array([[0, 0], [1, 1]]), "table rows are not permutations (not left-cancellative)"),
    (np.array([[0, 1], [0, 1]]), "table columns are not permutations (not right-cancellative)"),
    # x*y = -x-y mod 3: a Latin square with no identity
    (np.array([[0, 2, 1], [2, 1, 0], [1, 0, 2]]), "table has no identity element"),
    # an order-5 loop (identity 0) that is not associative
    (
        np.array(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        ),
        "table is not associative (first failure at element 1)",
    ),
]


def test_table_group_validation():
    for table, message in _REJECTED_TABLES:
        with pytest.raises(ParseError) as info:
            TableGroup("t", table)
        assert str(info.value) == message
        if table.shape[0] == table.shape[1]:
            assert not oracle_is_group(table)


def test_validation_runs_on_a_compact_copy_and_the_group_keeps_its_table(monkeypatch):
    seen = []

    def recording(table, s):
        seen.append(table.dtype)
        return associates_through(table, s)

    associates_through = finite._associates_through
    monkeypatch.setattr(finite, "_associates_through", recording)
    s6 = load_group("S6")
    ids = np.arange(s6.order)
    perm = np.random.default_rng(9).permutation(s6.order)
    table = relabel(s6.mul(ids[:, None], ids).astype(np.int64), perm)
    cases = [
        (table, 720, np.uint16),
        (dihedral_table(1024), 2048, np.uint16),
        (dihedral_table(5), 10, np.uint8),
    ]
    for table, order, compact in cases:
        seen.clear()
        group = TableGroup("t", table)
        assert group.order == order
        assert seen and set(seen) == {np.dtype(compact)}
        assert group._table.dtype == np.int16
        assert np.array_equal(group._table, table)


def _random_loop(rng, n):
    """A Latin square with identity 0, filled cell by cell in a random order
    of candidates with backtracking."""
    t = [[-1] * n for _ in range(n)]
    t[0] = list(range(n))
    for a in range(n):
        t[a][0] = a
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(i):
        if i == len(cells):
            return True
        a, b = cells[i]
        used = set(t[a]) | {t[c][b] for c in range(n)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            t[a][b] = v
            if fill(i + 1):
                return True
        t[a][b] = -1
        return False

    assert fill(0)
    return np.array(t)


def _flip_intercalate(rng, table):
    """``table`` with one 2x2 sub-square ``x y / y x`` off the identity's row
    and column swapped, which keeps a Latin square with the same identity."""
    n = len(table)
    quads = [
        (a, b, c, d)
        for a, b in itertools.combinations(range(1, n), 2)
        for c, d in itertools.combinations(range(1, n), 2)
        if table[a, c] == table[b, d] and table[a, d] == table[b, c]
    ]
    if not quads:
        return table
    a, b, c, d = rng.choice(quads)
    out = table.copy()
    out[[a, a, b, b], [c, d, c, d]] = table[[a, a, b, b], [d, c, d, c]]
    return out


def test_table_validation_agrees_with_the_cubic_oracle():
    rng = random.Random(2010)
    groups = {n: [np.add.outer(np.arange(n), np.arange(n)) % n] for n in range(2, 9)}
    for spec in ("S3", "D4"):
        group = load_group(spec)
        ids = np.arange(group.order)
        groups[group.order].append(group.mul(ids[:, None], ids).astype(np.int64))
    verdicts = {True: 0, False: 0}
    for _ in range(400):
        n = rng.randrange(2, 9)
        kind = rng.randrange(4)
        if kind == 0:
            table = rng.choice(groups[n])
        elif kind == 1:
            table = _flip_intercalate(rng, rng.choice(groups[n]))
        else:
            table = _random_loop(rng, n)
        perm = np.array(rng.sample(range(n), n))
        table = relabel(table, perm)
        want = oracle_is_group(table)
        try:
            group = TableGroup("t", table)
        except ParseError as exc:
            assert "not associative" in str(exc)
            assert not want, table.tolist()
        else:
            assert want, table.tolist()
            assert group.identity == perm[0]
            ids, inv = np.arange(n), group.inverses()
            assert (table[ids, inv] == group.identity).all()
            assert (table[inv, ids] == group.identity).all()
        verdicts[want] += 1
    assert min(verdicts.values()) >= 100, verdicts


def test_associativity_runs_on_at_most_log2_order_elements(monkeypatch):
    checked = []

    def counting(table, s):
        checked.append(s)
        # fail at once rather than run n checks of n**2 products each
        assert len(checked) <= math.floor(math.log2(len(table))), checked
        return associates_through(table, s)

    associates_through = finite._associates_through
    monkeypatch.setattr(finite, "_associates_through", counting)
    group = load_group("D1024")
    assert group.order == 2048
    assert 1 <= len(checked) <= math.floor(math.log2(2048))

    checked.clear()
    s6 = load_group("S6")
    ids = np.arange(s6.order)
    perm = np.random.default_rng(6).permutation(s6.order)
    relabelled = TableGroup("t", relabel(s6.mul(ids[:, None], ids).astype(np.int64), perm))
    assert 1 <= len(checked) <= math.floor(math.log2(720))
    assert relabelled.identity == perm[s6.identity]
    a, b = np.random.default_rng(7).integers(s6.order, size=(2, 50))
    assert np.array_equal(relabelled.mul(perm[a], perm[b]), perm[s6.mul(a, b)])


def test_table_group_comment_and_blank_lines():
    text = "# cyclic of order 3\norder 3\n\n0 1 2\n1 2 0 # row\n2 0 1\n"
    group = parse_table_text("C3", text)
    assert group.order == 3
    assert group.multiply(1, 2) == 0


# ---------------------------------------------------------------------------
# the array multiplication contract

@pytest.mark.parametrize("spec", ["S7", "A7", "SL2_5", "D7"])
def test_mul_matches_multiply_on_broadcast_shapes(spec):
    # S7 is above TABLE_CAP and composes permutations; the others look up a
    # table built by their backend.  ``multiply`` is the scalar oracle.
    group = load_group(spec)
    rng = np.random.default_rng(17)
    oracle = np.vectorize(group.multiply)
    for a_shape, b_shape in [((), (40,)), ((40,), ()), ((6, 1), (9,)), ((4, 7), (7,)), ((), ())]:
        a = rng.integers(group.order, size=a_shape)
        b = rng.integers(group.order, size=b_shape)
        got = group.mul(a, b)
        assert np.shape(got) == np.broadcast_shapes(a_shape, b_shape)
        assert np.array_equal(got, oracle(a, b))
    ids = np.arange(group.order)
    inv = group.inverses()
    assert np.all(group.mul(ids, inv) == group.identity)
    assert np.all(group.mul(inv, ids) == group.identity)
    sample = rng.integers(group.order, size=50)
    assert [int(inv[a]) for a in sample] == [group.inverse(int(a)) for a in sample]


def test_s7_power_values_match_lexicographic_powers():
    group = load_group("S7")
    assert group.order > TABLE_CAP
    perms = list(itertools.permutations(range(7)))  # in id order
    index = {p: i for i, p in enumerate(perms)}
    want = set()
    for p in perms:
        q = tuple(range(7))
        for _ in range(6):
            q = tuple(p[i] for i in q)
        want.add(index[q])
    got = template_values(group, template_from_word(power(gen(1), 6)))
    assert got.tolist() == sorted(want)


def test_closure_above_table_cap():
    # (0 1 2) and the 7-cycle generate A7; a transposition added gives S7.
    group = load_group("S7")
    perms = list(itertools.permutations(range(7)))  # in id order
    index = {p: i for i, p in enumerate(perms)}
    three_cycle = index[(1, 2, 0, 3, 4, 5, 6)]
    seven_cycle = index[(1, 2, 3, 4, 5, 6, 0)]
    transposition = index[(1, 0, 2, 3, 4, 5, 6)]
    even = [
        i
        for i, p in enumerate(perms)
        if sum(p[x] > p[y] for x in range(7) for y in range(x + 1, 7)) % 2 == 0
    ]
    assert closure(group, np.array([three_cycle, seven_cycle])).tolist() == even
    everything = closure(group, np.array([three_cycle, seven_cycle, transposition]))
    assert everything.tolist() == list(range(group.order))


def test_a7_commutator_distances_span_several_blocks():
    # Ore: every element of A_n (n >= 5) is a commutator.  A search past the
    # first level would take 2519 x 2520 products, many blocks.
    group = load_group("A7")
    assert group.order * (group.order - 1) > finite._CHUNK
    assert wlength_table(group, gamma_word(2)).histogram() == {0: 1, 1: 2519}


def test_small_blocks_match_oracle(monkeypatch):
    monkeypatch.setattr(finite, "_CHUNK", 7)
    for spec, template in [("A4", gamma_word(2)), ("SL2_3", gamma_word(2)), ("D6", gamma_word(3))]:
        group = load_group(spec)
        values = template_values(group, template)
        assert set(values.tolist()) == oracle_values(group, template.body, template.variables)
        want = oracle_distances(group, values.tolist())
        table = wlength_table(group, template)
        assert {a: d for a, d in enumerate(table.distances.tolist()) if d >= 0} == want
    group = load_group("A4")
    assert set(template_values(group, GAMMA3_FAMILY).tolist()) == oracle_gamma3_family(group)


# ---------------------------------------------------------------------------
# conjugacy classes

@pytest.mark.parametrize("spec", registry_small_groups())
def test_conjugacy_labels_match_oracle(spec):
    group = load_group(spec)
    labels, reps = group.conjugacy_labels()
    classes = {}
    for a in range(group.order):
        conjugates = frozenset(
            group.multiply(group.multiply(group.inverse(g), a), g) for g in range(group.order)
        )
        classes.setdefault(conjugates, min(conjugates))
    assert reps.tolist() == sorted(classes.values())
    for members, least in classes.items():
        assert {a for a in range(group.order) if labels[a] == labels[least]} == members
    assert labels[reps].tolist() == list(range(len(reps)))
    assert group.conjugacy_labels() is group.conjugacy_labels()


def test_class_counts_of_larger_groups():
    # Partitions of 7 and 8; A7 and A8 from their character tables; SL(2, q)
    # has q + 4 classes for odd q.
    counts = {"S7": 15, "A7": 9, "S8": 22, "A8": 14, "SL2_11": 15}
    for spec, count in counts.items():
        assert len(load_group(spec).conjugacy_labels()[1]) == count, spec


# ---------------------------------------------------------------------------
# word evaluation

def test_eval_word_matches_oracle():
    group = load_group("S4")
    rng = np.random.default_rng(11)
    words = [
        EMPTY,
        gen(1),
        gen(1) * gen(1).inverse(),
        commutator(gen(1), gen(2)),
        gen(2).inverse() * gen(1) * gen(2),
        commutator(gen(1), commutator(gen(2), gen(3))),
    ]
    for w in words:
        for _ in range(25):
            images = {i: int(rng.integers(group.order)) for i in (1, 2, 3)}
            assert eval_word(group, w, images) == oracle_eval(group, w, images)


def test_eval_word_missing_generator():
    group = load_group("S3")
    with pytest.raises(ValueError):
        eval_word(group, gen(1) * gen(2), {1: 0})


# ---------------------------------------------------------------------------
# verbal value sets

def test_commutator_values_match_oracle():
    template = gamma_word(2)
    for spec in ("S3", "A4", "D4", "SL2_3"):
        group = load_group(spec)
        got = set(int(v) for v in template_values(group, template))
        want = oracle_values(group, template.body, template.variables)
        assert got == want


def test_gamma3_values_match_oracle():
    template = gamma_word(3)
    for spec in ("S3", "D4"):
        group = load_group(spec)
        got = set(int(v) for v in template_values(group, template))
        want = oracle_values(group, template.body, template.variables)
        assert got == want


def test_beta2_values_match_oracle_on_s3():
    template = beta_word(2)
    group = load_group("S3")
    got = set(int(v) for v in template_values(group, template))
    want = oracle_values(group, template.body, template.variables)
    assert got == want


def test_gamma3_family_values():
    # Family values are commutators [u, d] with d ranging over the subgroup
    # generated by all commutators; check against a from-scratch computation.
    for spec in ("S3", "A4", "D6"):
        group = load_group(spec)
        got = set(int(v) for v in template_values(group, GAMMA3_FAMILY))
        assert got == oracle_gamma3_family(group)


@pytest.mark.parametrize("spec", registry_small_groups())
def test_stock_values_match_structure_oracle(spec):
    want = structure_values(spec)
    group = load_group(spec)
    for name, template in STOCK_TEMPLATES.items():
        assert set(template_values(group, template).tolist()) == want[name], name


@pytest.mark.parametrize("spec", registry_small_groups())
def test_lopsided_values_match_brute_force(spec):
    # x1 is the variable restricted to class representatives: squared,
    # inverse-squared at the end, and occurring only once.
    group = load_group(spec)
    for text in ("x^2 y", "x y x^-2", "x y^3"):
        template = template_from_word(grammar.parse(text))
        want = oracle_values(group, template.body, template.variables)
        assert set(template_values(group, template).tolist()) == want, text


def test_representative_columns_wrap_block_edges(monkeypatch):
    # S4 and D7 have 5 classes each, so with blocks of 7 assignments the
    # representative column restarts inside a block.
    monkeypatch.setattr(finite, "_CHUNK", 7)
    for spec in ("S4", "D7"):
        group = load_group(spec)
        assert len(group.conjugacy_labels()[1]) == 5
        template = template_from_word(grammar.parse("x^2 y z^-1 y"))
        want = tabled_oracle_values(spec, template)
        assert set(template_values(group, template).tolist()) == want
        assert set(template_values(group, gamma_word(3)).tolist()) == structure_values(spec)["gamma3"]
        assert set(template_values(group, GAMMA3_FAMILY).tolist()) == oracle_gamma3_family(group)


@seed(20100)
@settings(max_examples=200, deadline=None, database=None)
@given(
    spec=st.sampled_from(["S3", "A4", "D6", "SL2_3"]),
    letters=st.lists(
        st.tuples(st.integers(1, 3), st.sampled_from((1, -1))), min_size=1, max_size=6
    ),
)
def test_representative_values_match_brute_force(spec, letters):
    word = Word(tuple(letters))
    assume(word)
    template = template_from_word(word)
    got = template_values(load_group(spec), template)
    assert set(got.tolist()) == tabled_oracle_values(spec, template)


def test_budget_counts_every_assignment():
    # Only 5 * 60 gamma2 assignments are enumerated over A5, but the budget
    # is checked against all 60**2 of them.
    group = load_group("A5")
    assert len(template_values(group, gamma_word(2), budget=60**2)) == 60
    with pytest.raises(ResourceBudgetError):
        template_values(group, gamma_word(2), budget=60**2 - 1)


def test_template_values_budget():
    group = load_group("A5")
    with pytest.raises(ResourceBudgetError):
        template_values(group, gamma_word(2), budget=100)
    with pytest.raises(ResourceBudgetError):
        template_values(group, gamma_word(5), budget=10**8)


# ---------------------------------------------------------------------------
# distance tables

def test_distances_match_bfs_oracle():
    cases = [
        ("S3", gamma_word(2)),
        ("S3", beta_word(2)),
        ("A4", gamma_word(2)),
        ("D4", gamma_word(2)),
        ("D6", gamma_word(3)),
        ("SL2_3", gamma_word(2)),
    ]
    for spec, template in cases:
        group = load_group(spec)
        table = wlength_table(group, template)
        values = [int(v) for v in template_values(group, template)]
        want = oracle_distances(group, values)
        for element in range(group.order):
            assert table.distance(element) == want.get(element), (spec, element)
        assert table.reachable_count() == len(want)
        histogram = table.histogram()
        assert sum(histogram.values()) == len(want)
        for level, count in histogram.items():
            assert count == sum(1 for v in want.values() if v == level)


def test_search_stops_once_every_element_is_placed():
    # Level 1 reaches every element of A5, so the search multiplies only the
    # identity by the 60 commutators (the identity among them).
    group = load_group("A5")
    values = template_values(group, gamma_word(2))
    products = []
    mul = group.mul
    group.mul = lambda a, b: products.append(np.broadcast(a, b).size) or mul(a, b)
    distances = finite._bfs_distances(group, values)
    assert sorted(distances.tolist()) == [0] + [1] * 59
    assert sum(products) == 60


def test_a5_commutator_distances():
    group = load_group("A5")
    table = wlength_table(group, gamma_word(2))
    assert table.histogram() == {0: 1, 1: 59}


def test_unreachable_elements_report_none():
    group = load_group("S3")
    table = wlength_table(group, gamma_word(2))
    # Commutators of S3 generate the rotation subgroup; flips are unreachable.
    assert table.reachable_count() == 3
    unreachable = [a for a in range(group.order) if table.distance(a) is None]
    assert len(unreachable) == 3
    for a in unreachable:
        assert group.multiply(a, a) == group.identity
        assert a != group.identity


def test_bi_invariance():
    for spec in ("S3", "A4", "D6"):
        group = load_group(spec)
        table = wlength_table(group, gamma_word(2))
        assert bi_invariance_check(group, table, trials=300, seed=5)


def test_bi_invariance_detects_tampering():
    group = load_group("A4")
    table = wlength_table(group, gamma_word(2))
    tampered = table.distances.copy()
    victim = next(a for a in range(group.order) if tampered[a] == 1)
    tampered[victim] = 7
    table.distances = tampered
    assert not bi_invariance_check(group, table, trials=300, seed=5)


# ---------------------------------------------------------------------------
# quotient lengths

def test_quotient_length_basic():
    group = load_group("S3")
    flip = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) == group.identity
    )
    rotation = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) != group.identity
    )
    # A flip is not a product of commutators in S3: no finite length.
    assert quotient_length(gen(1), gamma_word(2), group, {1: flip}) is None
    # A rotation is a single commutator.
    assert quotient_length(gen(1), gamma_word(2), group, {1: rotation}) == 1
    # The identity image always has length zero.
    assert quotient_length(EMPTY, gamma_word(2), group, {}) == 0
    assert (
        quotient_length(commutator(gen(1), gen(2)), gamma_word(2), group, {1: flip, 2: rotation})
        == 1
    )


def test_quotient_length_builds_one_table_per_group_template_and_budget(monkeypatch):
    built = []
    build = finite.wlength_table

    def counting(group, template, budget=finite.ENUMERATION_BUDGET):
        built.append((group.spec, template.key, budget))
        return build(group, template, budget)

    monkeypatch.setattr(finite, "wlength_table", counting)
    word = commutator(gen(1), gen(2)) * gen(3)
    group = load_group("A4")
    table = build(group, gamma_word(2))
    images = [{1: a, 2: 2 * a % 12, 3: 11 - a} for a in range(6)]
    floors = [quotient_length(word, gamma_word(2), group, im) for im in images]
    assert len(built) == 1
    assert floors == [table.distance(eval_word(group, word, im)) for im in images]
    quotient_length(word, gamma_word(2), load_group("A4"), images[0])
    assert len(built) == 2
    quotient_length(word, gamma_word(2), group, images[0], budget=10**6)
    assert len(built) == 3
    quotient_length(word, GAMMA3_FAMILY, group, images[0])
    assert len(built) == 4
    with pytest.raises(ResourceBudgetError):
        quotient_length(word, gamma_word(2), group, images[0], budget=100)
    with pytest.raises(ResourceBudgetError):
        quotient_length(word, gamma_word(2), group, images[0], budget=100)
    assert len(built) == 6
    assert quotient_length(word, gamma_word(2), group, images[1]) == floors[1]
    assert len(built) == 6
