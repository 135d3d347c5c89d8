"""Finite-group backends, verbal value sets, and Cayley-graph distances.

The distance checks here compare the vectorized implementation against a
deliberately naive oracle: enumerate template values by looping over raw
assignments with ``multiply``/``inverse`` only, then run a set-based
breadth-first search one level at a time.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from helpers import relabel, table_text
from verba import finite, grammar, words
from verba.errors import ParseError, ResourceBudgetError, UnknownNameError
from verba.finite import (
    TABLE_CAP,
    TableGroup,
    bi_invariance_check,
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
    parse_template_spec,
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


def element_distances(group, seed_ids):
    """Breadth-first levels by elements: every frontier element times every
    seed and inverse, through ``mul`` in blocks of rows; ``-1`` where never
    reached.  No conjugacy class is used."""
    steps = np.unique(np.concatenate([seed_ids, group.inverses()[seed_ids]]))
    distances = np.full(group.order, -1, dtype=np.int32)
    distances[group.identity] = 0
    frontier = np.array([group.identity])
    rows = max(1, (1 << 18) // len(steps))
    level = 0
    while frontier.size:
        level += 1
        hit = np.zeros(group.order, dtype=bool)
        for start in range(0, frontier.size, rows):
            hit[group.mul(frontier[start : start + rows, None], steps)] = True
        frontier = np.flatnonzero(hit & (distances < 0))
        distances[frontier] = level
    return distances


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


@functools.lru_cache(maxsize=None)
def conjugates_oracle(spec):
    """``conj[f, x]`` is ``f^-1 x f``, by ``multiply`` and ``inverse``."""
    group, products, inverses = scalar_table(spec)
    ids = range(group.order)
    return np.array([[products[products[inverses[f]][x]][f] for x in ids] for f in ids])


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


# ---------------------------------------------------------------------------
# one group per stock spec and process

def test_a_stock_group_is_built_once_and_a_table_file_on_every_load(tmp_path):
    for spec in ("S4", "A5", "SL2_5", "D6"):
        assert load_group(spec) is load_group(spec)
    path = tmp_path / "d3.tbl"
    path.write_text(table_text(dihedral_table(3)))
    first, second = load_group(f"table:{path}"), load_group(f"table:{path}")
    assert first is not second
    assert np.array_equal(first._table, second._table)


@pytest.mark.parametrize(
    "spelled, spec", [("S07", "S7"), ("D007", "D7"), ("A05", "A5"), ("SL2_05", "SL2_5"), ("S000000004", "S4")]
)
def test_a_stock_number_has_one_spelling(spelled, spec):
    assert load_group(spelled) is load_group(spec)
    assert load_group(spelled).spec == spec


def test_the_memo_keeps_the_last_32_stock_groups():
    first = load_group("S4")
    for k in range(3, 34):
        load_group(f"D{k}")
    assert load_group("S4") is first  # 31 others and S4 again: still held
    for k in range(34, 66):
        load_group(f"D{k}")
    assert load_group("S4") is not first


def test_a_refused_spec_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ResourceBudgetError, match="D1025 has order 2050"):
            load_group("D1025")
        with pytest.raises(UnknownNameError):
            load_group("D2")
        with pytest.raises(UnknownNameError):
            load_group("SL2_4")


def test_two_loads_build_one_quotient_length_table(monkeypatch):
    built = []
    build = finite._build_distance_table

    def counting(group, template):
        built.append(group.spec)
        return build(group, template)

    monkeypatch.setattr(finite, "_build_distance_table", counting)
    finite._stock_group.cache_clear()
    word = commutator(gen(1), gen(2))
    images = [{1: a, 2: 7} for a in range(9)]
    floors = [quotient_length(word, gamma_word(2), load_group("A5"), im) for im in images]
    assert built == ["A5"]
    group = load_group("A5")
    table = build(group, gamma_word(2))
    assert floors == [table.distance(eval_word(group, word, im)) for im in images]
    assert set(floors) == {0, 1}


@pytest.mark.parametrize("spec", ["A7", "SL2_13", "S7"])
def test_groups_above_the_table_cap_hold_no_dense_table(spec):
    group = load_group(spec)
    assert group.order > TABLE_CAP
    assert wlength_table(group, gamma_word(2)).histogram()[0] == 1
    assert group._table is None


@pytest.mark.parametrize("spec", ["A5", "S7", "SL2_5", "D6"])
def test_a_shared_group_hands_out_read_only_arrays(spec):
    group = load_group(spec)
    quotient_length(gen(1), gamma_word(2), group, {1: group.identity})
    labels, reps = group.conjugacy_labels()
    shared = [group.inverses(), labels, reps, group._distance_tables[gamma_word(2).key].distances]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    assert group.inverses()[group.identity] == group.identity
    assert reps[0] == 0


def test_quotient_length_keeps_the_last_sixteen_tables_per_group(monkeypatch):
    # a fresh A5, so the memoized stock group's tables stay as other tests left them
    group = finite.PermutationGroup("A5", 5, even_only=True)
    powers = [template_from_word(power(gen(1), k)) for k in range(1, 18)]
    built = []
    real = finite._build_distance_table
    monkeypatch.setattr(
        finite, "_build_distance_table", lambda g, t: built.append(t.key) or real(g, t)
    )
    first = [quotient_length(gen(1), t, group, {1: 1}) for t in powers]
    assert finite._TABLES_HELD == 16
    assert list(group._distance_tables) == [t.key for t in powers[1:]]
    assert quotient_length(gen(1), powers[-1], group, {1: 1}) == first[-1]  # held: no rebuild
    assert quotient_length(gen(1), powers[0], group, {1: 1}) == first[0]  # dropped: rebuilt
    assert built == [t.key for t in powers] + [powers[0].key]
    assert list(group._distance_tables) == [t.key for t in powers[2:]] + [powers[0].key]


def test_wlength_table_hands_out_one_read_only_table():
    group = finite.PermutationGroup("A4", 4, even_only=True)  # fresh: it holds no table
    table = wlength_table(group, gamma_word(2))
    assert wlength_table(group, gamma_word(2)) is table
    assert table.histogram() == {0: 1, 1: 3}  # the Klein four-group
    with pytest.raises(ValueError, match="read-only"):
        table.distances[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.distances = table.distances.copy()
    assert wlength_table(group, gamma_word(2)).histogram() == {0: 1, 1: 3}


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
    # 65536 is 0 in 16 bits, which would make this Z/2
    ("order 2\n0 1\n1 65536\n", "table entries must be ids in range"),
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


def test_parsing_a_table_file_of_order_2048_keeps_one_16_bit_table():
    # rows are narrowed to 16-bit ids as they are read and stacked once;
    # 64-bit rows and a 64-bit stack of them peaked at 92 MiB
    text = table_text(dihedral_table(1024))
    tracemalloc.start()
    try:
        group = parse_table_text("t", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20
    assert group._table.dtype == np.int16
    assert TableGroup("t", group._table)._table is group._table


def test_loading_s8_keeps_a_lookup_over_the_first_seven_images():
    # the code -> id lookup spans 8**7 codes; over all 8**8 it peaked at 67 MiB
    tracemalloc.start()
    try:
        group = load_group("S8")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert group._lookup.size == 8**7
    ids = np.arange(group.order)
    assert np.array_equal(group.mul(ids, group.inverses()), np.full(group.order, group.identity))


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


def test_table_group_above_its_order_cap_is_refused_before_validation():
    with pytest.raises(ResourceBudgetError, match="groups up to order 2048"):
        TableGroup("big", np.zeros((2049, 2049), dtype=np.int16))


def test_table_group_comment_and_blank_lines():
    text = "# cyclic of order 3\norder 3\n\n0 1 2\n1 2 0 # row\n2 0 1\n"
    group = parse_table_text("C3", text)
    assert group.order == 3
    assert group.multiply(1, 2) == 0


# ---------------------------------------------------------------------------
# the array multiplication contract

@pytest.mark.parametrize("spec", ["S7", "S6", "A7", "SL2_5", "SL2_13", "D7"])
def test_mul_matches_multiply_on_broadcast_shapes(spec):
    # S7, A7 and SL2_13 are above TABLE_CAP, where mul calls _product; S6 and
    # SL2_5 look up a table built from generator rows, and D7 reads its own.
    # ``multiply`` is the scalar oracle, and each arithmetic backend's
    # _product must give the same on every shape.
    group = load_group(spec)
    rng = np.random.default_rng(17)
    oracle = np.vectorize(group.multiply)
    for a_shape, b_shape in [((), (40,)), ((40,), ()), ((6, 1), (9,)), ((4, 7), (7,)), ((), ())]:
        a = rng.integers(group.order, size=a_shape)
        b = rng.integers(group.order, size=b_shape)
        got = group.mul(a, b)
        assert np.shape(got) == np.broadcast_shapes(a_shape, b_shape)
        assert np.array_equal(got, oracle(a, b))
        if not isinstance(group, TableGroup):
            assert np.array_equal(group._product(a, b), got)
    ids = np.arange(group.order)
    inv = group.inverses()
    assert np.all(group.mul(ids, inv) == group.identity)
    assert np.all(group.mul(inv, ids) == group.identity)


TABLED_BACKENDS = (
    [f"S{n}" for n in range(2, 7)]
    + [f"A{n}" for n in range(3, 7)]
    + [f"SL2_{p}" for p in (2, 3, 5, 7, 11)]
)


@pytest.mark.parametrize("spec", TABLED_BACKENDS)
def test_tables_from_generator_rows_match_a_product_row_per_element(spec):
    # The reference computes every row with _product, one element at a time;
    # the table computes only its generators' rows and gathers the rest.
    group = load_group(spec)
    assert group.order <= TABLE_CAP
    ids = np.arange(group.order)
    want = np.array([group._product(a, ids) for a in ids])
    assert np.array_equal(group.mul(ids[:, None], ids), want)


@pytest.mark.parametrize("spec", registry_small_groups() + ["S7", "A7", "SL2_13", "SL2_2"])
def test_inverses_match_the_scalar_oracle_element_by_element(spec):
    # inverses() comes from each backend's arrays; inverse() from its own arithmetic
    group = load_group(spec)
    inv = group.inverses()
    assert inv.dtype == np.int32
    assert inv.tolist() == [group.inverse(a) for a in range(group.order)]


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
    # The 3-cycles and the 7-cycles generate A7; the transpositions added
    # give S7.  Each seed set is whole classes, picked by cycle type.
    group = load_group("S7")
    perms = list(itertools.permutations(range(7)))  # in id order

    def cycle_type(p):
        lengths, seen = [], set()
        for start in range(7):
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x, length = p[x], length + 1
            if length:
                lengths.append(length)
        return tuple(sorted(lengths))

    types = [cycle_type(p) for p in perms]

    def of_type(*wanted):
        return np.array([i for i, t in enumerate(types) if t in wanted])

    even = [
        i
        for i, p in enumerate(perms)
        if sum(p[x] > p[y] for x in range(7) for y in range(x + 1, 7)) % 2 == 0
    ]
    three, seven, transposition = (1, 1, 1, 1, 3), (7,), (1, 1, 1, 1, 1, 2)
    reached = finite._bfs_distances(group, of_type(three, seven)) >= 0
    assert np.flatnonzero(reached).tolist() == even
    everything = finite._bfs_distances(group, of_type(three, seven, transposition)) >= 0
    assert everything.all()


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


def brute_force_values(spec, template):
    """Every one of the ``order**k`` assignments, evaluated by lookups in the
    products and inverses that ``scalar_table`` took from ``multiply`` and
    ``inverse``."""
    group, products, inverses = scalar_table(spec)
    table, inverse = np.array(products), np.array(inverses)
    k = len(template.variables)
    assignments = np.indices((group.order,) * k).reshape(k, -1)
    acc = np.full(assignments.shape[1], group.identity)
    for index, sign in template.body.letters:
        value = assignments[template.variables.index(index)]
        acc = table[acc, value if sign == 1 else inverse[value]]
    return set(acc.tolist())


# leaves of the random trees: variables, powers, and words that are no trees
_LEAVES = ("{0}", "{0}^-1", "{0}^2", "[{0},{1}]^2", "[{0},{1}^3]")


@st.composite
def bracket_trees(draw):
    """A random bracket and product tree of depth at most 3 over at most 4
    distinct variables, as text."""
    names = iter("abcd")

    def tree(depth, room):
        if depth < 3 and room >= 2 and draw(st.booleans()):
            left, used = tree(depth + 1, draw(st.integers(1, room - 1)))
            right, more = tree(depth + 1, room - used)
            return draw(st.sampled_from(["[{},{}]", "({}) ({})"])).format(left, right), used + more
        leaf = draw(st.sampled_from([t for t in _LEAVES if room >= 2 or "{1}" not in t]))
        arity = 2 if "{1}" in leaf else 1
        return leaf.format(*(next(names) for _ in range(arity))), arity

    return tree(0, 4)[0]


@seed(20170)
@settings(max_examples=150, deadline=None, database=None)
@given(spec=st.sampled_from(["S3", "S4", "A4", "D6", "SL2_3"]), text=bracket_trees())
def test_bracket_tree_values_match_brute_force(spec, text):
    template = template_from_word(grammar.parse(text))
    got = template_values(load_group(spec), template)
    assert set(got.tolist()) == brute_force_values(spec, template), template.shape


def test_budget_counts_every_assignment(monkeypatch):
    # A shaped template counts the products each node forms: gamma3 over S4
    # forms [y,z] for 5 class representatives y and all 24 z, whose values
    # are the 12 elements of A4, then [x,c] for 5 representatives x and
    # those 12 c.  A leaf counts the products it forms: [x,[x,y]] takes x
    # over the 5 representatives and y over all 24 elements, and multiplies
    # its 10 letters with 9 products for each.
    group = load_group("S4")
    leaf = template_from_word(grammar.parse("[x,[x,y]]"))
    assert leaf.shape.op == "word" and len(leaf.body) == 10
    for template, count in ((gamma_word(3), 5 * 24 + 5 * 12), (leaf, 5 * 24 * 9)):
        monkeypatch.setattr(finite, "ENUMERATION_BUDGET", count)
        assert set(template_values(group, template).tolist()) == brute_force_values("S4", template)
        monkeypatch.setattr(finite, "ENUMERATION_BUDGET", count - 1)
        with pytest.raises(ResourceBudgetError, match=f"needs at least {count} products"):
            template_values(group, template)


@pytest.mark.parametrize(
    "spec, structure", [("beta2", "beta2"), ("commutator_product3000", "commutator_product2")]
)
def test_equal_subtrees_and_settled_factors_are_formed_once(monkeypatch, spec, structure):
    # Over S4 the commutators are the 12 elements of A4: 5 classes * 24 for
    # [x,y], evaluated once for every equal subtree, then the 3 classes of S4
    # inside A4 * 12 for [c,d] or c*d.  A product of commutators stops
    # growing at its second factor, and the other 2998 are skipped.
    group = load_group("S4")
    template = parse_template_spec(spec)
    want = structure_values("S4")[structure]
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 5 * 24 + 3 * 12)
    assert set(template_values(group, template).tolist()) == want
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 5 * 24 + 3 * 12 - 1)
    with pytest.raises(ResourceBudgetError):
        template_values(group, template)


def test_stock_shapes_are_declared_not_recognised(monkeypatch):
    # gamma6 has 94 letters; recognising its shape from the body would scan
    # 176 letters against the size budget
    gamma_word.cache_clear()
    monkeypatch.setattr(words, "SIZE_BUDGET", 94)
    template = gamma_word(6)
    assert template.shape.op == "commutator"
    assert set(template_values(load_group("S3"), template).tolist()) == brute_force_values(
        "S3", template
    )
    # over S4 the 24^6 assignments are too many: gamma(n+1) = [u, c] over
    # every u and every value c of gamma(n), pair by pair
    group, products, inverses = scalar_table("S4")
    ids = range(group.order)
    want = set(ids)
    for _ in range(5):
        want = {products[products[products[u][c]][inverses[u]]][inverses[c]] for u in ids for c in want}
    assert set(template_values(group, template).tolist()) == want


def test_template_values_budget(monkeypatch):
    group = load_group("A5")
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 100)
    with pytest.raises(ResourceBudgetError):
        template_values(group, gamma_word(2))  # 5 classes times 60
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 10**8)
    # x is shared across the brackets, so the body is one leaf of 6 variables
    # and 20 letters: 19 products for each of its 5 * 60^5 assignments
    shared = template_from_word(grammar.parse("[x,y][x,z][x,u][x,v][x,w]"))
    with pytest.raises(ResourceBudgetError, match=f"needs at least {5 * 60**5 * 19} "):
        template_values(group, shared)
    # gamma5 is a chain of 4 brackets of 5 * 60 products each
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 4 * 5 * 60)
    assert len(template_values(group, gamma_word(5))) == 60


def test_breadth_first_budget_counts_frontier_times_steps(monkeypatch):
    # A4's commutators are the 4 elements of its Klein subgroup: level 1
    # forms the identity's class times 4 steps, and level 2 the one class
    # of the 3 involutions times 4, which place nothing new.
    group = load_group("A4")
    values = template_values(group, gamma_word(2))
    assert len(values) == 4
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 8)
    distances = finite._bfs_distances(group, values)
    assert sorted(distances.tolist()) == [-1] * 8 + [0] + [1] * 3
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 7)
    with pytest.raises(ResourceBudgetError, match="needs at least 8 products"):
        finite._bfs_distances(group, values)


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


ORACLE_GROUPS = [
    *registry_small_groups(), "S5", "S6", "S7", "A6", "A7", "SL2_5", "SL2_7", "SL2_11", "SL2_13"
]
# the stock templates of perfbench's quotient workload, and three power words
ORACLE_TEMPLATES = [
    "gamma2", "gamma3", "Gamma3", "beta2", "commutator_product2", "x^2", "x^3", "x^2 y^2"
]


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_search_by_classes_matches_the_search_by_elements(spec):
    # Templates with one value set share one element-level search, so S7,
    # whose gamma-like templates all give A7, runs three in about 2 s.
    start = time.perf_counter()
    group = load_group(spec)
    searched = {}
    for name in ORACLE_TEMPLATES:
        template = parse_template_spec(name)
        values = template_values(group, template)
        key = values.tobytes()
        if key not in searched:
            searched[key] = element_distances(group, values)
        assert wlength_table(group, template).distances.tobytes() == searched[key].tobytes(), name
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("spec", [*registry_small_groups(), "S5", "A6", "SL2_7"])
def test_search_by_classes_matches_on_random_unions_of_classes(spec):
    group = load_group(spec)
    labels, reps = group.conjugacy_labels()
    identity_class = int(labels[group.identity])
    others = [c for c in range(len(reps)) if c != identity_class]
    rng = random.Random(sum(map(ord, spec)))
    for with_identity in (False, True) * 4:
        picked = rng.sample(others, rng.randint(1, len(others)))
        picked += [identity_class] * with_identity
        seeds = np.flatnonzero(np.isin(labels, picked))
        got = finite._bfs_distances(group, seeds)
        assert got.tobytes() == element_distances(group, seeds).tobytes(), picked


def assert_conjugation_closed(spec, template):
    values = template_values(load_group(spec), template)
    widened = np.unique(conjugates_oracle(spec)[:, values])
    assert values.tolist() == widened.tolist(), template.shape


@pytest.mark.parametrize("spec", registry_small_groups())
def test_value_sets_are_unions_of_classes(spec):
    # the search forms each level from class representatives, which is
    # right only when its seeds are closed under conjugation
    for name in [*ORACLE_TEMPLATES, "grope2", "[x,y^3]"]:
        assert_conjugation_closed(spec, parse_template_spec(name))


@seed(20210)
@settings(max_examples=100, deadline=None, database=None)
@given(spec=st.sampled_from(registry_small_groups()), text=bracket_trees())
def test_word_template_value_sets_are_unions_of_classes(spec, text):
    assert_conjugation_closed(spec, template_from_word(grammar.parse(text)))


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
        assert bi_invariance_check(group, table)


def test_bi_invariance_detects_tampering():
    group = load_group("A4")
    table = wlength_table(group, gamma_word(2))
    tampered = table.distances.copy()
    victim = next(a for a in range(group.order) if tampered[a] == 1)
    tampered[victim] = 7
    assert not bi_invariance_check(group, finite.DistanceTable(tampered))


@pytest.mark.parametrize("spec", [*registry_small_groups(), "S7"])
def test_bi_invariance_fails_once_one_noncentral_distance_changes(spec):
    # A non-central x has a conjugate y != x with d(y) = d(x), so changing
    # d(x) alone makes d differ on x's class.  S7 is above TABLE_CAP, where
    # mul calls _product.
    group = load_group(spec)
    table = wlength_table(group, gamma_word(2))
    assert bi_invariance_check(group, table)
    labels = group.conjugacy_labels()[0]
    noncentral = np.flatnonzero(np.bincount(labels)[labels] > 1)
    rng = random.Random(sum(map(ord, spec)))
    for _ in range(5):
        victim = rng.choice(noncentral.tolist())
        old = int(table.distances[victim])
        new = rng.choice([d for d in range(-1, int(table.distances.max()) + 2) if d != old])
        tampered = table.distances.copy()
        tampered[victim] = new
        assert not bi_invariance_check(group, finite.DistanceTable(tampered))


@pytest.mark.parametrize("spec", registry_small_groups())
def test_bi_invariance_check_matches_brute_force_on_arbitrary_arrays(spec):
    # Arrays constant on each class pass although no search made them; one
    # changed entry fails on a non-singleton class and passes on a central
    # element.  Brute force conjugates every x by every f with multiply.
    group, products, inverses = scalar_table(spec)
    ids = np.arange(group.order)
    conj = np.array([[products[products[inverses[f]][x]][f] for x in ids] for f in ids])
    least = conj.min(axis=0)  # the least id in each element's class
    central = np.flatnonzero((conj == ids).all(axis=0))
    noncentral = np.flatnonzero((conj != ids).any(axis=0))
    rng = np.random.default_rng(sum(map(ord, spec)))

    def check(d):
        got = bi_invariance_check(group, finite.DistanceTable(d))
        assert got == bool((d[conj] == d).all())
        return got

    for _ in range(10):
        d = rng.integers(-1, 4, size=group.order).astype(np.int32)[least]
        assert check(d)
        changed = d.copy()
        changed[rng.choice(noncentral)] += rng.integers(1, 4)
        assert not check(changed)
        changed = d.copy()
        changed[rng.choice(central)] += rng.integers(1, 4)
        assert check(changed)
        check(rng.integers(-1, 4, size=group.order).astype(np.int32))


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
    build = finite._build_distance_table

    def counting(group, template):
        built.append((group.spec, template.key))
        return build(group, template)

    monkeypatch.setattr(finite, "_build_distance_table", counting)
    word = commutator(gen(1), gen(2)) * gen(3)
    finite._stock_group.cache_clear()  # an A4 with no distance table yet
    group = load_group("A4")
    table = build(group, gamma_word(2))
    images = [{1: a, 2: 2 * a % 12, 3: 11 - a} for a in range(6)]
    floors = [quotient_length(word, gamma_word(2), group, im) for im in images]
    assert len(built) == 1
    assert floors == [table.distance(eval_word(group, word, im)) for im in images]
    # a stock group is loaded once per process, its tables with it
    quotient_length(word, gamma_word(2), load_group("A4"), images[0])
    assert len(built) == 1
    # the budget is read when a table is built; it is not part of the memo key
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 10**6)
    quotient_length(word, gamma_word(2), group, images[0])
    assert len(built) == 1
    quotient_length(word, GAMMA3_FAMILY, group, images[0])
    assert len(built) == 2
    # an over-budget table is not memoized, so each call tries again
    finite._stock_group.cache_clear()
    fresh = load_group("A4")
    assert fresh is not group
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 40)  # gamma2 forms 4 classes * 12
    with pytest.raises(ResourceBudgetError):
        quotient_length(word, gamma_word(2), fresh, images[0])
    with pytest.raises(ResourceBudgetError):
        quotient_length(word, gamma_word(2), fresh, images[0])
    assert len(built) == 4
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 10**8)
    assert quotient_length(word, gamma_word(2), fresh, images[1]) == floors[1]
    assert len(built) == 5
    assert quotient_length(word, gamma_word(2), group, images[1]) == floors[1]
    assert len(built) == 5
