"""quotient: distance tables, value sets and floors in finite groups.

Nearly all of the time goes to ``finite`` and ``cache``; ``words``,
``grammar`` and ``bounds`` are idle.  Each pass starts from an empty cache
directory, so the first request for a (group, template) pair is a miss that
computes and stores, and every repeat is a hit that loads: the cache is both
written and read.  Repeats follow a skewed popularity over the pairs,
smaller groups being asked for more often, in a seeded order.

The oracle does not share the program's algorithm.  For groups of order at
most 60 it builds the value sets from the structure of each template
(``[x,y]``, ``[x,[y,z]]``, ``[[x,y],[z,w]]``, ``[x,y][z,w]`` and commutators
with the derived subgroup) and runs its own breadth-first search, using only
``FiniteGroup.multiply`` and ``inverse``.  Every alternating group of degree
at least 5 must show the ``gamma2`` histogram ``{0: 1, 1: |G| - 1}`` (Ore).
"""
from __future__ import annotations

import itertools
import os

from perfbench.common import RunContext, expect
from perfbench.seeded import rng_for, word_text
from verba import cache, finite, grammar, templates

NAME = "quotient"
MODULES = ("verba.finite", "verba.cache", "verba.templates", "verba.grammar")

REGISTRY = ("S3", "S4", "A4", "A5", "SL2_3", "D4", "D6", "D7", "D10")
LARGER = ("S5", "SL2_5", "SL2_7", "A6", "S6", "SL2_11", "A7")
ORDERS = {
    "S3": 6, "S4": 24, "A4": 12, "A5": 60, "SL2_3": 24, "D4": 8, "D6": 12, "D7": 14,
    "D10": 20, "S5": 120, "SL2_5": 120, "SL2_7": 336, "A6": 360, "S6": 720,
    "SL2_11": 1320, "A7": 2520,
}
VARIABLES = {"gamma2": 2, "gamma3": 3, "Gamma3": 2, "beta2": 4, "commutator_product2": 4}
ORE_GROUPS = ("A5", "A6", "A7")


def _keys() -> list[tuple[str, str]]:
    """Every (group, template) pair the cache is asked for, smallest group first."""
    keys = []
    for spec in sorted(REGISTRY + LARGER, key=lambda s: (ORDERS[s], s)):
        keys.append((spec, "gamma2"))
        if ORDERS[spec] <= 120:
            keys.append((spec, "gamma3"))
        # Gamma3 over A7 and SL2_11 would add about 1.9 s and 0.6 s to a pass
        # of about 3.5 s; they are left out.
        if spec not in ("A7", "SL2_11"):
            keys.append((spec, "Gamma3"))
    # beta2 and commutator_product2 over A5 take 3.3 s and 1.7 s, too long
    # to run ten times in a run; over the groups of order 24 they take 0.1 s.
    keys += [(spec, name) for spec in ("S4", "SL2_3") for name in ("beta2", "commutator_product2")]
    return keys


def generate(seed: int, smoke: bool = False) -> list[dict]:
    """One pass.  Which jobs a pass holds is the same for every seed; the seed
    picks the order after the misses, the floor words and their images, and
    the S7 word."""
    rng = rng_for(seed, NAME)
    keys = _keys()
    if smoke:
        keys = [k for k in keys if ORDERS[k[0]] <= 60 and k[1] in ("gamma2", "Gamma3")]
        keys += [("A6", "gamma2")]
    # The pass opens with one request for every pair, smallest group first, as
    # a script filling the cache would; these miss.  The allocations of the
    # large tables then happen in the same order for every seed, which keeps
    # the peak resident size from depending on the seed.
    misses = [{"kind": "cached", "group": g, "template": t, "expect_miss": True} for g, t in keys]
    # Skewed popularity: the pair of rank r is asked for again 6 // (r + 1) times.
    jobs: list[dict] = [
        {"kind": "cached", "group": g, "template": t, "expect_miss": False}
        for rank, (g, t) in enumerate(keys)
        for _ in range((2 if smoke else 6) // (rank + 1))
    ]
    registry = REGISTRY[:3] if smoke else REGISTRY
    for i, spec in enumerate(registry):
        jobs.append({"kind": "direct", "group": spec, "template": ("gamma2", "Gamma3")[i % 2]})
        # A floor query searches assignments for the best floor, as the
        # cube_commutator_quotient_floor experiment does; over A5, the largest
        # registry group, it searches more.  Those eight queries then sit just
        # below the ten largest jobs, so the tail percentile falls among them.
        searched = 24 if spec == "A5" else 6
        for name in ("gamma2", "Gamma3"):
            for _ in range(1 if smoke else 4):
                jobs.append(
                    {
                        "kind": "floor",
                        "group": spec,
                        "template": name,
                        "word": word_text(rng, "ab", 8),
                        "images": [[rng.randrange(ORDERS[spec]) for _ in range(2)] for _ in range(searched)],
                    }
                )
    if not smoke:
        exponent = rng.choice((6, -6))
        first = rng.randint(-4, 4)
        jobs.append(
            {"kind": "values", "group": "S7", "word": f"a^{first} a^{exponent - first}", "exponent": exponent}
        )
    rng.shuffle(jobs)
    jobs = misses + jobs
    return jobs


# ---------------------------------------------------------------------------
# the independent oracle


def _reference_tables(group) -> dict[str, tuple[list[int], list[list[int]], list[int]]]:
    """Distances for each template over ``group`` by structure and plain BFS,
    with the multiplication table and inverses they were computed from."""
    n = group.order
    mul = [[group.multiply(a, b) for b in range(n)] for a in range(n)]
    inv = [group.inverse(a) for a in range(n)]

    def comm(a: int, b: int) -> int:
        return mul[mul[mul[a][b]][inv[a]]][inv[b]]

    commutators = {comm(a, b) for a in range(n) for b in range(n)}
    derived = {group.identity}
    frontier = [group.identity]
    while frontier:
        fresh = {mul[x][c] for x in frontier for c in commutators} - derived
        derived |= fresh
        frontier = list(fresh)
    values = {
        "gamma2": commutators,
        "gamma3": {comm(u, c) for u in range(n) for c in commutators},
        "Gamma3": {comm(u, d) for u in range(n) for d in derived},
        "beta2": {comm(c, d) for c in commutators for d in commutators},
        "commutator_product2": {mul[c][d] for c in commutators for d in commutators},
    }
    out = {}
    for name, vals in values.items():
        steps = vals | {inv[v] for v in vals}
        dist = [-1] * n
        dist[group.identity] = 0
        frontier = [group.identity]
        level = 0
        while frontier:
            level += 1
            fresh = []
            for x in frontier:
                for s in steps:
                    y = mul[x][s]
                    if dist[y] < 0:
                        dist[y] = level
                        fresh.append(y)
            frontier = fresh
        out[name] = (dist, mul, inv)
    return out


def _permutation_powers(degree: int, exponent: int) -> list[int]:
    """Sorted ids of ``g^exponent`` over the symmetric group, ids in lexicographic order."""
    perms = list(itertools.permutations(range(degree)))
    index = {p: i for i, p in enumerate(perms)}
    values = set()
    for p in perms:
        q = tuple(range(degree))
        for _ in range(abs(exponent)):
            q = tuple(p[i] for i in q)
        values.add(index[q])  # the set of powers is closed under inverses
    return sorted(values)


TEMPLATES = {
    "gamma2": lambda: templates.gamma_word(2),
    "gamma3": lambda: templates.gamma_word(3),
    "Gamma3": lambda: templates.GAMMA3_FAMILY,
    "beta2": lambda: templates.beta_word(2),
    "commutator_product2": lambda: templates.commutator_product_word(2),
}


def prepare(jobs: list[dict], ctx: RunContext) -> dict:
    references = {}
    for spec in sorted({j["group"] for j in jobs if ORDERS.get(j["group"], 10**9) <= 60}):
        for name, ref in _reference_tables(finite.load_group(spec)).items():
            references[(spec, name)] = ref
    for job in jobs:
        if job["kind"] == "floor":
            dist, mul, inv = references[(job["group"], job["template"])]
            identity = finite.load_group(job["group"]).identity
            letters = grammar.parse(job["word"]).letters
            job["expected"] = []
            for images in job["images"]:
                acc = identity
                for index, sign in letters:
                    image = images[index - 1]
                    acc = mul[acc][image if sign == 1 else inv[image]]
                job["expected"].append(None if dist[acc] < 0 else dist[acc])
        elif job["kind"] == "values":
            job["expected"] = _permutation_powers(7, job["exponent"])
    return {
        "references": {k: v[0] for k, v in references.items()},
        "first": {},
    }


def begin_pass(state: dict, ctx: RunContext) -> None:
    state["first"] = {}
    state["cache_dir"] = ctx.fresh_dir("quotient-cache-")
    ctx.use_cache_dir(state["cache_dir"])


def _check_table(job: dict, table, state: dict) -> None:
    spec, name = job["group"], job["template"]
    distances = table.distances.tolist()
    expect(len(distances) == ORDERS[spec], f"{spec}/{name}: {len(distances)} distances")
    if spec in ORE_GROUPS and name == "gamma2":
        expected = {0: 1, 1: ORDERS[spec] - 1}
        expect(table.histogram() == expected, f"{spec}/gamma2 histogram {table.histogram()}")
    reference = state["references"].get((spec, name))
    if reference is not None:
        expect(distances == reference, f"{spec}/{name}: distances differ from the reference BFS")
    first = state["first"].setdefault((spec, name), distances)
    expect(first == distances, f"{spec}/{name}: differs from the first table this pass")


def _listing(directory) -> dict[str, tuple[int, int, int]]:
    """Each file's inode, modification time and size: a store shows as a new
    file or, if the program rewrote an existing one, as a changed stamp."""
    stamps = {}
    for entry in os.scandir(directory):
        st = entry.stat()
        stamps[entry.name] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return stamps


def _table_text(table) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(table.histogram().items()))


def run(job: dict, state: dict, tr) -> str:
    kind, spec = job["kind"], job["group"]
    with tr.span("finite.load"):
        group = finite.load_group(spec)
    if kind == "values":
        with tr.span("grammar.parse"):
            word = grammar.parse(job["word"])
        tr.count("grammar.bytes_parsed", len(job["word"].encode()))
        template = templates.template_from_word(word)
        with tr.span("finite.values"):
            values = finite.template_values(group, template)
        expect(values.tolist() == job["expected"], f"S7 values of {job['word']} differ")
        tr.count("finite.assignments", group.order)
        return " ".join(map(str, values.tolist()))
    template = TEMPLATES[job["template"]]()
    assignments = ORDERS[spec] ** VARIABLES[job["template"]]
    if kind == "floor":
        with tr.span("grammar.parse"):
            word = grammar.parse(job["word"])
        tr.count("grammar.bytes_parsed", len(job["word"].encode()))
        with tr.span("finite.floor"):
            values = [
                finite.quotient_length(word, template, group, {i + 1: x for i, x in enumerate(images)})
                for images in job["images"]
            ]
        expect(values == job["expected"], f"{spec}/{job['template']} floors {values}, expected {job['expected']}")
        tr.count("finite.assignments", assignments * len(values))
        return " ".join(map(str, values))
    if kind == "direct":
        with tr.span("finite.wlength"):
            table = finite.wlength_table(group, template)
        tr.count("finite.assignments", assignments)
    else:
        cache_dir = state["cache_dir"]
        before = _listing(cache_dir)
        with tr.span("cache.lookup") as span:
            table = cache.distance_table(group, template)
            after = _listing(cache_dir)
            stored = [name for name, stamp in after.items() if before.get(name) != stamp]
            span.name = "cache.miss" if stored else "cache.hit"
        expect(
            bool(stored) == job["expect_miss"],
            f"{spec}/{job['template']}: {'stored' if stored else 'loaded'}, expected a "
            f"{'miss' if job['expect_miss'] else 'hit'}",
        )
        if stored:
            tr.count("cache.misses")
            tr.count("cache.bytes", sum(after[name][2] for name in stored))
            tr.count("finite.assignments", assignments)
        else:
            tr.count("cache.hits")
    _check_table(job, table, state)
    if kind == "direct" or job["expect_miss"]:
        tr.count("finite.bfs_levels", int(table.distances.max()))
        tr.count("finite.reachable", table.reachable_count())
    return _table_text(table)
