"""certify: build, check, serialize and re-parse rewrite certificates.

All of the work is in ``words``, ``grammar`` and ``certificates``; ``finite``,
``cache`` and ``bounds`` stay idle.  The pass is skewed: a few large
``square_to_gamma3`` jobs (up to about 80 KB serialized) sit among many
small ones, because the large ones are where pairwise multiplication and
parsing grow quadratically.
"""
from __future__ import annotations

from perfbench.common import RunContext, expect
from perfbench.seeded import rng_for, word_text
from verba import certificates, grammar, identities

NAME = "certify"
MODULES = ("verba.grammar", "verba.certificates", "verba.identities")

# (rule, count in a full pass, count in a smoke pass, size parameters).  In a
# pass of 48, twenty jobs are cheaper and twenty dearer than the eight
# square_to_gamma3 n=3 jobs, so the median job is one of those whatever the seed.
_SLOTS = (
    ("square_to_gamma3", 1, 0, dict(n=6, la=3, lb=3)),
    ("square_to_gamma3", 3, 0, dict(n=5, la=3, lb=3)),
    ("square_to_gamma3", 4, 1, dict(n=4, la=3, lb=4)),
    ("square_to_gamma3", 8, 0, dict(n=3, la=4, lb=4)),
    ("gamma3_triangle", 2, 0, dict(m=10, length=2)),
    ("gamma3_triangle", 4, 1, dict(m=6, length=2)),
    ("oddball_iterate", 2, 0, dict(n=10, length=3)),
    ("oddball_iterate", 5, 1, dict(n=5, length=3)),
    ("herd_powers", 3, 0, dict(n=24, length=2)),
    ("herd_powers", 3, 1, dict(n=8, length=2)),
    ("culler_power_pair", 3, 1, dict(k_max=9)),
    ("rotate_product", 3, 1, dict(k=6, length=2)),
    ("telescope_line", 3, 1, dict(length=2)),
    ("hall_witt_split", 4, 1, dict(length=2)),
)


def _identities(rng) -> list[list[str]]:
    """Two bracket-heavy identities, as ``verba verify LHS RHS`` would receive them."""
    x, y, z = (f"({word_text(rng, 'abcd', 3)})" for _ in range(3))
    return [
        [f"[[{y},{x}],{z}^{x}] [[{x},{z}],{y}^{z}] [[{z},{y}],{x}^{y}]", "1"],  # Hall-Witt
        [f"[{x} {y},{z}]", f"[{y},{z}]^{x} [{x},{z}]"],
    ]


def _job(rule: str, p: dict, rng) -> dict:
    """Words over disjoint alphabets, cyclically reduced where they are raised
    to powers, so nothing cancels and a job's size does not depend on the seed."""
    job: dict = {
        "rule": rule,
        "words": [],
        "ints": [],
        "identities": _identities(rng),
    }
    if rule == "square_to_gamma3":
        a = word_text(rng, "abc", p["la"], cyclic=True)
        if p["lb"] == 4:  # exponent sums vanish, so the factors carry nested-commutator tags
            b = f"[d^{rng.choice((-1, 1))},e^{rng.choice((-1, 1))}]"
        else:  # odd length: exponent sums cannot vanish, the factors stay RAW
            b = word_text(rng, "de", p["lb"])
        job["words"] = [a, b]
        job["ints"] = [p["n"]]
    elif rule in ("gamma3_triangle", "herd_powers"):
        job["words"] = [word_text(rng, gens, p["length"], cyclic=True) for gens in ("ab", "cd")]
        job["ints"] = [p["m" if rule == "gamma3_triangle" else "n"]]
    elif rule == "oddball_iterate":
        job["words"] = [word_text(rng, gens, p["length"]) for gens in ("ab", "cd", "ef")]
        job["ints"] = [p["n"]]
    elif rule == "culler_power_pair":
        job["ints"] = [rng.randint(1, p["k_max"])]
    elif rule == "rotate_product":
        job["words"] = [word_text(rng, gens, p["length"], cyclic=True) for gens in ("ab", "cd", "ef")]
        job["ints"] = [p["k"]]
    elif rule == "telescope_line":
        gens = ("ab", "cd", "ef", "gh", "ab")
        job["words"] = [word_text(rng, g, p["length"], cyclic=True) for g in gens]
        before = [rng.choice((-1, 1)) * size for size in (1, 2, 3, 1, 2)]
        after = [rng.choice((-1, 1)) * size for size in (2, 1, 3, 2, 1)]
        job["ints"] = before + after
    elif rule == "hall_witt_split":
        g = word_text(rng, "ab", p["length"])
        a = f"[{word_text(rng, 'cd', p['length'])},{word_text(rng, 'ef', p['length'])}]"
        b = f"[{word_text(rng, 'gh', p['length'])},{word_text(rng, 'ab', p['length'])}]"
        job["words"] = [g, a, b]
    return job


def generate(seed: int, smoke: bool = False) -> list[dict]:
    rng = rng_for(seed, NAME)
    jobs = []
    for rule, full, small, params in _SLOTS:
        for _ in range(small if smoke else full):
            jobs.append(_job(rule, params, rng))
    rng.shuffle(jobs)
    return jobs


def expected_factors(job: dict) -> int:
    """The factor count each rule's closed form gives."""
    rule, ints, words = job["rule"], job["ints"], job["words"]
    if rule == "square_to_gamma3":
        return 2 ** ints[0]
    if rule == "gamma3_triangle":
        return ints[0] * (ints[0] - 1) // 2
    if rule in ("oddball_iterate", "herd_powers"):
        return ints[0]
    if rule == "rotate_product":
        return 1 + (len(words) - 1) * ints[0]
    if rule == "telescope_line":
        return len(words)
    return 2  # culler_power_pair, hall_witt_split


def _build(rule: str, w: list, ints: list[int]):
    if rule == "telescope_line":
        m = len(w)
        return identities.telescope_line(w, ints[:m], ints[m:])
    if rule == "rotate_product":
        return identities.rotate_product(w, ints[0])
    if rule == "culler_power_pair":
        return identities.culler_power_pair(ints[0])
    return getattr(identities, rule)(*w, *ints)


def prepare(jobs: list[dict], ctx: RunContext) -> dict:
    return {}


def begin_pass(state: dict, ctx: RunContext) -> None:
    pass


def run(job: dict, state: dict, tr) -> str:
    names = grammar.NameTable()
    with tr.span("grammar.parse"):
        words = [grammar.parse(text, names) for text in job["words"]]
    with tr.span("certificates.build"):
        cert = _build(job["rule"], words, job["ints"])
    with tr.span("words.product"):
        product = cert.product()
    expect(product == cert.target, f"{job['rule']}: product differs from target")
    with tr.span("certificates.check"):
        cert.check()
    with tr.span("certificates.serialize"):
        text = cert.serialize()
    with tr.span("certificates.parse"):
        again = certificates.parse_certificate(text)
    with tr.span("certificates.check"):
        again.check()
    with tr.span("certificates.serialize"):
        text_again = again.serialize()
    expect(text_again == text, f"{job['rule']}: re-serialization is not byte-identical")
    expect(again == cert, f"{job['rule']}: re-parsed certificate differs")
    expect(
        len(cert.factors) == expected_factors(job),
        f"{job['rule']}: {len(cert.factors)} factors, closed form gives {expected_factors(job)}",
    )
    for lhs_text, rhs_text in job["identities"]:
        with tr.span("grammar.parse"):
            lhs = grammar.parse(lhs_text, names)
            rhs = grammar.parse(rhs_text, names)
        expect(lhs == rhs, f"identity sides reduce to different words: {lhs_text} = {rhs_text}")
    with tr.span("grammar.format"):
        target_text = grammar.format_word(cert.target)
    if tr.enabled:
        tr.count("words.letters_in", sum(2 * len(f.conjugator) + len(f.base) for f in cert.factors))
        tr.count("words.letters_out", len(product))
        tr.count("certificates.factors", len(cert.factors))
        tr.count("certificates.bytes", len(text.encode()))
        parsed = job["words"] + [side for pair in job["identities"] for side in pair]
        tr.count("grammar.bytes_parsed", len(text.encode()) + sum(len(s.encode()) for s in parsed))
    return f"{target_text}\n{text}"

