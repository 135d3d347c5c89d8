"""Seeded input generation shared by the workloads.

Inputs are plain text and integers, never verba objects, so that the program
under test receives only the generated inputs.  Word lengths are fixed by the
workload and only the letters depend on the seed; every word is freely
reduced as written, and a word over generators disjoint from another's cannot
cancel against it, so the size of each job barely depends on the seed.
"""
from __future__ import annotations

import random

def word_text(rng: random.Random, gens: str, length: int, cyclic: bool = False) -> str:
    """A word of exactly ``length`` letters over the names in ``gens``.

    Neighbouring letters always use different generators, so the word is
    reduced and prints with one token per letter.  With ``cyclic`` the last
    letter's generator also differs from the first's, so powers of the word
    neither cancel nor merge.
    """
    letters: list[tuple[str, int]] = []
    while len(letters) < length:
        name = rng.choice(gens)
        if letters and letters[-1][0] == name:
            continue
        if cyclic and length > 1 and len(letters) == length - 1 and letters[0][0] == name:
            continue
        letters.append((name, rng.choice((1, -1))))
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in letters)


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent generator per workload and stream, fixed by ``seed``."""
    return random.Random(f"{seed}:{stream}")
