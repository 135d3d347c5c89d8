"""Shared helpers for the test suite."""
from __future__ import annotations

import random

import numpy as np

from verba.words import Word


def random_word(rng: random.Random, rank: int = 4, max_length: int = 12) -> Word:
    length = rng.randrange(0, max_length + 1)
    return Word(
        tuple(
            (rng.randrange(1, rank + 1), rng.choice((1, -1))) for _ in range(length)
        )
    )


def random_nonempty_word(
    rng: random.Random, rank: int = 4, max_length: int = 12
) -> Word:
    while True:
        word = random_word(rng, rank, max_length)
        if word:
            return word


def table_text(table: np.ndarray) -> str:
    """A multiplication table in the ``table:<path>`` file format."""
    rows = (" ".join(map(str, row)) for row in np.asarray(table).tolist())
    return f"order {len(table)}\n" + "\n".join(rows) + "\n"


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The multiplication table with each element ``a`` renamed ``perm[a]``."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out
