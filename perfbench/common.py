"""Pieces shared by the workload modules."""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path


class WrongAnswer(Exception):
    """A job finished but its result disagrees with the benchmark's oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class RunContext:
    """Where a run may write, and how it starts child interpreters."""

    tmp: Path  # fresh per run, removed when the run ends
    python: str
    env: dict[str, str] = field(default_factory=dict)

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.tmp))

    def use_cache_dir(self, path: Path) -> None:
        """Point this process and every child it starts at ``path``."""
        os.environ["VERBA_CACHE_DIR"] = str(path)
        self.env["VERBA_CACHE_DIR"] = str(path)
