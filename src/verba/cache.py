"""On-disk cache for finite-group distance tables.

Files live under the cache root (``VERBA_CACHE_DIR`` or
``~/.cache/verba``), one per (group spec, template) pair, named by a
content hash so that editing a template, or rewriting the file of a
``table:`` group, invalidates the entry.  Format::

    GROUP <spec> TEMPLATE <key> COUNT <n>
    <id> <distance>
    ...

with one line per element id; ``-1`` marks elements that are not products
of template values at all.  Corrupt entries are never trusted: the reader
warns and the caller recomputes.
"""
from __future__ import annotations

import hashlib
import os
import re
import warnings
from pathlib import Path

import numpy as np

from .finite import DistanceTable, FiniteGroup, wlength_table
from .templates import Template

_HEADER_RE = re.compile(r"GROUP (\S+) TEMPLATE (.+) COUNT ([0-9]+)\Z")


def cache_dir() -> Path:
    override = os.environ.get("VERBA_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "verba"


def cache_key(group_spec: str, template: Template) -> str:
    """Hash of the group spec and template key; for a ``table:<path>`` group
    also of the file's bytes, so that rewriting the file misses."""
    material = f"{group_spec}\n{template.key}".encode()
    if group_spec.startswith("table:"):
        material += b"\n" + Path(group_spec[len("table:") :]).read_bytes()
    return hashlib.sha256(material).hexdigest()[:24]


def cache_path(group_spec: str, template: Template) -> Path:
    return cache_dir() / f"{cache_key(group_spec, template)}.dist"


def store(table: DistanceTable, template: Template) -> Path:
    path = cache_path(table.group_spec, template)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"GROUP {table.group_spec} TEMPLATE {table.template_key}"
        f" COUNT {len(table.distances)}"
    ]
    lines.extend(f"{i} {d}" for i, d in enumerate(table.distances))
    path.write_text("\n".join(lines) + "\n")
    return path


def load(group_spec: str, template: Template) -> DistanceTable | None:
    """Return the cached table, or None on a miss or a corrupt entry."""
    path = cache_path(group_spec, template)
    if not path.exists():
        return None
    try:
        text = path.read_text()
        head, _, body = text.partition("\n")
        match = _HEADER_RE.match(head.strip())
        if match is None:
            raise ValueError(f"bad header {head!r}")
        spec, key, count_text = match.groups()
        if spec != group_spec or key != template.key:
            raise ValueError("header does not match the requested table")
        count = int(count_text)
        distances = np.full(count, -1, dtype=np.int32)
        seen = 0
        for line in body.splitlines():
            line = line.strip()
            if not line:
                continue
            id_text, dist_text = line.split()
            distances[int(id_text)] = int(dist_text)
            seen += 1
        if seen != count:
            raise ValueError(f"expected {count} rows, found {seen}")
        return DistanceTable(group_spec, key, distances)
    except (ValueError, IndexError, OSError) as exc:
        warnings.warn(f"discarding corrupt cache file {path}: {exc}", stacklevel=2)
        return None


def distance_table(group: FiniteGroup, template: Template, **kwargs) -> DistanceTable:
    """Load the distance table from cache, computing and storing on a miss."""
    cached = load(group.spec, template)
    if cached is not None:
        return cached
    table = wlength_table(group, template, **kwargs)
    store(table, template)
    return table


def info() -> list[str]:
    root = cache_dir()
    lines = [f"cache directory: {root}"]
    if not root.exists():
        lines.append("(empty)")
        return lines
    entries = sorted(root.glob("*.dist"))
    if not entries:
        lines.append("(empty)")
        return lines
    for path in entries:
        head = path.read_text().partition("\n")[0].strip()
        lines.append(f"{path.name}: {head}")
    return lines


def clear() -> int:
    root = cache_dir()
    removed = 0
    if root.exists():
        for path in root.glob("*.dist"):
            path.unlink()
            removed += 1
    return removed
