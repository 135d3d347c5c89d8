"""On-disk cache for finite-group distance tables.

Files live under the cache root (``VERBA_CACHE_DIR`` or
``~/.cache/verba``), one per (group, template) pair, named by a hash of the
group's spec, the template's key and the group's ``source`` (for a table
file, the sha256 of the table ``finite.load_group`` parsed; else ``""``):
an entry is named by the table it was computed from, and the cache parses
no group spec and opens no group file.  An entry is one JSON header line::

    {"format": 2, "group": <spec>, "template": <key>, "count": <n>, "sha256": <hex>}

followed by the ``n`` distances as little-endian int32, indexed by element
id; ``-1`` marks elements that are not products of template values at all.
Entries are written to a temporary file and moved into place.  An entry is
served only when its header is the one expected for the group, template and
payload, and its levels are a breadth-first search's: the identity alone at
0, every entry in ``[-1, order)``, no empty level below the maximum.  Any
other entry warns and is recomputed; a failed store only warns.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np

from .finite import DistanceTable, FiniteGroup, _frozen, wlength_table
from .templates import Template


def cache_dir() -> Path:
    override = os.environ.get("VERBA_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "verba"


def cache_key(group: FiniteGroup, template: Template) -> str:
    """Hash of the group's spec, the template key and, when not empty, the
    group's ``source``; a stock group's key is its spec and template's alone."""
    material = f"{group.spec}\n{template.key}" + (f"\n{group.source}" if group.source else "")
    return hashlib.sha256(material.encode()).hexdigest()[:24]


def cache_path(group: FiniteGroup, template: Template) -> Path:
    return cache_dir() / f"{cache_key(group, template)}.dist"


def _header(group: FiniteGroup, template: Template, payload: bytes) -> bytes:
    head = {
        "format": 2,
        "group": group.spec,
        "template": template.key,
        "count": len(payload) // 4,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(head).encode() + b"\n"


def store(group: FiniteGroup, template: Template, table: DistanceTable) -> Path:
    path = cache_path(group, template)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = table.distances.astype("<i4").tobytes()
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        tmp.write_bytes(_header(group, template, payload) + payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load(group: FiniteGroup, template: Template) -> DistanceTable | None:
    """Return the cached table, or None on a miss or a corrupt entry."""
    path = cache_path(group, template)
    if not path.exists():
        return None
    try:
        head, _, payload = path.read_bytes().partition(b"\n")
        if len(payload) != 4 * group.order:
            raise ValueError(f"{len(payload)} payload bytes, expected {4 * group.order}")
        if head + b"\n" != _header(group, template, payload):
            raise ValueError("header does not match the requested table and its payload")
        distances = np.frombuffer(payload, dtype="<i4").astype(np.int32)
        if distances.min() < -1 or distances.max() >= group.order:
            raise ValueError("a distance is out of range")
        if np.flatnonzero(distances == 0).tolist() != [group.identity]:
            raise ValueError("the identity is not the only element at distance 0")
        if not np.bincount(distances[distances >= 0]).all():
            raise ValueError("a level below the maximum distance is empty")
        return DistanceTable(_frozen(distances))  # read-only, as a held table is
    except (ValueError, OSError) as exc:
        warnings.warn(f"discarding corrupt cache file {path}: {exc}", stacklevel=2)
        return None


def distance_table(group: FiniteGroup, template: Template) -> DistanceTable:
    """Load the table from disk; on a miss, store ``wlength_table``'s, the group's if held.

    Either way the table is read-only.  A table read from disk is not held
    by the group, so ``quotient_length`` reads only tables the process built.
    """
    cached = load(group, template)
    if cached is not None:
        return cached
    table = wlength_table(group, template)
    try:
        store(group, template, table)
    except OSError as exc:
        warnings.warn(f"cannot store cache file for {group.spec}: {exc}", stacklevel=2)
    return table


def info() -> list[str]:
    root = cache_dir()
    entries = [f"{path.name}: {_describe(path)}" for path in sorted(root.glob("*.dist"))]
    return [f"cache directory: {root}", *(entries or ["(empty)"])]


def _describe(path: Path) -> str:
    try:
        with path.open("rb") as entry:
            head = json.loads(entry.readline())
        return f"GROUP {head['group']} TEMPLATE {head['template']} COUNT {head['count']}"
    except (OSError, ValueError, KeyError, TypeError):
        return "(corrupt entry)"


def clear() -> int:
    entries = list(cache_dir().glob("*.dist"))
    for path in entries:
        path.unlink()
    return len(entries)
