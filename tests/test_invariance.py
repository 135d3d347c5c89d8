"""Metamorphic checks across layers: answers must not depend on how a group's
elements are named or on what the distance-table cache holds.

Relabelling a group's elements gives an isomorphic group, so its distance
histograms are the same.  Ore's conjecture (Liebeck, O'Brien, Shalev and
Tiep, 2010) makes every element of A5, A6 and A7 a commutator.
"""
from __future__ import annotations

import numpy as np
import pytest

from helpers import relabel, table_text
from verba import cache
from verba.cli import main
from verba.finite import load_group, registry_small_groups
from verba.templates import gamma_word


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))


def wlength(capsys, *args):
    code = main(["wlength", *args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


@pytest.mark.parametrize("spec", registry_small_groups())
def test_relabelled_table_has_the_same_histograms(capsys, tmp_path, spec):
    group = load_group(spec)
    ids = np.arange(group.order)
    perm = np.random.default_rng(sum(map(ord, spec))).permutation(group.order)
    path = tmp_path / f"{spec}-relabelled.tbl"
    path.write_text(table_text(relabel(group.mul(ids[:, None], ids).astype(np.int64), perm)))
    for template in ("gamma2", "gamma3"):
        want = wlength(capsys, "--group", spec, "--template", template, "--no-cache")
        got = wlength(capsys, "--group", f"table:{path}", "--template", template, "--no-cache")
        assert got == want, template


@pytest.mark.parametrize("spec, order", [("A5", 60), ("A6", 360), ("A7", 2520)])
def test_ore_every_element_is_a_commutator(capsys, spec, order):
    out = wlength(capsys, "--group", spec, "--template", "gamma2", "--no-cache")
    assert out.splitlines() == ["0 1", f"1 {order - 1}"]


@pytest.mark.parametrize(
    "spec, n, extra",
    [("S4", 3, []), ("D10", 2, ["--element", "x^2 y", "--images", "3,11"])],
)
def test_cold_warm_and_corrupted_caches_print_the_same(capsys, spec, n, extra):
    argv = ["--group", spec, "--template", f"gamma{n}", *extra]
    uncached = wlength(capsys, *argv, "--no-cache")
    cold = wlength(capsys, *argv)
    path = cache.cache_path(spec, gamma_word(n))
    stamp = path.stat().st_mtime_ns
    warm = wlength(capsys, *argv)
    assert path.stat().st_mtime_ns == stamp  # a hit, not a rewrite
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))
    with pytest.warns(UserWarning, match="discarding corrupt cache file"):
        corrupted = wlength(capsys, *argv)
    assert cold == warm == corrupted == uncached
