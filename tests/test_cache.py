"""Distance-table cache: round trips, invalidation, and corruption recovery."""
from __future__ import annotations

import numpy as np
import pytest

from verba import cache
from verba.cli import main
from verba.finite import dihedral_table_text, load_group, wlength_table
from verba.templates import beta_word, gamma_word


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_cache_dir_override(cache_root):
    assert cache.cache_dir() == cache_root


def test_store_load_round_trip(cache_root):
    group = load_group("S3")
    template = gamma_word(2)
    table = wlength_table(group, template)
    path = cache.store(table, template)
    assert path.parent == cache_root
    loaded = cache.load("S3", template)
    assert loaded is not None
    assert loaded.group_spec == "S3"
    assert loaded.template_key == template.key
    assert np.array_equal(loaded.distances, table.distances)


def test_load_miss_returns_none(cache_root):
    assert cache.load("S3", gamma_word(2)) is None


def test_key_separates_groups_and_templates(cache_root):
    group = load_group("S3")
    cache.store(wlength_table(group, gamma_word(2)), gamma_word(2))
    assert cache.load("S4", gamma_word(2)) is None
    assert cache.load("S3", gamma_word(3)) is None
    assert cache.load("S3", beta_word(2)) is None
    assert cache.load("S3", gamma_word(2)) is not None


def test_corrupt_entries_warn_and_miss(cache_root):
    group = load_group("S3")
    template = gamma_word(2)
    path = cache.store(wlength_table(group, template), template)

    path.write_text("not a header\n0 0\n")
    with pytest.warns(UserWarning, match="corrupt"):
        assert cache.load("S3", template) is None

    good = cache.store(wlength_table(group, template), template)
    text = good.read_text().splitlines()
    good.write_text("\n".join(text[:-2]) + "\n")  # truncate rows
    with pytest.warns(UserWarning, match="corrupt"):
        assert cache.load("S3", template) is None

    cache.store(wlength_table(group, template), template)
    tampered = good.read_text().replace("COUNT 6", "COUNT six")
    good.write_text(tampered)
    with pytest.warns(UserWarning, match="corrupt"):
        assert cache.load("S3", template) is None


def test_distance_table_computes_once_then_hits(cache_root):
    group = load_group("A4")
    template = gamma_word(2)
    first = cache.distance_table(group, template)
    assert cache.cache_path("A4", template).exists()
    # Poison the computation path: a hit must not recompute.
    marker = first.distances.copy()
    marker_path = cache.cache_path("A4", template)
    second = cache.distance_table(group, template)
    assert np.array_equal(second.distances, marker)
    assert marker_path.exists()


def test_info_and_clear(cache_root):
    assert any("(empty)" in line for line in cache.info())
    group = load_group("S3")
    cache.store(wlength_table(group, gamma_word(2)), gamma_word(2))
    cache.store(wlength_table(group, gamma_word(3)), gamma_word(3))
    lines = cache.info()
    assert sum("GROUP S3" in line for line in lines) == 2
    assert cache.clear() == 2
    assert any("(empty)" in line for line in cache.info())
    assert cache.clear() == 0


def test_rewritten_table_file_misses(cache_root, tmp_path, capsys):
    path = tmp_path / "group.tbl"
    path.write_text(dihedral_table_text(3))
    args = ["wlength", "--group", f"table:{path}", "--template", "gamma2"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 2", "unreachable 3"]
    # Rewrite the same path as the cyclic group of order 6: abelian, so only
    # the identity is a product of commutators.
    rows = [" ".join(str((a + b) % 6) for b in range(6)) for a in range(6)]
    path.write_text("order 6\n" + "\n".join(rows) + "\n")
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "unreachable 5"]
    assert main(args + ["--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "unreachable 5"]
