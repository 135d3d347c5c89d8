"""Distance-table cache: round trips, invalidation, and corruption recovery."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import table_text
from verba import cache, finite
from verba.cli import main
from verba.finite import dihedral_table, load_group, wlength_table
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
    path = cache.store(group, template, table)
    assert path.parent == cache_root
    loaded = cache.load(group, template)
    assert loaded is not None
    assert np.array_equal(loaded.distances, table.distances)


def test_load_miss_returns_none(cache_root):
    assert cache.load(load_group("S3"), gamma_word(2)) is None


def test_key_separates_groups_and_templates(cache_root):
    group = load_group("S3")
    cache.store(group, gamma_word(2), wlength_table(group, gamma_word(2)))
    assert cache.load(load_group("S4"), gamma_word(2)) is None
    assert cache.load(group, gamma_word(3)) is None
    assert cache.load(group, beta_word(2)) is None
    assert cache.load(group, gamma_word(2)) is not None


def test_stored_entry_is_a_json_header_and_int32_distances(cache_root):
    group = load_group("S3")
    template = gamma_word(2)
    table = wlength_table(group, template)
    head, _, payload = cache.store(group, template, table).read_bytes().partition(b"\n")
    assert json.loads(head) == {
        "format": 2,
        "group": "S3",
        "template": template.key,
        "count": 6,
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    assert np.array_equal(np.frombuffer(payload, dtype="<i4"), table.distances)
    assert [p.name for p in cache_root.iterdir()] == [f"{cache.cache_key(group, template)}.dist"]


def test_corrupt_entries_warn_and_miss(cache_root):
    group = load_group("S3")
    template = gamma_word(2)
    good = cache.store(group, template, wlength_table(group, template)).read_bytes()
    head, _, payload = good.partition(b"\n")
    edits = [
        b"not a header\n0 0\n",
        good[:-8],  # truncated payload
        good + b"\0\0\0\0",  # one distance too many
        good.replace(b'"count": 6', b'"count": 7'),
        good.replace(b'"count": 6', b'"count": "six"'),
        good.replace(b'"format": 2', b'"format": 1'),
        good.replace(b'"group": "S3"', b'"group": "S4"'),
        head + b"\n" + payload[:-1] + bytes([payload[-1] ^ 1]),  # flipped payload bit
        payload,  # no header at all
        b"",
    ]
    for edit in edits:
        cache.cache_path(group, template).write_bytes(edit)
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.load(group, template) is None


S3_GAMMA2 = ["0 1", "1 2", "unreachable 3"]  # the commutators of S3 are A3 = {0, 3, 4}


def _entry(distances, group="S3", template="gamma2"):
    """A format-2 entry with a correct checksum, built from the documented format."""
    payload = np.asarray(distances, dtype="<i4").tobytes()
    head = {
        "format": 2,
        "group": group,
        "template": gamma_word(2).key if template == "gamma2" else template,
        "count": len(distances),
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    return json.dumps(head).encode() + b"\n" + payload


def _old_format(rows):
    head = f"GROUP S3 TEMPLATE {gamma_word(2).key} COUNT 6"
    return "\n".join([head, *rows, ""]).encode()


_OLD_ROWS = ["0 0", "1 -1", "2 -1", "3 1", "4 1", "5 -1"]


def _s3_entry_bytes():
    return cache.cache_path(load_group("S3"), gamma_word(2)).read_bytes()


def _flipped_byte():
    data = bytearray(_s3_entry_bytes())
    data[-12] ^= 0x03  # id 3's distance 1 becomes 2: in range, every level filled
    return bytes(data)


@pytest.mark.parametrize(
    "corrupt",
    [
        # ids 3 and 4 (the 3-cycles) at distance 1, written by the old text format
        pytest.param(lambda: _old_format(_OLD_ROWS[:3] + ["-1 1", "4 7", "5 -1"]), id="edited-rows"),
        pytest.param(lambda: _old_format(_OLD_ROWS[:3] + ["4 1", "4 1", "5 -1"]), id="duplicate-id"),
        pytest.param(lambda: _old_format(_OLD_ROWS), id="old-format"),
        pytest.param(lambda: _s3_entry_bytes()[:-3], id="truncated"),
        pytest.param(_flipped_byte, id="flipped-byte"),
        pytest.param(lambda: _entry([0, -1, -1, 0, 1, -1]), id="two-zero-distances"),
        pytest.param(lambda: _entry([0, -1, -1, 1, 7, -1]), id="distance-out-of-range"),
        pytest.param(lambda: _entry([0, -2, -1, 1, 1, -1]), id="distance-below-minus-one"),
        pytest.param(lambda: _entry([0, -1, -1, 1, 3, -1]), id="empty-level"),
        pytest.param(lambda: _entry([1, -1, -1, 0, 1, -1]), id="identity-not-at-zero"),
        pytest.param(lambda: _entry([0, -1, -1, 1, 1, -1, 1]), id="seven-distances"),
        pytest.param(lambda: _entry([0, -1, -1, 1, 1, -1], group="S4"), id="other-group"),
        pytest.param(lambda: _entry([0, -1, -1, 1, 1, -1], template="x1 x1"), id="other-template"),
    ],
)
def test_wlength_recomputes_a_corrupt_entry(cache_root, capsys, corrupt):
    args = ["wlength", "--group", "S3", "--template", "gamma2"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2
    path = cache.cache_path(load_group("S3"), gamma_word(2))
    assert np.frombuffer(path.read_bytes().partition(b"\n")[2], dtype="<i4").tolist() == [
        0, -1, -1, 1, 1, -1
    ]
    path.write_bytes(corrupt())
    with pytest.warns(UserWarning, match="discarding corrupt cache file"):
        assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2
    # the recomputed table replaced the corrupt entry
    assert cache.load(load_group("S3"), gamma_word(2)).distances.tolist() == [0, -1, -1, 1, 1, -1]


def test_bi_invariance_checks_the_table_the_cache_served(cache_root, capsys):
    # Computed tables are constant on classes by construction, so the check
    # is worth something only on what it is served: here the 3-cycles 3 and
    # 4 of S3 at different distances, in an entry that passes every check
    # load makes.
    tampered = _entry([0, -1, -1, 1, 2, -1])
    cache.cache_path(load_group("S3"), gamma_word(2)).write_bytes(tampered)
    assert cache.load(load_group("S3"), gamma_word(2)).distances.tolist() == [0, -1, -1, 1, 2, -1]
    code = main(["wlength", "--group", "S3", "--template", "gamma2", "--check-bi-invariance"])
    assert capsys.readouterr().out.splitlines() == [
        "0 1", "1 1", "2 1", "unreachable 3", "bi-invariance: FAIL"
    ]
    assert code == 1


def test_table_path_with_a_space_hits_on_the_second_run(cache_root, tmp_path, capsys, monkeypatch):
    path = tmp_path / "a group" / "d 3.tbl"
    path.parent.mkdir()
    path.write_text(table_text(dihedral_table(3)))
    args = ["wlength", "--group", f"table:{path}", "--template", "gamma2"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2

    def recompute(*args, **kwargs):
        raise AssertionError("a cache hit recomputed the table")

    monkeypatch.setattr(cache, "wlength_table", recompute)
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2
    assert main(["cache", "info"]) == 0
    assert f"GROUP table:{path} TEMPLATE {gamma_word(2).key} COUNT 6" in capsys.readouterr().out


def test_unwritable_cache_dir_warns_and_answers(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("VERBA_CACHE_DIR", str(blocker / "cache"))
    with pytest.warns(UserWarning, match="cannot store cache file"):
        assert main(["wlength", "--group", "S3", "--template", "gamma2"]) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2


def test_info_names_an_unreadable_entry(cache_root):
    cache.cache_path(load_group("S3"), gamma_word(2)).write_bytes(_old_format(_OLD_ROWS))
    s4 = load_group("S4")
    cache.store(s4, gamma_word(2), wlength_table(s4, gamma_word(2)))
    lines = cache.info()
    assert f"{cache.cache_key(load_group('S3'), gamma_word(2))}.dist: (corrupt entry)" in lines
    assert f"{cache.cache_key(s4, gamma_word(2))}.dist: GROUP S4 TEMPLATE {gamma_word(2).key} COUNT 24" in lines


def test_distance_table_computes_once_then_hits(cache_root):
    group = load_group("A4")
    template = gamma_word(2)
    first = cache.distance_table(group, template)
    assert cache.cache_path(group, template).exists()
    # Poison the computation path: a hit must not recompute.
    marker = first.distances.copy()
    marker_path = cache.cache_path(group, template)
    second = cache.distance_table(group, template)
    assert np.array_equal(second.distances, marker)
    assert marker_path.exists()


def _counting_builds(monkeypatch) -> list[str]:
    built = []
    build = finite._build_distance_table
    monkeypatch.setattr(
        finite, "_build_distance_table", lambda g, t: built.append(t.key) or build(g, t)
    )
    return built


def test_a_miss_on_a_held_table_stores_it_without_a_build(cache_root, monkeypatch):
    group = finite.PermutationGroup("A4", 4, even_only=True)  # fresh: it holds no table
    held = wlength_table(group, gamma_word(2))
    built = _counting_builds(monkeypatch)
    assert not cache.cache_path(group, gamma_word(2)).exists()
    assert cache.distance_table(group, gamma_word(2)) is held
    assert built == []
    assert cache.load(group, gamma_word(2)).distances.tolist() == held.distances.tolist()
    # a template the group does not hold is built on its miss, and only then
    cache.distance_table(group, gamma_word(3))
    cache.distance_table(group, gamma_word(3))
    assert built == [gamma_word(3).key]


def test_a_corrupt_entry_is_rewritten_while_the_group_holds_the_table(cache_root, monkeypatch):
    group = finite.PermutationGroup("S3", 3, even_only=False)  # fresh: it holds no table
    good = cache.store(group, gamma_word(2), wlength_table(group, gamma_word(2))).read_bytes()
    path = cache.cache_path(group, gamma_word(2))
    path.write_bytes(good[:-4])
    built = _counting_builds(monkeypatch)
    with pytest.warns(UserWarning, match="discarding corrupt cache file"):
        table = cache.distance_table(group, gamma_word(2))
    assert table.distances.tolist() == [0, -1, -1, 1, 1, -1]
    assert built == []
    assert path.read_bytes() == good


def test_a_hit_hands_out_a_read_only_table_the_group_does_not_hold(cache_root):
    group = finite.PermutationGroup("S4", 4, even_only=False)  # fresh: it holds no table
    template = gamma_word(2)
    missed = cache.distance_table(group, template)
    assert not missed.distances.flags.writeable
    group = finite.PermutationGroup("S4", 4, even_only=False)
    hit = cache.distance_table(group, template)
    assert hit is not missed and np.array_equal(hit.distances, missed.distances)
    assert not hit.distances.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hit.distances[0] = 5
    assert group._distance_tables == {}  # quotient_length reads only tables it built


def test_info_and_clear(cache_root):
    assert any("(empty)" in line for line in cache.info())
    group = load_group("S3")
    cache.store(group, gamma_word(2), wlength_table(group, gamma_word(2)))
    cache.store(group, gamma_word(3), wlength_table(group, gamma_word(3)))
    lines = cache.info()
    assert sum("GROUP S3" in line for line in lines) == 2
    assert cache.clear() == 2
    assert any("(empty)" in line for line in cache.info())
    assert cache.clear() == 0


C6_GAMMA2 = ["0 1", "unreachable 5"]  # abelian: only the identity is a product of commutators


def _cyclic_text(order):
    rows = [" ".join(str((a + b) % order) for b in range(order)) for a in range(order)]
    return f"order {order}\n" + "\n".join(rows) + "\n"


def test_rewritten_table_file_misses(cache_root, tmp_path, capsys):
    path = tmp_path / "group.tbl"
    path.write_text(table_text(dihedral_table(3)))
    args = ["wlength", "--group", f"table:{path}", "--template", "gamma2"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == ["0 1", "1 2", "unreachable 3"]
    # Rewrite the same path as the cyclic group of order 6.
    path.write_text(_cyclic_text(6))
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == C6_GAMMA2
    assert main(args + ["--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines() == C6_GAMMA2


def test_a_stock_number_spelled_with_leading_zeros_shares_one_entry(cache_root, capsys, monkeypatch):
    assert main(["wlength", "--group", "S03", "--template", "gamma2"]) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2

    def recompute(*args, **kwargs):
        raise AssertionError("a cache hit recomputed the table")

    monkeypatch.setattr(cache, "wlength_table", recompute)
    for spec in ("S3", "S003"):
        assert main(["wlength", "--group", spec, "--template", "gamma2"]) == 0
        assert capsys.readouterr().out.splitlines() == S3_GAMMA2
    assert [path.name for path in cache_root.glob("*.dist")] == [
        f"{cache.cache_key(load_group('S3'), gamma_word(2))}.dist"
    ]
    assert main(["cache", "info"]) == 0
    assert f"GROUP S3 TEMPLATE {gamma_word(2).key} COUNT 6" in capsys.readouterr().out


def test_a_stock_entry_keeps_its_name(cache_root):
    # a stock group's source is empty, so its entry is named by spec and template alone
    assert load_group("S3").source == load_group("D4").source == ""
    assert cache.cache_key(load_group("S3"), gamma_word(2)) == "5a4cf728749b382ff647d66e"


def test_a_table_file_rewritten_after_its_group_loaded_stores_the_loaded_table(cache_root, tmp_path, capsys):
    path = tmp_path / "group.tbl"
    path.write_text(table_text(dihedral_table(3)))
    d3 = load_group(f"table:{path}")
    path.write_text(_cyclic_text(6))
    # the entry is named by the table the group parsed, not by the file's bytes now
    assert cache.distance_table(d3, gamma_word(2)).histogram() == {0: 1, 1: 2}
    assert main(["wlength", "--group", f"table:{path}", "--template", "gamma2"]) == 0
    assert capsys.readouterr().out.splitlines() == C6_GAMMA2
    assert len(list(cache_root.glob("*.dist"))) == 2


def test_a_table_file_rewritten_with_the_same_table_hits(cache_root, tmp_path, capsys, monkeypatch):
    path = tmp_path / "group.tbl"
    path.write_text(table_text(dihedral_table(3)))
    args = ["wlength", "--group", f"table:{path}", "--template", "gamma2"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2
    source = load_group(f"table:{path}").source
    assert source == hashlib.sha256(dihedral_table(3).astype(np.int16)).hexdigest()
    # the same table, spelled with a comment and other spacing
    path.write_text("# D3 again\n" + table_text(dihedral_table(3)).replace(" ", "  "))
    assert load_group(f"table:{path}").source == source

    def recompute(*args, **kwargs):
        raise AssertionError("a cache hit recomputed the table")

    monkeypatch.setattr(cache, "wlength_table", recompute)
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == S3_GAMMA2


def test_a_cached_table_group_run_reads_its_file_once(cache_root, tmp_path, capsys, monkeypatch):
    path = tmp_path / "group.tbl"
    path.write_text(table_text(dihedral_table(3)))
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    args = ["wlength", "--group", f"table:{path}", "--template", "gamma2"]
    for _ in ("miss", "hit"):
        opened.clear()
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == S3_GAMMA2
        assert opened.count(path) == 1
    assert len(list(cache_root.glob("*.dist"))) == 1
