"""End-to-end command-line behavior: outputs and exit codes."""
from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from verba import bounds, finite
from verba.cli import main
from verba.cover import known_shape_certificate
from verba.experiments import run_experiment
from verba.finite import load_group
from verba.identities import REWRITE_RULES
from verba.templates import parse_template_spec


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("VERBA_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("module", ["verba.cli", "verba.experiments"])
def test_importing_does_not_import_numpy(module):
    """Only the finite-group commands and experiments need numpy, when they run."""
    code = f"import sys, {module}; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "x y y^-1", "[x,y] [x,y]^-1", "x^y")
    assert code == 0
    assert out.splitlines() == ["x", "1", "y x y^-1"]


def test_reduce_parse_error(capsys):
    code, _, err = run(capsys, "reduce", "[x")
    assert code == 2
    assert "error:" in err


def test_rewrite_then_verify(capsys, tmp_path):
    code, out, _ = run(capsys, "rewrite", "culler_identity", "x", "y", "--records")
    assert code == 0
    assert "TARGET" in out
    assert out.endswith("COUNTS COMMUTATOR=2\nCOUNTS COMMUTATOR=2\n")
    cert_file = tmp_path / "cert.txt"
    cert_file.write_text(out)  # the repeated COUNTS line parses too

    code, out, _ = run(capsys, "verify", str(cert_file))
    assert code == 0
    assert out.startswith("PASS")

    tampered = tmp_path / "bad.txt"
    lines = cert_file.read_text().splitlines()
    lines[0] = "TARGET 1"
    tampered.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(tampered))
    assert code == 1
    assert out.startswith("FAIL")


_RULE_EXAMPLES = {
    "culler_identity": ["x", "y"],
    "culler_chain_squares": ["x", "y"],
    "culler_power_pair": ["2"],
    "herd_powers": ["x", "y", "3"],
    "rotate_product": ["2", "x", "y"],
    "telescope_line": ["x;y", "-1,2", "1,1"],
    "square_to_gamma3": ["x", "y", "2"],
    "gamma3_triangle": ["x", "y", "3"],
    "hall_witt_split": ["g", "[a,b]", "[c,d]"],
    "oddball_step": ["x", "y", "z", "2"],
    "oddball_iterate": ["x", "y", "z", "3"],
}


@pytest.mark.parametrize("rule", sorted(REWRITE_RULES))
def test_every_rules_records_output_verifies_whole(capsys, monkeypatch, rule):
    code, out, _ = run(capsys, "rewrite", rule, *_RULE_EXAMPLES[rule], "--records")
    assert code == 0
    counts = [line for line in out.splitlines() if line.startswith("COUNTS ")]
    assert len(counts) == 2 and counts[0] == counts[1]  # --records repeats the serialized line
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, verified, err = run(capsys, "verify", "-", "--records")
    assert (code, err) == (0, "")
    assert verified.startswith("PASS") and verified.splitlines()[-1] == counts[0]


def test_verify_reads_stdin(capsys, monkeypatch):
    text = known_shape_certificate(1).serialize()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert out.startswith("PASS")


def test_verify_word_equality(capsys):
    code, out, _ = run(
        capsys, "verify", "[x,y]^3", "[y^x, x^(y^-1) x^-2][x^(y^-1), y^2]"
    )
    assert code == 0
    assert out.startswith("PASS: both sides reduce to")

    code, out, _ = run(capsys, "verify", "[x,y]", "x y")
    assert code == 1
    assert out.startswith("FAIL")

    code, _, err = run(capsys, "verify", "a", "b", "c")
    assert code == 2
    assert "two word expressions" in err


@pytest.mark.parametrize("records", [[], ["--records"]])
def test_rewrite_arguments_may_start_with_a_minus_sign(capsys, records):
    args = ["x;y", "-1,2", "1,1"]
    code, separated, _ = run(capsys, "rewrite", "telescope_line", "--", *args, *records)
    assert code == 0
    assert separated.startswith("TARGET")
    code, out, err = run(capsys, "rewrite", "telescope_line", *args, *records)
    assert (code, out, err) == (0, separated, "")
    assert out.count("\nCOUNTS ") == 1 + len(records)  # --records repeats the counts line


def test_rewrite_unknown_rule(capsys):
    code, _, err = run(capsys, "rewrite", "no_such_rule")
    assert code == 2
    assert "culler_identity" in err


def test_rewrite_bad_arity(capsys):
    code, _, err = run(capsys, "rewrite", "telescope_line", "x")
    assert code == 2
    assert "error:" in err


def test_rewrite_unknown_rule_lists_every_rule(capsys):
    code, out, err = run(capsys, "rewrite", "no_such_rule", "x")
    assert code == 2
    assert out == ""
    assert err == (
        "unknown rewrite rule 'no_such_rule'; available:\n"
        "  culler_chain_squares <x> <y>\n"
        "  culler_identity <x> <y>\n"
        "  culler_power_pair <k>\n"
        "  gamma3_triangle <g> <k> <m>\n"
        "  hall_witt_split <g> <a> <b>\n"
        "  herd_powers <g> <h> <n>\n"
        "  oddball_iterate <x> <y> <z> <n>\n"
        "  oddball_step <x> <y> <z> <n>\n"
        "  rotate_product <k> <w1> [<w2> ...]\n"
        "  square_to_gamma3 <a> <b> <n>\n"
        "  telescope_line <g1;g2;...> <a1,a2,...> <b1,b2,...>\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["culler_identity", "x"], "expected 2 arguments: <x> <y>"),
        (["culler_chain_squares", "x", "y", "z"], "expected 2 arguments: <x> <y>"),
        (["culler_power_pair"], "expected 1 arguments: <k>"),
        (["herd_powers", "x", "y"], "expected 3 arguments: <g> <h> <n>"),
        (["rotate_product", "2"], "expected at least 2 arguments: <k> <w1> [<w2> ...]"),
        (
            ["telescope_line", "x;y", "1,2"],
            "expected 3 arguments: <g1;g2;...> <a1,a2,...> <b1,b2,...>",
        ),
        (["square_to_gamma3", "x", "y", "2", "3"], "expected 3 arguments: <a> <b> <n>"),
        (["gamma3_triangle"], "expected 3 arguments: <g> <k> <m>"),
        (["hall_witt_split", "x", "y"], "expected 3 arguments: <g> <a> <b>"),
        (["oddball_step", "x", "y", "z"], "expected 4 arguments: <x> <y> <z> <n>"),
        (["oddball_iterate", "x"], "expected 4 arguments: <x> <y> <z> <n>"),
    ],
)
def test_rewrite_arity_error_text(capsys, argv, message):
    code, out, err = run(capsys, "rewrite", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["herd_powers", "x", "y", "-3"], "herd_powers needs n >= 1"),
        (["culler_power_pair", "0"], "culler_power_pair needs k >= 1"),
        (["rotate_product", "-1", "x", "y"], "rotate_product needs k >= 0"),
        (["square_to_gamma3", "x", "y", "-1"], "square_to_gamma3 needs n >= 0"),
        (["gamma3_triangle", "x", "y", "-1"], "gamma3_triangle needs m >= 0"),
        (
            ["telescope_line", "a;b", "1", "1,2"],
            "telescope_line needs equally long word and exponent lists",
        ),
    ],
)
def test_rewrite_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "rewrite", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "x^99999999999"],
        ["reduce", "(x y)^-99999999999"],
        ["reduce", "x^" + "9" * 5000],
        ["rewrite", "square_to_gamma3", "x", "y", "40"],
        ["rewrite", "square_to_gamma3", "x y", "y z x", "12"],
        ["rewrite", "square_to_gamma3", "x", "y", "100000000"],
        ["cover", "--n", "5000000"],
        ["wlength", "--group", "S3", "--template", "gamma23"],
        ["wlength", "--group", "S3", "--template", "gamma99"],
        ["wlength", "--group", "S3", "--template", "beta12"],
        ["wlength", "--group", "S3", "--template", "gamma" + "9" * 5000],
        ["wlength", "--group", "S3", "--template", "grope2000000"],
        ["bound", "--declare", "L FREE [x,y] | commutator_product99999999"],
        ["bound", "--declare", "L FREE [x,y] | grope2000000"],
    ],
)
def test_size_budget_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("resource budget exceeded:") and err.count("\n") == 1


def _run_capped(argv, megabytes, stdin=None):
    """``verba argv`` in a child process whose address space is capped at
    ``megabytes``; the cap acts on the child only."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "verba.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60,
    )


_OVERSIZED = "x^9999999 " * 50  # 500 bytes that spell 5 * 10^8 letters


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["reduce", _OVERSIZED], None),
        (["verify", _OVERSIZED, "1"], None),
        (["bound", "--declare", "SCL FREE " + _OVERSIZED], None),
        (
            ["verify", "-"],
            "TARGET 1\n" + "FACTOR RAW x^9999999 CONJ 1\nFACTOR RAW x^-9999999 CONJ 1\n" * 10,
        ),
        (
            ["verify", "-"],
            "TARGET x y x^-1 y^-1\nFACTOR COMMUTATOR x y x^-1 y^-1 CONJ 1\n"
            "WITNESS 1 = x^9999999 ; 2 = y^9999999\n",
        ),
    ],
    ids=["reduce", "verify-identity", "bound", "verify-certificate", "verify-witness"],
)
def test_short_inputs_that_spell_oversized_words_exit_3(argv, stdin):
    # each raised MemoryError under this cap, after building for up to 3 s
    result = _run_capped(argv, 512, stdin)
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("resource budget exceeded:")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["bound", "--no-default-seeds", "--declare", "L FREE [x,y] | gamma22"],
            "L FREE x1 x2 x1^-1 x2^-1 | gamma22 @ 1 = [1, inf]\n",
        ),
        (
            ["bound", "--declare", "SL FREE [x,y] | gamma22"],
            "SL FREE x1 x2 x1^-1 x2^-1 | gamma22 = [0, inf]\n",
        ),
        (
            ["bound", "--declare", "SL FREE [x,y] | beta11"],
            "SL FREE x1 x2 x1^-1 x2^-1 | beta11 = [0, inf]\n",
        ),
        (
            ["wlength", "--group", "S4", "--template", "gamma22", "--no-cache"],
            "0 1\n1 11\nunreachable 12\n",
        ),
        (["wlength", "--group", "A5", "--template", "beta11", "--no-cache"], "0 1\n1 59\n"),
    ],
    ids=["bound-L-gamma22", "bound-SL-gamma22", "bound-SL-beta11", "wlength-gamma22", "wlength-beta11"],
)
def test_big_stock_templates_run_in_little_memory(argv, want):
    # 6.3M- and 4.2M-letter bodies: each took 3-8 s and 390-670 MB when the
    # bodies were spelled to make the keys
    start = time.perf_counter()
    result = _run_capped(argv, 256)
    assert time.perf_counter() - start < 20
    assert (result.returncode, result.stdout, result.stderr) == (0, want, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["herd_powers", "x", "y", "3000"],
        ["gamma3_triangle", "x", "y", "1000"],
        ["oddball_iterate", "x", "y", "z", "3000"],
        # empty factors count too: these built for 7 s and 6 s at 175 MB
        ["herd_powers", "1", "1", "100000"],
        ["gamma3_triangle", "1", "1", "450"],
        ["rotate_product", "100000", "1", "1"],
        # conjugators by ever longer powers: 4 * 10^8 letters
        ["rotate_product", "20000", "x", "y"],
        # conjugators by ever longer suffixes: 2 * 10^9 letters
        ["telescope_line", ";".join(["x", "y"] * 100), ",".join(["0"] * 200), ",".join(["50000"] * 200)],
    ],
)
def test_quadratic_rules_exit_3_before_building(capsys, argv):
    # each used to build for 6-25 s or more; the letter and factor count comes first
    start = time.perf_counter()
    code, out, err = run(capsys, "rewrite", *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("resource budget exceeded:") and err.count("\n") == 1


def test_size_budget_admits_the_largest_doubling(capsys):
    code, out, _ = run(capsys, "rewrite", "square_to_gamma3", "x y", "y z x", "8")
    assert code == 0
    assert out.count("\nFACTOR ") == 256


def test_wlength_histogram_a5(capsys):
    code, out, _ = run(
        capsys, "wlength", "--group", "A5", "--template", "gamma2", "--no-cache"
    )
    assert code == 0
    assert out.splitlines() == ["0 1", "1 59"]


def test_wlength_histogram_s3_reports_unreachable(capsys):
    code, out, _ = run(
        capsys, "wlength", "--group", "S3", "--template", "gamma2", "--no-cache"
    )
    assert code == 0
    assert out.splitlines() == ["0 1", "1 2", "unreachable 3"]


@pytest.mark.parametrize("template", ["1", "x x^-1"])
def test_wlength_empty_template_has_only_the_identity(capsys, template):
    code, out, err = run(
        capsys, "wlength", "--group", "S3", "--template", template, "--no-cache"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0 1", "unreachable 5"]


def test_wlength_records_lists_each_elements_distance(capsys):
    """``--records`` follows the histogram with one ``id distance`` line per element."""
    code, out, err = run(
        capsys, "wlength", "--group", "S3", "--template", "gamma2", "--records"
    )
    assert (code, err) == (0, "")
    table = finite.wlength_table(load_group("S3"), parse_template_spec("gamma2"))
    lines = out.splitlines()
    assert lines[:3] == ["0 1", "1 2", "unreachable 3"]
    assert lines[3:] == [f"{i} {d}" for i, d in enumerate(table.distances)]
    assert lines[3:] == ["0 0", "1 -1", "2 -1", "3 1", "4 1", "5 -1"]


def test_wlength_element(capsys):
    group = load_group("S3")
    rotation = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) != group.identity
    )
    flip = next(
        a
        for a in range(group.order)
        if a != group.identity and group.multiply(a, a) == group.identity
    )
    code, out, _ = run(
        capsys,
        "wlength", "--group", "S3", "--template", "gamma2",
        "--element", "x", "--images", str(rotation), "--no-cache",
    )
    assert code == 0
    assert out.strip().endswith("distance 1")
    code, out, _ = run(
        capsys,
        "wlength", "--group", "S3", "--template", "gamma2",
        "--element", "x", "--images", str(flip), "--no-cache",
    )
    assert code == 0
    assert out.strip().endswith("distance unreachable")


def test_wlength_element_needs_images(capsys):
    code, _, err = run(
        capsys,
        "wlength", "--group", "S3", "--template", "gamma2", "--element", "x",
        "--no-cache",
    )
    assert code == 2
    assert "--images" in err


@pytest.mark.parametrize(
    "images", ["99", "a", "-1", "1,", "6", pytest.param("9" * 5000, id="5000-digits")]
)
def test_wlength_rejects_bad_images(capsys, images):
    code, out, err = run(
        capsys,
        "wlength", "--group", "S3", "--template", "gamma2", "--element", "x",
        "--images", images, "--no-cache",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --images") and err.count("\n") == 1


def test_wlength_images_must_cover_the_element(capsys):
    code, _, err = run(
        capsys,
        "wlength", "--group", "S3", "--template", "gamma2", "--element", "x y",
        "--images", "1", "--no-cache",
    )
    assert code == 2
    assert "no image for generators [2]" in err


def test_wlength_bi_invariance(capsys):
    code, out, _ = run(
        capsys,
        "wlength", "--group", "A4", "--template", "gamma2",
        "--check-bi-invariance", "--no-cache",
    )
    assert code == 0
    assert "bi-invariance: PASS" in out


def test_wlength_budget_exit_code(capsys):
    # x is shared across the brackets, so the body is one leaf of 6 variables
    # and 20 letters: 19 products for each of 5 classes times 60^5
    # assignments, refused before any is formed
    start = time.perf_counter()
    code, _, err = run(
        capsys, "wlength", "--group", "A5", "--template", "[x,y][x,z][x,u][x,v][x,w]", "--no-cache"
    )
    assert time.perf_counter() - start < 1
    assert code == 3
    assert err.endswith(" needs at least 73872000000 products and assignments (budget 100000000)\n")


@pytest.mark.parametrize("group, classes, order", [("A7", 9, 2520), ("SL2_13", 17, 2184)])
def test_wlength_leaf_budget_counts_its_products(capsys, group, classes, order):
    # [x,y][x,z] is one leaf of 8 letters: 7 products for each of
    # classes * order^2 assignments, which alone are within the budget
    assert classes * order**2 <= finite.ENUMERATION_BUDGET
    start = time.perf_counter()
    code, out, err = run(capsys, "wlength", "--group", group, "--template", "[x,y][x,z]", "--no-cache")
    assert time.perf_counter() - start < 2
    assert (code, out) == (3, "")
    assert f" needs at least {classes * order**2 * 7} products" in err


def test_wlength_gamma3_family_budget_exit_code(capsys, monkeypatch):
    # A5 is perfect and every element is a commutator: Gamma3 forms 5 classes
    # times 60 commutators, then 5 classes times the 60 elements they generate.
    argv = ["wlength", "--group", "A5", "--template", "Gamma3", "--no-cache"]
    # the budget is read when a table is built, so start from an A5 that holds none
    finite._stock_group.cache_clear()
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 2 * 5 * 60 - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == (
        "resource budget exceeded: enumerating Gamma3 over A5 needs at least 600"
        " products and assignments (budget 599)\n"
    )
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 2 * 5 * 60)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, "0 1\n1 59\n")


@pytest.mark.parametrize(
    "group, template, histogram",
    [
        # 9 classes times 2520 commutators twice, where a budget on all
        # 2520^4 assignments refused it
        ("A7", "beta2", "0 1\n1 2519\n"),
        ("A7", "gamma3", "0 1\n1 2519\n"),
        ("A8", "gamma2", "0 1\n1 20159\n"),
        # the search forms each level from the frontier's classes, not its elements
        ("S8", "x^2", "0 1\n1 14279\n2 5880\nunreachable 20160\n"),
        ("S8", "beta2", "0 1\n1 20159\nunreachable 20160\n"),
        ("A8", "x^3", "0 1\n1 11199\n2 8960\n"),
        # a product of 3000 commutators inside one bracket: [S3, A3] = A3
        ("S3", "grope3000", "0 1\n1 2\nunreachable 3\n"),
    ],
)
def test_wlength_by_bracket_shape(capsys, group, template, histogram):
    code, out, err = run(capsys, "wlength", "--group", group, "--template", template, "--no-cache")
    assert (code, out, err) == (0, histogram, "")


def test_wlength_breadth_first_budget_exit_code(capsys, monkeypatch):
    # the value set is A8, 22 classes times 40320 commutators; the search's
    # levels form the frontier's classes times the 20160 steps, so it ends
    start = time.perf_counter()
    code, out, err = run(capsys, "wlength", "--group", "S8", "--template", "gamma2", "--no-cache")
    assert time.perf_counter() - start < 10
    assert (code, out, err) == (0, "0 1\n1 20159\nunreachable 20160\n", "")
    # x^2 over A5 forms 60 products, whose values are the 45 elements of odd
    # order; level 1 forms 1 * 45 products and level 2 the 3 classes of
    # orders 3 and 5 times 45, past a budget the values fit in; the budget is
    # read when a table is built, so start from an A5 that holds none
    finite._stock_group.cache_clear()
    monkeypatch.setattr(finite, "ENUMERATION_BUDGET", 60)
    code, out, err = run(capsys, "wlength", "--group", "A5", "--template", "x^2", "--no-cache")
    assert (code, out) == (3, "")
    assert err == (
        "resource budget exceeded: breadth-first search over A5 needs at least"
        f" {45 + 3 * 45} products (budget 60)\n"
    )


def test_wlength_unknown_group(capsys):
    code, _, err = run(capsys, "wlength", "--group", "Q8", "--template", "gamma2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "spec",
    ["D0", "D1", "D2", "S²"]
    + [prefix + "9" * 5000 for prefix in ("S", "A", "D", "SL2_")],
)
def test_wlength_bad_group_spec_exit_code(capsys, spec):
    code, out, err = run(capsys, "wlength", "--group", spec, "--template", "gamma2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["D1025", "D3000", "D20000", "D999999999"])
def test_wlength_dihedral_past_the_table_cap_exits_3_at_once(capsys, monkeypatch, spec):
    def unexpected(k):
        raise AssertionError(f"built the D{k} table text")

    monkeypatch.setattr(finite, "dihedral_table", unexpected)
    code, out, err = run(capsys, "wlength", "--group", spec, "--template", "gamma2")
    assert code == 3
    assert out == ""
    assert err.startswith("resource budget exceeded:") and err.count("\n") == 1


def test_dihedral_table_cap_admits_d1024(monkeypatch):
    class Built(Exception):
        pass

    def built(k):
        raise Built(k)

    monkeypatch.setattr(finite, "dihedral_table", built)
    with pytest.raises(Built):
        load_group("D1024")


def test_wlength_uses_cache(capsys, isolated_cache):
    args = ("wlength", "--group", "D4", "--template", "gamma2")
    code, first, _ = run(capsys, *args)
    assert code == 0
    entries = list((isolated_cache / "cache").glob("*.dist"))
    assert len(entries) == 1
    code, second, _ = run(capsys, *args)
    assert code == 0
    assert second == first

    code, out, _ = run(capsys, "cache", "info")
    assert code == 0
    assert "GROUP D4" in out
    code, out, _ = run(capsys, "cache", "clear")
    assert code == 0
    assert "removed 1" in out
    code, out, _ = run(capsys, "cache", "info")
    assert code == 0
    assert "(empty)" in out


def test_bound_with_default_seeds(capsys):
    code, out, _ = run(capsys, "bound", "--declare", "SL FREE [a,b] | gamma2")
    assert code == 0
    assert "[1/2, 1/2]" in out


def test_bound_without_seeds(capsys):
    code, out, _ = run(
        capsys, "bound", "--no-default-seeds", "--declare", "SCL FREE [a,b]"
    )
    assert code == 0
    assert "[0, inf]" in out


def test_bound_seeds_env_override(capsys, tmp_path):
    seeds = tmp_path / "custom.facts"
    seeds.write_text("SCL FREE [a,b] => 2\n")
    code, out, _ = run(
        capsys, "bound", "--no-default-seeds", "--facts", str(seeds), "--declare", "SCL FREE [a,b]"
    )
    assert code == 0
    assert "[2, 2]" in out


def test_bound_facts_file_and_explain(capsys, tmp_path):
    facts = tmp_path / "extra.facts"
    facts.write_text("L FREE [a,b] | gamma2 @ 3 = 0 2 # three-power split\n")
    code, out, _ = run(
        capsys,
        "bound", "--facts", str(facts),
        "--declare", "SL FREE [a,b] | gamma2",
        "--explain", "SL FREE [a,b] | gamma2",
        "--records",
    )
    assert code == 0
    assert "[1/2, 1/2]" in out
    assert "by RULE" in out
    assert "# three-power split" in out
    assert any(line.startswith("FACT ") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv, want",
    [
        (  # the form bound prints, under seeds that spell generator 1 'a'
            ["bound", "--declare", "L FREE [x,y]^2 | [x1,x2] @ 1"],
            "L FREE x1 x2 x1^-1 x2^-1 x1 x2 x1^-1 x2^-1 | [x1,x2] @ 1 = [1, inf]\n",
        ),
        (  # each quantity shows the label it was made with
            [
                "bound", "--no-default-seeds",
                "--declare", "SL FREE [a,b] | [p,q]", "--declare", "SL FREE [a,b]^2 | gamma2",
            ],
            "SL FREE x1 x2 x1^-1 x2^-1 | [x1,x2] = [1/2, 1/2]\n"
            "SL FREE x1 x2 x1^-1 x2^-1 x1 x2 x1^-1 x2^-1 | gamma2 = [0, inf]\n",
        ),
        (  # x is the element's first generator, whatever the template calls its own
            ["wlength", "--group", "A5", "--template", "[p,q]", "--element", "x", "--images", "3"],
            "A5: element (0 2 1 4 3) distance 1\n",
        ),
        (
            [
                "wlength", "--group", "S3", "--template", "[y,x]",
                "--element", "x y", "--images", "3,1",
            ],
            "S3: element (2 1 0) distance unreachable\n",
        ),
    ],
    ids=["reparse-printed-key", "own-label", "element-names", "element-order"],
)
def test_a_template_binds_its_own_variable_names(capsys, argv, want):
    assert run(capsys, *argv) == (0, want, "")


def test_bound_inconsistency_exit_code(capsys, tmp_path):
    facts = tmp_path / "broken.facts"
    facts.write_text("L FREE [x,y] | gamma2 @ 1 => 0\n")
    code, out, err = run(capsys, "bound", "--facts", str(facts))
    assert code == 1
    assert "INCONSISTENT" in out + err


def test_bound_facts_errors_keep_their_exit_code(capsys, tmp_path):
    facts = tmp_path / "budget.facts"
    facts.write_text("L FREE [a,b] | gamma99999999999999999999999 @ 2 = 0 2\n")
    code, out, err = run(capsys, "bound", "--facts", str(facts))
    assert (code, out) == (3, "")
    assert err.startswith("resource budget exceeded: facts line 1: ")
    # the same quantity through --declare exits 3 as well
    quantity = "L FREE [a,b] | gamma99999999999999999999999 @ 2"
    assert run(capsys, "bound", "--declare", quantity)[0] == 3
    # a line that contradicts the default seed [a,b] => 1/2
    facts.write_text("# comment\nSCL FREE [a,b] = 1 2\n")
    code, out, err = run(capsys, "bound", "--facts", str(facts))
    assert code == 1
    assert out == (
        "INCONSISTENT: facts line 2: contradiction on SCL FREE x1 x2 x1^-1 x2^-1:"
        " lower bound 1 exceeds upper bound 1/2\n"
        "SCL FREE x1 x2 x1^-1 x2^-1 = [1, 1/2]\n"
        "  lo 1 by SEED\n"
        "  hi 1/2 by SEED  # basic commutator\n"
    )
    facts.write_text("SCL FREE [a,b] => 1/2\nSCL FREE [a,b] = 0 oops\n")
    code, _, err = run(capsys, "bound", "--facts", str(facts))
    assert code == 2
    assert err == "error: facts line 2: bad rational 'oops'\n"


def test_a_contradiction_names_the_quantity_as_its_line_spells_it(capsys, tmp_path):
    """Two template specs of one quantity: the line that contradicts names its own."""
    facts = tmp_path / "relabelled.facts"
    facts.write_text("SL FREE [a,b] | gamma2 = 1 1\nSL FREE [a,b] | [p,q] = 2 2\n")
    code, out, err = run(capsys, "bound", "--no-default-seeds", "--facts", str(facts))
    assert (code, err) == (1, "")
    assert out == (
        "INCONSISTENT: facts line 2: contradiction on SL FREE x1 x2 x1^-1 x2^-1 | [x1,x2]:"
        " lower bound 2 exceeds upper bound 1\n"
        "SL FREE x1 x2 x1^-1 x2^-1 | [x1,x2] = [2, 1]\n"
        "  lo 2 by SEED\n"
        "  hi 1 by SEED\n"
    )


def test_bound_scl_bridge_over_its_own_base_stops_at_its_fixed_point(capsys, tmp_path):
    """R2 reads ``scl([a,b]) <= sl * (scl([a,b]) + 1/2)`` here, with ``sl <= 1/2``
    from R7; it proposes the fixed point ``sl / (2 (1 - sl)) = 1/2`` at once."""
    facts = tmp_path / "own-base.facts"
    facts.write_text("SCL FREE [a,b] = 0 16/3\n")
    code, out, err = run(
        capsys,
        "bound", "--no-default-seeds", "--facts", str(facts),
        "--declare", "SL FREE [a,b] | gamma2", "--declare", "SCL FREE [a,b]", "--records",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == [
        "SL FREE x1 x2 x1^-1 x2^-1 | gamma2 = [1/2, 1/2]",
        "SCL FREE x1 x2 x1^-1 x2^-1 = [0, 1/2]",
    ]
    assert [line for line in lines if " RULE R2 " in line] == [
        "FACT SCL FREE x1 x2 x1^-1 x2^-1 hi 1/2 RULE R2"
        " FROM SL FREE x1 x2 x1^-1 x2^-1 | [x1,x2]=[1/2,1/2];"
        "SCL FREE x1 x2 x1^-1 x2^-1=[0,16/3]"
        " # stable factors each cost their own stable commutator length plus a half for joining"
    ]


_LONG = "9" * 5000  # past Python's 4300-digit limit on int-string conversion

# place -> (argv, stdin) with the number spelled {n}; "table:{t}" names a file of stdin's text
_NUMBER_PLACES = {
    "factor kind index": (["verify", "-"], "TARGET 1\nFACTOR GAMMA_N_WORD:{n} 1 CONJ 1\n"),
    "WITNESS variable": (["verify", "-"], "TARGET 1\nFACTOR COMMUTATOR 1 CONJ 1\nWITNESS {n} = 1\n"),
    "COUNTS value": (["verify", "-"], "TARGET 1\nCOUNTS RAW={n}\n"),
    "declared exponent": (["bound", "--declare", "L FREE x | gamma2 @ {n}"], ""),
    "facts exponent": (["bound", "--facts", "-"], "L FREE x | gamma2 @ {n} = 0 1\n"),
    "facts bound": (["bound", "--facts", "-"], "L FREE x | gamma2 @ 1 = 0 {n}\n"),
    "table order": (["wlength", "--group", "table:{t}", "--template", "gamma2"], "order {n}\n0\n"),
    "word exponent": (["reduce", "x^{n}"], ""),
    "template index": (["wlength", "--group", "S3", "--template", "gamma{n}"], ""),
    "canonical name": (["bound", "--no-default-seeds", "--declare", "SCL PERFECT x{n}"], ""),
    "rewrite integer": (["rewrite", "culler_power_pair", "{n}"], ""),
    "rewrite integer list": (["rewrite", "telescope_line", "x;y", "{n},1", "1,1"], ""),
    "cover degree": (["cover", "--n", "{n}"], ""),
}


def _number_cases(*rows):
    return [
        pytest.param(*row, id=f"{row[0]}-{'5000-digits' if row[1] == _LONG else row[1]}")
        for row in rows
    ]


@pytest.mark.parametrize(
    "place, number, code, message",
    _number_cases(
        ("factor kind index", "²", 2, "error: malformed factor kind 'GAMMA_N_WORD:²'"),
        ("WITNESS variable", "²", 2, "error: malformed WITNESS entry '² = 1'"),
        ("COUNTS value", "²", 2, "error: malformed COUNTS entry 'RAW=²'"),
        ("declared exponent", "²", 2, "error: bad exponent '²'"),
        ("facts exponent", "²", 2, "error: facts line 1: bad exponent '²'"),
        ("facts bound", "²", 2, "error: facts line 1: bad rational '²'"),
        ("facts bound", "1_0", 2, "error: facts line 1: bad rational '1_0'"),
        ("table order", "²", 2, "error: table file must start with 'order N'"),
        ("word exponent", "²", 2, "error: unexpected character '²'"),
        ("template index", "²", 2, "error: unexpected character '²'"),
        ("declared exponent", "--3", 2, "error: bad exponent '--3'"),
        ("rewrite integer", "²", 2, "error: bad integer '²'"),
        ("rewrite integer", "1_0", 2, "error: bad integer '1_0'"),
        ("rewrite integer list", "²", 2, "error: bad integer '²'"),
        ("cover degree", "²", 2, "error: --n must be at least 1, not '²'"),
        ("cover degree", "1_0", 2, "error: --n must be at least 1, not '1_0'"),
        ("factor kind index", _LONG, 3, "resource budget exceeded: factor kind index of 5000 digits"),
        ("WITNESS variable", _LONG, 3, "resource budget exceeded: WITNESS variable of 5000 digits"),
        ("COUNTS value", _LONG, 3, "resource budget exceeded: COUNTS value of 5000 digits"),
        ("declared exponent", _LONG, 3, "resource budget exceeded: exponent of 5000 digits"),
        ("facts exponent", _LONG, 3, "resource budget exceeded: facts line 1: exponent of 5000 digits"),
        ("facts bound", _LONG, 3, "resource budget exceeded: facts line 1: bound of 5000 digits"),
        ("table order", _LONG, 3, "resource budget exceeded: table order of 5000 digits"),
        ("word exponent", _LONG, 3, "resource budget exceeded: exponent of 5000 digits"),
        ("template index", _LONG, 3, "resource budget exceeded: template index of 5000 digits"),
        ("canonical name", _LONG, 3, "resource budget exceeded: generator index of 5000 digits"),
        ("rewrite integer", _LONG, 3, "resource budget exceeded: integer of 5000 digits"),
        ("rewrite integer list", _LONG, 3, "resource budget exceeded: integer of 5000 digits"),
        ("cover degree", _LONG, 3, "resource budget exceeded: --n of 5000 digits"),
    ),
)
def test_every_number_in_input_text_is_read_by_one_reader(
    capsys, monkeypatch, tmp_path, place, number, code, message
):
    argv, stdin = _NUMBER_PLACES[place]
    table = tmp_path / "table.txt"
    table.write_text(stdin.format(n=number))
    argv = [arg.format(n=number, t=table) for arg in argv]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin.format(n=number)))
    assert run(capsys, *argv) == (code, "", message + "\n")


@pytest.mark.parametrize(
    "argv, stdin, code, stream, message",
    [
        (["verify", "-"], "TARGET 1\nTARGET 1\n", 2, "err", "error: duplicate TARGET line"),
        (["verify", "-"], "TARGET 1\nFACTOR RAW 1\n", 2, "err", "error: FACTOR line missing CONJ"),
        (["verify", "-"], "TARGET 1\nTEMPLATE x1\n", 2, "err", "error: TEMPLATE line before any FACTOR"),
        (["verify", "-"], "TARGET 1\nWITNESS 1 = x\n", 2, "err", "error: WITNESS line before any FACTOR"),
        (
            ["verify", "-"],
            "TARGET 1\nFACTOR COMMUTATOR 1 CONJ 1\nWITNESS 1 x\n",
            2, "err", "error: malformed WITNESS entry '1 x'",
        ),
        (["verify", "-"], "TARGET 1\nCOUNTS RAW\n", 2, "err", "error: malformed COUNTS entry 'RAW'"),
        (["verify", "-"], "TARGET 1\nNOTE x\n", 2, "err", "error: unknown certificate line 'NOTE'"),
        (["verify", "-"], "COUNTS -\n", 2, "err", "error: certificate has no TARGET line"),
        (["verify", "-"], "TARGET 1\nFACTOR PAIR 1 CONJ 1\n", 2, "err", "error: unknown factor kind 'PAIR'"),
        (
            ["verify", "-"],
            "TARGET 1\nFACTOR COMMUTATOR:2 1 CONJ 1\n",
            2, "err", "error: malformed factor kind 'COMMUTATOR:2'",
        ),
        (
            ["verify", "-"],
            "TARGET x\nFACTOR RAW x CONJ 1\nWITNESS 1 = x\n",
            1, "out", "FAIL: RAW factors carry no template or witness",
        ),
        (
            ["verify", "-"],
            "TARGET [x,y]\nFACTOR COMMUTATOR [x,y] CONJ 1\n",
            1, "out", "FAIL: COMMUTATOR factor needs a template and witness",
        ),
        (
            ["verify", "-"],
            "TARGET x^2\nFACTOR RAW x CONJ 1\nFACTOR RAW x CONJ 1\nCOUNTS RAW=1\n",
            1, "err", "error: COUNTS line {'RAW': 1} disagrees with factors {'RAW': 2}",
        ),
        (
            ["wlength", "--group", "SL2_4", "--template", "gamma2"],
            "", 2, "err", "error: SL2 backend supports primes (2, 3, 5, 7, 11, 13), not 4",
        ),
        (["reduce", "x^2^3"], "", 2, "err", "error: '^' does not chain; parenthesize, e.g. (x^2)^y"),
    ],
)
def test_error_paths_end_with_their_exit_code(capsys, monkeypatch, argv, stdin, code, stream, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, out, err = run(capsys, *argv)
    assert got == code
    assert {"out": out, "err": err}[stream] == message + "\n"


def test_propagation_that_does_not_stabilize_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "_MAX_ROUNDS", 1)
    code, out, err = run(capsys, "bound", "--declare", "L FREE [a,b] | gamma2")
    assert (code, out) == (1, "")
    assert err == "error: propagation did not stabilize in 1 rounds\n"


def test_cache_info_after_clear_on_an_absent_directory_is_empty(capsys, isolated_cache):
    assert run(capsys, "cache", "clear") == (0, "removed 0 cached tables\n", "")
    code, out, _ = run(capsys, "cache", "info")
    assert code == 0
    assert out.splitlines() == [f"cache directory: {isolated_cache / 'cache'}", "(empty)"]
    assert not (isolated_cache / "cache").exists()


def test_bound_parse_error(capsys, tmp_path):
    facts = tmp_path / "bad.facts"
    facts.write_text("SCL FREE [x,y] = nonsense\n")
    code, _, err = run(capsys, "bound", "--facts", str(facts))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{missing}"],
        ["bound", "--facts", "{missing}"],
        ["cover", "--n", "2", "--certificate", "{missing}"],
        ["verify", "{directory}"],
    ],
)
def test_unreadable_input_file_exit_code(capsys, tmp_path, argv):
    paths = {"missing": tmp_path / "no_such_file", "directory": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: cannot read {tmp_path}") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-2"])
def test_cover_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "cover", "--n", n)
    assert code == 2
    assert out == ""
    assert "--n must be at least 1" in err


def test_cover_invariants_output(capsys):
    code, out, _ = run(capsys, "cover", "--n", "2")
    assert code == 0
    assert "degree 5" in out
    assert "genus 3" in out
    assert "boundary components 1" in out
    assert "x images 4 3 2 1 0" in out
    assert "y images 1 2 0 3 4" in out
    assert "PASS x is an involution" in out
    assert "PASS commutator is a single full cycle" in out
    assert "FAIL" not in out


def test_cover_known_certificate(capsys, tmp_path):
    code, out, _ = run(capsys, "cover", "--n", "1", "--known-certificate")
    assert code == 0
    assert "TARGET" in out
    cert_file = tmp_path / "shape.txt"
    cert_file.write_text(out[out.index("TARGET") :])
    code, out, _ = run(capsys, "cover", "--n", "1", "--certificate", str(cert_file))
    assert code == 0
    assert "shape certificate: PASS" in out
    code, out, _ = run(capsys, "cover", "--n", "2", "--certificate", str(cert_file))
    assert code == 1
    assert "shape certificate: FAIL" in out


# A TEMPLATE line may not stand in for the template of a stock factor kind:
# none of these bases is an instance of its kind's template.
_FORGED_TEMPLATES = {
    "COMMUTATOR": (
        "TARGET x^2 y^2\nFACTOR COMMUTATOR x^2 y^2 CONJ 1\nTEMPLATE x1^2 x2^2\n"
        "WITNESS 1 = x ; 2 = y\nCOUNTS COMMUTATOR=1\n"
    ),
    "GAMMA_N_WORD": (
        "TARGET x^2 y^2\nFACTOR GAMMA_N_WORD:2 x^2 y^2 CONJ 1\nTEMPLATE x1^2 x2^2\n"
        "WITNESS 1 = x ; 2 = y\nCOUNTS GAMMA_N_WORD:2=1\n"
    ),
    "BETA2_WORD": (
        "TARGET a^2 b^2 c^2 d\nFACTOR BETA2_WORD a^2 b^2 c^2 d CONJ 1\n"
        "TEMPLATE x1^2 x2^2 x3^2 x4\nWITNESS 1 = a ; 2 = b ; 3 = c ; 4 = d\n"
        "COUNTS BETA2_WORD=1\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(_FORGED_TEMPLATES))
def test_verify_fails_a_stock_factor_under_another_template(capsys, tmp_path, kind):
    path = tmp_path / "forged.cert"
    path.write_text(_FORGED_TEMPLATES[kind])
    code, out, _ = run(capsys, "verify", str(path), "--records")
    assert (code, out) == (1, f"FAIL: {kind} factor has a malformed template\n")


def test_cover_fails_a_shape_certificate_under_another_template(capsys, tmp_path):
    # 1 * 1 * [x,y]^5, each factor tagged COMMUTATOR under the template x1 x2
    path = tmp_path / "forged.cert"
    path.write_text(
        "TARGET [x,y]^5\n"
        "FACTOR COMMUTATOR 1 CONJ 1\nTEMPLATE x1 x2\nWITNESS 1 = y^-3 ; 2 = y^3\n"
        "FACTOR COMMUTATOR 1 CONJ 1\nTEMPLATE x1 x2\nWITNESS 1 = y^-1 ; 2 = y\n"
        "FACTOR COMMUTATOR [x,y]^5 CONJ 1\nTEMPLATE x1 x2\nWITNESS 1 = [x,y]^5 y^-1 ; 2 = y\n"
    )
    code, out, _ = run(capsys, "cover", "--n", "2", "--certificate", str(path))
    assert code == 1
    assert out.endswith("shape certificate: FAIL\n")


def test_cover_known_certificate_unavailable(capsys):
    code, out, _ = run(capsys, "cover", "--n", "2", "--known-certificate")
    assert code == 1
    assert "no closed-form" in out


def test_experiment_list_and_run(capsys, tmp_path):
    code, out, _ = run(capsys, "experiment", "list")
    assert code == 0
    assert "xy_power_diagonals" in out

    code, out, _ = run(capsys, "experiment", "run", "magnus_depth_table")
    assert code == 0
    assert out == run_experiment("magnus_depth_table")

    report = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, "experiment", "run", "magnus_depth_table", "--out", str(report)
    )
    assert code == 0
    assert report.read_text() == run_experiment("magnus_depth_table")


@pytest.mark.parametrize("target", ["{tmp}/no_such_dir/report.txt", "{tmp}"])
def test_experiment_unwritable_out_exit_code(capsys, tmp_path, target):
    out_path = target.format(tmp=tmp_path)
    code, out, err = run(
        capsys, "experiment", "run", "magnus_depth_table", "--out", out_path
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1


def test_experiment_unknown(capsys):
    code, _, err = run(capsys, "experiment", "run", "nope")
    assert code == 2
    assert "error:" in err


_VALID_EXPRS = ["x", "y^-1", "1", "x x^-1", "[x,y]", "[x,[y,z]]", "x^y", "(x y)^3", "x^2 y^-2"]
_EXPRS = _VALID_EXPRS + ["[x", "x^", ")", "", "x^99999999999"]
_NUMBERS = ["-1", "0", "1", "2", "3", "40"]
_LIST_NUMBERS = _NUMBERS + ["-2", "-40"]
_INTS = _NUMBERS + ["x", "9" * 5000]
_TEMPLATES = [
    "gamma2", "gamma3", "beta2", "commutator_product2", "grope1", "Gamma3", "w:x^2",
    "x^2 y", "1", "x x^-1", "gamma99", "beta12", "[x", "nosuch7",
]
_words = st.sampled_from(_EXPRS)
_contexts = st.sampled_from(["FREE", "PERFECT", "PERFECT_SCL_ZERO"])


def _rule_args(usage: str):
    """Arguments shaped like a rewrite rule's usage string, e.g. ``<g> <k> <m>``."""
    parts = []
    for token in usage.split():
        if ";" in token:
            parts.append(st.lists(_words, min_size=1, max_size=3).map(";".join))
        elif "," in token:
            parts.append(st.lists(st.sampled_from(_LIST_NUMBERS), min_size=1, max_size=3).map(",".join))
        elif token in ("<k>", "<n>", "<m>"):
            parts.append(st.sampled_from(_INTS))
        elif token.startswith("<"):
            parts.append(_words)
    return st.tuples(*parts).map(list)


_rewrites = st.one_of(
    *(
        _rule_args(rule.usage).map(lambda args, name=name: [name, *args])
        for name, rule in sorted(REWRITE_RULES.items())
    ),
    st.lists(st.sampled_from(_EXPRS + _INTS), max_size=4).map(lambda args: ["no_such_rule", *args]),
)
_quantities = st.one_of(
    st.builds(
        "{} {} {} | {}{}".format,
        st.sampled_from(["L", "SL"]),
        _contexts,
        st.sampled_from(_VALID_EXPRS),
        st.sampled_from(["gamma2", "gamma3", "[x,y]^2", "Gamma3", "w:x^2", "beta99"]),
        st.sampled_from(["", " @ 2", " @ 3"]),
    ),
    st.builds("{} {} {}".format, st.sampled_from(["SCL", "CL"]), _contexts, _words),
    st.builds(
        "{} {} {}{}".format,
        st.sampled_from(["L", "X"]),
        st.sampled_from(["FREE", "NOWHERE"]),
        _words,
        st.sampled_from(["", " | [", " @ 0", " @ x"]),
    ),
)
_argvs = st.one_of(
    st.lists(_words, min_size=1, max_size=3).map(lambda ws: ["reduce", *ws]),
    st.tuples(_words, _words).map(lambda pair: ["verify", *pair]),
    _rewrites.map(lambda args: ["rewrite", *args]),
    st.tuples(
        st.sampled_from(["S3", "D4", "A4", "S4"]),
        st.sampled_from(_TEMPLATES),
        st.one_of(
            st.just([]),
            st.tuples(_words, st.lists(st.integers(-1, 9).map(str), max_size=3)).map(
                lambda e: ["--element", e[0], "--images", ",".join(e[1])]
            ),
        ),
    ).map(lambda w: ["wlength", "--no-cache", "--group", w[0], "--template", w[1], *w[2]]),
    st.lists(_quantities, min_size=1, max_size=3).map(
        lambda qs: ["bound", "--no-default-seeds"] + [a for q in qs for a in ("--declare", q)]
    ),
    st.sampled_from(["-1", "0", "1", "2", "7", "x", "5000000"]).map(lambda n: ["cover", "--n", n]),
)


# The cache directory set by ``isolated_cache`` is shared by every example on
# purpose: no example may depend on what an earlier one left there.
@seed(20101)
@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@example(argv=["wlength", "--no-cache", "--group", "S3", "--template", "1"])
@example(argv=["rewrite", "telescope_line", "x;y", "-1,2", "1,1"])
@given(argv=_argvs)
def test_every_cli_input_ends_with_a_documented_exit_code(argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse ends a usage error this way
        # every rewrite argv names a rule; its arguments are the rule's to judge
        assert argv[0] != "rewrite", "argparse rejected a rewrite argument"
        code = exc.code
    assert code in (0, 1, 2, 3)
