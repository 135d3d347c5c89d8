"""Command-line interface.

Subcommands::

    verba reduce EXPR...                 reduce word expressions
    verba verify FILE                    verify a serialized certificate
    verba rewrite RULE ARGS...           build and print a rewrite certificate
    verba wlength --group G --template T distance tables in finite groups
    verba bound ...                      declare quantities, propagate, explain
    verba cover --n N                    cover invariants and shape certificates
    verba experiment {list,run}          deterministic scripted reports
    verba cache {info,clear}             the distance-table cache

Exit codes: 0 success / PASS, 1 verification failure or inconsistency,
2 usage errors, 3 resource budgets exceeded.  Only ``wlength`` and ``cache``
import numpy (through ``finite`` and ``cache``), when they run.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cover, experiments, grammar
from .bounds import BoundEngine, format_interval
from .certificates import parse_certificate
from .errors import (
    CertificateError,
    InconsistencyError,
    ParseError,
    ResourceBudgetError,
    UnknownNameError,
    VerbaError,
)
from .identities import REWRITE_RULES
from .templates import parse_template_spec


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_reduce(args: argparse.Namespace) -> int:
    names = grammar.NameTable()
    for expr in args.exprs:
        word = grammar.parse(expr, names)
        print(grammar.format_word(word, names))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = grammar.NameTable()
    if len(args.inputs) == 2:
        lhs = grammar.parse(args.inputs[0], names)
        rhs = grammar.parse(args.inputs[1], names)
        if lhs == rhs:
            print(f"PASS: both sides reduce to {grammar.format_word(lhs, names)}")
            return 0
        print(
            f"FAIL: {grammar.format_word(lhs, names)}"
            f" != {grammar.format_word(rhs, names)}"
        )
        return 1
    if len(args.inputs) != 1:
        raise ParseError("verify takes one certificate file or two word expressions")
    cert = parse_certificate(_read_text(args.inputs[0]), names)
    try:
        cert.check()
    except CertificateError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(
        f"PASS: product of {len(cert.factors)} factors reduces to"
        f" {grammar.format_word(cert.target, names)}"
    )
    if args.records:
        print(cert.counts_line())
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    rule = REWRITE_RULES.get(args.rule)
    if rule is None:
        print(f"unknown rewrite rule {args.rule!r}; available:", file=sys.stderr)
        for name in sorted(REWRITE_RULES):
            print(f"  {name} {REWRITE_RULES[name].usage}", file=sys.stderr)
        return 2
    names = grammar.NameTable()
    cert = rule.build([a for a in args.args if a not in ("--", "--records")], names)
    print(cert.serialize(names), end="")
    if args.records or "--records" in args.args:
        print(cert.counts_line())
    return 0


def _cmd_wlength(args: argparse.Namespace) -> int:
    from . import cache as cache_mod
    from .finite import bi_invariance_check, eval_word, load_group, wlength_table

    group = load_group(args.group)
    template = parse_template_spec(args.template)
    if args.no_cache:
        table = wlength_table(group, template)
    else:
        table = cache_mod.distance_table(group, template)
    if args.element is not None:
        if not args.images:
            print("--element needs --images", file=sys.stderr)
            return 2
        word = grammar.parse(args.element)
        ids = {str(a): a for a in range(group.order)}
        tokens = [token.strip() for token in args.images.split(",")]
        if not all(token in ids for token in tokens):
            raise ParseError(
                f"--images takes comma-separated element ids in [0, {group.order}),"
                f" not {args.images!r}"
            )
        images = {i + 1: ids[token] for i, token in enumerate(tokens)}
        missing = [i for i in word.generators() if i not in images]
        if missing:
            raise ParseError(f"--images gives no image for generators {missing}")
        element = eval_word(group, word, images)
        distance = table.distance(element)
        text = "unreachable" if distance is None else str(distance)
        print(f"{group.spec}: element {group.element_name(element)} distance {text}")
        return 0
    for k, v in sorted(table.histogram().items()):
        print(f"{k} {v}")
    unreachable = group.order - table.reachable_count()
    if unreachable:
        print(f"unreachable {unreachable}")
    if args.records:
        for i, d in enumerate(table.distances):
            print(f"{i} {d}")
    if args.check_bi_invariance:
        ok = bi_invariance_check(group, table)
        print(f"bi-invariance: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    engine = BoundEngine()
    declared = []
    try:
        if not args.no_default_seeds:
            engine.load_default_seeds()
        for path in args.facts or ():
            engine.load_facts(_read_text(path))
        for text in args.declare or ():
            declared.append(engine.declare(text))
        engine.propagate()
    except InconsistencyError as exc:
        print(f"INCONSISTENT: {exc}")
        if exc.trace:
            print(exc.trace)
        return 1
    for quantity in declared:
        print(f"{engine.display(quantity)} = {format_interval(*engine.interval(quantity))}")
    for text in args.explain or ():
        print(engine.explain(text))
    if args.records:
        for line in engine.record_lines():
            print(line)
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    n = grammar.read_integer(args.n, "--n")
    if n is None or n < 1:
        raise ParseError(f"--n must be at least 1, not {args.n!r}")
    inv = cover.cover_invariants(n)
    images = cover.boundary_cover(n)
    print(f"degree {inv.degree}")
    print(f"x images {' '.join(map(str, images[1]))}")
    print(f"y images {' '.join(map(str, images[2]))}")
    print(f"x cycle type {inv.x_cycle_lengths}")
    print(f"y cycle type {inv.y_cycle_lengths}")
    print(f"commutator cycle type {inv.commutator_cycle_lengths}")
    print(f"euler characteristic {inv.euler_characteristic}")
    print(f"boundary components {inv.boundary_components}")
    print(f"genus {inv.genus}")
    checks = {
        "x is an involution": inv.x_cycle_lengths == (2,) * n + (1,),
        "y fixes everything beyond one full cycle": inv.y_cycle_lengths
        == (n + 1,) + (1,) * n,
        "commutator is a single full cycle": inv.commutator_cycle_lengths
        == (inv.degree,),
        "genus is n+1": inv.genus == n + 1,
    }
    for label, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {label}")
    if not all(checks.values()):
        return 1
    if args.certificate:
        cert = parse_certificate(_read_text(args.certificate))
        ok = cover.verify_shape_certificate(n, cert)
        print(f"shape certificate: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.known_certificate:
        cert = cover.known_shape_certificate(n)
        if cert is None:
            print(f"no closed-form shape certificate for n={n}")
            return 1
        print(cert.serialize(), end="")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in experiments.experiment_names():
            print(f"{name}: {experiments.REGISTRY[name].summary}")
        return 0
    report = experiments.run_experiment(args.name)
    if args.out:
        _write_text(args.out, report)
    else:
        print(report, end="")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from . import cache as cache_mod

    if args.action == "info":
        for line in cache_mod.info():
            print(line)
    else:
        removed = cache_mod.clear()
        print(f"removed {removed} cached tables")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verba",
        description="word arithmetic, rewrite certificates, and length bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce word expressions")
    p.add_argument("exprs", nargs="+", metavar="EXPR")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser(
        "verify",
        help="verify a certificate file (- for stdin), or that two words agree",
    )
    p.add_argument("inputs", nargs="+", metavar="FILE_OR_EXPR")
    p.add_argument("--records", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("rewrite", help="build a rewrite certificate")
    p.add_argument("rule")
    # REMAINDER keeps rule arguments such as "-1,2" in order; a "--records"
    # among them is taken out in _cmd_rewrite
    p.add_argument("args", nargs=argparse.REMAINDER, metavar="ARG")
    p.add_argument("--records", action="store_true")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("wlength", help="distance tables in finite groups")
    p.add_argument("--group", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--element", help="word whose distance to report")
    p.add_argument("--images", help="comma-separated element ids for x1, x2, ...")
    p.add_argument("--records", action="store_true")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--check-bi-invariance", action="store_true")
    p.set_defaults(fn=_cmd_wlength)

    p = sub.add_parser("bound", help="interval propagation over length quantities")
    p.add_argument("--facts", action="append", metavar="FILE")
    p.add_argument("--declare", action="append", metavar="QUANTITY")
    p.add_argument("--explain", action="append", metavar="QUANTITY")
    p.add_argument("--no-default-seeds", action="store_true")
    p.add_argument("--records", action="store_true")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("cover", help="odd-degree cover invariants")
    p.add_argument("--n", required=True)
    p.add_argument("--certificate", help="shape certificate file to verify")
    p.add_argument(
        "--known-certificate",
        action="store_true",
        help="print the closed-form shape certificate if one is known",
    )
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("experiment", help="deterministic scripted reports")
    exp_sub = p.add_subparsers(dest="action", required=True)
    p_list = exp_sub.add_parser("list")
    p_list.set_defaults(fn=_cmd_experiment, action="list", name=None, out=None)
    p_run = exp_sub.add_parser("run")
    p_run.add_argument("name")
    p_run.add_argument("--out")
    p_run.set_defaults(fn=_cmd_experiment, action="run")

    p = sub.add_parser("cache", help="distance-table cache maintenance")
    cache_sub = p.add_subparsers(dest="action", required=True)
    cache_sub.add_parser("info").set_defaults(fn=_cmd_cache, action="info")
    cache_sub.add_parser("clear").set_defaults(fn=_cmd_cache, action="clear")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ParseError, UnknownNameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerbaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
