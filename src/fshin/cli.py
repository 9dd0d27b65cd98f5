"""Command-line front end: check, entail, glb, lub, sat, subsumes, dump-forest."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import services
from .degrees import format_degree
from .kb import FuzzyKB
from .oracle import BudgetExceeded
from .parser import ParseError, parse_concept, parse_degree, parse_kb, parse_query
from .tableau import ResourceLimit

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_ORACLE = 4


def _load_kb(path: str) -> FuzzyKB:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # a byte-order mark that some editors put before UTF-8 text is not part
    # of the KB; one anywhere else is refused as a character
    return parse_kb(text.removeprefix("\ufeff"))


def _node_budget(text: str) -> int:
    try:
        n = int(text)
        if n >= 0:
            return n
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, found {text!r}")


def _emit(args: argparse.Namespace, line: str) -> None:
    if not args.quiet:
        print(line)


def _cmd_check(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    result = services.consistency(kb, args.budget_nodes)
    try:
        failure = args.oracle and services.cross_check(kb, result)
    except BudgetExceeded:  # a model search that runs out settles nothing
        failure = None
    if failure:
        print(f"error: oracle cross-check failed: {failure}", file=sys.stderr)
        return EXIT_ORACLE
    _emit(args, "consistent" if result.consistent else "inconsistent")
    return EXIT_YES if result.consistent else EXIT_NO


def _cmd_entail(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    query, bound = parse_query(args.assertion)
    if bound is None:
        raise ParseError("entail requires a bounded assertion, e.g. '... >= 0.5'", None)
    holds = services.entails(kb, query, bound, args.budget_nodes)
    _emit(args, "entailed" if holds else "not-entailed")
    return EXIT_YES if holds else EXIT_NO


def _cmd_degree(args: argparse.Namespace, which: str) -> int:
    kb = _load_kb(args.kb)
    query, bound = parse_query(args.assertion)
    if bound is not None:
        raise ParseError(f"{which} takes an unbounded assertion, e.g. 'a : C'", None)
    fn = services.glb if which == "glb" else services.lub
    try:
        value = fn(kb, query, args.budget_nodes)
    except services.InconsistentKB:
        _emit(args, "inconsistent-kb")
        return EXIT_NO
    _emit(args, format_degree(value))
    return EXIT_YES


def _cmd_sat(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb) if args.kb else FuzzyKB()
    concept = parse_concept(args.concept)
    if args.degree is not None:
        n = parse_degree(args.degree)
        ok = services.n_satisfiable(concept, n, kb, args.budget_nodes)
    else:
        ok = services.satisfiable(concept, kb, args.budget_nodes)
    _emit(args, "satisfiable" if ok else "unsatisfiable")
    return EXIT_YES if ok else EXIT_NO


def _cmd_subsumes(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb) if args.kb else FuzzyKB()
    sub = parse_concept(args.sub)
    sup = parse_concept(args.super)
    holds = services.subsumes(sup, sub, kb, args.budget_nodes)
    _emit(args, "subsumed" if holds else "not-subsumed")
    return EXIT_YES if holds else EXIT_NO


def _cmd_dump_forest(args: argparse.Namespace) -> int:
    kb = _load_kb(args.kb)
    result = services.consistency(kb, args.budget_nodes)
    forest = result.forest or result.first_clash_forest
    text = forest.dump() if forest is not None else ""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not args.quiet:
        sys.stdout.write(text)
    return EXIT_YES if result.consistent else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fshin",
        description="Decision procedures for fuzzy description logic knowledge bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, kb_required: bool = True) -> None:
        if kb_required:
            p.add_argument("kb", help=".fkb file, or '-' for stdin")
        else:
            p.add_argument("kb", nargs="?", default=None, help=".fkb file, or '-' for stdin")
        p.add_argument(
            "--budget-nodes",
            type=_node_budget,
            default=services.DEFAULT_BUDGET,
            help="work units per consistency check, N >= 0: one per new node, label triple, "
            "generator step, expand iteration and clique-search step; entail, glb, lub, "
            "sat and subsumes spend it afresh on each check they run (default %(default)s)",
        )
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("check", help="decide ABox consistency")
    common(p)
    p.add_argument("--oracle", action="store_true", help="cross-check with the model-search oracle")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("entail", help="decide entailment of a bounded assertion")
    common(p)
    p.add_argument("--assert", dest="assertion", required=True)
    p.set_defaults(fn=_cmd_entail)

    p = sub.add_parser("glb", help="greatest lower bound of an assertion")
    common(p)
    p.add_argument("--assert", dest="assertion", required=True)
    p.set_defaults(fn=lambda a: _cmd_degree(a, "glb"))

    p = sub.add_parser("lub", help="least upper bound of an assertion")
    common(p)
    p.add_argument("--assert", dest="assertion", required=True)
    p.set_defaults(fn=lambda a: _cmd_degree(a, "lub"))

    p = sub.add_parser("sat", help="concept (n-)satisfiability")
    common(p, kb_required=False)
    p.add_argument("--concept", required=True)
    p.add_argument("--degree", default=None)
    p.set_defaults(fn=_cmd_sat)

    p = sub.add_parser("subsumes", help="crisp subsumption between concepts")
    common(p, kb_required=False)
    p.add_argument("--sub", required=True)
    p.add_argument("--super", required=True)
    p.set_defaults(fn=_cmd_subsumes)

    p = sub.add_parser("dump-forest", help="dump the final or first clashing forest")
    common(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_dump_forest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, services.ModeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit:
        print("error: node budget exceeded", file=sys.stderr)
        return EXIT_BUDGET
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
