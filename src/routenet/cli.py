"""Command-line entry point.

Commands: check, compile, reduce, values, area, verify.  Exit codes: 0
success, 1 failed type check, 2 failed verification, 64 usage error, 65
malformed input, 75 reduction budget exhausted.  Output is deterministic for
fixed inputs and seed.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    BudgetExhausted,
    NotStratified,
    ParseError,
    RoutenetError,
    TypingError,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_TEMPFAIL = 75


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _count(text: str) -> int:
    """A non-negative integer: a step budget or a case count."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _default_budget() -> int:
    env = os.environ.get("ROUTENET_BUDGET")
    if env is not None:
        try:
            return _count(env)
        except argparse.ArgumentTypeError:
            print(f"routenet: bad ROUTENET_BUDGET {env!r}", file=sys.stderr)
            raise SystemExit(EX_USAGE) from None
    return 10000


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"routenet: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EX_USAGE) from None


def _program(files: list[str]):
    """One file is a closed term; two files are region context + term."""
    from .lang import parse_region_ctx, parse_term

    if len(files) == 1:
        return parse_region_ctx(""), parse_term(_read(files[0]))
    return parse_region_ctx(_read(files[0])), parse_term(_read(files[1]))


def _fmt_effect(eff) -> str:
    return "{" + ",".join(sorted(eff)) + "}"


def cmd_check(args) -> int:
    from .lang import fmt_type, typecheck_amadio

    R, term = _program(args.files)
    try:
        ty, eff = typecheck_amadio(R, {}, term)
    except (TypingError, NotStratified) as exc:
        print(f"type error: {exc}")
        return 1
    print(f"type: {fmt_type(ty)}")
    print(f"effect: {_fmt_effect(eff)}")
    return 0


def cmd_compile(args) -> int:
    from .proofnet import serialize, to_dot
    from .translate import compile_program

    R, term = _program(args.files)
    net = compile_program(term, R)
    if args.emit == "dot":
        sys.stdout.write(to_dot(net))
    else:
        sys.stdout.write(serialize(net).decode() + "\n")
    return 0


def cmd_reduce(args) -> int:
    from .proofnet import parse, serialize, to_dot, validate
    from .rewrite import normalize

    nets = parse(_read(args.net).encode())
    problems = [f"summand {k}: {msg}" for k, n in enumerate(nets) for msg in validate(n)]
    if problems:
        for msg in problems:
            print(f"routenet: invalid net: {msg}", file=sys.stderr)
        return EX_DATAERR
    s = normalize(nets, budget=args.budget)
    if args.emit == "dot":
        for n in s.summands:
            sys.stdout.write(to_dot(n))
    else:
        sys.stdout.write(serialize(s.summands).decode() + "\n")
    return 0


def cmd_values(args) -> int:
    import json

    from .lang import _threads, alpha_normalize, fmt_term, typecheck_amadio, value_trees

    R, term = _program(args.files)
    if len(args.files) == 2:
        # a program given with its reference context must type-check in it,
        # as for `check`; a lone term runs untyped
        typecheck_amadio(R, {}, term)
    outcomes = {
        tuple(sorted(fmt_term(alpha_normalize(t)) for t in _threads(tree)))
        for tree in value_trees(term, budget=args.budget)
    }
    print(json.dumps({"values": [list(v) for v in sorted(outcomes)]}, indent=2))
    return 0


def cmd_area(args) -> int:
    from .multirel import from_text
    from .proofnet import serialize, to_dot
    from .routing import RoutingArea, build_area

    rel = from_text(_read(args.mat))
    net = build_area(RoutingArea(rel))
    if args.emit == "dot":
        sys.stdout.write(to_dot(net))
    else:
        sys.stdout.write(serialize(net).decode() + "\n")
    return 0


def cmd_verify(args) -> int:
    from .gen import SUITES, run_suite

    cases = args.cases if args.cases is not None else SUITES[args.suite].cases
    print(f"suite: {args.suite}")
    print(f"seed: {args.seed}")
    results = run_suite(args.suite, args.seed, cases)
    passed = 0
    for k, ok, msg in results:
        print(f"case {k}: pass" if ok else f"case {k}: FAIL ({msg})")
        passed += ok
    print(f"result: {passed}/{len(results)} pass")
    return 0 if passed == len(results) else 2


def _build_parser() -> _Parser:
    from .gen import SUITES

    top = _Parser(prog="routenet", description=__doc__)
    top.add_argument("--budget", type=_count, default=None, help="reduction step budget")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="type-and-effect check a program")
    p.add_argument("files", nargs="+", metavar="[R.ctx] M.term")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compile", help="compile a program to a net")
    p.add_argument("files", nargs="+", metavar="[R.ctx] M.term")
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("reduce", help="normalize a serialized net or sum")
    p.add_argument("net", metavar="net.json")
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("values", help="interpreter outcomes of a program")
    p.add_argument("files", nargs="+", metavar="[R.ctx] M.term")
    p.set_defaults(fn=cmd_values)

    p = sub.add_parser("area", help="build a routing area from a matrix file")
    p.add_argument("mat", metavar="R.mat")
    p.add_argument("--emit", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_area)

    p = sub.add_parser("verify", help="run a seeded verification suite")
    p.add_argument("--suite", choices=tuple(SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_count, default=None)
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if len(getattr(args, "files", None) or []) > 2:
        print("routenet: expected at most two input files", file=sys.stderr)
        return EX_USAGE
    if args.budget is None:
        args.budget = _default_budget()
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"routenet: {exc}", file=sys.stderr)
        return EX_DATAERR
    except BudgetExhausted as exc:
        msg = "routenet: reduction budget exhausted"
        if exc.steps:
            counts = ", ".join(f"{rule} {n}" for rule, n in sorted(exc.steps.items()))
            msg += f" after {sum(exc.steps.values())} steps ({counts})"
        print(msg, file=sys.stderr)
        return EX_TEMPFAIL
    except (TypingError, NotStratified) as exc:
        # compile/values on an ill-typed program
        print(f"routenet: {exc}", file=sys.stderr)
        return 1
    except RoutenetError as exc:
        print(f"routenet: {exc}", file=sys.stderr)
        return EX_DATAERR
    except RecursionError:
        # the parsers refuse deeper input; the recursive walkers after them
        # can still run out of stack on what they accept
        print("routenet: input nested too deeply", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    raise SystemExit(main())
