"""Command-line front end.

Subcommands: count, constants, sample, enumerate, clmass, groups, verify.
stdout carries machine-readable JSON/CSV only (counts as decimal strings so
no consumer loses precision to native number types); progress and
diagnostics go to stderr.  Any command with fixed flags and seed produces
byte-identical output across runs.

Exit codes: 0 success, 1 verification failure, 2 resource/cap exceeded,
64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import constants, counting, groups, lattice
from .errbound import ErrBoundedReal, format_errbounded
from .errors import CapExceededError, PrecisionError
from .verifysuite import SUITES, CheckFailure, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CAP = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(doc) -> None:
    print(json.dumps(doc))


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def cmd_count(args) -> int:
    n, V, csv, tol = args.n, args.V, args.format == "csv", args.tol
    if V < 1:
        raise ValueError("--V must be >= 1")
    if args.ladder is not None and (args.ladder < 1 or not csv):
        raise ValueError("--ladder needs --format csv and at least one rung")
    if args.mode == "rank" and args.rank is None:
        raise ValueError("--mode rank requires --rank")
    try:
        record = counting.census(args.mode, n, args.rank)
    except ValueError as exc:
        rank = "" if args.rank is None else f", --rank {args.rank}"
        raise ValueError(f"--mode {args.mode}{rank}: {exc}") from None
    density = record.density
    if tol is not None and density is None:
        raise ValueError("--tol needs a printed prediction")
    tol = constants.DEFAULT_TOL if tol is None else constants.check_tol(tol)
    first = record.oracle if args.method == "bruteforce" else record.count
    leading = None if density is None else lambda v: density(tol) * ErrBoundedReal.exact(v**n) / n

    rungs = args.ladder or 1
    rows = []
    for v in sorted({V * i // rungs for i in range(1, rungs + 1)} - {0}):  # each bound once
        doc = {"n": n, "V": v, "mode": args.mode}
        if args.rank is not None:
            doc["rank"] = args.rank
        doc["method"] = args.method
        count = first(v)
        doc["count"] = str(count)
        if args.method == "both":
            check = record.oracle(v)
            doc["oracle_count"] = str(check)
            if check != count:
                doc["mismatch"] = True
                if not csv:
                    _emit(doc)
                print(f"mismatch at V={v}: count {count} vs oracle {check}", file=sys.stderr)
                return EXIT_VERIFY
        if csv:
            pred = float("nan" if leading is None else leading(v).value)
            rows.append(f"{v},{count},{pred:.12g},{count / pred:.12g}")
            continue
        if leading is not None:
            pred = leading(v)
            doc["prediction"] = format_errbounded(pred)
            doc["prediction_kind"] = "leading-order"
            doc["ratio"] = format_errbounded(ErrBoundedReal.exact(count) / pred)
        _emit(doc)
    if csv:
        print("V,count,prediction,ratio", *rows, sep="\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def cmd_constants(args) -> int:
    name = args.name.replace("_", "-")
    try:
        value, cutoff = constants.evaluate_constant(
            name, k=args.k, n=args.n, m=args.m, r=args.r, p=args.p, tol=args.tol
        )
    except KeyError:
        raise ValueError(
            f"unknown constant {args.name!r}; known: {', '.join(constants.CONSTANT_NAMES)}"
        ) from None
    doc = {"name": name}
    doc.update(format_errbounded(value))
    if Fraction(doc["err"]) > args.tol:  # the value's decimal rounding is part of the printed err
        raise PrecisionError(f"{name} prints err {doc['err']}, above tol {args.tol:g}")
    doc["prime_cutoff"] = cutoff
    _emit(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample / enumerate
# ---------------------------------------------------------------------------


def cmd_sample(args) -> int:
    if args.n < 1 or args.q < 1 or args.count < 1:
        raise ValueError("need --n >= 1, --q >= 1, --count >= 1")
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"seed: {seed}", file=sys.stderr)
    for basis in lattice.sample_cocyclic_stream(args.n, args.q, args.count, seed):
        print(basis.to_json())
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.n < 1 or args.q < 1:
        raise ValueError("need --n >= 1 and --q >= 1")
    if args.count_only:
        _emit({"n": args.n, "q": args.q, "count": str(lattice.count_sublattices(args.n, args.q))})
        return EXIT_OK
    for basis in lattice.enumerate_sublattices(args.n, args.q):
        print(basis.to_json())
    return EXIT_OK


# ---------------------------------------------------------------------------
# clmass / groups
# ---------------------------------------------------------------------------


def _mass_doc(mass) -> dict:
    if isinstance(mass, Fraction):
        return {
            "value": f"{mass.numerator / mass.denominator:.17g}",
            "err": "0",
            "exact": True,
            "fraction": f"{mass.numerator}/{mass.denominator}",
        }
    doc = format_errbounded(mass)
    doc["exact"] = False
    return doc


def cmd_clmass(args) -> int:
    if args.V < 1:
        raise ValueError("--V must be >= 1")
    if (args.r is not None) != (args.predicate == "rank-at-most"):
        raise ValueError("--predicate rank-at-most requires --r, and --r goes with it alone")
    doc = {"V": args.V, "total_mass": _mass_doc(groups.cl_total_mass(args.V))}
    if args.predicate:
        mass = groups.cl_predicate_mass(args.V, args.predicate, args.r)
        doc["predicate"] = args.predicate
        if args.predicate == "rank-at-most":
            doc["r"] = args.r
        doc["predicate_mass"] = _mass_doc(mass)
    _emit(doc)
    return EXIT_OK


def cmd_groups(args) -> int:
    if args.V < 1:
        raise ValueError("--V must be >= 1")
    if args.dump:
        print("order,decomposition,aut_order,rank")
        for G in groups.enumerate_groups(args.V):
            print(f"{G.order},{G.describe()},{groups.aut_order(G)},{G.rank}")
        return EXIT_OK
    classes = groups.count_isomorphism_classes(args.V)
    doc = {
        "V": args.V,
        "classes": str(classes),
        "cyclic_classes": str(args.V),
        "cyclic_fraction": f"{args.V / classes:.12g}",
    }
    _emit(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    try:  # progress: "running <check id>" on stderr
        executed = run_suite(args.suite, report=functools.partial(print, "running", file=sys.stderr))
    except CheckFailure as exc:
        message = str(exc)
        failed_id = message.split(":", 1)[0]
        _emit({"ok": False, "failed": failed_id, "message": message})
        return EXIT_VERIFY
    _emit({"ok": True, "suite": args.suite, "passed": executed})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="latcensus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("count", help="census counts with predictions and oracles")
    p.add_argument("--n", type=int, required=True, help="lattice dimension")
    p.add_argument("--V", type=int, required=True, help="index bound")
    p.add_argument("--mode", choices=("cyclic", "squarefree", "all", "rank"), default="cyclic")
    p.add_argument("--rank", type=int, help="quotient rank for --mode rank")
    p.add_argument("--method", choices=("formula", "bruteforce", "both"), default="formula")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--ladder", type=int, help="emit a CSV ladder with this many rungs")
    p.add_argument("--tol", type=float, help=f"prediction tolerance (default {constants.DEFAULT_TOL:g})")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("constants", help="error-bounded named constants")
    p.add_argument("--name", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--tol", type=float, default=constants.DEFAULT_TOL)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("sample", help="uniform co-cyclic lattice draws (JSON lines)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="all sublattices of one index (JSON lines)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("clmass", help="census masses (weight 1/#Aut)")
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--predicate", choices=("cyclic", "squarefree-order", "rank-at-most"))
    p.add_argument("--r", type=int, help="rank bound for --predicate rank-at-most")
    p.set_defaults(func=cmd_clmass)

    p = sub.add_parser("groups", help="abelian group census")
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--dump", action="store_true", help="CSV census dump")
    p.set_defaults(func=cmd_groups)

    p = sub.add_parser("verify", help="run cross-module invariant suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
