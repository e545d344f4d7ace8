"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 factorization budget
exhausted, 64 usage error (including options that leave a verification
harness nothing to check), 141 (128 + SIGPIPE) when the reader of standard
output closes it early, as `vpal procedure N --json | head -1` does. Numbers
are accepted as decimal strings of ASCII digits, of unbounded length. The
factorization budget in seconds, per command and per n in a sweep, is
--budget, else VPAL_BUDGET, else 10; a value that is not a positive finite
number written in ASCII decimal digits, with an optional fraction and
exponent, is a usage error. `verify oracle` and `verify disjointness` decide
every k on a finite set of k (see oracle.compare_procedure_oracle and
oracle.verify_disjointness), so they take no k bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .digits import decimal_string, parse_decimal
from .factor import Budget, BudgetExhausted, v_value
from .oracle import (
    DEFAULT_NMAX,
    GOLDEN_LIMIT,
    VerificationReport,
    compare_procedure_oracle,
    literal_test,
    sweep,
    verify_disjointness,
    verify_enumeration,
    verify_invariance,
    verify_lemmas,
)
from .procedure import InvalidInput, NotAVPalindrome, ProcedureResult, run_procedure

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141

_SECONDS = re.compile(r"([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _decimal(s: str) -> int:
    try:
        n = parse_decimal(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a decimal integer: {s!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {s}")
    return n


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="vpal", description="v-palindrome arithmetic and verification")
    parser.add_argument(
        "--budget",
        metavar="SECONDS",
        help="wall-clock factorization budget per command, and per n in a sweep"
             " (env: VPAL_BUDGET, default 10)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("v", help="print v(n)")
    p.add_argument("n", type=_decimal)

    p = sub.add_parser("check", help="is n a v-palindrome? prints the witness v values")
    p.add_argument("n", type=_decimal)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("procedure", help="print the classification tables for n")
    p.add_argument("n", type=_decimal)
    p.add_argument("--copies", type=_decimal, default=1, metavar="K",
                   help="analyze the K-fold concatenation of n (without factoring it)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("type", help="print the type of the k-fold concatenation of n")
    p.add_argument("n", type=_decimal)
    p.add_argument("k", type=_decimal)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("--json", action="store_true")
    p.add_argument("--jobs", type=_decimal, default=1,
                   help="worker processes for the corpus sweeps (at most the CPU count)")
    what = p.add_subparsers(dest="what", required=True, parser_class=_Parser)

    q = what.add_parser("oracle", help="procedure verdicts vs the factorization oracle")
    q.add_argument("--nmax", type=_decimal, default=DEFAULT_NMAX)

    q = what.add_parser("invariance", help="type agreement across concatenation bases")
    q.add_argument("--nmax", type=_decimal, default=DEFAULT_NMAX)
    q.add_argument("--kmax", type=_decimal, default=6)

    q = what.add_parser("lemmas", help="entry-order divisibility and rescaling identities")
    q.add_argument("--pmax", type=_decimal, default=100)
    q.add_argument("--alphamax", type=_decimal, default=3)
    q.add_argument("--kmax", type=_decimal, default=60)
    q.add_argument("--lmax", type=_decimal, default=14)

    q = what.add_parser("disjointness", help="no k accepted by two solution columns")
    q.add_argument("--nmax", type=_decimal, default=DEFAULT_NMAX)

    q = what.add_parser("enumerate", help="list v-palindromes and compare to the golden file")
    q.add_argument("--limit", type=_decimal, default=1000)
    q.add_argument("--print", dest="print_values", action="store_true",
                   help="print the enumerated values")

    return parser


def _emit_report(report: VerificationReport, as_json: bool) -> int:
    if report.checked == 0:
        print(f"vpal: error: the options leave nothing to check ({report.corpus})", file=sys.stderr)
        return EXIT_USAGE
    if as_json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return EXIT_OK if report.ok else EXIT_VERIFICATION_FAILED


def _render_procedure_text(result: ProcedureResult) -> str:
    d = result.to_dict()
    lines = [f"n = {d['n']}, copies = {d['copies']}, digit length = {d['digit_length']}"]
    lines.append("crucial primes:")
    for cp in d["crucial_primes"]:
        lines.append(f"  p={cp['p']}: a={cp['a']} b={cp['b']} delta={cp['delta']} mu={cp['mu']}")
    if not d["solutions"]:
        lines.append("solutions: none (no concatenation is ever a v-palindrome)")
    else:
        lines.append("solutions: " + "  ".join(str(tuple(s)) for s in d["solutions"]))
        lines.append("case table (rows: primes / columns: solutions):")
        for cp, row in zip(d["crucial_primes"], d["case_table"]):
            lines.append(f"  p={cp['p']}: " + "  ".join(f"[{v}]" for v in row))
        lines.append("constraint table:")
        for cp, row in zip(d["crucial_primes"], d["constraint_table"]):
            cells = "  ".join(f"(A={e['A']}, B={e['B']})" for e in row)
            lines.append(f"  p={cp['p']}: {cells}")
        lines.append("columns (accepted k: divisible by all of A, by none of B):")
        for col in d["columns"]:
            lines.append(
                f"  {tuple(col['solution'])}: A={col['A']} B={col['B']}"
                f" first accepted k = {col['first_member']}"
            )
    c = d["c"] if d["c"] is not None else "infinity"
    lines.append(f"omega = {d['omega']}, omega0 = {d['omega0']}, c = {c}")
    lines.append(
        "nondegenerate solutions: "
        + ("  ".join(str(tuple(s)) for s in d["nondegenerate"]) if d["nondegenerate"] else "none")
    )
    return "\n".join(lines)


def _cmd_v(args, budget: Budget) -> int:
    print(v_value(args.n, budget))
    return EXIT_OK


def _cmd_check(args, budget: Budget) -> int:
    w, n = literal_test(args.n, budget), decimal_string(args.n)
    if w.reason is not None:
        record, text = {"n": n, "vpalindrome": False, "reason": w.reason}, f"no: {w.reason}"
    else:
        r = decimal_string(w.reversal)
        record = {"n": n, "vpalindrome": w.vpalindrome, "v": w.v, "reversal": r,
                  "v_of_reversal": w.v_of_reversal}
        text = (f"yes: v({n}) = {w.v} = v({r})" if w.vpalindrome
                else f"no: v({n}) = {w.v} != v({r}) = {w.v_of_reversal}")
    print(json.dumps(record) if args.json else text)
    return EXIT_OK


def _cmd_procedure(args, budget: Budget) -> int:
    result = run_procedure(args.n, copies=args.copies, budget=budget)
    if args.json:
        print(result.to_json())
    else:
        print(_render_procedure_text(result))
    return EXIT_OK


def _cmd_type(args, budget: Budget) -> int:
    result = run_procedure(args.n, budget=budget)
    try:
        print(str(result.type_of(args.k)))
    except NotAVPalindrome:
        print("not a v-palindrome")
    return EXIT_OK


def _cmd_verify(args, budget: Budget) -> int:
    if args.what == "oracle":
        report = sweep(compare_procedure_oracle, args.nmax, args.jobs, budget=budget)
    elif args.what == "invariance":
        report = sweep(verify_invariance, args.nmax, args.jobs, kmax=args.kmax, budget=budget)
    elif args.what == "lemmas":
        report = verify_lemmas(args.pmax, args.alphamax, args.kmax, args.lmax)
    elif args.what == "disjointness":
        report = sweep(verify_disjointness, args.nmax, args.jobs, budget=budget)
    else:  # enumerate
        values, report = verify_enumeration(args.limit, budget)
        if args.print_values:
            for x in values:
                print(x)
        if args.limit > GOLDEN_LIMIT and not args.json:
            print(f"note: golden file covers up to {GOLDEN_LIMIT}; larger values not compared")
    return _emit_report(report, args.json)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.budget is None:
        source, raw = "VPAL_BUDGET", os.environ.get("VPAL_BUDGET", "10")
    else:
        source, raw = "--budget", args.budget
    seconds = float(raw) if _SECONDS.fullmatch(raw.strip()) else math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        print(f"vpal: error: {source} must be a positive number of seconds, got {raw!r}",
              file=sys.stderr)
        return EXIT_USAGE
    budget = Budget(seconds=seconds)
    handlers = {
        "v": _cmd_v,
        "check": _cmd_check,
        "procedure": _cmd_procedure,
        "type": _cmd_type,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args, budget)
    except BudgetExhausted as exc:
        print(f"vpal: factorization budget exhausted (composite cofactor {exc.cofactor})",
              file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidInput, ValueError) as exc:
        print(f"vpal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader is gone: stdout now points at devnull, so the flush at
        # exit writes what is left to nowhere instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
