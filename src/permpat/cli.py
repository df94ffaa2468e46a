"""Command-line surface.

Subcommands wrap the library operations and the verification suites.
Exit codes are stable: 0 success (or "contains"), 1 negative result
("avoids", failed checks), 2 input error (a ParseError, or an argparse
usage error), 3 refusal: a budget or size guard, an internal check that
failed (ArithmeticError) or any other internal error, so that no answer
can be trusted.  The exception type alone decides the class.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bigraphs import (bounds, census_avoiding_graphs, contract,
                       graph_of_word, ordered_contains)
from .counting import (count_multiset_avoiders, records_to_csv,
                       records_to_json, regular_spec, sequence)
from .errors import BudgetExceeded, ParseError
from .matrices import BinaryMatrix, extremal_table
from .verify import DEFAULT_SEED, SUITES, run_suite
from .words import MultisetSpec, Word, _decimal, find_occurrence

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_REFUSED = 3


def _cmd_contains(args) -> int:
    word = Word.parse(args.word)
    pattern = Word.parse(args.pattern)
    hit = find_occurrence(word, pattern)
    if hit is None:
        print("avoids")
        return EXIT_NEGATIVE
    values = ",".join(str(word.entries[i - 1]) for i in hit)
    positions = ",".join(str(i) for i in hit)
    print("contains")
    print(f"witness: positions {positions} values {values}")
    return EXIT_OK


def _cmd_count(args) -> int:
    pattern = Word.parse(args.pattern)
    if args.n_max is not None:
        records = sequence(pattern, args.n_max, args.m)
    else:
        records = [count_multiset_avoiders(regular_spec(args.n, args.m),
                                           pattern)]
    if args.format == "json":
        print(records_to_json(records))
    else:
        print(records_to_csv(records), end="")
    return EXIT_OK


def _cmd_extremal(args) -> int:
    try:
        text = Path(args.matrix_file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read --matrix-file: {exc}") from None
    pattern = BinaryMatrix.parse(text)
    records = extremal_table(pattern, args.n_max)
    if args.format == "json":
        print(json.dumps([rec.as_dict() for rec in records], indent=2))
        return EXIT_OK
    print("n\tf\tslope")
    for rec in records:
        print(f"{rec.n}\t{rec.value}\t{rec.slope}")
    for rec in records:
        print(f"witness n={rec.n}:")
        print(rec.witness)
    return EXIT_OK


def _cmd_verify(args) -> int:
    manifest = run_suite(args.suite, args.seed)
    if args.format == "json":
        print(manifest.to_json())
    else:
        for check in manifest.checks:
            mark = "ok" if check.passed else "FAIL"
            line = f"[{mark}] {check.name}"
            if check.detail:
                line += f": {check.detail}"
            print(line)
        print(f"suite={args.suite} seed={args.seed}: {manifest.summary}")
    return EXIT_OK if manifest.ok else EXIT_NEGATIVE


def _cmd_census(args) -> int:
    pattern = Word.parse(args.pattern)
    print(_decimal(census_avoiding_graphs(args.n, args.m, pattern)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    try:
        d = Fraction(args.d)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational slope: {args.d!r}") from None
    record = bounds(args.n, args.m, d)
    print(json.dumps(record.as_dict(), indent=2))
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    """Before/after contraction report for the word 1212 against the
    repeated-letter pattern 111."""
    w = Word.parse("1212")
    q = Word.parse("111")
    sw, sq = MultisetSpec.regular(2, 2), MultisetSpec((3,))
    gw, gq = graph_of_word(w, sw), graph_of_word(q, sq)
    cw, cq = contract(gw, sw), contract(gq, sq)
    before = ordered_contains(gw, gq)
    after = ordered_contains(cw, cq)
    print(f"graph of {w}:")
    print(gw.to_text())
    print(f"graph of {q}:")
    print(gq.to_text())
    print(f"containment before contraction: {before}")
    print(f"contracted graph of {w}:")
    print(cw.to_text())
    print(f"contracted graph of {q}:")
    print(cq.to_text())
    print(f"containment after contraction: {after}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpat",
        description="Exact pattern avoidance: words, counts, extremal "
                    "0-1 matrices, graph contraction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", help="test one word against one pattern")
    p.add_argument("--word", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("count", help="count pattern-avoiding arrangements")
    p.add_argument("--pattern", required=True)
    sizes = p.add_mutually_exclusive_group(required=True)
    sizes.add_argument("--n", type=int)
    sizes.add_argument("--n-max", type=int)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("extremal",
                       help="exact extremal 1-count table for a pattern matrix")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census",
                       help="count avoiding bipartite graphs on ([n*m],[n])")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bounds", help="formula bounds at slope d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", required=True, help="rational slope, e.g. 9/5")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("counterexample",
                       help="contraction report for 1212 against 111")
    p.set_defaults(func=_cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ArithmeticError as exc:
        print(f"refused: internal check failed: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except Exception as exc:
        # a crash is no answer: it must not exit 1, the code for "avoids"
        print(f"refused: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_REFUSED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
