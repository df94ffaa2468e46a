"""Mutation sweep: each known one-edit fault must fail the checks it names.

Every entry below is a file under src/permpat, a text in it, the text
that replaces it, and the `verify` checks that the edited program must
fail.  For each entry the script copies src/ to a temporary directory,
applies the edit there, runs

    python -m permpat.cli verify --suite all --format json

on the copy, and reports the checks that failed.  The sweep fails when
an entry's text is missing from its file or when one of its listed
checks passes.  A check that fails without being listed is reported but
does not fail the sweep.  Uses only the standard library; run it from
anywhere as

    python tools/mutants.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900


class Mutant(NamedTuple):
    what: str
    file: str                   # relative to src/permpat
    old: str
    new: str
    fails: tuple[str, ...]      # verify checks the edit must fail


MUTANTS = (
    Mutant("the pattern plan reads window ends as (upper, lower)",
           "words.py", "zip(ends[t], (_BOTH, _LO, _HI))",
           "zip(ends[t], (_BOTH, _HI, _LO))",
           ("catalan:catalan-agreement", "stirling:engine-exhaustive",
            "stirling:savage-wilf", "stirling:engine-work",
            "matrix:internal-checks")),
    Mutant("the pattern plan reads a recurring rank as a lower end",
           "words.py", "zip(ends[t], (_BOTH, _LO, _HI))",
           "zip(ends[t], (_LO, _LO, _HI))",
           ("stirling:engine-exhaustive",
            "stirling:multiset-count-symmetry")),
    Mutant("the plan counts one rank too many in the lowest gap",
           "words.py", "below, free = None, 0", "below, free = None, 1",
           ("catalan:catalan-agreement", "stirling:engine-exhaustive",
            "matrix:internal-checks")),
    Mutant("the kernel's column window starts one too low",
           "words.py", "lo = img[k] + w - k", "lo = img[k] + w - k - 1",
           ("core:bruteforce-agreement", "contraction:encoding-equivalence",
            "proof-chain:census-fiber-inequality")),
    Mutant("the kernel places a pattern row one row short of the end",
           "words.py", "pn - qn + v + 1", "pn - qn + v",
           ("core:bruteforce-agreement", "matrix:word-matrix-consistency",
            "contraction:matrix-equivalence")),
    Mutant("the counter's window admits its upper end",
           "counting.py", "first <= j < last", "first <= j <= last",
           ("catalan:catalan-agreement", "stirling:engine-exhaustive")),
    Mutant("total_words adds 1 past length 20",
           "counting.py", "value *= math.comb(placed, m)",
           "value = value * math.comb(placed, m) + (placed > 20)",
           ("stirling:multinomial-factorials",)),
    Mutant("the counter skips its gaps filter",
           "counting.py", "for a, b, free in gaps:",
           "for a, b, free in ():",
           ("stirling:engine-work",)),
    Mutant("the counter keeps dominated embeddings",
           "counting.py", "if ordered and len(live) > 1:",
           "if False:",
           ("stirling:engine-work",)),
    Mutant("the kept-embedding shortcut ignores a recurring pin on the "
           "letter's own value",
           "counting.py", "if j not in short:", "if True:",
           ("stirling:engine-work",)),
    Mutant("the extremal search skips the room rule",
           "matrices.py", "for a, b, free in gaps):", "for a, b, free in ()):",
           ("matrix:engine-work",)),
    Mutant("prune drops the dominated-one-level-up test",
           "matrices.py", "for other in upper)", "for other in ())",
           ("matrix:engine-work",)),
    Mutant("the extremal search stops its bound cut one short",
           "matrices.py", "if weight + bound <= best:",
           "if weight + bound < best - 1:",
           ("matrix:engine-work",)),
    Mutant("matrix containment lets a pattern column run one too far",
           "matrices.py", "pc - (qc - 1 - c)", "pc - (qc - c)",
           ("matrix:word-matrix-consistency",
            "contraction:matrix-equivalence")),
    Mutant("a new census row keeps its parent's state",
           "matrices.py", "walk(rows.after(effect), r + 1)",
           "walk(state, r + 1)",
           ("proof-chain:census-exhaustive", "proof-chain:census-full-width",
            "proof-chain:census-fiber-inequality")),
    Mutant("the census prunes with one row too few left",
           "matrices.py", "state, last - r)", "state, last - r - 1)",
           ("proof-chain:census-exhaustive", "proof-chain:census-full-width",
            "proof-chain:census-fiber-inequality")),
    Mutant("the census places r rows by C(N - 1, r)",
           "bigraphs.py", "math.comb(n * m, r)", "math.comb(n * m - 1, r)",
           ("proof-chain:census-exhaustive",
            "proof-chain:census-full-width")),
    Mutant("the census's last row may be empty",
           "matrices.py", "(1 << free.bit_count()) - 1",
           "(1 << free.bit_count())",
           ("proof-chain:census-exhaustive",
            "proof-chain:census-full-width")),
    Mutant("the census walk stops one row short",
           "matrices.py", "if r < last:", "if r < last - 1:",
           ("proof-chain:census-exhaustive",
            "proof-chain:census-full-width")),
    Mutant("an effect keeps the lowest hit of a pin read as an upper end",
           "matrices.py", "if hits > bit:", "if hits and hits < bit:",
           ("matrix:internal-checks", "proof-chain:census-exhaustive",
            "proof-chain:census-fiber-inequality")),
    Mutant("joined effects keep the highest hit of a lower end",
           "matrices.py", "else min(x, y) if role == _LO",
           "else max(x, y) if role == _LO",
           ("matrix:small-exhaustive-crosscheck", "matrix:engine-work")),
    Mutant("the state after a row drops the embeddings it carries",
           "matrices.py", "self.carried.union([", "frozenset().union([",
           ("matrix:internal-checks", "proof-chain:census-exhaustive",
            "proof-chain:census-full-width",
            "proof-chain:census-fiber-inequality")),
    Mutant("fiber_size counts the empty subset of a block's edges",
           "bigraphs.py", "2 ** mults[i - 1] - 1", "2 ** mults[i - 1]",
           ("proof-chain:fiber-single-edge", "proof-chain:fiber-partition",
            "proof-chain:fiber-inversion")),
    Mutant("contract sends each left vertex to the previous block",
           "bigraphs.py", "block_of[i - 1]", "block_of[i - 2]",
           ("contraction:inheritance-exhaustive",
            "contraction:inheritance-random")),
)


def run(mutant: Mutant) -> list[str]:
    """The problems with one mutant: an empty list when it is caught."""
    with tempfile.TemporaryDirectory(prefix="permpat-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "permpat" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return [f"{mutant.file} holds {mutant.old!r} "
                    f"{text.count(mutant.old)} times, not once"]
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "permpat.cli", "verify", "--suite",
                 "all", "--format", "json"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return [f"verify ran past {TIMEOUT_S} s"]
    try:
        checks = json.loads(proc.stdout)["checks"]
    except (ValueError, KeyError):
        return [f"no manifest (exit {proc.returncode}): "
                f"{proc.stderr.strip()[-300:]}"]
    failed = [c["name"] for c in checks if not c["passed"]]
    print(f"    failed: {', '.join(failed) or 'none'}")
    return [f"{name} passed" for name in mutant.fails if name not in failed]


def main() -> int:
    survived = 0
    start = time.perf_counter()
    for i, mutant in enumerate(MUTANTS, 1):
        print(f"[{i}] {mutant.what} ({mutant.file})", flush=True)
        began = time.perf_counter()
        problems = run(mutant)
        for problem in problems:
            print(f"    SURVIVED: {problem}")
        if not problems:
            print("    caught")
        print(f"    {time.perf_counter() - began:.1f} s")
        survived += bool(problems)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
