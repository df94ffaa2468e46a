"""Seeded job lists and independent reference answers for each workload.

Nothing here imports permpat: the references are closed forms or values
pinned once from a brute-force route, so a change to the program cannot
move them.  A job is a plain dict that travels to the pass process as
JSON; `child.py` turns it into one call of a public library function.

Every exact-answer job runs on each distinct symmetric image of its
pattern (reverse, complement and, for permutations, inverse; the eight
D4 maps for matrices).  Each answer is invariant under these maps, so
one reference serves every image.  Images of one pattern cost up to 3x
apart (I3 against its anti-diagonal in `extremal`), so a seed that
picked a single image would move the run time by more than any bound;
the seed therefore fixes the order of the jobs, and the whole stream of
point queries in `query`.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

WORKLOADS = ("count", "extremal", "census", "query")


# --- closed forms -----------------------------------------------------------

def catalan(n: int) -> int:
    """Permutations of [n] avoiding any 3-pattern."""
    return math.comb(2 * n, n) // (n + 1)


def gessel_1234(n: int) -> int:
    """Gessel's formula for permutations of [n] avoiding 1234 (A005802)."""
    total = Fraction(0)
    for k in range(n + 1):
        total += Fraction(
            math.comb(2 * k, k) * math.comb(n, k) ** 2
            * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
            (k + 1) ** 2 * (k + 2) * (n - k + 1))
    return _exact(2 * total)


def bona_1342(n: int) -> int:
    """Coefficient of x^n in Bona's 32x / (1 + 20x - 8x^2 - (1-8x)^(3/2)),
    the number of permutations of [n] avoiding 1342 (A022558)."""
    # (1-8x)^(3/2) as a binomial series, then divide out the common factor x
    root = [Fraction(1)]
    for j in range(1, n + 3):
        root.append(root[-1] * (Fraction(3, 2) - (j - 1)) / j * -8)
    den = [-r for r in root]
    den[0] += 1
    den[1] += 20
    den[2] -= 8
    if den[0] != 0:
        raise ArithmeticError("denominator series has a constant term")
    den = den[1:]
    # series division 32 / den
    out: list[Fraction] = []
    for i in range(n + 1):
        acc = Fraction(32 if i == 0 else 0)
        acc -= sum(out[j] * den[i - j] for j in range(i))
        out.append(acc / den[0])
    return _exact(out[n])


def stirling_212(n: int, m: int) -> int:
    """Words on the regular multiset [n]_m avoiding 212:
    n! * m^n * binom(n - 1 + 1/m, n), evaluated exactly."""
    x = Fraction(1, m) + (n - 1)
    binom = Fraction(1)
    for i in range(n):
        binom *= x - i
    return _exact(math.factorial(n) * m ** n * binom / math.factorial(n))


def furedi_hajnal(n: int, k: int) -> int:
    """ex(n, I_k) = 2(k-1)n - (k-1)^2, exact for n >= k - 1."""
    return 2 * (k - 1) * n - (k - 1) ** 2


def _exact(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"closed form is not an integer: {value}")
    return int(value)


# Values pinned once by brute force.  Count: count_multiset_avoiders_bruteforce
# (every arrangement, all-subsequences containment).  Census: every edge mask
# tested with ordered_contains_bruteforce (all pairs of order-preserving
# injections).  Each holds for every image listed with the job.
PINNED = {
    ("count", "1212", (4, 4, 4)): 861,
    ("count", "1212", (2, 2, 2)): 54,
    ("census", "12", 2, 4): 2304,
    ("census", "12", 2, 2): 80,
    ("census", "123", 4, 1): 24832,
    ("census", "123", 3, 1): 448,
}


# --- symmetric images -------------------------------------------------------

def _reverse(w):
    return tuple(reversed(w))


def _complement(w):
    top = max(w) + 1
    return tuple(top - v for v in w)


def _inverse(w):
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def word_images(pattern: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """Distinct images under identity, reverse, complement and inverse."""
    maps = [("identity", lambda w: w), ("reverse", _reverse),
            ("complement", _complement)]
    if sorted(pattern) == list(range(1, len(pattern) + 1)):
        maps.append(("inverse", _inverse))
    seen: dict[tuple[int, ...], str] = {}
    for name, f in maps:
        seen.setdefault(f(pattern), name)
    return [(name, img) for img, name in seen.items()]


def perm_cells(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Permutation matrix with a 1 at (row perm[i], column i), as perm_to_matrix."""
    n = len(perm)
    return tuple(tuple(int(perm[c] == r + 1) for c in range(n))
                 for r in range(n))


def matrix_images(cells) -> list[tuple[str, tuple[tuple[int, ...], ...]]]:
    """Distinct images under the eight symmetries of the square."""
    def rot(m):
        return tuple(zip(*m[::-1]))

    def flip(m):
        return tuple(row[::-1] for row in m)

    seen: dict = {}
    m = tuple(tuple(row) for row in cells)
    for r in range(4):
        seen.setdefault(m, f"rot{90 * r}")
        seen.setdefault(flip(m), f"flip-rot{90 * r}")
        m = rot(m)
    return [(name, img) for img, name in seen.items()]


# --- workloads --------------------------------------------------------------

def _word(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def _count_jobs(smoke: bool) -> list[dict]:
    # (pattern, multiplicities, workers, reference name, reference value)
    n3, n4, n1342 = (5, 5, 5) if smoke else (8, 7, 7)
    n212, m1212 = (3, (2, 2, 2)) if smoke else (5, (4, 4, 4))
    specs = [
        ("123", (1,) * n3, 1, "Catalan", catalan(n3)),
        ("1234", (1,) * n4, 1, "Gessel", gessel_1234(n4)),
        ("1212", m1212, 1, "pinned brute force",
         PINNED[("count", "1212", m1212)]),
        ("212", (2,) * n212, 1, "stirling", stirling_212(n212, 2)),
        # at n=7 the pool about breaks even with one worker
        ("1342", (1,) * n1342, 2, "Bona", bona_1342(n1342)),
    ]
    jobs = []
    for text, mults, workers, ref, value in specs:
        for image, pattern in word_images(_word(text)):
            jobs.append({
                "kind": "count", "pattern": list(pattern),
                "mults": list(mults), "workers": workers,
                "expect": value, "ref": ref,
                "id": f"count {text}/{image}={''.join(map(str, pattern))} "
                      f"on ({','.join(map(str, mults))}) workers={workers}",
            })
    return jobs


def _extremal_jobs(smoke: bool) -> list[dict]:
    n = 3 if smoke else 5
    jobs = []
    for k in (2, 3):
        for image, cells in matrix_images(perm_cells(tuple(range(1, k + 1)))):
            jobs.append({
                "kind": "extremal", "cells": [list(r) for r in cells],
                # a 3x3 pattern needs max_n to pass the default n <= 4 guard
                "n": n, "max_n": n if k == 3 else None,
                "expect": furedi_hajnal(n, k),
                "ref": "Furedi-Hajnal",
                "id": f"extremal I{k}/{image} n={n}",
            })
    return jobs


def _census_jobs(smoke: bool) -> list[dict]:
    specs = [("12", 2, 2), ("123", 3, 1)] if smoke else [("12", 2, 4),
                                                         ("123", 4, 1)]
    jobs = []
    for text, n, m in specs:
        for image, pattern in word_images(_word(text)):
            jobs.append({
                "kind": "census", "pattern": list(pattern), "n": n, "m": m,
                "expect": PINNED[("census", text, n, m)],
                "ref": "pinned brute force",
                "id": f"census {text}/{image}={''.join(map(str, pattern))} "
                      f"on ({n},{m})",
            })
    return jobs


# Query stream parameters, tuned so that each kind takes about a third of
# the timed section and about half of the answers are "avoids".  Every
# shape (each combination of the ranges' values) gets `per_shape` queries
# with seeded contents, so seeds differ in what they ask, not in how many
# large or small queries they ask.
QUERY = {
    "word": {"per_shape": 45, "length": (10, 20), "pattern_length": (4, 6),
             "alphabet": 10, "pattern_alphabet": 5},
    "matrix": {"per_shape": 7, "rows": (8, 12), "cols": (8, 12),
               "pattern_side": (3, 4), "density": 0.08},
    "graph": {"per_shape": 84, "left": (10, 16), "right": (6, 8),
              "pattern_length": (4, 5), "density": 0.14,
              "pattern_alphabet": 4},
}


def _shapes(params: dict, *keys: str):
    ranges = [range(params[k][0], params[k][1] + 1) for k in keys]
    return itertools.product(*ranges)


def _gapfree(rng: random.Random, length: int, alphabet: int) -> list[int]:
    raw = [rng.randint(1, alphabet) for _ in range(length)]
    rank = {v: i for i, v in enumerate(sorted(set(raw)), start=1)}
    return [rank[v] for v in raw]


def _query_jobs(rng: random.Random, smoke: bool) -> list[dict]:
    jobs = []
    w, mx, g = QUERY["word"], QUERY["matrix"], QUERY["graph"]
    for length, k in _shapes(w, "length", "pattern_length"):
        for _ in range(1 if smoke else w["per_shape"]):
            jobs.append({"kind": "word",
                         "word": _gapfree(rng, length, w["alphabet"]),
                         "pattern": _gapfree(rng, k, w["pattern_alphabet"])})
    for rows, cols, k in _shapes(mx, "rows", "cols", "pattern_side"):
        for _ in range(1 if smoke else mx["per_shape"]):
            perm = list(range(1, k + 1))
            rng.shuffle(perm)
            jobs.append({"kind": "matrix",
                         "cells": [[int(rng.random() < mx["density"])
                                    for _ in range(cols)] for _ in range(rows)],
                         "perm": perm})
    for a, b, k in _shapes(g, "left", "right", "pattern_length"):
        for _ in range(1 if smoke else g["per_shape"]):
            mask = sum(1 << bit for bit in range(a * b)
                       if rng.random() < g["density"])
            jobs.append({"kind": "graph", "left": a, "right": b, "mask": mask,
                         "pattern": _gapfree(rng, k, g["pattern_alphabet"])})
    return jobs


def build_jobs(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The job list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query":
        jobs = _query_jobs(rng, smoke)
    else:
        jobs = {"count": _count_jobs, "extremal": _extremal_jobs,
                "census": _census_jobs}[workload](smoke)
    rng.shuffle(jobs)
    return jobs


def describe(workload: str, jobs: list[dict], smoke: bool) -> dict:
    """What the seed chose, for the record printed with each result."""
    if workload != "query":
        return {"jobs": [f"{job['id']}: {job['ref']} {job['expect']}"
                         for job in jobs]}
    kinds = [job["kind"] for job in jobs]
    return {"parameters": {kind: dict(params, **({"per_shape": 1} if smoke
                                                 else {}))
                           for kind, params in QUERY.items()},
            "jobs": {kind: kinds.count(kind) for kind in QUERY}}
