"""Exact counting of pattern-avoiding words and reference formulas.

Counts are produced by depth-first generation with prefix pruning: a
prefix that already contains the pattern is abandoned, which is sound
because containment is monotone under appending entries.  Slow
no-pruning counters are kept alongside as independent references.
"""
from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BudgetExceeded
from .words import MultisetSpec, Word, _occurs_using_final, _ranks, contains_bruteforce

# Upper bound on the number of arrangements an exact count may range over.
DEFAULT_MAX_TOTAL = 10_000_000


@dataclass(frozen=True)
class CountRecord:
    """One exact counting result over a fixed multiset and pattern."""

    spec: MultisetSpec
    pattern: Word
    count: int
    total: int

    def __post_init__(self):
        if not 0 <= self.count <= self.total:
            raise ValueError(f"count {self.count} outside 0..{self.total}")

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def length(self) -> int:
        return self.spec.length

    @property
    def growth(self) -> float:
        """Per-symbol root count**(1/length); the exponential-shape diagnostic."""
        return self.count ** (1.0 / self.length)

    def as_dict(self) -> dict:
        mults = self.spec.multiplicities
        m = mults[0] if self.spec.is_regular else ",".join(str(x) for x in mults)
        return {
            "n": self.n,
            "m": m,
            "pattern": str(self.pattern),
            "count": str(self.count),
            "total": str(self.total),
            "growth": self.growth,
        }


def catalan(n: int) -> int:
    """The n-th Catalan number, (1/(n+1)) * C(2n, n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def total_words(spec: MultisetSpec) -> int:
    """Multinomial count of all arrangements: length! / (m_1! * ... * m_n!)."""
    value = math.factorial(spec.length)
    for m in spec.multiplicities:
        value //= math.factorial(m)
    return value


def stirling_count(n: int, m: int) -> int:
    """Number of words on the regular multiset [n]_m avoiding 212.

    Evaluates n! * m**n * binom(n-1+1/m, n) in exact rational arithmetic;
    the fractional binomial makes floating point unacceptable here.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    x = Fraction(1, m) + (n - 1)
    binom = Fraction(1)
    for i in range(n):
        binom *= x - i
    binom /= math.factorial(n)
    value = math.factorial(n) * m**n * binom
    if value.denominator != 1:
        raise ArithmeticError(f"closed form gave a non-integer at n={n}, m={m}")
    return int(value)


def stirling_approx(n: int, m: int) -> float:
    """sqrt(2*pi*m*n) * (n**m / (sqrt(2*pi*m) * e))**n.

    Factorial-asymptotics yardstick for the total arrangement count of a
    regular multiset; grows much slower than the multinomial itself.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return math.sqrt(2 * math.pi * m * n) * (
        n**m / (math.sqrt(2 * math.pi * m) * math.e)
    ) ** n


def iter_words(spec: MultisetSpec) -> Iterator[tuple[int, ...]]:
    """All arrangements of the multiset, in lexicographic order."""
    mults = list(spec.multiplicities)
    word: list[int] = []
    length = spec.length

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == length:
            yield tuple(word)
            return
        for v in range(1, len(mults) + 1):
            if mults[v - 1]:
                mults[v - 1] -= 1
                word.append(v)
                yield from rec()
                word.pop()
                mults[v - 1] += 1

    yield from rec()


def _count_completions(mults: list[int], word: list[int],
                       ranks: Sequence[int], nranks: int,
                       remaining: int) -> int:
    """Avoiders extending `word`, choosing next letters in increasing order."""
    if remaining == 0:
        return 1
    total = 0
    for v in range(1, len(mults) + 1):
        if not mults[v - 1]:
            continue
        mults[v - 1] -= 1
        word.append(v)
        if not _occurs_using_final(word, ranks, nranks):
            total += _count_completions(mults, word, ranks, nranks, remaining - 1)
        word.pop()
        mults[v - 1] += 1
    return total


def _count_task(mults: tuple[int, ...], pattern: tuple[int, ...], first: int) -> int:
    """Worker entry: count avoiders whose first letter is `first`."""
    ranks, nranks = _ranks(pattern)
    working = list(mults)
    working[first - 1] -= 1
    word = [first]
    if _occurs_using_final(word, ranks, nranks):
        return 0
    return _count_completions(working, word, ranks, nranks, sum(working))


def count_multiset_avoiders(spec: MultisetSpec, pattern: Word, *,
                            workers: int = 1,
                            max_total: int = DEFAULT_MAX_TOTAL) -> CountRecord:
    """Exact number of arrangements of the multiset avoiding the pattern.

    With workers > 1 the search is partitioned by first letter and the
    partial counts are summed exactly, so the total is independent of
    scheduling.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = total_words(spec)
    if total > max_total:
        raise BudgetExceeded(
            f"{total} arrangements exceed the counting budget of {max_total}")
    entries = pattern.entries
    if workers > 1:
        firsts = [v for v in range(1, spec.n + 1) if spec.multiplicities[v - 1]]
        # the pool starts every worker up front, so start no idle ones
        with ProcessPoolExecutor(max_workers=min(workers, len(firsts))) as pool:
            parts = pool.map(_count_task,
                             [spec.multiplicities] * len(firsts),
                             [entries] * len(firsts), firsts)
        count = sum(parts)
    else:
        ranks, nranks = _ranks(entries)
        count = _count_completions(list(spec.multiplicities), [],
                                   ranks, nranks, spec.length)
    return CountRecord(spec=spec, pattern=pattern, count=count, total=total)


def count_avoiders(n: int, pattern: Word, *, workers: int = 1,
                   max_total: int = DEFAULT_MAX_TOTAL) -> CountRecord:
    """Exact number of permutations of {1..n} avoiding an ordinary pattern."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not pattern.is_permutation:
        raise ValueError(
            "pattern has repeated values; use count_multiset_avoiders")
    return count_multiset_avoiders(MultisetSpec.unit(n), pattern,
                                   workers=workers, max_total=max_total)


def count_multiset_avoiders_bruteforce(spec: MultisetSpec, pattern: Word) -> int:
    """No-pruning reference counter: generate every arrangement and test it
    with the all-subsequences containment check."""
    return sum(1 for w in iter_words(spec)
               if not contains_bruteforce(Word(w), pattern))


def count_avoiders_bruteforce(n: int, pattern: Word) -> int:
    return count_multiset_avoiders_bruteforce(MultisetSpec.unit(n), pattern)


def sequence(pattern: Word, n_max: int, m: int = 1, *, workers: int = 1,
             max_total: int = DEFAULT_MAX_TOTAL) -> list[CountRecord]:
    """Tabulate avoider counts on [n]_m for n = 1..n_max, each computed
    independently."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count_multiset_avoiders(MultisetSpec.regular(n, m), pattern,
                                    workers=workers, max_total=max_total)
            for n in range(1, n_max + 1)]


CSV_FIELDS = ("n", "m", "pattern", "count", "total", "growth")


def records_to_csv(records: Sequence[CountRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_dict())
    return buf.getvalue()


def records_to_json(records: Sequence[CountRecord]) -> str:
    return json.dumps([record.as_dict() for record in records], indent=2)
