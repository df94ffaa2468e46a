"""Exact counting of pattern-avoiding words and reference formulas.

Counts come from a forward dynamic program over frontier states.  How
many avoiding completions a prefix has depends only on the letters it
leaves and on its partial occurrences of the pattern, with their pinned
values re-coded relative to the values still available.  The counter
keeps one layer of such states per prefix length, each with the number
of prefixes that reach it, and appends only letters that complete no
occurrence (containment is monotone under appending entries).  Slow
no-pruning counters are kept alongside as independent references.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded
from .words import MultisetSpec, Word, _ranks, contains_bruteforce

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


# --- frontier-state engine ---------------------------------------------------
#
# A prefix matters to its completions only through the letters it leaves and
# the partial occurrences of the pattern it holds.  An embedding (t, pins) has
# matched the first t pattern letters; pins[r] codes the value pinned to
# pattern rank r relative to the values still available, a_0 < ... < a_(m-1):
# 2j+1 is "equal to a_j" and 2j is "strictly between a_(j-1) and a_j".  Ranks
# that are unpinned, or pinned but never read again, hold -1.  Two sentinels
# close every window: pins[-2] = 2m+1 lies above every value and pins[-1] = -1
# below.  A state is the remaining multiplicities of the available values
# plus the frozenset of live embeddings (the empty one is implicit); prefixes
# of one length that reach the same state have the same avoiding completions.


class _Step(NamedTuple):
    """What an embedding that has matched t pattern letters does next."""

    rank: int                # rank of pattern letter t
    pinned: bool             # rank already pinned: the letter must equal it
    lo: int                  # else the nearest pinned ranks below and above
    hi: int                  # it, or the sentinels where there is none
    forget: tuple[int, ...]  # pins that no test reads after this letter
    # (pinned rank, letters of that rank still to match)
    recur: tuple[tuple[int, int], ...]
    # (lower rank, upper rank, unpinned ranks strictly between)
    gaps: tuple[tuple[int, int, int], ...]


class _Engine:
    """Layer-by-layer count of the arrangements avoiding one pattern."""

    def __init__(self, pattern: Sequence[int]):
        ranks, nranks = _ranks(pattern)
        k = len(ranks)
        top, bottom = nranks, -1

        def window(t: int, r: int) -> tuple[int, int]:
            pinned = ranks[:t]
            return (max((s for s in pinned if s < r), default=bottom),
                    min((s for s in pinned if s > r), default=top))

        # needed[t]: ranks pinned by the first t letters that a later test reads
        needed: list[set[int]] = [set() for _ in range(k + 1)]
        for t in range(k - 1, -1, -1):
            r = ranks[t]
            reads = {r} if r in ranks[:t] else set(window(t, r))
            needed[t] = (needed[t + 1] | reads) & set(ranks[:t])
        steps = []
        for t, r in enumerate(ranks):
            pinned, due = ranks[:t], ranks[t:]
            ends = [bottom, *sorted(needed[t]), top]
            steps.append(_Step(
                r, r in pinned, *window(t, r),
                forget=tuple(sorted((needed[t] | {r}) - needed[t + 1])),
                recur=tuple((s, due.count(s))
                            for s in sorted(set(pinned) & set(due))),
                gaps=tuple(
                    (a, b, free) for a, b in zip(ends, ends[1:])
                    if (free := sum(s not in pinned
                                    for s in range(a + 1, b))))))
        self.steps = tuple(steps)
        self.unpinned = (-1,) * nranks

    def successors(self, avail: tuple[int, ...],
                   embeddings: frozenset) -> list[tuple[int, tuple]]:
        """(j, state) for each available value a_j whose appending completes
        no occurrence, in increasing j."""
        steps, k = self.steps, len(self.steps)
        m = len(avail)
        letters = sum(avail) - 1
        # the letters each embedding extends on, as a range j in [first, last)
        banned: set[int] = set()
        grows = []
        for t, pins in ((0, self.unpinned + (2 * m + 1, -1)), *embeddings):
            r, pinned, lo, hi, forget, _, _ = steps[t]
            if pinned:
                first = pins[r] >> 1  # the code is odd: dead pins are dropped
                last = first + 1
            else:
                first, last = (pins[lo] + 1) >> 1, pins[hi] >> 1
            if t + 1 == k:
                banned.update(range(first, last))
            elif k - t - 1 <= letters and first < last:
                grows.append((first, last, pins, r, forget, t + 1))
        kept = [(t, pins) for t, pins in embeddings if k - t <= letters]
        out = []
        for j in range(m):
            if j in banned:
                continue
            x = 2 * j + 1
            grown = set(kept)
            for first, last, pins, r, forget, grown_t in grows:
                if first <= j < last:
                    new = list(pins)
                    new[r] = x
                    for s in forget:
                        new[s] = -1
                    grown.add((grown_t, tuple(new)))
            left = avail[j] - 1
            if left:
                after = avail[:j] + (left,) + avail[j + 1:]
            else:
                # a_j is used up: its code and the gaps beside it become gap
                # 2j, and the codes above it move down by 2
                after = avail[:j] + avail[j + 1:]
                recode = [*range(x), x - 1, x - 1, *range(x, 2 * m), -1]
                grown = {(t, tuple(map(recode.__getitem__, pins)))
                         for t, pins in grown}
            live = []
            for t, pins in grown:
                _, _, _, _, _, recur, gaps = steps[t]
                # a pinned rank that recurs needs enough copies of its value
                if any(not pins[s] & 1 or after[pins[s] >> 1] < due
                       for s, due in recur):
                    continue
                # unpinned ranks need distinct available values in their window
                if any(pins[b] // 2 - (pins[a] + 1) // 2 < free
                       for a, b, free in gaps):
                    continue
                live.append((t, pins))
            out.append((j, (after, frozenset(live))))
        return out

    def count(self, avail: tuple[int, ...],
              embeddings: frozenset = frozenset()) -> int:
        """Avoiding completions of one state; each layer maps a state to
        the number of prefixes that reach it."""
        successors = self.successors
        layer = {(avail, embeddings): 1}
        for _ in range(sum(avail)):
            nxt: dict = {}
            for state, ways in layer.items():
                for _, after in successors(*state):
                    nxt[after] = nxt.get(after, 0) + ways
            layer = nxt
        return sum(layer.values())


@lru_cache(maxsize=128)
def _engine(pattern: tuple[int, ...]) -> _Engine:
    """One engine per pattern, reused across the counts of a table."""
    return _Engine(pattern)


def count_multiset_avoiders(spec: MultisetSpec, pattern: Word, *,
                            workers: int = 1,
                            max_total: int = DEFAULT_MAX_TOTAL) -> CountRecord:
    """Exact number of arrangements of the multiset avoiding the pattern.

    The count runs in this process.  `workers` is validated (it must be at
    least 1) but selects nothing: it stays only for callers that still pass
    it, and goes once the benchmark's count jobs stop passing workers=2
    (ROADMAP item 1).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total = total_words(spec)
    if total > max_total:
        raise BudgetExceeded(
            f"{total} arrangements exceed the counting budget of {max_total}")
    count = _engine(pattern.entries).count(spec.multiplicities)
    return CountRecord(spec=spec, pattern=pattern, count=count, total=total)


def count_avoiders(n: int, pattern: Word, *, workers: int = 1,
                   max_total: int = DEFAULT_MAX_TOTAL) -> CountRecord:
    """Exact number of permutations of {1..n} avoiding an ordinary pattern.

    `workers` is validated but selects nothing, as in
    count_multiset_avoiders.
    """
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


def sequence(pattern: Word, n_max: int, m: int = 1, *,
             max_total: int = DEFAULT_MAX_TOTAL) -> list[CountRecord]:
    """Tabulate avoider counts on [n]_m for n = 1..n_max, each computed
    independently."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [count_multiset_avoiders(MultisetSpec.regular(n, m), pattern,
                                    max_total=max_total)
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
