"""Words over {1..n} and order-isomorphic pattern containment.

A word is a finite sequence of positive integers whose set of distinct
values has no gaps; permutations are the words without repeated values,
and multiset permutations are words with prescribed value multiplicities.
Containment of a pattern means some subsequence matches it
order-isomorphically, with equal pattern letters matching equal values.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import ParseError


@dataclass(frozen=True, order=True)
class Word:
    """A nonempty sequence over {1, ..., max} using every value up to max."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ValueError("a word needs at least one entry")
        if any(not isinstance(v, int) or v < 1 for v in entries):
            raise ValueError("word entries must be integers >= 1")
        values = set(entries)
        top = max(values)
        if len(values) != top:
            missing = sorted(set(range(1, top + 1)) - values)
            raise ValueError(f"word value set has gaps: missing {missing}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "23718465" (digits, values <= 9) or "10,2,3" (comma form)."""
        text = text.strip()
        if not text:
            raise ParseError("empty word")
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
            if any(not p.isdigit() for p in parts):
                raise ParseError(f"not a comma-separated word: {text!r}")
            values = tuple(int(p) for p in parts)
        elif text.isdigit():
            values = tuple(int(ch) for ch in text)
        else:
            raise ParseError(f"not a word: {text!r}")
        try:
            return cls(values)
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def max_value(self) -> int:
        return max(self.entries)

    @property
    def is_permutation(self) -> bool:
        return len(set(self.entries)) == len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self) -> str:
        if self.max_value <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)


@dataclass(frozen=True, order=True)
class MultisetSpec:
    """The ground multiset {1^m1, ..., n^mn}, given by its multiplicities."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        mults = tuple(self.multiplicities)
        object.__setattr__(self, "multiplicities", mults)
        if not mults:
            raise ValueError("a multiset spec needs n >= 1 values")
        if any(not isinstance(m, int) or m < 1 for m in mults):
            raise ValueError("multiplicities must be integers >= 1")

    @classmethod
    def regular(cls, n: int, m: int) -> "MultisetSpec":
        return cls((m,) * n)

    @classmethod
    def unit(cls, n: int) -> "MultisetSpec":
        """The ordinary set {1, ..., n}."""
        return cls((1,) * n)

    @classmethod
    def from_word(cls, word: Word) -> "MultisetSpec":
        """The multiset a given word is an arrangement of."""
        counts = [0] * word.max_value
        for v in word.entries:
            counts[v - 1] += 1
        return cls(tuple(counts))

    @property
    def n(self) -> int:
        return len(self.multiplicities)

    @property
    def length(self) -> int:
        return sum(self.multiplicities)

    @property
    def is_regular(self) -> bool:
        return len(set(self.multiplicities)) == 1

    def __str__(self) -> str:
        return ",".join(str(m) for m in self.multiplicities)


def validate_word(word: Word, spec: MultisetSpec) -> bool:
    """True iff value i occurs exactly spec.multiplicities[i-1] times."""
    counts = [0] * spec.n
    for v in word.entries:
        if v > spec.n:
            return False
        counts[v - 1] += 1
    return tuple(counts) == spec.multiplicities


def canonical_form(seq: Sequence[int]) -> tuple[int, ...]:
    """Dense ranks starting at 1: the unique gap-free word order-isomorphic
    to seq, preserving relative order and equalities (e.g. 7,1,4 -> 3,1,2)."""
    rank = {v: i for i, v in enumerate(sorted(set(seq)), start=1)}
    return tuple(rank[v] for v in seq)


def canonicalize(subsequence: Word | Sequence[int]) -> Word:
    """Reduce a word or raw subsequence (gaps allowed, e.g. 7,1,4) to the
    gap-free word order-isomorphic to it."""
    entries = (subsequence.entries if isinstance(subsequence, Word)
               else tuple(subsequence))
    return Word(canonical_form(entries))


def reverse(word: Word) -> Word:
    return Word(word.entries[::-1])


def complement(word: Word) -> Word:
    """Map each value v to max+1-v."""
    top = word.max_value + 1
    return Word(tuple(top - v for v in word.entries))


def _ranks(pattern: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """0-based dense ranks of a pattern plus the number of distinct values."""
    order = {v: i for i, v in enumerate(sorted(set(pattern)))}
    return tuple(order[v] for v in pattern), len(order)


def _embed(word: Sequence[int], pattern: Sequence[int]) -> tuple[int, ...] | None:
    """0-based positions of one occurrence of pattern in word, or None.

    Backtracks over pattern positions left to right.  Each distinct pattern
    value gets pinned to one word value; candidates for an unpinned value
    must fall strictly between the nearest pinned smaller and larger values
    (the value window), which also keeps pinned values distinct.
    """
    ranks, nranks = _ranks(pattern)
    k, n = len(pattern), len(word)
    if k > n:
        return None
    pinned: list[int | None] = [None] * nranks
    chosen: list[int] = []

    def search(t: int, start: int) -> bool:
        if t == k:
            return True
        r = ranks[t]
        fixed = pinned[r]
        for i in range(start, n - (k - t) + 1):
            v = word[i]
            if fixed is not None:
                if v != fixed:
                    continue
                chosen.append(i)
                if search(t + 1, i + 1):
                    return True
                chosen.pop()
            else:
                lo = next((pinned[s] for s in range(r - 1, -1, -1)
                           if pinned[s] is not None), 0)
                hi = next((pinned[s] for s in range(r + 1, nranks)
                           if pinned[s] is not None), None)
                if v <= lo or (hi is not None and v >= hi):
                    continue
                pinned[r] = v
                chosen.append(i)
                if search(t + 1, i + 1):
                    return True
                chosen.pop()
                pinned[r] = None
        return False

    return tuple(chosen) if search(0, 0) else None


def contains(word: Word, pattern: Word) -> bool:
    """Does some subsequence of word match pattern order-isomorphically?

    Equal pattern letters must be represented by equal word values at
    distinct positions; e.g. 1214324 contains 122 (via 1,4,4) but not 211.
    """
    return _embed(word.entries, pattern.entries) is not None


def find_occurrence(word: Word, pattern: Word) -> tuple[int, ...] | None:
    """1-indexed positions of one occurrence of pattern in word, or None."""
    hit = _embed(word.entries, pattern.entries)
    if hit is None:
        return None
    return tuple(i + 1 for i in hit)


def contains_bruteforce(word: Word, pattern: Word) -> bool:
    """All-subsequences reference check; independent of the backtracker.

    Exponential in len(word); meant for lengths up to about 8.
    """
    k = pattern.length
    if k > word.length:
        return False
    target = canonical_form(pattern.entries)
    return any(canonical_form(sub) == target
               for sub in combinations(word.entries, k))


def contained_patterns(word: Word, k: int) -> set[Word]:
    """All canonical patterns of length k contained in word."""
    if not 1 <= k <= word.length:
        raise ValueError(f"k must be in 1..{word.length}, got {k}")
    return {Word(form) for form in
            {canonical_form(sub) for sub in set(combinations(word.entries, k))}}
