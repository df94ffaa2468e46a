"""Words over {1..n} and order-isomorphic pattern containment.

A word is a finite sequence of positive integers whose set of distinct
values has no gaps; permutations are the words without repeated values,
and multiset permutations are words with prescribed value multiplicities.
Containment of a pattern means some subsequence matches it
order-isomorphically, with equal pattern letters matching equal values.

That relation is ordered containment of the position/value incidence
graphs (one edge (i, w_i) per position), so one kernel, `_rows_contain`
over one right-neighbour bitmask per left vertex, decides it here and
decides graph containment in `bigraphs`.

The module also holds the plan that both transfer engines, the counter
in `counting` and the extremal search in `matrices`, share: `_plan` says
how each pattern letter reads the values pinned by the letters before it,
which pins live on, and what room a partial embedding needs to complete,
and `_antichain` keeps the partial embeddings no other one dominates.
"""
from __future__ import annotations

import sys
from collections import namedtuple
from decimal import Decimal
from itertools import combinations
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded, ParseError


class Word(namedtuple("Word", "entries")):
    """A nonempty sequence over {1, ..., max} using every value up to max."""

    __slots__ = ()

    def __new__(cls, entries: Sequence[int]) -> Word:
        entries = tuple(entries)
        if not entries:
            raise ParseError("a word needs at least one entry")
        if any(not isinstance(v, int) or v < 1 for v in entries):
            raise ParseError("word entries must be integers >= 1")
        values = set(entries)
        top = max(values)
        if len(values) != top:
            # name the first five missing values and how many more: the cost
            # follows the word's length, not its largest entry
            missing: list[int] = []
            below = 0
            for v in sorted(values):
                missing += range(below + 1, min(v, below + 6 - len(missing)))
                below = v
            more = top - len(values) - len(missing)
            raise ParseError(f"word value set has gaps: missing {missing}"
                             + (f" and {more} more" if more else ""))
        return super().__new__(cls, entries)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "23718465" (digits, values <= 9) or "10,2,3" (comma form)."""
        text = text.strip()
        if not text:
            raise ParseError("empty word")
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
            if any(not p.isdecimal() for p in parts):
                raise ParseError(f"not a comma-separated word: {text!r}")
            # no entry of a gap-free word exceeds its length, so a longer
            # one is refused before int() meets a long digit string
            digits = [p.lstrip("0") or "0" for p in parts]
            if any(len(d) > len(str(len(parts))) for d in digits):
                raise ParseError(
                    f"an entry exceeds the word length {len(parts)}")
            values = tuple(int(d) for d in digits)
        elif text.isdecimal():
            values = tuple(int(ch) for ch in text)
        else:
            raise ParseError(f"not a word: {text!r}")
        return cls(values)

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def max_value(self) -> int:
        return max(self.entries)

    @property
    def is_permutation(self) -> bool:
        return len(set(self.entries)) == len(self.entries)

    def __str__(self) -> str:
        if self.max_value <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)


class MultisetSpec(namedtuple("MultisetSpec", "multiplicities")):
    """The ground multiset {1^m1, ..., n^mn}, given by its multiplicities."""

    __slots__ = ()

    def __new__(cls, multiplicities: Sequence[int]) -> MultisetSpec:
        mults = tuple(multiplicities)
        if not mults:
            raise ParseError("a multiset spec needs n >= 1 values")
        if any(not isinstance(m, int) or m < 1 for m in mults):
            raise ParseError("multiplicities must be integers >= 1")
        return super().__new__(cls, mults)

    @classmethod
    def regular(cls, n: int, m: int) -> "MultisetSpec":
        return cls((m,) * n)

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


def canonical_form(seq: Sequence[int]) -> tuple[int, ...]:
    """Dense ranks starting at 1: the unique gap-free word order-isomorphic
    to seq, preserving relative order and equalities (e.g. 7,1,4 -> 3,1,2)."""
    rank = {v: i for i, v in enumerate(sorted(set(seq)), start=1)}
    return tuple(rank[v] for v in seq)


def _decimal(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    str(int) refuses values past the interpreter's digit limit (4300
    digits by default); Decimal conversion is exact and not limited.
    """
    return str(Decimal(value))


def reverse(word: Word) -> Word:
    return Word(word.entries[::-1])


def complement(word: Word) -> Word:
    """Map each value v to max+1-v."""
    top = word.max_value + 1
    return Word(tuple(top - v for v in word.entries))


# Frames of the interpreter's recursion limit left to the kernel's callers;
# pytest runs a test about 35 frames deep.
_CALLER_FRAMES = 100


def _rows_contain(rows: list[int], pb: int,
                  nbrs: tuple[tuple[int, ...], ...],
                  qb: int, edges: int) -> list[int] | None:
    """Ordered containment of Q in P: the 0-based images of Q's left
    vertices, or None.  P is one right-neighbour bitmask per left vertex
    (bit j of rows[u] is the edge (u+1, j+1)) on pb right vertices; Q is
    the ascending 0-indexed right neighbours of each left vertex on qb
    right vertices, `edges` of them in all.  The search nests about two
    calls per left vertex of Q and one per edge, so a Q that would pass
    the recursion limit is refused before it starts.

    Backtracks over Q's left vertices in order, each over P's left
    vertices in increasing order.  Right images are pinned lazily: a pinned
    right vertex is one bit test, and an unpinned one takes its candidates
    from the set bits of the row inside a window that leaves room for the
    right vertices between it and its nearest pinned neighbours (or the
    ends) on either side.  The list of left images is made only once the
    search has succeeded, and filled in as it returns, so a failed search
    pays nothing for it.
    """
    pn, qn = len(rows), len(nbrs)
    if qn > pn or qb > pb:
        return None
    limit = sys.getrecursionlimit() - _CALLER_FRAMES
    if 2 * qn + edges > limit:
        raise BudgetExceeded(
            f"containment search limited to 2*rows + edges <= {limit} "
            f"for a pattern (got {qn} rows and {edges} edges)")
    img = [-1] * qb
    slack = pb - qb

    def place(v: int, min_u: int) -> list[int] | None:
        if v == qn:
            return [-1] * qn
        ws = nbrs[v]
        for u in range(min_u, pn - qn + v + 1):
            if left := bind(rows[u], ws, 0, v, u):
                left[v] = u
                return left
        return None

    def bind(row: int, ws: tuple[int, ...], idx: int, v: int,
             u: int) -> list[int] | None:
        if idx == len(ws):
            return place(v + 1, u + 1)
        w = ws[idx]
        pinned = img[w]
        if pinned >= 0:
            return bind(row, ws, idx + 1, v, u) if row >> pinned & 1 else None
        lo, k = w, w - 1
        while k >= 0:
            if img[k] >= 0:
                lo = img[k] + w - k
                break
            k -= 1
        hi, k = slack + w, w + 1
        while k < qb:
            if img[k] >= 0:
                hi = img[k] - k + w
                break
            k += 1
        if hi < lo:
            return None
        cands = row >> lo & ((2 << (hi - lo)) - 1)
        while cands:
            low = cands & -cands
            img[w] = lo + low.bit_length() - 1
            if left := bind(row, ws, idx + 1, v, u):
                return left
            cands ^= low
        img[w] = -1
        return None

    return place(0, 0)


# --- the pattern plan and dominance between partial embeddings ---------------
#
# The row-transfer extremal engine and the frontier-state counter both keep
# partial embeddings of a pattern, given as 0-based ranks (repeats allowed).
# An embedding that has matched the first t letters keeps one pin per live
# rank: a rank pinned by those letters that a later letter reads, in
# increasing rank.  A later letter whose rank is pinned must take that pin's
# value exactly; any other reads the nearest pinned ranks below and above it
# as the lower and upper ends of its window.  The embedding can complete only
# while the unpinned ranks between neighbouring pins (or a pin and an end) fit
# between them, the room rule, and recurring ranks have copies left.  At equal
# progress, how the rest of the pattern reads a pin decides which value of it
# is better: one read only as a lower end is better smaller, one read only as
# an upper end better larger, and any other must match exactly.  `_plan` works
# this out once per pattern for both engines.

_LO, _HI, _BOTH = 1, 2, 3


class _Step(NamedTuple):
    """What an embedding that has matched t pattern letters needs to
    complete and does with letter t; every index points into its live pins."""

    at: int | None          # the pin of letter t's rank, if already pinned
    lo: int | None          # else the pins of the nearest pinned ranks below
    hi: int | None          # and above it (None: no such rank)
    keep: tuple[int, ...]   # indices into pins + (letter t's value,) kept
    role: int               # how later letters read letter t's rank (0: never)
    recur: tuple            # (pin, letters of its rank due) if rank recurs
    gaps: tuple             # (pin below, pin above, ranks unpinned between)


def _plan(ranks: Sequence[int]) -> tuple[tuple[_Step, ...], tuple]:
    """One _Step per letter of the pattern `ranks`, and per t = 0..k the
    roles of the live ranks after t letters, in increasing rank."""
    k, top = len(ranks), max(ranks) + 1
    # first[s]: the letter that pins rank s; due[s]: letters of rank s left
    first, due = [k] * top, [0] * top
    for t in range(k - 1, -1, -1):
        first[ranks[t]] = t
        due[ranks[t]] += 1
    # per letter, the pinned ranks it reads as (exact, lower end, upper
    # end); reads[t][s]: how letters t.. read rank s (0: never)
    ends: list = [None] * k
    reads = [None] * k + [[0] * top]
    for t in range(k - 1, -1, -1):
        r = ranks[t]
        if first[r] < t:
            ends[t] = (r, None, None)
        else:
            lo, hi = r - 1, r + 1
            while lo >= 0 and first[lo] >= t:
                lo -= 1
            while hi < top and first[hi] >= t:
                hi += 1
            ends[t] = (None, lo if lo >= 0 else None, hi if hi < top else None)
        reads[t] = read = reads[t + 1][:]
        for s, role in zip(ends[t], (_BOTH, _LO, _HI)):
            if s is not None:
                read[s] |= role
    # one scan over the ranks per t finds the live ranks (pinned before
    # letter t, read by a later one) and their indices, the recurring ones
    # among them, and the unpinned ranks between neighbouring live ranks
    # (or an end)
    roles, index, recur, gaps = [], [], [], []
    for t in range(k + 1):
        read = reads[t]
        role, pos, due_at, room = [], {}, [], []
        below, free = None, 0
        for s in range(top):
            if first[s] >= t:
                free += 1
            elif read[s]:
                i = len(role)
                if free:
                    room.append((below, i, free))
                below, free = i, 0
                if due[s]:
                    due_at.append((i, due[s]))
                pos[s] = i
                role.append(read[s])
        if free:
            room.append((below, None, free))
        roles.append(tuple(role))
        index.append(pos)
        recur.append(tuple(due_at))
        gaps.append(tuple(room))
        if t < k:
            due[ranks[t]] -= 1
    steps = []
    for t, r in enumerate(ranks):
        pos = index[t]
        steps.append(_Step(
            *[None if s is None else pos[s] for s in ends[t]],
            tuple([pos.get(s, len(pos)) for s in index[t + 1]]),
            reads[t + 1][r], recur[t], gaps[t]))
    return tuple(steps), tuple(roles)


def _dominates(a: tuple, b: tuple, roles: tuple[int, ...]) -> bool:
    """Can pins `a` complete every continuation that pins `b` (same level)
    can?"""
    return all(x <= y if role == _LO else x >= y if role == _HI else x == y
               for x, y, role in zip(a, b, roles))


def _antichain(level, roles: tuple[int, ...]) -> list:
    """The pins of one level that no other pins of it dominate, sorted.
    Where no pin is read one way only, dominance is equality."""
    if len(level) <= 1 or _LO not in roles and _HI not in roles:
        return sorted(level)
    if roles == (_LO,):
        return [min(level)]
    if roles == (_HI,):
        return [max(level)]
    # a dominating embedding sorts strictly before the ones it dominates
    signed = sorted(level, key=lambda pins: sum(
        -x if role == _HI else x for x, role in zip(pins, roles)))
    kept: list = []
    for pins in signed:
        if not any(_dominates(other, pins, roles) for other in kept):
            kept.append(pins)
    return sorted(kept)


def _occurrence(word: Word, pattern: Word) -> list[int] | None:
    """0-based positions of the lexicographically smallest occurrence, found
    by `_rows_contain` on the two position/value incidence graphs: a pinned
    right vertex forces equal pattern letters onto equal values.  Each row
    has one bit, so the positions fix the values and the search meets the
    occurrences in lexicographic order."""
    return _rows_contain([1 << (v - 1) for v in word.entries],
                         word.max_value,
                         tuple((v - 1,) for v in pattern.entries),
                         pattern.max_value, pattern.length)


def contains(word: Word, pattern: Word) -> bool:
    """Does some subsequence of word match pattern order-isomorphically?

    Equal pattern letters must be represented by equal word values at
    distinct positions; e.g. 1214324 contains 122 (via 1,4,4) but not 211.
    """
    return _occurrence(word, pattern) is not None


def find_occurrence(word: Word, pattern: Word) -> tuple[int, ...] | None:
    """1-indexed positions of the lexicographically smallest occurrence of
    pattern in word, or None."""
    hit = _occurrence(word, pattern)
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
        raise ParseError(f"k must be in 1..{word.length}, got {k}")
    return {Word(form) for form in
            {canonical_form(sub) for sub in set(combinations(word.entries, k))}}
