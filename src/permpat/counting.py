"""Exact counting of pattern-avoiding words and reference formulas.

Counts come from a forward dynamic program over frontier states.  How
many avoiding completions a prefix has depends only on the letters it
leaves and on its partial occurrences of the pattern, with their pinned
values re-coded relative to the values still available.  The counter
keeps one layer of such states per prefix length, each with the number
of prefixes that reach it, and appends only letters that complete no
occurrence (containment is monotone under appending entries).  A state
keeps only the partial occurrences no other one dominates, and each
partial occurrence's moves are computed once per layer.  Slow
no-pruning counters are kept alongside as independent references.
"""
from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .errors import BudgetExceeded, ParseError
from .words import (_HI, _LO, MultisetSpec, Word, _antichain, _plan,
                    canonical_form, contains_bruteforce)

# Upper bound on the number of arrangements an exact count may range over.
DEFAULT_MAX_TOTAL = 10_000_000
# Upper bound on the length of a counted multiset.  The counter runs one
# layer per letter, and DEFAULT_MAX_TOTAL alone admits any length when the
# multiset has one value, or one value and a singleton (at most length
# arrangements).  At the cap the slowest count measured took about 3 s
# (Python 3.11, 2 vCPUs): (1, 99999) against 2121.
_MAX_LAYERS = 100_000


class CountWork(NamedTuple):
    """What one count cost the engine, in deterministic units."""

    layers: int       # letters placed, one layer of states each
    peak_states: int  # most states in one layer
    transitions: int  # (state, letter) successors built over all layers


class CountRecord(namedtuple("CountRecord",
                             "spec pattern count total work")):
    """One exact counting result over a fixed multiset and pattern, with
    the engine's work (zero when the engine did not make the record)."""

    __slots__ = ()

    def __new__(cls, spec: MultisetSpec, pattern: Word, count: int,
                total: int, work: CountWork = CountWork(0, 0, 0)) -> CountRecord:
        # the engine produced the count, so a bad one is an internal fault
        if not 0 <= count <= total:
            raise ArithmeticError(f"count {count} outside 0..{total}")
        return super().__new__(cls, spec, pattern, count, total, work)

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
            **self.work._asdict(),
        }


def catalan(n: int) -> int:
    """The n-th Catalan number, (1/(n+1)) * C(2n, n)."""
    if n < 0:
        raise ParseError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def total_words(spec: MultisetSpec) -> int:
    """Multinomial count of all arrangements: length! / (m_1! * ... * m_n!),
    formed as a product of binomials, none larger than the result."""
    value, placed = 1, 0
    for m in spec.multiplicities:
        placed += m
        value *= math.comb(placed, m)
    return value


def _guard_layers(length: int) -> None:
    """Refuse a multiset longer than _MAX_LAYERS letters."""
    if length > _MAX_LAYERS:
        raise BudgetExceeded(
            f"{length} letters exceed the counting cap of {_MAX_LAYERS} "
            "layers")


def regular_spec(n: int, m: int) -> MultisetSpec:
    """The regular multiset [n]_m.  n and m are judged on a spec of at most
    one value, and n*m against the layer cap, before its n entries are
    built, so a huge n costs nothing to refuse."""
    MultisetSpec.regular(min(n, 1), m)
    _guard_layers(n * m)
    return MultisetSpec.regular(n, m)


def _budgeted_total(spec: MultisetSpec) -> int:
    """total_words(spec), or a refusal judged from logarithms before it is
    formed, with a margin so lgamma's rounding never refuses a fit total.
    A multiset longer than _MAX_LAYERS is refused before any of that."""
    _guard_layers(spec.length)
    top = math.lgamma(spec.length + 1)
    log_total = top - math.fsum(math.lgamma(m + 1)
                                for m in spec.multiplicities)
    if (log_total > math.log(DEFAULT_MAX_TOTAL) + 1e-9 * (1 + top)
            or (total := total_words(spec)) > DEFAULT_MAX_TOTAL):
        raise BudgetExceeded(
            f"about 10^{log_total / math.log(10):.1f} arrangements exceed "
            f"the counting budget of {DEFAULT_MAX_TOTAL}")
    return total


def stirling_count(n: int, m: int) -> int:
    """Number of words on the regular multiset [n]_m avoiding 212.

    Evaluates n! * m**n * binom(n-1+1/m, n) in exact rational arithmetic;
    the fractional binomial makes floating point unacceptable here.
    """
    if n < 1 or m < 1:
        raise ParseError("n and m must be >= 1")
    x = Fraction(1, m) + (n - 1)
    binom = Fraction(1)
    for i in range(n):
        binom *= x - i
    binom /= math.factorial(n)
    value = math.factorial(n) * m**n * binom
    if value.denominator != 1:
        raise ArithmeticError(f"closed form gave a non-integer at n={n}, m={m}")
    return int(value)


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
# matched the first t pattern letters and keeps one pin per live rank, in the
# layout of `words._plan`.  A pin codes its value relative to the values still
# available, a_0 < ... < a_(m-1): 2j+1 is "equal to a_j" and 2j is "strictly
# between a_(j-1) and a_j", so a window with no pin below starts at a_0 and
# one with no pin above ends past a_(m-1).  A state is the remaining
# multiplicities of the available values plus the frozenset of live
# embeddings (the empty one is implicit); prefixes of one length that reach
# the same state have the same avoiding completions.
#
# Only an antichain of embeddings is kept.  At equal t, the later pattern
# letters read a pin as the lower end of a window, as its upper end, or
# exactly (both ends, or a recurring rank), and an embedding at least as good
# on every pin (lower ends no higher, upper ends no lower, the rest equal) can
# complete every occurrence the other can, so the other adds nothing.  Within
# a layer one embedding appears in many states, so its moves (per letter, the
# embeddings it becomes, or None where the letter completes an occurrence)
# are computed once per (available values, embedding) and states take unions.
#
# Each embedding a state holds passes the filters (`_fits`: recurring pins
# have copies left, and the room rule) for that state's multiplicities, since
# `moves` filters every embedding it leaves and the antichain only drops
# some.  So a letter re-checks only what it changes.  While its value stays
# available, an embedding it keeps has the same codes and the same number of
# available values, and fails only if a recurring pin sits on that value with
# no copy to spare.  Grown embeddings, and kept ones the letter re-codes
# because its value runs out, run the full filter.


def _fits(code: tuple[int, ...], after: tuple[int, ...], recur: tuple,
          gaps: tuple) -> bool:
    """Can an embedding with pins `code` still complete on the
    multiplicities `after`?  A pinned rank that recurs needs enough copies
    of its value, and the room rule: the unpinned ranks between two pins
    (or a pin and an end) need as many distinct available values."""
    for i, due in recur:
        c = code[i]
        if not c & 1 or after[c >> 1] < due:
            return False
    m = len(after)
    for a, b, free in gaps:
        if ((m if b is None else code[b] >> 1)
                - (0 if a is None else (code[a] + 1) >> 1) < free):
            return False
    return True


class _Engine:
    """Layer-by-layer count of the arrangements avoiding one pattern."""

    def __init__(self, pattern: Sequence[int]):
        ranks = tuple(r - 1 for r in canonical_form(pattern))  # 0-based
        self.steps, self.roles = _plan(ranks)
        # per level, the two filters `_fits` runs on grown and re-coded
        # embeddings
        self.recur = tuple(step.recur for step in self.steps)
        self.gaps = tuple(step.gaps for step in self.steps)
        # where no pin is read one way only, dominance is equality, which
        # the frozenset of a state already gives
        self.ordered = any(_LO in role or _HI in role for role in self.roles)
        # this layer's memos: avail -> (letters(avail), {embedding: moves}),
        # and each union of moves -> its antichain
        self.memo: dict[tuple, tuple] = {}
        self.antichains: dict[frozenset, frozenset] = {}
        self.work = CountWork(0, 0, 0)  # of the last count

    def letters(self, avail: tuple[int, ...]) -> tuple:
        """Per letter a_j, the multiplicities it leaves and the re-coding
        of pins: None while a_j stays available, else a_j's code and the
        gaps beside it become gap 2j and the codes above it move down
        by 2."""
        m = len(avail)
        afters, recodes = [], []
        for j, left in enumerate(avail):
            if left > 1:
                afters.append(avail[:j] + (left - 1,) + avail[j + 1:])
                recodes.append(None)
            else:
                x = 2 * j + 1
                afters.append(avail[:j] + avail[j + 1:])
                recodes.append((*range(x), x - 1, x - 1,
                                *range(x, 2 * m - 1)))
        return afters, recodes

    def moves(self, avail: tuple[int, ...], letters: tuple,
              t: int, pins: tuple[int, ...]) -> tuple:
        """Per available value a_j: None when appending it completes an
        occurrence through (t, pins), else the embeddings (t, pins) leaves
        after it, kept and grown, that can still complete."""
        steps = self.steps
        k = len(steps)
        afters, recodes = letters
        left = sum(avail) - 1
        at, lo, hi, keep = steps[t][:4]
        if at is not None:
            first = pins[at] >> 1  # the code is odd: dead pins are dropped
            last = first + 1
        else:
            first = 0 if lo is None else (pins[lo] + 1) >> 1
            last = len(avail) if hi is None else pins[hi] >> 1
        # the empty embedding is implicit in every state
        kept = t and k - t <= left
        if kept:
            recur, gaps = self.recur[t], self.gaps[t]
            # (t, pins) fits avail, so while a letter's value stays
            # available only a recurring pin on it with no copy to spare
            # can fail
            short = [pins[i] >> 1 for i, due in recur
                     if avail[pins[i] >> 1] == due]
        grows = t + 1 < k and k - t - 1 <= left
        if grows:
            recur1, gaps1 = self.recur[t + 1], self.gaps[t + 1]
        out = []
        for j, (after, recode) in enumerate(zip(afters, recodes)):
            live = []
            if kept:
                if recode is None:
                    if j not in short:
                        live.append((t, pins))
                elif _fits(code := tuple(map(recode.__getitem__, pins)),
                           after, recur, gaps):
                    live.append((t, code))
            if first <= j < last:
                if t + 1 == k:
                    out.append(None)
                    continue
                if grows:
                    code = tuple([(*pins, 2 * j + 1)[i] for i in keep])
                    if recode is not None:
                        code = tuple(map(recode.__getitem__, code))
                    if _fits(code, after, recur1, gaps1):
                        live.append((t + 1, code))
            out.append(tuple(live))
        return tuple(out)

    def successors(self, avail: tuple[int, ...],
                   embeddings: frozenset) -> list[tuple[tuple, frozenset]]:
        """The state after each available value a_j whose appending
        completes no occurrence, in increasing j."""
        entry = self.memo.get(avail)
        if entry is None:
            entry = self.memo[avail] = (self.letters(avail), {})
        letters, known = entry
        per = []
        for emb in ((0, ()), *embeddings):
            moves = known.get(emb)
            if moves is None:
                moves = known[emb] = self.moves(avail, letters, *emb)
            per.append(moves)
        ordered, undominated = self.ordered, self.undominated
        out = []
        for after, embs in zip(letters[0], zip(*per)):
            if None in embs:
                continue
            live = frozenset().union(*embs)
            if ordered and len(live) > 1:
                live = undominated(live)
            out.append((after, live))
        return out

    def undominated(self, live: frozenset) -> frozenset:
        """The antichain of `live`: at each t whose pins are read in
        order, the embeddings no other one there dominates."""
        known = self.antichains.get(live)
        if known is None:
            levels: dict[int, list] = {}
            for t, pins in live:
                levels.setdefault(t, []).append(pins)
            kept = []
            for t, level in levels.items():
                if len(level) > 1:
                    level = _antichain(level, self.roles[t])
                kept.extend((t, pins) for pins in level)
            known = self.antichains[live] = frozenset(kept)
        return known

    def count(self, avail: tuple[int, ...]) -> int:
        """Avoiding arrangements of the multiset with multiplicities
        avail; each layer maps a state to the number of prefixes that
        reach it.  Its work is left in self.work."""
        successors = self.successors
        layer = {(avail, frozenset()): 1}
        layers, peak, transitions = sum(avail), 1, 0
        for _ in range(layers):
            self.memo, self.antichains = {}, {}
            nxt: dict = {}
            for state, ways in layer.items():
                after = successors(*state)
                transitions += len(after)
                for state_after in after:
                    nxt[state_after] = nxt.get(state_after, 0) + ways
            layer = nxt
            peak = max(peak, len(layer))
        self.memo, self.antichains = {}, {}
        self.work = CountWork(layers, peak, transitions)
        return sum(layer.values())


def count_multiset_avoiders(spec: MultisetSpec, pattern: Word, *,
                            workers: int = 1) -> CountRecord:
    """Exact number of arrangements of the multiset avoiding the pattern.

    The count runs in this process.  `workers` is validated (it must be at
    least 1) but selects nothing: it stays only for callers that still pass
    it, and goes once the benchmark's count jobs stop passing workers=2
    (ROADMAP item 1).
    """
    if workers < 1:
        raise ParseError(f"workers must be >= 1, got {workers}")
    total = _budgeted_total(spec)
    engine = _Engine(pattern.entries)
    count = engine.count(spec.multiplicities)
    return CountRecord(spec=spec, pattern=pattern, count=count, total=total,
                       work=engine.work)


def count_avoiders(n: int, pattern: Word, *, workers: int = 1) -> CountRecord:
    """Exact number of permutations of {1..n} avoiding an ordinary pattern.

    `workers` is validated but selects nothing, as in
    count_multiset_avoiders.
    """
    if n < 1:
        raise ParseError("n must be >= 1")
    if not pattern.is_permutation:
        raise ParseError(
            "pattern has repeated values; use count_multiset_avoiders")
    return count_multiset_avoiders(regular_spec(n, 1), pattern,
                                   workers=workers)


def count_multiset_avoiders_bruteforce(spec: MultisetSpec, pattern: Word) -> int:
    """No-pruning reference counter: generate every arrangement and test it
    with the all-subsequences containment check."""
    return sum(1 for w in iter_words(spec)
               if not contains_bruteforce(Word(w), pattern))


def sequence(pattern: Word, n_max: int, m: int = 1) -> list[CountRecord]:
    """Tabulate avoider counts on [n]_m for n = 1..n_max, each computed
    independently, once the budget has passed at n_max, the largest total."""
    if n_max < 1:
        raise ParseError("n_max must be >= 1")
    _budgeted_total(regular_spec(n_max, m))
    return [count_multiset_avoiders(MultisetSpec.regular(n, m), pattern)
            for n in range(1, n_max + 1)]


CSV_FIELDS = ("n", "m", "pattern", "count", "total", "growth",
              *CountWork._fields)


def records_to_csv(records: Sequence[CountRecord]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_dict())
    return buf.getvalue()


def records_to_json(records: Sequence[CountRecord]) -> str:
    return json.dumps([record.as_dict() for record in records], indent=2)
