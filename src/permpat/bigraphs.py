"""Bipartite-graph encodings of words, ordered containment, block
contraction, fiber accounting and the resulting formula bounds.

A word w of length l over {1..n} becomes a graph on ([l],[n]) with one
edge (i, w_i) per position.  Contracting consecutive left-vertex blocks
of sizes m_1..m_n, the multiplicities of a MultisetSpec, yields a graph
on ([n],[right]); an avoiding graph stays avoiding under contraction
when the forbidden pattern is an ordinary permutation, and each
contracted edge over a block of size m is the image of exactly 2^m - 1
edge sets.

Ordered containment runs the kernel that also decides word containment,
`words._rows_contain`, over one right-neighbour bitmask per left vertex.
`ordered_contains` builds those rows from an edge set.  The census of
avoiding graphs rests on one lemma: every left vertex of a permutation's
pattern graph has exactly one edge, so an occurrence uses only non-empty
rows, in order, and deleting a graph's empty rows neither creates nor
destroys one.  With N = n*m, census(n, m, p) = sum_r C(N, r) * A_r,
where A_r counts the avoiding sequences of r non-empty rows.  The walk
appends rows to avoiding sequences and carries, in place of the rows,
the state of the extremal search's row-transfer engine
(`matrices._RowEngine`): the undominated partial occurrences that the
rows left can still complete.  The engine's `blocked` mask holds the
columns where a next row would complete an occurrence.  A next row
avoids exactly when it misses that mask, so the last row is counted as
2^open - 1 and never visited.
"""
from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import combinations
from typing import Iterable, NamedTuple

from .errors import BudgetExceeded, ParseError
from .matrices import BinaryMatrix, _RowClasses, _RowEngine
from .words import MultisetSpec, Word, _rows_contain


class BipartiteGraph(namedtuple("BipartiteGraph",
                                "left_size right_size edges")):
    """Ordered vertex classes [left_size], [right_size] and an edge set."""

    __slots__ = ()

    def __new__(cls, left_size: int, right_size: int,
                edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
        edges = frozenset(edges)
        if left_size < 1 or right_size < 1:
            raise ParseError("vertex classes must be nonempty")
        for i, j in edges:
            if not (1 <= i <= left_size and 1 <= j <= right_size):
                raise ParseError(f"edge ({i},{j}) out of range")
        return super().__new__(cls, left_size, right_size, edges)

    @classmethod
    def from_mask(cls, left_size: int, right_size: int, mask: int) -> "BipartiteGraph":
        """Decode a row-major edge bitset: bit (i-1)*right_size + (j-1)."""
        edges = []
        for bit in range(left_size * right_size):
            if mask >> bit & 1:
                i, j = divmod(bit, right_size)
                edges.append((i + 1, j + 1))
        return cls(left_size, right_size, frozenset(edges))

    def to_text(self) -> str:
        lines = [f"{self.left_size} {self.right_size}"]
        lines += [f"{i} {j}" for i, j in sorted(self.edges)]
        return "\n".join(lines)


def graph_of_word(word: Word, spec: MultisetSpec) -> BipartiteGraph:
    """pattern_graph of a word checked to be an arrangement of spec."""
    if MultisetSpec.from_word(word) != spec:
        raise ParseError(f"{word} is not an arrangement of multiset ({spec})")
    return pattern_graph(word)


def pattern_graph(pattern: Word) -> BipartiteGraph:
    """The position/value incidence graph of a word over its own multiset."""
    edges = frozenset((i, v) for i, v in enumerate(pattern.entries, start=1))
    return BipartiteGraph(pattern.length, pattern.max_value, edges)


def ordered_contains(P: BipartiteGraph, Q: BipartiteGraph) -> bool:
    """Ordered-subgraph containment.

    Looks for order-preserving injections of Q's left and right classes
    into P's mapping every edge of Q onto an edge of P (extra edges of P
    are irrelevant).  P is read as one right-neighbour bitmask per left
    vertex, and the search is `words._rows_contain`.
    """
    rows = [0] * P.left_size
    for i, j in P.edges:
        rows[i - 1] |= 1 << (j - 1)
    return _rows_contain(rows, P.right_size, _neighbour_lists(Q),
                         Q.right_size) is not None


def _neighbour_lists(Q: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Q's right neighbours per left vertex, 0-indexed and ascending."""
    nbrs: list[list[int]] = [[] for _ in range(Q.left_size)]
    for v, w in Q.edges:
        nbrs[v - 1].append(w - 1)
    return tuple(tuple(sorted(ws)) for ws in nbrs)


def ordered_contains_bruteforce(P: BipartiteGraph, Q: BipartiteGraph) -> bool:
    """Reference check trying every pair of injections; sides <= 4 or so."""
    if Q.left_size > P.left_size or Q.right_size > P.right_size:
        return False
    qedges = sorted(Q.edges)
    for f in combinations(range(1, P.left_size + 1), Q.left_size):
        for fp in combinations(range(1, P.right_size + 1), Q.right_size):
            if all((f[v - 1], fp[w - 1]) in P.edges for v, w in qedges):
                return True
    return False


def adjacency(G: BipartiteGraph) -> BinaryMatrix:
    """left_size x right_size 0-1 matrix with 1 exactly at edges."""
    cells = [[0] * G.right_size for _ in range(G.left_size)]
    for i, j in G.edges:
        cells[i - 1][j - 1] = 1
    return BinaryMatrix(tuple(tuple(row) for row in cells))


def graph_of_matrix(M: BinaryMatrix) -> BipartiteGraph:
    """Inverse of adjacency: rows become left vertices, columns right ones."""
    return BipartiteGraph(M.rows, M.cols, frozenset(
        (r, c) for r, row in enumerate(M.cells, start=1)
        for c, v in enumerate(row, start=1) if v))


def contract(G: BipartiteGraph, spec: MultisetSpec) -> BipartiteGraph:
    """Merge consecutive left blocks of sizes m_1..m_n to one vertex each,
    keeping an edge (i, j) when any member of block i had an edge to j."""
    if G.left_size != spec.length:
        raise ParseError(
            f"graph has {G.left_size} left vertices, spec covers {spec.length}")
    block_of = [i for i, m in enumerate(spec.multiplicities, start=1)
                for _ in range(m)]
    edges = frozenset((block_of[i - 1], j) for i, j in G.edges)
    return BipartiteGraph(spec.n, G.right_size, edges)


def fiber_size(Gp: BipartiteGraph, spec: MultisetSpec) -> int:
    """Number of graphs on ([length],[right]) contracting exactly to Gp.

    Each contracted edge (i, j) is the image of any nonempty subset of the
    block-i-to-j edges (2^{m_i} - 1 choices); non-edges force emptiness.
    """
    if Gp.left_size != spec.n:
        raise ParseError(
            f"graph has {Gp.left_size} left vertices, spec contracts to {spec.n}")
    mults = spec.multiplicities
    out = 1
    for i, _ in Gp.edges:
        out *= 2 ** mults[i - 1] - 1
    return out


# Largest n*m*n the census walks.  On Python 3.11.7 (2 vCPUs, busy host)
# the slowest admitted censuses take about 0.02-0.04 s (the 3-patterns on
# (3,2)), 0.008 s (the 4-patterns on (4,1)) and 1.2 ms (12 and 21 on
# (2,6)).  Past the guard the work follows the avoiding sequences of at
# most n*m - 1 non-empty rows, not the cells: 12345 on (5,1) (25 cells)
# visits 954,305 in 1.7 s, 123 and 321 on (3,3) (27 cells) visit 541,281
# in 1.7 s, and 12 on (2,12) (48 cells) visits 576 in 4 ms.
DEFAULT_CENSUS_CELLS = 24


def census_avoiding_graphs(n: int, m: int, pattern: Word) -> int:
    """Count bipartite graphs on ([n*m],[n]) avoiding the pattern's graph.

    Every left vertex of the pattern's graph has exactly one edge, so an
    occurrence maps it onto a non-empty row, and the pattern's rows onto
    non-empty rows in order.  Deleting a graph's empty rows therefore
    neither creates nor destroys an occurrence.  With N = n*m, a graph
    is its sequence of r non-empty rows (each a non-zero n-bit mask) and
    the choice of which r of the N rows they fill, so

        census(n, m, p) = sum_{r=0..N} C(N, r) * A_r,

    where A_r counts the avoiding sequences of r non-empty rows.  Adding
    a row never destroys an occurrence, so the avoiding sequences are
    closed under deleting the last row, and the census walks them from
    the empty sequence, recursing only into children that avoid.  A
    pattern longer than n fits into no graph, so all 2^(n*m*n) graphs
    avoid it.

    The walk reads the pattern's graph as a 0-1 matrix and carries, in
    place of a sequence's rows, the extremal search's state after them.
    `blocked` gives the columns where a next row completes an
    occurrence, so a sequence with o open columns has 2^o - 1 avoiding
    next rows: A_{r+1} = sum_s (2^o(s) - 1) over the avoiding s of
    length r, and the walk visits only sequences of at most N - 1 rows.
    A child's state is its parent's advanced by the effect of its last
    row, folded column by column.
    """
    if n < 1 or m < 1:
        raise ParseError("n and m must be >= 1")
    if not pattern.is_permutation:
        raise ParseError("census pattern must be an ordinary permutation")
    cells = n * m * n
    if cells > DEFAULT_CENSUS_CELLS:
        raise BudgetExceeded(f"census over 2^{cells} graphs exceeds the "
                             f"guard of 2^{DEFAULT_CENSUS_CELLS}")
    if pattern.length > n:
        return 1 << cells
    engine = _RowEngine(n, adjacency(pattern_graph(pattern)).cells)
    full = (1 << n) - 1
    weight = [math.comb(n * m, r) for r in range(n * m + 1)]

    def walk(state: tuple, r: int) -> int:
        """Count the graphs whose non-empty rows are r rows that reach
        state followed by at least one more; r + 1 such rows lie among
        the N rows in C(N, r + 1) ways."""
        free = full & ~engine.blocked(state)
        found = weight[r + 1] * ((1 << free.bit_count()) - 1)
        if r + 1 < n * m:
            rows = _RowClasses(engine, state, n * m - 1 - r)
            row = free
            while row:
                effect = reduce(rows.step, [c for c in rows.cols
                                            if row >> c & 1], rows.none)
                found += walk(rows.after(effect), r + 1)
                row = (row - 1) & free
        return found

    return 1 + walk((), 0)


class Power(namedtuple("Power", "base exponent")):
    """An exact value base**exponent whose exponent may be fractional."""

    __slots__ = ()

    def __new__(cls, base: int, exponent: Fraction) -> Power:
        return super().__new__(cls, base, Fraction(exponent))

    @property
    def value(self) -> int | None:
        if self.exponent.denominator != 1:
            return None
        return self.base ** int(self.exponent)

    def as_dict(self) -> dict:
        value = self.value
        return {
            "base": _decimal(self.base),
            "exponent": _ratio(self.exponent),
            "value": None if value is None else _decimal(value),
        }


def _decimal(value: int) -> str:
    """Exact decimal digits of an integer of any size.

    str(int) refuses values past the interpreter's digit limit (4300
    digits by default); Decimal conversion is exact and not limited.
    """
    return str(Decimal(value))


def _ratio(value: Fraction) -> str:
    """str(value), with its numerator and denominator through _decimal."""
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


class BoundRecord(NamedTuple):
    """Formula bounds for avoiding-graph counts at a given slope d."""

    n: int
    m: int
    d: Fraction
    klazar_bound: Power
    multiset_bound: Power
    e_q: Power

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "d": _ratio(self.d),
            "klazar_bound": self.klazar_bound.as_dict(),
            "multiset_bound": self.multiset_bound.as_dict(),
            "e_q": self.e_q.as_dict(),
        }


# Largest number of decimal digits `bounds` lets a base or a value reach.
# Rendering grows with the square of the digit count: on Python 3.11.7 (2
# vCPUs) one 100,000-digit value is formed and rendered in 0.23 s, and
# `permpat bounds` prints a record at the cap in under 0.7 s.
MAX_BOUND_DIGITS = 100_000


def _guard_digits(name: str, log10_base: float, exponent: Fraction) -> None:
    """Refuse a power whose base or value would pass MAX_BOUND_DIGITS digits,
    judged from logarithms before either is formed."""
    if max(exponent, 1) * Fraction(log10_base) > MAX_BOUND_DIGITS:
        raise BudgetExceeded(
            f"{name}: base or value would pass {MAX_BOUND_DIGITS} digits")


def bounds(n: int, m: int, d) -> BoundRecord:
    """Evaluate 15^(2dn) for balanced avoiding graphs, ((2^m-1)*15^2)^(dn)
    for the multiset side, and the per-symbol constant (2*15^2)^d = 450^d."""
    if n < 1 or m < 1:
        raise ParseError("n and m must be >= 1")
    d = Fraction(d)
    if d < 0:
        raise ParseError("slope d must be >= 0")
    dn = d * n
    _guard_digits("klazar_bound", math.log10(15), 2 * dn)
    # log10(2^m - 1) = m log10(2) + log10(1 - 2^-m); clamping m keeps the
    # float finite, and a clamped base is refused anyway
    _guard_digits("multiset_bound", min(m, 4 * MAX_BOUND_DIGITS)
                  * math.log10(2) + math.log10(1 - 2.0**-m)
                  + math.log10(15**2), dn)
    _guard_digits("e_q", math.log10(2 * 15**2), d)
    return BoundRecord(
        n=n, m=m, d=d,
        klazar_bound=Power(15, 2 * dn),
        multiset_bound=Power((2**m - 1) * 15**2, dn),
        e_q=Power(2 * 15**2, d),
    )
