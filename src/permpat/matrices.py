"""0-1 matrices: pattern containment and the exact extremal function.

A matrix P contains a pattern matrix Q when deleting rows and columns of
P can produce a matrix with a 1 wherever Q has a 1 (extra 1s in P are
fine).  extremal_f computes, by exhaustive branch-and-bound, the largest
number of 1s an n x n matrix can carry while avoiding a permutation
matrix pattern.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import BudgetExceeded, ParseError
from .words import Word


@dataclass(frozen=True, order=True)
class BinaryMatrix:
    """Rectangular 0/1 grid, stored row-major."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cells = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells or not cells[0]:
            raise ValueError("matrix dimensions must be >= 1")
        width = len(cells[0])
        if any(len(row) != width for row in cells):
            raise ValueError("rows must all have the same length")
        if any(cell not in (0, 1) for row in cells for cell in row):
            raise ValueError("entries must be 0 or 1")

    @classmethod
    def parse(cls, text: str) -> "BinaryMatrix":
        """One '0'/'1' line per row; a blank line terminates."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                break
            if set(line) - {"0", "1"}:
                raise ParseError(f"matrix rows must be over '0'/'1': {line!r}")
            rows.append(tuple(int(ch) for ch in line))
        if not rows:
            raise ParseError("empty matrix")
        try:
            return cls(tuple(rows))
        except ValueError as exc:
            raise ParseError(str(exc)) from None

    @classmethod
    def from_ones(cls, rows: int, cols: int,
                  ones: Sequence[tuple[int, int]]) -> "BinaryMatrix":
        """Build from 1-indexed (row, col) positions of the 1-entries."""
        cells = [[0] * cols for _ in range(rows)]
        for r, c in ones:
            cells[r - 1][c - 1] = 1
        return cls(tuple(tuple(row) for row in cells))

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def ones(self) -> int:
        return sum(sum(row) for row in self.cells)

    @property
    def is_permutation_matrix(self) -> bool:
        if self.rows != self.cols:
            return False
        return (all(sum(row) == 1 for row in self.cells)
                and all(sum(col) == 1 for col in zip(*self.cells)))

    def row_strings(self) -> list[str]:
        return ["".join(str(c) for c in row) for row in self.cells]

    def __str__(self) -> str:
        return "\n".join(self.row_strings())


def reverse_rows(M: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(M.cells[::-1])


def reverse_cols(M: BinaryMatrix) -> BinaryMatrix:
    return BinaryMatrix(tuple(row[::-1] for row in M.cells))


def perm_to_matrix(p: Word) -> BinaryMatrix:
    """The permutation matrix with a 1 at (row p(i), column i)."""
    if not p.is_permutation:
        raise ValueError("word has repeated values; not a permutation")
    n = p.length
    cells = [[0] * n for _ in range(n)]
    for i, v in enumerate(p.entries):
        cells[v - 1][i] = 1
    return BinaryMatrix(tuple(tuple(row) for row in cells))


def _cells_contains(pcells: Sequence[Sequence[int]],
                    qcells: Sequence[Sequence[int]]) -> bool:
    """Containment over raw row-major grids.

    Tries every order-preserving row selection; columns are then matched
    greedily left to right, which is exact because a column's fitness
    depends only on the fixed row selection.
    """
    qr, qc = len(qcells), len(qcells[0])
    pr, pc = len(pcells), len(pcells[0])
    if qr > pr or qc > pc:
        return False
    # pattern rows that each pattern column needs covered
    need = [tuple(r for r in range(qr) if qcells[r][c]) for c in range(qc)]
    for rowsel in combinations(range(pr), qr):
        j = 0
        for c in range(qc):
            limit = pc - (qc - 1 - c)
            while j < limit:
                if all(pcells[rowsel[r]][j] for r in need[c]):
                    break
                j += 1
            else:
                break
            j += 1
        else:
            return True
    return False


def _cell_plan(qcells: Sequence[Sequence[int]]) -> tuple:
    """What _occurs_using_cell needs of a permutation pattern: its side k,
    the column s of its last row's 1, and, for the pattern columns left and
    right of s in order, the pattern row holding each column's 1."""
    row_of = {row.index(1): r for r, row in enumerate(qcells)}
    k, s = len(qcells), qcells[-1].index(1)
    return (k, s, tuple(row_of[j] for j in range(s)),
            tuple(row_of[j] for j in range(s + 1, k)))


def _occurs_using_cell(grid: Sequence[Sequence[int]], r: int, c: int,
                       plan: tuple) -> bool:
    """Is there an occurrence of the planned permutation pattern in `grid`
    that puts one of its 1s on cell (r, c)?

    Requires every cell after (r, c) in row-major order to be 0.  Then row
    r is the lowest nonzero row, so the occurrence maps the pattern's last
    row to row r and that row's 1 to column c; its other k-1 rows are
    chosen among rows 0..r-1.  For a fixed choice the columns left of c
    and right of c are matched greedily, as in _cells_contains.
    """
    k, s, left, right = plan
    n = len(grid[r])
    if r < k - 1 or c < s or n - 1 - c < len(right):
        return False
    for rows in combinations(grid[:r], k - 1):
        j = 0
        for i in left:
            row = rows[i]
            while j < c and not row[j]:
                j += 1
            if j == c:
                break
            j += 1
        else:
            j = c + 1
            for i in right:
                row = rows[i]
                while j < n and not row[j]:
                    j += 1
                if j == n:
                    break
                j += 1
            else:
                return True
    return False


def matrix_contains(P: BinaryMatrix, Q: BinaryMatrix) -> bool:
    """Does P contain Q as a submatrix pattern (1s of Q dominated)?"""
    return _cells_contains(P.cells, Q.cells)


@dataclass(frozen=True)
class ExtremalRecord:
    """Exact extremal value with its certifying witness."""

    n: int
    pattern: BinaryMatrix
    value: int
    witness: BinaryMatrix
    slope: Fraction

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.row_strings(),
            "value": self.value,
            "slope": str(self.slope),
            "witness": self.witness.row_strings(),
        }


# Exhaustive search guards, keyed by pattern side length.  The first
# refused sizes take about 110 s (2x2, n = 8) and 31 s (3x3, n = 6) for the
# slowest pattern, against 8 s and 0.2 s at the largest admitted ones.
_SIDE_LIMIT = {1: 6, 2: 7, 3: 5}
_FALLBACK_LIMIT = 3


def _check_request(n: int, pattern: BinaryMatrix, max_n: int | None) -> None:
    """Refuse a pattern or a size before any search starts."""
    if not pattern.is_permutation_matrix:
        raise ValueError("pattern must be a permutation matrix")
    cap = _SIDE_LIMIT.get(pattern.rows, _FALLBACK_LIMIT) if max_n is None else max_n
    if n > cap:
        raise BudgetExceeded(
            f"exact extremal search limited to n <= {cap} for a "
            f"{pattern.rows}x{pattern.cols} pattern (asked n = {n})")


def extremal_f(n: int, pattern: BinaryMatrix, *,
               max_n: int | None = None) -> ExtremalRecord:
    """Largest number of 1s an n x n matrix avoiding `pattern` can have.

    Branch-and-bound over cells in row-major order, trying a 1 before a 0.
    A branch dies when its partial grid already contains the pattern, or
    when current count + undecided cells cannot beat the best found.  The
    partial grid avoids the pattern before each new 1, so only occurrences
    through that 1 are tested (_occurs_using_cell).  The witness returned
    is the first optimum in this order, i.e. the lexicographically largest
    optimal bit string; it is re-checked with the full _cells_contains
    before it is returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_request(n, pattern, max_n)

    qcells = pattern.cells
    plan = _cell_plan(qcells)
    grid = [[0] * n for _ in range(n)]
    total_cells = n * n
    best_value = -1
    best_grid: tuple[tuple[int, ...], ...] | None = None

    def search(idx: int, count: int) -> None:
        nonlocal best_value, best_grid
        if count + (total_cells - idx) <= best_value:
            return
        if idx == total_cells:
            # strictly better than best_value, else the bound cut above fired
            best_value = count
            best_grid = tuple(tuple(row) for row in grid)
            return
        r, c = divmod(idx, n)
        grid[r][c] = 1
        if not _occurs_using_cell(grid, r, c, plan):
            search(idx + 1, count + 1)
        grid[r][c] = 0
        search(idx + 1, count)

    search(0, 0)
    if (best_grid is None or sum(map(sum, best_grid)) != best_value
            or _cells_contains(best_grid, qcells)):
        raise ArithmeticError(
            f"extremal search produced an invalid witness for n = {n}")
    return ExtremalRecord(n=n, pattern=pattern, value=best_value,
                          witness=BinaryMatrix(best_grid),
                          slope=Fraction(best_value, n))


def extremal_table(pattern: BinaryMatrix, n_max: int, *,
                   max_n: int | None = None) -> list[ExtremalRecord]:
    """extremal_f for every n = 1..n_max; refuses up front when n_max
    exceeds the size guard."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _check_request(n_max, pattern, max_n)
    return [extremal_f(n, pattern, max_n=max_n) for n in range(1, n_max + 1)]


def dq_estimate(pattern: BinaryMatrix, n_max: int, *,
                max_n: int | None = None) -> Fraction:
    """max f(n, pattern)/n over n = 1..n_max.

    A finite lower witness for any valid linear-bound slope; no finite
    computation can pin the true constant.
    """
    return max(rec.slope for rec in extremal_table(pattern, n_max, max_n=max_n))
