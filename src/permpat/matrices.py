"""0-1 matrices: pattern containment and the exact extremal function.

A matrix P contains a pattern matrix Q when deleting rows and columns of
P can produce a matrix with a 1 wherever Q has a 1 (extra 1s in P are
fine).  extremal_f computes the largest number of 1s an n x n matrix can
carry while avoiding a permutation matrix pattern, exactly, with a
row-transfer search: rows are decided top to bottom over states made of
the pattern's dominance-pruned partial embeddings, and the rows a state
allows are searched as effect classes, one per distinct effect on the
next state, not one by one.  The same engine walks the avoiding matrices
without empty rows for the graph census in `bigraphs`.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import errors
from .errors import BudgetExceeded, ParseError
from .words import (_BOTH, _HI, _LO, Word, _antichain, _dominates, _plan,
                    _rows_contain)


class BinaryMatrix(namedtuple("BinaryMatrix", "cells")):
    """Rectangular 0/1 grid, stored row-major."""

    __slots__ = ()

    def __new__(cls, cells: Sequence[Sequence[int]]) -> BinaryMatrix:
        cells = tuple(tuple(row) for row in cells)
        if not cells or not cells[0]:
            raise ParseError("matrix dimensions must be >= 1")
        width = len(cells[0])
        if any(len(row) != width for row in cells):
            raise ParseError("rows must all have the same length")
        if any(cell not in (0, 1) for row in cells for cell in row):
            raise ParseError("entries must be 0 or 1")
        return super().__new__(cls, cells)

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
        return cls(tuple(rows))

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


def perm_to_matrix(p: Word) -> BinaryMatrix:
    """The permutation matrix with a 1 at (row p(i), column i)."""
    if not p.is_permutation:
        raise ParseError("word has repeated values; not a permutation")
    n = p.length
    cells = [[0] * n for _ in range(n)]
    for i, v in enumerate(p.entries):
        cells[v - 1][i] = 1
    return BinaryMatrix(tuple(tuple(row) for row in cells))


def matrix_contains(P: BinaryMatrix, Q: BinaryMatrix) -> bool:
    """Does P contain Q as a submatrix pattern (1s of Q dominated)?

    A reference apart from the shared kernel `words._rows_contain`: it
    tries every order-preserving row selection, then matches columns
    greedily left to right, which is exact because a column's fitness
    depends only on the fixed row selection.
    """
    pcells, qcells = P.cells, Q.cells
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


# --- row-transfer engine -----------------------------------------------------
#
# Grid rows (n columns) are decided top to bottom, each a bitmask with bit
# c for column c.  Row t of the k x k permutation pattern has its 1 in column
# sigma(t).  An embedding (t, pins) maps the pattern's first t rows to earlier
# grid rows; pattern row i then needs a grid column strictly between the pins
# of its nearest pinned neighbours in sigma order.  So an embedding keeps only
# the pins that a later pattern row reads, in the layout `words._plan` gives
# for sigma as ranks: by pattern column, so its pins increase.  A pin read
# only as a lower end is better smaller, one read only as an upper end better
# larger, and one read both ways must match exactly: at equal t an embedding at
# least as good on every pin can follow every row the other can, so a state
# keeps only the antichain of undominated embeddings (the empty embedding is
# implicit).  It also drops the embeddings that the rows left cannot
# complete, the growths that break the plan's room rule (there are too few
# columns for the pattern columns left between two pins), and the embeddings
# whose every growth is dominated one level up.  A grid row advances an
# embedding by at most one pattern row, since pattern rows map to distinct
# grid rows.
#
# A row reaches the next state only through each growing embedding's hits in
# its window, and of those the dominance rule keeps all for a new pin read both
# ways, the highest for one read as an upper end, the lowest for one read as a
# lower end, and only "some" for one never read; a column whose growth an
# embedding carried into the next state already dominates counts for nothing.
# Rows that agree on these effects lead to the same state, so the successors
# of a state are its effect classes, each with the largest weight among its
# rows.  The classes are built column by column, merging equal partial
# effects; where the first pin is read both ways they stay close to one class
# per row.  Successor states are built once per class, and pruned once per
# distinct set of grown embeddings.

class _RowEngine:
    """Row-transfer states for the pattern whose row t has its 1 in column
    sigma[t], on a grid of `height` rows and n columns.

    `value` and `witness` give the extremal function over the grid, and
    `sequences` counts its avoiding row sequences for the census.  Each
    passes `_RowClasses` the number of rows left after the next one, so a
    state keeps only the embeddings those rows can complete."""

    def __init__(self, sigma: Sequence[int], n: int, height: int):
        self.steps, self.roles = _plan(sigma)
        self.n, self.k, self.height = n, len(sigma), height
        self.memo: dict[tuple[int, tuple], int] = {}
        self.transitions = 0    # successors built, one per effect class
        self.prune_memo: dict[tuple, tuple] = {}
        # one copy of each successor state and of each grown embedding
        self.shared: dict[tuple, tuple] = {}
        self.growth_memo: dict[tuple[int, tuple], tuple] = {}

    def window(self, t: int, pins: tuple[int, ...]) -> int:
        """Columns where pattern row t may go next, as a bitmask."""
        step = self.steps[t]
        lo = -1 if step.lo is None else pins[step.lo]
        hi = self.n if step.hi is None else pins[step.hi]
        return (1 << hi) - (1 << (lo + 1))

    def blocked(self, state: tuple) -> int:
        """Columns where a 1 in the next row completes an occurrence: the
        windows of the embeddings one pattern row short."""
        mask = 0
        for t, pins in ((0, ()), *state):
            if t == self.k - 1:
                mask |= self.window(t, pins)
        return mask

    def prune(self, grown: dict[int, set]) -> tuple:
        """The state made of the embeddings in `grown` (level -> pins) that
        can still matter: each level's antichain, less the embeddings with
        no growth and those whose every growth is dominated by an
        embedding one level up (which lives at least as long)."""
        levels = []
        upper: list = []
        for t in range(self.k - 1, 0, -1):
            roles = self.roles[t + 1]
            kept = [pins for pins in _antichain(grown.get(t, ()), self.roles[t])
                    if any(not any(_dominates(other, grow, roles)
                                   for other in upper)
                           for grow in self.growths(t, pins)[1])]
            levels.append([(t, pins) for pins in kept])
            upper = kept
        return tuple(emb for level in reversed(levels) for emb in level)

    def growths(self, t: int, pins: tuple) -> tuple[dict, list]:
        """Per column of its window, the embedding (t, pins) grows into with
        pattern row t, where that keeps the plan's room rule; and the
        undominated pins among them (at the last level, [()] or [])."""
        key = (t, pins)
        cached = self.growth_memo.get(key)
        if cached is None:
            keep = self.steps[t].keep
            gaps = self.steps[t + 1].gaps if t + 1 < self.k else ()
            window, grows = self.window(t, pins), {}
            for c in range(window.bit_length()):
                if window >> c & 1:
                    grow = tuple([(*pins, c)[i] for i in keep])
                    if all((self.n if b is None else grow[b])
                           - (0 if a is None else grow[a] + 1) >= free
                           for a, b, free in gaps):
                        grows[c] = self.shared.setdefault((t + 1, grow),
                                                          (t + 1, grow))
            cached = self.growth_memo[key] = (grows, [
                grows[c][1] for c in _best_columns(sum(1 << c for c in grows),
                                                   self.steps[t].role)])
        return cached

    def value(self, r: int, state: tuple) -> int:
        """Most 1s that rows r..height-1 can add without an occurrence."""
        key = (r, state)
        memo = self.memo
        if key in memo:
            return memo[key]
        if r == self.height:
            return 0
        # no state does better than the empty one
        bound = self.value(r + 1, ())
        rows = _RowClasses(self, state, self.height - 1 - r)
        best = -1
        for effect, weight in _by_weight(rows.weights(rows.cols)):
            if weight + bound <= best:
                break
            best = max(best, weight + self.value(r + 1, rows.after(effect)))
        memo[key] = best
        return best

    def witness(self) -> tuple[tuple[int, ...], ...]:
        """An optimal grid: row by row, the lexicographically largest row
        (column 0 first, 1 before 0) that still reaches the optimum.  Each
        free column keeps a 1 when some class of the columns after it,
        joined to the row so far, still does."""
        n, height = self.n, self.height
        grid, state = [], ()
        for r in range(height):
            target = self.value(r, state)
            bound = self.value(r + 1, ())
            rows = _RowClasses(self, state, height - 1 - r)
            effect, weight, row = rows.none, 0, 0
            for i, c in enumerate(rows.cols):
                grown = rows.step(effect, c)
                # the heaviest rest first; each join is a class of the row
                rest = rows.weights(rows.cols[i + 1:])
                for tail, w in _by_weight(rest):
                    if weight + 1 + w + bound < target:
                        break
                    joined = rows.join(grown, tail)
                    if (weight + 1 + w
                            + self.value(r + 1, rows.after(joined)) == target):
                        effect, weight, row = grown, weight + 1, row | 1 << c
                        break
            grid.append(tuple(row >> c & 1 for c in range(n)))
            state = rows.after(effect)
        return tuple(grid)

    def sequences(self) -> list[int]:
        """Per r = 0..height, the sequences of r non-empty rows that avoid
        the pattern.  Adding a row never destroys an occurrence, so they
        are closed under deleting the last row: the walk grows them from
        the empty one and recurses only into those that avoid.  A next row
        avoids exactly when it misses `blocked`, so a sequence with o open
        columns has 2^o - 1 avoiding next rows, counted and not visited.
        Where rows follow, the walk visits them all, so their visits are
        charged together against WORK_LIMIT before the first one."""
        counts = [1] + [0] * self.height
        full, last = (1 << self.n) - 1, self.height - 1
        spent = 0

        def walk(state: tuple, r: int) -> None:
            nonlocal spent
            free = full & ~self.blocked(state)
            children = (1 << free.bit_count()) - 1
            counts[r + 1] += children
            if r < last:
                spent += children
                if spent > errors.WORK_LIMIT:
                    raise BudgetExceeded(
                        f"census walk: {spent} row visits pass the work "
                        f"limit of {errors.WORK_LIMIT}")
                rows = _RowClasses(self, state, last - r)
                row = free
                while row:
                    effect = rows.none
                    for c in rows.cols:
                        if row >> c & 1:
                            effect = rows.step(effect, c)
                    walk(rows.after(effect), r + 1)
                    row = (row - 1) & free

        walk((), 0)
        return counts


class _RowClasses:
    """The rows that `blocked` allows in a state, grouped into the effect
    classes described above; only embeddings that `rows_after` more rows
    can complete are kept.  An effect holds one column mask per growing
    embedding and depends only on the set of 1s, so classes are built one
    column at a time, merging equal partial effects, and the classes of a
    row's two parts join into the class of the row."""

    def __init__(self, engine: _RowEngine, state: tuple, rows_after: int):
        n, k, steps = engine.n, engine.k, engine.steps
        free = ~engine.blocked(state) & ((1 << n) - 1)
        self.engine = engine
        self.carried = frozenset(emb for emb in state
                                 if emb[0] + rows_after >= k)
        # per embedding that may grow: the level it grows into, how its new
        # pin is read, and its growth per free column that keeps the room
        # rule where no carried embedding dominates it (which prune would
        # drop); touch[c] lists those that column c grows
        self.growing = []
        self.first = []         # lowest column of each one's window, a mask
        touch: list[list] = [[] for _ in range(n)]
        for t, pins in ((0, ()), *state):
            if not k - rows_after <= t + 1 < k:
                continue
            role, roles = steps[t].role, engine.roles[t + 1]
            rivals = [other for level, other in self.carried if level == t + 1]
            grows = {}
            for c, emb in engine.growths(t, pins)[0].items():
                if free >> c & 1 and not any(_dominates(other, emb[1], roles)
                                             for other in rivals):
                    touch[c].append((len(self.growing), role))
                    grows[c] = emb
            if grows:
                self.growing.append((t + 1, role, grows))
                self.first.append(1 << min(grows))
        self.touch = touch
        self.cols = [c for c in range(n) if free >> c & 1]
        self.none = (0,) * len(self.growing)
        self.successors: dict[tuple, tuple] = {}
        # Columns are added right to left when only upper ends are read, else
        # left to right, so that an effect that has its lowest (highest) hit
        # is final.  later[c]: the embeddings that columns added after c
        # touch, or None when one of them may change after its first hit.
        roles = {role for _, role, _ in self.growing}
        self.falling = _HI in roles and _LO not in roles
        final = _HI if self.falling else _LO
        self.later: dict[int, tuple | None] = {}
        seen: dict[int, None] = {}
        settles = True
        for c in (self.cols if self.falling else reversed(self.cols)):
            self.later[c] = tuple(seen) if settles else None
            for i, role in touch[c]:
                seen[i] = None
                settles = settles and role in (final, 0)

    def step(self, effect: tuple, c: int) -> tuple:
        """The effect of the 1s of `effect` and a 1 in free column c."""
        bit = 1 << c
        grown = None
        for i, role in self.touch[c]:
            hits = effect[i]
            if role == _BOTH:
                hits |= bit
            elif role == _LO:
                if hits and hits < bit:
                    continue
                hits = bit
            elif role == _HI:
                if hits > bit:
                    continue
                hits = bit
            elif hits:
                continue
            else:
                hits = self.first[i]
            if grown is None:
                grown = list(effect)
            grown[i] = hits
        return effect if grown is None else tuple(grown)

    def join(self, a: tuple, b: tuple) -> tuple:
        """The effect of the 1s of two effects together."""
        return tuple([x | y if role == _BOTH or not (x and y)
                      else min(x, y) if role == _LO
                      else max(x, y)
                      for x, y, (_, role, _) in zip(a, b, self.growing)])

    def weights(self, cols: Sequence[int]) -> dict:
        """The largest number of 1s that reaches each effect with a row over
        the columns `cols` (free, in increasing order)."""
        if self.falling:
            cols = cols[::-1]
        current, final = {self.none: 0}, {}
        for j, c in enumerate(cols):
            if not self.touch[c]:
                current = {effect: w + 1 for effect, w in current.items()}
                continue
            later, rest = self.later[c], len(cols) - 1 - j
            nxt = dict(current)
            for effect, w in current.items():
                grown = self.step(effect, c)
                if later is not None and all(grown[i] for i in later):
                    # no later column changes this effect: it takes them all
                    if final.get(grown, -1) < w + 1 + rest:
                        final[grown] = w + 1 + rest
                    if grown is effect:
                        del nxt[effect]
                elif nxt.get(grown, -1) <= w:
                    nxt[grown] = w + 1
            current = nxt
        for effect, w in current.items():
            if final.get(effect, -1) < w:
                final[effect] = w
        return final

    def after(self, effect: tuple) -> tuple:
        """The state after any row of this effect."""
        state = self.successors.get(effect)
        if state is None:
            engine = self.engine
            engine.transitions += 1
            # rows of many states and effects grow the same embeddings; a
            # sorted tuple keys them in a fraction of a frozenset's memory
            grown = tuple(sorted(self.carried.union([
                grows[x]
                for (_, role, grows), hits in zip(self.growing, effect) if hits
                for x in _best_columns(hits, role)])))
            state = engine.prune_memo.get(grown)
            if state is None:
                levels: dict[int, set] = {}
                for t, pins in grown:
                    levels.setdefault(t, set()).add(pins)
                state = engine.prune(levels)
                state = engine.prune_memo[grown] = engine.shared.setdefault(
                    state, state)
            self.successors[effect] = state
        return state


def _by_weight(weights: dict) -> list:
    """(effect, weight) pairs, heaviest first."""
    return sorted(weights.items(), key=itemgetter(1), reverse=True)


def _best_columns(mask: int, role: int) -> list[int]:
    """The columns of a mask that a new pin read as `role` may take
    without being dominated: all of them for a pin read both ways, else
    the highest for an upper end and the lowest otherwise (a pin never
    read is kept nowhere, so any column will do)."""
    if role == _BOTH or not mask:
        return [c for c in range(mask.bit_length()) if mask >> c & 1]
    if role == _HI:
        return [mask.bit_length() - 1]
    return [(mask & -mask).bit_length() - 1]


class ExtremalRecord(NamedTuple):
    """Exact extremal value with its certifying witness."""

    n: int
    pattern: BinaryMatrix
    value: int
    witness: BinaryMatrix
    slope: Fraction
    states: int         # memoized (row, state) entries of the search
    transitions: int    # effect classes whose next state was built

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "pattern": self.pattern.row_strings(),
            "value": self.value,
            "slope": str(self.slope),
            "witness": self.witness.row_strings(),
            "states": self.states,
            "transitions": self.transitions,
        }


# Size guards, keyed by pattern side length, set from the slowest pattern of
# each side (2-vCPU VM, Python 3.11; 2x2 on a quiet host, the rest on a busy
# one).  The largest admitted sizes take about 4.5 s (2x2, n = 100), 2.3 s
# (3x3, n = 10, 213), 1.1 s (4x4, n = 7, 2413), 0.4 s (5x5, n = 7, 24153) and
# 0.015 s (6x6, n = 7); the first refused ones 4.5 s, 9 s, 15-17 s and 32-41 s
# (42513, 41523).  Sides past 3 share the fallback cap, and so does a 1x1
# pattern, which needs no search.
_SIDE_LIMIT = {2: 100, 3: 10}
_FALLBACK_LIMIT = 7

# A table runs one search per n.  2x2 time grows only about as n^3, so the
# 2x2 table to n = 100 costs about 25 times its last search; it is capped
# where the whole table costs about one search at the side cap (same VM, a
# busy host: the table to 42 took 5.7 s, to 43 6.3 s and to 44 6.8 s,
# against 6.8-7.1 s for n = 100 alone).  Tables of larger sides cost little
# more than their last search and keep the side caps.
_TABLE_LIMIT = {2: 42}


def _check_request(n: int, pattern: BinaryMatrix,
                   max_n: int | None = None, *, table: bool = False) -> None:
    """Refuse a pattern or a size before any search starts."""
    if not pattern.is_permutation_matrix:
        raise ParseError("pattern must be a permutation matrix")
    limits = {**_SIDE_LIMIT, **_TABLE_LIMIT} if table else _SIDE_LIMIT
    cap = limits.get(pattern.rows, _FALLBACK_LIMIT) if max_n is None else max_n
    if n > cap:
        raise BudgetExceeded(
            f"exact extremal {'table' if table else 'search'} limited to "
            f"n <= {cap} for a {pattern.rows}x{pattern.cols} pattern "
            f"(asked n = {n})")


def extremal_f(n: int, pattern: BinaryMatrix, *,
               max_n: int | None = None) -> ExtremalRecord:
    """Largest number of 1s an n x n matrix avoiding `pattern` can have.

    The row-transfer engine decides rows top to bottom: the value is the
    memoized value-to-go over (row, state), where a state is the antichain
    of live partial embeddings, and a row may hold a 1 only where no
    embedding completes through it.  The rows a state allows are tried as
    effect classes, rows that lead to the same next state (they keep the
    same lowest, highest or every hit in each growing embedding's window),
    heaviest first.  The witness returned is the lexicographically largest
    optimal bit string in row-major order: each row is decided column by
    column, column 0 first, keeping a 1 when some completion of the later
    columns still reaches the optimum.  It is re-checked with the shared
    kernel `words._rows_contain` before it is returned.  The record also
    counts the memoized (row, state) entries and the successors built.
    """
    if n < 1:
        raise ParseError("n must be >= 1")
    _check_request(n, pattern, max_n)

    sigma = [row.index(1) for row in pattern.cells]
    engine = _RowEngine(sigma, n, n)
    value = engine.value(0, ())
    grid = engine.witness()
    if (len(grid) != n or any(len(row) != n for row in grid)
            or sum(map(sum, grid)) != value
            or _rows_contain([sum(bit << c for c, bit in enumerate(row))
                              for row in grid], n,
                             tuple((c,) for c in sigma), engine.k, engine.k)
            is not None):
        raise ArithmeticError(
            f"extremal search produced an invalid witness for n = {n}")
    return ExtremalRecord(n=n, pattern=pattern, value=value,
                          witness=BinaryMatrix(grid),
                          slope=Fraction(value, n), states=len(engine.memo),
                          transitions=engine.transitions)


def extremal_table(pattern: BinaryMatrix, n_max: int) -> list[ExtremalRecord]:
    """extremal_f for every n = 1..n_max; refuses up front when n_max
    exceeds the table guard."""
    if n_max < 1:
        raise ParseError("n_max must be >= 1")
    _check_request(n_max, pattern, table=True)
    return [extremal_f(n, pattern) for n in range(1, n_max + 1)]
