from itertools import combinations, permutations

import pytest

from permpat import matrices
from permpat.bigraphs import graph_of_matrix, ordered_contains_bruteforce
from permpat.errors import BudgetExceeded, ParseError
from permpat.matrices import (BinaryMatrix, extremal_f, extremal_table,
                              matrix_contains, perm_to_matrix)
from permpat.words import Word

W = Word.parse
IDENTITY2 = perm_to_matrix(W("12"))
ANTI2 = perm_to_matrix(W("21"))


def avoids(M, pattern):
    """Oracle independent of the search's containment check: all pairs of
    order-preserving row and column injections."""
    return not ordered_contains_bruteforce(graph_of_matrix(M),
                                           graph_of_matrix(pattern))


@pytest.fixture
def no_search(monkeypatch):
    """Fail the test if any extremal search step runs."""
    def fail(*args):
        raise AssertionError("containment check ran before the size guard")
    monkeypatch.setattr(matrices, "_rows_contain", fail)
    monkeypatch.setattr(matrices._RowEngine, "blocked", fail)


class TestBinaryMatrix:
    def test_validation(self):
        with pytest.raises(ParseError):
            BinaryMatrix(())
        with pytest.raises(ParseError):
            BinaryMatrix(((0, 1), (1,)))
        with pytest.raises(ParseError):
            BinaryMatrix(((0, 2),))

    def test_parse_and_str(self):
        M = BinaryMatrix.parse("010\n001\n100\n")
        assert M.rows == M.cols == 3
        assert str(M) == "010\n001\n100"
        assert M.ones == 3

    def test_parse_blank_line_terminates(self):
        M = BinaryMatrix.parse("10\n01\n\n11\n")
        assert M.rows == 2

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            BinaryMatrix.parse("10\n0x\n")
        with pytest.raises(ParseError):
            BinaryMatrix.parse("")

    def test_permutation_matrix_flag(self):
        assert IDENTITY2.is_permutation_matrix
        assert not BinaryMatrix(((1, 1), (0, 1))).is_permutation_matrix
        assert not BinaryMatrix(((1, 0),)).is_permutation_matrix


class TestPermToMatrix:
    def test_singleton(self):
        assert perm_to_matrix(W("1")).cells == ((1,),)

    def test_identity(self):
        assert perm_to_matrix(W("12")).cells == ((1, 0), (0, 1))

    def test_placement_rule(self):
        # 312 puts 1s at (3,1), (1,2), (2,3): row index is the value
        M = perm_to_matrix(W("312"))
        assert M.row_strings() == ["010", "001", "100"]

    def test_rejects_repeats(self):
        with pytest.raises(ParseError):
            perm_to_matrix(W("1212"))


class TestMatrixContains:
    def test_all_ones_contains_any_two_pattern(self):
        ones = BinaryMatrix(((1, 1, 1),) * 3)
        assert matrix_contains(ones, IDENTITY2)
        assert matrix_contains(ones, ANTI2)

    def test_identity_avoids_anti_identity(self):
        assert not matrix_contains(IDENTITY2, ANTI2)
        assert not matrix_contains(ANTI2, IDENTITY2)

    def test_worked_example(self):
        assert matrix_contains(perm_to_matrix(W("23718465")),
                               perm_to_matrix(W("312")))

    def test_too_large_pattern(self):
        assert not matrix_contains(IDENTITY2, perm_to_matrix(W("123")))

    def test_extra_ones_allowed(self):
        P = BinaryMatrix(((1, 1), (1, 1)))
        assert matrix_contains(P, IDENTITY2)


class TestExtremal:
    def test_one_by_one_pattern(self):
        for n in range(1, 5):
            assert extremal_f(n, BinaryMatrix(((1,),))).value == 0

    def test_n1_for_two_pattern(self):
        assert extremal_f(1, IDENTITY2).value == 1
        assert extremal_f(1, ANTI2).value == 1

    def test_n2_identity_is_three(self):
        # frozen from the exhaustive sweep over all 16 binary 2x2 matrices
        assert extremal_f(2, IDENTITY2).value == 3

    def test_cross_witness_attains_bound(self):
        # first row plus first column avoids the increasing pair
        for n in range(1, 6):
            cross = BinaryMatrix(tuple(
                tuple(1 if r == 0 or c == 0 else 0 for c in range(n))
                for r in range(n)))
            assert avoids(cross, IDENTITY2)
            assert cross.ones == 2 * n - 1

    def test_size_guard(self):
        with pytest.raises(BudgetExceeded):
            extremal_f(101, IDENTITY2)
        with pytest.raises(BudgetExceeded):
            extremal_f(11, perm_to_matrix(W("123")))
        with pytest.raises(BudgetExceeded):
            extremal_f(8, perm_to_matrix(W("1234")))
        with pytest.raises(BudgetExceeded):
            extremal_f(8, perm_to_matrix(W("12345")))
        # an explicit override moves the guard either way
        with pytest.raises(BudgetExceeded):
            extremal_f(5, perm_to_matrix(W("123")), max_n=4)
        assert extremal_f(7, BinaryMatrix(((1,),)), max_n=7).value == 0

    def test_table_refuses_before_searching(self, no_search):
        with pytest.raises(BudgetExceeded):
            extremal_table(IDENTITY2, 101)
        with pytest.raises(BudgetExceeded):
            extremal_table(perm_to_matrix(W("123")), 11)
        # a 2x2 table runs one search per n, so it has its own, lower cap
        with pytest.raises(BudgetExceeded, match="table limited to n <= 42"):
            extremal_table(IDENTITY2, 43)

    def test_invalid_witness_is_refused(self, monkeypatch):
        # an occurrence test that never fires fills the grid with 1s; the
        # full re-check of the witness must catch it
        monkeypatch.setattr(matrices._RowEngine, "blocked",
                            lambda self, state: 0)
        with pytest.raises(ArithmeticError, match="invalid witness"):
            extremal_f(3, IDENTITY2)

    def test_ragged_witness_is_refused(self, monkeypatch):
        # a witness row with an extra 0 keeps the count and avoids the
        # pattern; it is an engine fault, not a ParseError from BinaryMatrix
        witness = matrices._RowEngine.witness

        def ragged(self):
            grid = witness(self)
            return grid[:-1] + (grid[-1] + (0,),)

        monkeypatch.setattr(matrices._RowEngine, "witness", ragged)
        with pytest.raises(ArithmeticError, match="invalid witness"):
            extremal_f(3, IDENTITY2)

    def test_rejects_non_permutation_pattern(self):
        with pytest.raises(ParseError):
            extremal_f(2, BinaryMatrix(((1, 1), (0, 1))))

    def test_rejects_n_0(self):
        with pytest.raises(ParseError, match="n must be >= 1"):
            extremal_f(0, IDENTITY2)

    def test_deterministic_witness(self):
        a = extremal_f(4, IDENTITY2)
        b = extremal_f(4, IDENTITY2)
        assert a.witness == b.witness


def per_row_successor(engine, state, rows_after, row):
    """The state after one row, from the row itself: the embeddings that
    rows_after more rows can complete, plus every growth through every 1 of
    `row` in a growing embedding's window, then prune (which drops the
    dominated growths)."""
    k = engine.k
    grown = {}
    for t, pins in state:
        if t + rows_after >= k:
            grown.setdefault(t, set()).add(pins)
    for t, pins in ((0, ()), *state):
        if k - rows_after <= t + 1 < k:
            keep = engine.steps[t].keep
            hits = row & engine.window(t, pins)
            grown.setdefault(t + 1, set()).update(
                tuple((*pins, x)[i] for i in keep)
                for x in range(engine.n) if hits >> x & 1)
    return engine.prune(grown)


class TestEffectClasses:
    # 4x4 patterns are the smallest where the room rule between two pins
    # asks more than a nonempty window for the next pattern row
    PATTERNS = ("12", "21", "123", "132", "213", "231", "312", "321",
                *("".join(p) for p in permutations("1234")))

    def test_classes_match_the_per_row_successor(self):
        # every state the search reaches, for every pattern of side 2 to 4
        # at n <= 5: every growth keeps the room rule, each allowed row
        # leads where its class leads, each class weighs as much as its
        # heaviest row, and the classes of a row's left and right parts
        # join into the row's class.  prune drops a growth that breaks the
        # room rule one step later, so only the first assertion sees one.
        for text in self.PATTERNS:
            for n in range(1, 6):
                engine = matrices._RowEngine([v - 1 for v in W(text).entries],
                                             n, n)
                engine.value(0, ())
                for r, state in list(engine.memo):
                    rows_after = n - 1 - r
                    rows = matrices._RowClasses(engine, state, rows_after)
                    for level, _, grows in rows.growing:
                        for _, pins in grows.values():
                            assert all(
                                (n if b is None else pins[b])
                                - (0 if a is None else pins[a] + 1) >= free
                                for a, b, free in engine.steps[level].gaps
                            ), (text, n, r, level, pins)

                    def effect_of(picked):
                        effect = rows.none
                        for c in picked:
                            effect = rows.step(effect, c)
                        return effect

                    heaviest = {}
                    for size in range(len(rows.cols) + 1):
                        for picked in combinations(rows.cols, size):
                            effect = effect_of(picked)
                            row = sum(1 << c for c in picked)
                            assert rows.after(effect) == per_row_successor(
                                engine, state, rows_after, row), (text, n, r)
                            heaviest[effect] = max(heaviest.get(effect, 0),
                                                   size)
                            assert all(
                                rows.join(effect_of(picked[:i]),
                                          effect_of(picked[i:])) == effect
                                for i in range(size + 1)), (text, n, r)
                    assert rows.weights(rows.cols) == heaviest, (text, n, r)

    def test_allowed_rows_avoid_the_blocked_columns(self):
        engine = matrices._RowEngine([0, 1], 5, 5)
        engine.value(0, ())
        for r, state in engine.memo:
            rows = matrices._RowClasses(engine, state, 4 - r)
            blocked = engine.blocked(state)
            assert all(not blocked >> c & 1 for c in rows.cols)
            assert len(rows.cols) + bin(blocked).count("1") == 5

    def test_search_statistics(self):
        # I2 at n = 14: 183 memoized states; per state at most n + 1
        # classes (no 1, or the lowest 1 in one of the n columns)
        rec = extremal_f(14, IDENTITY2)
        assert rec.value == 27 and rec.states == 183
        assert 0 < rec.transitions <= rec.states * 15
        assert rec.as_dict()["states"] == 183
        assert rec.as_dict()["transitions"] == rec.transitions
