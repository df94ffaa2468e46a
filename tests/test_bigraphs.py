import math
import random
from itertools import permutations

import pytest

from permpat import bigraphs
from permpat.bigraphs import (MAX_BOUND_DIGITS, BipartiteGraph, Power,
                              adjacency, bounds, census_avoiding_graphs,
                              contract, fiber_size, graph_of_word,
                              ordered_contains, ordered_contains_bruteforce,
                              pattern_graph)
from permpat.errors import BudgetExceeded, ParseError
from permpat.verify import SMALL_PATTERNS
from permpat.words import MultisetSpec, Word, complement, reverse

W = Word.parse

G1212 = graph_of_word(W("1212"), MultisetSpec.regular(2, 2))
G111 = graph_of_word(W("111"), MultisetSpec((3,)))
S22 = MultisetSpec.regular(2, 2)
S3 = MultisetSpec((3,))


def random_graph(rng, a, b):
    return BipartiteGraph.from_mask(a, b, rng.getrandbits(a * b))


class TestBipartiteGraph:
    def test_validation(self):
        with pytest.raises(ParseError):
            BipartiteGraph(0, 1, frozenset())
        with pytest.raises(ParseError):
            BipartiteGraph(2, 2, frozenset({(3, 1)}))

    def test_mask_roundtrip(self):
        # bit (i-1)*right_size + (j-1) is the edge (i, j)
        for mask in range(1 << 6):
            g = BipartiteGraph.from_mask(3, 2, mask)
            assert sum(1 << (i - 1) * 2 + j - 1 for i, j in g.edges) == mask

    def test_text_roundtrip(self):
        # the sizes, then one sorted edge per line, as `counterexample` prints
        text = G1212.to_text()
        assert text.splitlines()[0] == "4 2"
        assert text == "4 2\n1 1\n2 2\n3 1\n4 2"


class TestGraphOfWord:
    def test_multiset_word(self):
        assert G1212.left_size == 4 and G1212.right_size == 2
        assert G1212.edges == {(1, 1), (2, 2), (3, 1), (4, 2)}

    def test_repeated_letter_word(self):
        assert G111.left_size == 3 and G111.right_size == 1
        assert G111.edges == {(1, 1), (2, 1), (3, 1)}

    def test_singleton(self):
        g = graph_of_word(W("1"), MultisetSpec((1,)))
        assert g.edges == {(1, 1)}

    def test_one_edge_per_position(self):
        g = pattern_graph(W("23718465"))
        assert len(g.edges) == 8
        assert sorted(i for i, _ in g.edges) == list(range(1, 9))

    def test_rejects_mismatched_spec(self):
        # G1212 and G111 above are built on their own multisets
        for text, mults in (("1212", (2, 1)), ("112", (2, 2)), ("11", (2, 1))):
            with pytest.raises(ParseError):
                graph_of_word(W(text), MultisetSpec(mults))


class TestOrderedContains:
    def test_counterexample_pair_avoids(self):
        # right-vertex degree in G1212 never reaches three
        assert not ordered_contains(G1212, G111)

    def test_empty_pattern_graph_fits(self):
        P = random_graph(random.Random(1), 4, 3)
        Q = BipartiteGraph(2, 2, frozenset())
        assert ordered_contains(P, Q)

    def test_oversized_pattern(self):
        assert not ordered_contains(G111, G1212)

    def test_word_consequence(self):
        assert ordered_contains(pattern_graph(W("23718465")),
                                pattern_graph(W("312")))


class TestAdjacency:
    def test_identity_pairing(self):
        assert adjacency(pattern_graph(W("12"))).cells == ((1, 0), (0, 1))

    def test_word_1212(self):
        assert adjacency(G1212).row_strings() == ["10", "01", "10", "01"]

    def test_empty_graph(self):
        zero = adjacency(BipartiteGraph(2, 2, frozenset()))
        assert zero.ones == 0 and zero.rows == zero.cols == 2


class TestContract:
    def test_blocks(self):
        # edge (p, p) for each position p lands on (block of p, p)
        g = BipartiteGraph(6, 6, frozenset((p, p) for p in range(1, 7)))
        c = contract(g, MultisetSpec((2, 1, 3)))
        assert c.left_size == 3 and c.right_size == 6
        assert c.edges == {(1, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6)}

    def test_contracts_to_complete(self):
        c = contract(G1212, S22)
        assert c.left_size == c.right_size == 2
        assert c.edges == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_contracts_to_single_edge(self):
        c = contract(G111, S3)
        assert c.left_size == c.right_size == 1
        assert c.edges == {(1, 1)}

    def test_empty_graph_stays_empty(self):
        g = BipartiteGraph(4, 2, frozenset())
        assert contract(g, S22).edges == frozenset()

    def test_size_mismatch(self):
        with pytest.raises(ParseError):
            contract(G111, S22)

    def test_irregular_blocks_contract(self):
        # merge the first 2 positions, then 1, then 3
        spec = MultisetSpec((2, 1, 3))
        w = W("121333")
        g = graph_of_word(w, spec)
        c = contract(g, spec)
        assert c.edges == {(1, 1), (1, 2), (2, 1), (3, 3)}


class TestFibers:
    def test_empty_graph_unique_preimage(self):
        g = BipartiteGraph(2, 2, frozenset())
        assert fiber_size(g, S22) == 1

    def test_irregular_blocks(self):
        spec = MultisetSpec((2, 3))
        g = BipartiteGraph(2, 2, frozenset({(1, 1), (2, 2)}))
        assert fiber_size(g, spec) == 3 * 7

    def test_size_mismatch(self):
        with pytest.raises(ParseError):
            fiber_size(G1212, S22)


class TestCensus:
    def test_trivial_one_vertex(self):
        assert census_avoiding_graphs(1, 1, W("12")) == 2

    def test_one_letter_pattern(self):
        # any edge is an occurrence of 1, so only the empty graph avoids
        # it; the empty state already blocks every column
        for n, m in ((1, 1), (2, 3), (4, 1)):
            assert census_avoiding_graphs(n, m, W("1")) == 1

    def test_empty_rows_are_invisible(self):
        # the lemma behind the census's binomial sum, by the all-injections
        # route: each left vertex of a pattern graph has one edge, so
        # spreading a graph's non-empty rows among empty ones keeps each
        # answer
        rng = random.Random(24)
        patterns = [pattern_graph(W(p)) for p in SMALL_PATTERNS]
        for _ in range(40):
            b = rng.randint(1, 3)
            rows = [rng.randrange(1, 1 << b) for _ in range(rng.randint(1, 4))]
            a = len(rows) + rng.randint(1, 3)
            at = sorted(rng.sample(range(1, a + 1), len(rows)))
            edges = [(r, j) for r, row in enumerate(rows)
                     for j in range(1, b + 1) if row >> (j - 1) & 1]
            H = BipartiteGraph(len(rows), b,
                               frozenset((r + 1, j) for r, j in edges))
            G = BipartiteGraph(a, b,
                               frozenset((at[r], j) for r, j in edges))
            for Q in patterns:
                assert (ordered_contains_bruteforce(G, Q)
                        == ordered_contains_bruteforce(H, Q)), (rows, at, Q)

    def test_two_columns_past_the_guard(self, monkeypatch):
        # every k-pattern on (k,m) has the full-width closed form
        # 2^((k-1)km) sum_{j<k} C(km, j), at k = 2 (2m+1) 4^m; the guard
        # is lifted to reach 48 cells
        monkeypatch.setattr(bigraphs, "DEFAULT_CENSUS_CELLS", 48)
        for m in range(1, 13):
            for p in ("12", "21"):
                assert (census_avoiding_graphs(2, m, W(p))
                        == (2 * m + 1) * 4 ** m), (p, m)

    def test_symmetric_images_agree(self):
        # reversing the rows or the columns of a graph maps the avoiders
        # of p onto those of its reverse or complement.  The walk appends
        # rows from the first and reads each image through that image's
        # own pattern plan, so each image runs a different search
        for n, m in ((4, 1), (3, 2)):
            census = {p: census_avoiding_graphs(n, m, Word(p))
                      for p in permutations(range(1, n + 1))}
            for p, want in census.items():
                word = Word(p)
                for image in (reverse(word), complement(word),
                              reverse(complement(word))):
                    assert census[image.entries] == want, (n, m, p, image)

    def test_pattern_longer_than_n_fits_nowhere(self):
        # 2^24 graphs, all avoiding, counted without walking them
        assert census_avoiding_graphs(2, 6, W("123")) == 2 ** 24
        assert census_avoiding_graphs(1, 3, W("21")) == 2 ** 3

    def test_multi_row_values(self):
        # a 3-pattern at m = 2: sequences of up to five non-empty rows,
        # each placed among the six rows by its binomial weight
        assert census_avoiding_graphs(3, 2, W("123")) == 90112
        assert census_avoiding_graphs(3, 2, W("132")) == 90112

    def test_pattern_shorter_than_n(self):
        # k < n with m >= 2, which no verify check reaches at n = 3: a
        # graph avoids 12 exactly when each non-empty row's highest
        # column is at most the lowest column of the rows above it, and
        # a scan of all 2^18 masks by that rule counts 2176
        assert census_avoiding_graphs(3, 2, W("12")) == 2176
        assert census_avoiding_graphs(3, 2, W("21")) == 2176

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            census_avoiding_graphs(3, 3, W("12"))

    def test_rejects_multiset_pattern(self):
        with pytest.raises(ParseError):
            census_avoiding_graphs(2, 1, W("212"))


class TestBounds:
    def test_fractional_slope(self):
        rec = bounds(5, 2, "9/5")
        # 2*d*n = 18 and d*n = 9 are integral, d itself is not
        assert rec.klazar_bound.value == 15 ** 18
        assert rec.multiset_bound.value == 675 ** 9
        assert rec.e_q.as_dict() == {"base": "450", "exponent": "9/5",
                                     "value": None}

    def test_digit_guard_refuses_before_forming(self):
        # 2^m - 1 alone would have about 3 * 10^11 digits
        with pytest.raises(BudgetExceeded, match="multiset_bound"):
            bounds(1, 10**12, 1)
        with pytest.raises(BudgetExceeded, match="klazar_bound"):
            bounds(10**6, 1, 1)
        # 450^d outgrows 15^(2d) and 225^d at n = m = 1
        with pytest.raises(BudgetExceeded, match="e_q"):
            bounds(1, 1, 40_000)

    def test_digit_guard_boundary(self):
        # 675^n is the largest value at m = 2, d = 1
        n = int(MAX_BOUND_DIGITS / math.log10(675))
        value = bounds(n, 2, 1).multiset_bound.as_dict()["value"]
        assert len(value) <= MAX_BOUND_DIGITS
        with pytest.raises(BudgetExceeded, match="multiset_bound"):
            bounds(n + 1, 2, 1)

    def test_rejects_negative_slope(self):
        with pytest.raises(ParseError):
            bounds(1, 1, -1)

    def test_fractional_power_has_no_value(self):
        p = Power(4, "1/2")
        assert p.value is None
        assert p.as_dict() == {"base": "4", "exponent": "1/2", "value": None}
