from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from permpat.errors import ParseError
from permpat.words import (MultisetSpec, Word, canonical_form, canonicalize,
                           complement, contained_patterns, contains,
                           contains_bruteforce, find_occurrence, reverse,
                           validate_word)


def W(text):
    return Word.parse(text)


# strategies: arbitrary value lists reduced to gap-free canonical words
def _words(max_len=8, max_val=6):
    return st.lists(st.integers(1, max_val), min_size=1, max_size=max_len).map(
        lambda vs: Word(canonical_form(tuple(vs))))


class TestWordType:
    def test_valid_words(self):
        assert W("1212").entries == (1, 2, 1, 2)
        assert W("23718465").length == 8
        assert Word((1, 1, 1)).max_value == 1

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            Word((1, 3))
        with pytest.raises(ParseError):
            Word.parse("13")

    def test_empty_and_zero_rejected(self):
        with pytest.raises(ValueError):
            Word(())
        with pytest.raises(ParseError):
            Word.parse("")
        with pytest.raises(ParseError):
            Word.parse("102")

    def test_comma_form(self):
        w = Word.parse("10,2,3,name".replace(",name", ",1,4,5,6,7,8,9"))
        assert w.max_value == 10
        assert str(w) == "10,2,3,1,4,5,6,7,8,9"
        assert Word.parse(str(w)) == w

    def test_digit_roundtrip(self):
        assert str(W("23718465")) == "23718465"

    def test_is_permutation(self):
        assert W("312").is_permutation
        assert not W("1212").is_permutation

    def test_ordering_by_entries(self):
        assert sorted([W("21"), W("12"), W("112")]) == [W("112"), W("12"), W("21")]


class TestMultisetSpec:
    def test_regular(self):
        spec = MultisetSpec.regular(3, 2)
        assert spec.multiplicities == (2, 2, 2)
        assert spec.is_regular and spec.length == 6 and spec.n == 3

    def test_unit(self):
        assert MultisetSpec.unit(4).multiplicities == (1, 1, 1, 1)

    def test_from_word(self):
        assert MultisetSpec.from_word(W("1214324")).multiplicities == (2, 2, 1, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            MultisetSpec(())
        with pytest.raises(ValueError):
            MultisetSpec((1, 0))


class TestValidateWord:
    def test_examples(self):
        assert validate_word(W("1212"), MultisetSpec((2, 2)))
        assert validate_word(W("111"), MultisetSpec((3,)))
        assert not validate_word(W("112"), MultisetSpec((2, 2)))

    def test_wrong_n(self):
        assert not validate_word(W("11"), MultisetSpec((2, 1)))


class TestContains:
    def test_witness_positions(self):
        # the embedding of 312 into 23718465 lands on values 7,1,4
        hit = find_occurrence(W("23718465"), W("312"))
        assert hit == (3, 4, 6)
        assert find_occurrence(W("1"), W("12")) is None

    def test_identity_embedding(self):
        for text in ("1", "1212", "23718465", "111"):
            assert contains(W(text), W(text))

    def test_pattern_longer_than_word(self):
        assert not contains(W("12"), W("123"))

    @given(_words(), _words(max_len=4))
    def test_agrees_with_bruteforce(self, w, q):
        assert contains(w, q) == contains_bruteforce(w, q)
        # the witness is the lexicographically smallest occurrence
        target = canonical_form(q.entries)
        first = next((pos for pos in combinations(range(1, w.length + 1),
                                                  q.length)
                      if canonical_form([w.entries[i - 1] for i in pos])
                      == target), None)
        assert find_occurrence(w, q) == first

    @given(_words(max_len=7), _words(max_len=3), st.integers(1, 7))
    def test_append_monotone(self, w, q, extra):
        extended = Word(canonical_form(w.entries + (extra,)))
        if contains(w, q):
            assert contains(extended, q)

    @given(_words(), _words(max_len=4))
    def test_symmetry_equivariance(self, w, q):
        assert contains(w, q) == contains(reverse(w), reverse(q))
        assert contains(w, q) == contains(complement(w), complement(q))

    @given(_words(max_len=8), st.data())
    def test_transitive_via_subsequences(self, w, data):
        # u is a pattern of w, q a pattern of u; containment must chain
        k = data.draw(st.integers(1, min(6, w.length)))
        upos = sorted(data.draw(
            st.permutations(range(w.length)).map(lambda p: p[:k])))
        u = Word(canonical_form(tuple(w.entries[i] for i in upos)))
        j = data.draw(st.integers(1, min(4, u.length)))
        qpos = sorted(data.draw(
            st.permutations(range(u.length)).map(lambda p: p[:j])))
        q = Word(canonical_form(tuple(u.entries[i] for i in qpos)))
        assert contains(w, u) and contains(u, q) and contains(w, q)


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize((7, 1, 4)) == W("312")
        assert canonicalize((1, 4, 4)) == W("122")
        assert canonicalize((5,)) == W("1")

    def test_raw_form_allows_gaps(self):
        assert canonical_form((7, 1, 4)) == (3, 1, 2)
        assert canonical_form((1, 4, 4)) == (1, 2, 2)

    @given(_words())
    def test_idempotent(self, w):
        assert canonicalize(canonicalize(w)) == canonicalize(w) == w

    @given(_words(max_len=7), _words(max_len=3))
    def test_containment_is_subsequence_canonicalization(self, w, q):
        from itertools import combinations
        hits = any(Word(canonical_form(sub)) == q
                   for k in (q.length,)
                   for sub in combinations(w.entries, k)
                   if k <= w.length)
        assert contains(w, q) == hits


class TestSymmetries:
    def test_examples(self):
        assert reverse(W("312")) == W("213")
        assert complement(W("312")) == W("132")
        assert reverse(W("1212")) == W("2121")

    @given(_words())
    def test_involutions(self, w):
        assert reverse(reverse(w)) == w
        assert complement(complement(w)) == w


class TestContainedPatterns:
    def test_increasing_word(self):
        assert contained_patterns(W("123"), 3) == {W("123")}

    def test_multiset_patterns(self):
        got = contained_patterns(W("1214324"), 3)
        assert {W("122"), W("123"), W("321")} <= got
        assert W("211") not in got

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            contained_patterns(W("123"), 0)
        with pytest.raises(ValueError):
            contained_patterns(W("123"), 4)
