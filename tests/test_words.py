import random

import pytest

from permpat.errors import ParseError
from permpat.verify import _all_words_of_length
from permpat.words import (MultisetSpec, Word, canonical_form, complement,
                           contained_patterns, contains, find_occurrence,
                           reverse)


def W(text):
    return Word.parse(text)


class TestWordType:
    def test_valid_words(self):
        assert W("1212").entries == (1, 2, 1, 2)
        assert W("23718465").length == 8
        assert Word((1, 1, 1)).max_value == 1

    def test_gap_rejected(self):
        with pytest.raises(ParseError):
            Word((1, 3))
        with pytest.raises(ParseError):
            Word.parse("13")

    def test_gap_message_names_the_first_five(self):
        # the message follows the word's length, not its largest entry
        with pytest.raises(ParseError, match=r"missing \[2\]$"):
            Word((1, 3))
        with pytest.raises(ParseError) as info:
            Word((1, 300000))
        assert str(info.value) == ("word value set has gaps: missing "
                                   "[2, 3, 4, 5, 6] and 299993 more")

    def test_empty_and_zero_rejected(self):
        with pytest.raises(ParseError):
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

    def test_from_word(self):
        assert MultisetSpec.from_word(W("1214324")).multiplicities == (2, 2, 1, 2)

    def test_invalid(self):
        with pytest.raises(ParseError):
            MultisetSpec(())
        with pytest.raises(ParseError):
            MultisetSpec((1, 0))


class TestValidateWord:
    # a word is a permutation of spec exactly when from_word(word) == spec,
    # the comparison graph_of_word makes
    def test_examples(self):
        assert MultisetSpec.from_word(W("1212")) == MultisetSpec((2, 2))
        assert MultisetSpec.from_word(W("111")) == MultisetSpec((3,))
        assert MultisetSpec.from_word(W("112")) != MultisetSpec((2, 2))

    def test_wrong_n(self):
        assert MultisetSpec.from_word(W("11")) != MultisetSpec((2, 1))


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


class TestCanonicalize:
    def test_examples(self):
        assert Word(canonical_form((7, 1, 4))) == W("312")
        assert Word(canonical_form((1, 4, 4))) == W("122")
        assert Word(canonical_form((5,))) == W("1")

    def test_raw_form_allows_gaps(self):
        assert canonical_form((7, 1, 4)) == (3, 1, 2)
        assert canonical_form((1, 4, 4)) == (1, 2, 2)


class TestSymmetries:
    def test_examples(self):
        assert reverse(W("312")) == W("213")
        assert complement(W("312")) == W("132")
        assert reverse(W("1212")) == W("2121")

    def test_involutions(self):
        # every gap-free word of length <= 6 (5,316 words), and 300 seeded
        # words of length 7-8 with values <= 6
        rng = random.Random(0)
        words = [w for length in range(1, 7)
                 for w in _all_words_of_length(length)]
        assert len(words) == 5316
        words += [Word(canonical_form([rng.randint(1, 6)
                                       for _ in range(rng.randint(7, 8))]))
                  for _ in range(300)]
        for w in words:
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
        with pytest.raises(ParseError):
            contained_patterns(W("123"), 0)
        with pytest.raises(ParseError):
            contained_patterns(W("123"), 4)
