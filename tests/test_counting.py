import concurrent.futures
import csv
import io
import json
import math

import pytest

from permpat import counting
from permpat.counting import (CountRecord, CountWork, catalan, count_avoiders,
                              count_multiset_avoiders, iter_words,
                              records_to_csv, records_to_json, sequence,
                              stirling_count, total_words)
from permpat.errors import BudgetExceeded, ParseError
from permpat.words import MultisetSpec, Word

W = Word.parse


class TestCatalan:
    def test_values(self):
        assert catalan(0) == 1
        assert catalan(4) == 14
        assert catalan(8) == 1430

    def test_closed_form(self):
        for n in range(12):
            assert catalan(n) == math.comb(2 * n, n) // (n + 1)

    def test_negative(self):
        with pytest.raises(ParseError):
            catalan(-1)


class TestCountAvoiders:
    def test_catalan_example(self):
        assert count_avoiders(4, W("123")).count == 14

    def test_rejects_multiset_pattern(self):
        with pytest.raises(ParseError):
            count_avoiders(3, W("212"))

    def test_rejects_n_0(self):
        with pytest.raises(ParseError, match="n must be >= 1"):
            count_avoiders(0, W("12"))

    def test_large_count_starts_no_pool(self, monkeypatch):
        # 3,628,800 arrangements with workers=2 still count in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert count_avoiders(10, W("1234"), workers=2).count == 586590  # Gessel

    def test_length_judged_before_the_spec_is_built(self):
        # 10^30 entries could not be built at all, so only a guard that
        # runs first refuses them as a budget
        with pytest.raises(BudgetExceeded, match="counting cap"):
            count_avoiders(10**30, W("12"))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_invalid_workers(self, workers):
        spec = MultisetSpec.regular(2, 2)
        with pytest.raises(ParseError, match="workers"):
            count_multiset_avoiders(spec, W("12"), workers=workers)
        with pytest.raises(ParseError, match="workers"):
            count_avoiders(3, W("12"), workers=workers)


class TestCountMultisetAvoiders:
    def test_regular_2_2_212(self):
        rec = count_multiset_avoiders(MultisetSpec.regular(2, 2), W("212"))
        assert rec.count == 3
        assert rec.total == 6

    def test_single_value_spec(self):
        for pat in ("12", "212", "123"):
            rec = count_multiset_avoiders(MultisetSpec((4,)), W(pat))
            assert rec.count == 1

    def test_pattern_longer_than_word_avoids_everything(self):
        spec = MultisetSpec((2, 1))
        rec = count_multiset_avoiders(spec, W("1234"))
        assert rec.count == rec.total == 3

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            count_multiset_avoiders(MultisetSpec.regular(12, 1), W("12"))


class TestTotals:
    def test_examples(self):
        assert total_words(MultisetSpec((2, 2))) == 6
        assert total_words(MultisetSpec((3, 3))) == 20
        for n in range(1, 7):
            assert total_words(MultisetSpec.regular(n, 1)) == math.factorial(n)

    def test_iteration_is_lexicographic_and_distinct(self):
        words = list(iter_words(MultisetSpec((2, 2))))
        assert words == sorted(words)
        assert len(set(words)) == len(words) == 6


class TestStirling:
    def test_examples(self):
        assert stirling_count(2, 2) == 3
        assert stirling_count(3, 2) == 15
        for m in range(1, 6):
            assert stirling_count(1, m) == 1

    def test_m1_gives_factorial(self):
        for n in range(1, 7):
            assert stirling_count(n, 1) == math.factorial(n)

    def test_rejects_n_0(self):
        with pytest.raises(ParseError, match="n and m must be >= 1"):
            stirling_count(0, 1)


class TestSequence:
    def test_catalan_run(self):
        counts = [r.count for r in sequence(W("132"), 5)]
        assert counts == [1, 2, 5, 14, 42]

    def test_stirling_run(self):
        counts = [r.count for r in sequence(W("212"), 4, 2)]
        assert counts == [1, 3, 15, 105]

    def test_refuses_before_counting(self, monkeypatch):
        # 11! arrangements at n_max = 11 exceed the budget, so no n is counted
        def no_count(self, avail):
            raise AssertionError("counted before the budget check")

        monkeypatch.setattr(counting._Engine, "count", no_count)
        with pytest.raises(BudgetExceeded):
            sequence(W("12"), 11)


class TestRecordsAndSerialization:
    def test_record_invariants(self):
        rec = count_avoiders(4, W("123"))
        assert 0 <= rec.count <= rec.total
        assert rec.growth == rec.count ** (1 / rec.length)
        # the count comes from the engine, so this is an internal check
        with pytest.raises(ArithmeticError):
            CountRecord(MultisetSpec((2, 2)), W("12"), 7, 6)

    def test_growth_edge_cases(self):
        zero = CountRecord(MultisetSpec((1,)), W("1"), 0, 1)
        assert zero.growth == 0.0
        one = CountRecord(MultisetSpec((1, 1)), W("12"), 1, 2)
        assert one.growth >= 1.0

    def test_csv_json_same_values(self):
        records = sequence(W("212"), 3, 2)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(records))))
        blobs = json.loads(records_to_json(records))
        assert len(rows) == len(blobs) == 3
        for row, blob in zip(rows, blobs):
            assert int(row["n"]) == blob["n"]
            assert int(row["m"]) == blob["m"]
            assert row["pattern"] == blob["pattern"]
            assert row["count"] == blob["count"]
            assert row["total"] == blob["total"]
            assert float(row["growth"]) == blob["growth"]
            for field in CountWork._fields:
                assert int(row[field]) == blob[field]

    def test_work_counts(self):
        # one layer per letter; the work of a count is the same every time
        records = sequence(W("212"), 3, 2)
        assert [r.work.layers for r in records] == [2, 4, 6]
        again = count_multiset_avoiders(MultisetSpec.regular(3, 2), W("212"))
        assert again.work == records[-1].work
        assert again.work.peak_states >= 1
        assert again.work.transitions >= again.work.layers
        # a record the engine did not make carries no work
        assert CountRecord(MultisetSpec((1,)), W("1"), 0, 1).work == (0, 0, 0)

    @pytest.mark.parametrize("patterns, mults, count, work", [
        (("123", "321"), (1,) * 8, 1430, (8, 27, 288)),
        (("1234", "4321"), (1,) * 7, 2761, (7, 28, 220)),
        (("1212", "2121"), (4, 4, 4), 861, (12, 111, 1110)),
        (("212", "121"), (2,) * 5, 945, (10, 65, 752)),
        (("1342", "4213"), (1,) * 7, 2740, (7, 31, 257)),
        (("2431",), (1,) * 7, 2740, (7, 30, 264)),
        (("1423",), (1,) * 7, 2740, (7, 33, 266)),
        # a rank recurring three times: a kept embedding can run short
        (("1211",), (3, 3, 3, 3), 15400, (12, 98, 1424)),
    ])
    def test_work_pinned_exactly(self, patterns, mults, count, work):
        # engine-work only bounds the work from above; pinning it exactly
        # tells a change of state space from a constant-factor one
        for pat in patterns:
            rec = count_multiset_avoiders(MultisetSpec(mults), W(pat))
            assert (rec.count, rec.work) == (count, work), pat

    def test_big_integers_as_decimal_strings(self):
        blob = json.loads(records_to_json(
            [count_multiset_avoiders(MultisetSpec.regular(2, 4), W("12"))]))[0]
        assert isinstance(blob["count"], str) and isinstance(blob["total"], str)
