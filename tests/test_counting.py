import concurrent.futures
import csv
import io
import json
import math

import pytest

from permpat.counting import (CountRecord, catalan, count_avoiders,
                              count_avoiders_bruteforce,
                              count_multiset_avoiders,
                              count_multiset_avoiders_bruteforce, iter_words,
                              records_to_csv, records_to_json, sequence,
                              stirling_approx, stirling_count, total_words)
from permpat.errors import BudgetExceeded
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
        with pytest.raises(ValueError):
            catalan(-1)


class TestCountAvoiders:
    def test_catalan_example(self):
        assert count_avoiders(4, W("123")).count == 14

    def test_wilf_class_split_at_six(self):
        # frozen from the no-pruning all-subsequences reference
        a = count_avoiders(6, W("1234"))
        b = count_avoiders(6, W("1342"))
        assert a.count == 513
        assert b.count == 512
        assert count_avoiders_bruteforce(6, W("1234")) == a.count
        assert count_avoiders_bruteforce(6, W("1342")) == b.count

    def test_rejects_multiset_pattern(self):
        with pytest.raises(ValueError):
            count_avoiders(3, W("212"))

    def test_large_count_starts_no_pool(self, monkeypatch):
        # 3,628,800 arrangements with workers=2 still count in this process
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert count_avoiders(10, W("1234"), workers=2).count == 586590  # Gessel

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_invalid_workers(self, workers):
        spec = MultisetSpec.regular(2, 2)
        with pytest.raises(ValueError, match="workers"):
            count_multiset_avoiders(spec, W("12"), workers=workers)
        with pytest.raises(ValueError, match="workers"):
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

    def test_unit_spec_reduces_to_permutations(self):
        for n in range(1, 6):
            for pat in ("12", "123", "231"):
                assert (count_multiset_avoiders(MultisetSpec.unit(n), W(pat)).count
                        == count_avoiders(n, W(pat)).count)

    def test_pattern_longer_than_word_avoids_everything(self):
        spec = MultisetSpec((2, 1))
        rec = count_multiset_avoiders(spec, W("1234"))
        assert rec.count == rec.total == 3

    def test_matches_bruteforce(self):
        for spec in (MultisetSpec((2, 2)), MultisetSpec((1, 2, 1)),
                     MultisetSpec.regular(2, 3)):
            for pat in ("12", "21", "212", "112", "123"):
                assert (count_multiset_avoiders(spec, W(pat)).count
                        == count_multiset_avoiders_bruteforce(spec, W(pat)))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            count_multiset_avoiders(MultisetSpec.unit(12), W("12"))


class TestTotals:
    def test_examples(self):
        assert total_words(MultisetSpec((2, 2))) == 6
        assert total_words(MultisetSpec((3, 3))) == 20
        for n in range(1, 7):
            assert total_words(MultisetSpec.unit(n)) == math.factorial(n)

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

    def test_equals_integer_product(self):
        # the rational closed form must agree with prod_{i<n} (m*i + 1)
        for n in range(1, 10):
            for m in range(1, 5):
                prod = 1
                for i in range(n):
                    prod *= m * i + 1
                assert stirling_count(n, m) == prod

    def test_m1_gives_factorial(self):
        for n in range(1, 7):
            assert stirling_count(n, 1) == math.factorial(n)


class TestStirlingApprox:
    def test_positive(self):
        assert all(stirling_approx(n, m) > 0
                   for n in range(1, 8) for m in range(1, 5))


class TestSequence:
    def test_catalan_run(self):
        counts = [r.count for r in sequence(W("132"), 5)]
        assert counts == [1, 2, 5, 14, 42]

    def test_stirling_run(self):
        counts = [r.count for r in sequence(W("212"), 4, 2)]
        assert counts == [1, 3, 15, 105]


class TestRecordsAndSerialization:
    def test_record_invariants(self):
        rec = count_avoiders(4, W("123"))
        assert 0 <= rec.count <= rec.total
        assert rec.growth == rec.count ** (1 / rec.length)
        with pytest.raises(ValueError):
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

    def test_big_integers_as_decimal_strings(self):
        blob = json.loads(records_to_json(
            [count_multiset_avoiders(MultisetSpec.regular(2, 4), W("12"))]))[0]
        assert isinstance(blob["count"], str) and isinstance(blob["total"], str)
