import concurrent.futures
import csv
import io
import json
import math

import pytest

from permpat import counting
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

    def test_single_permutation(self):
        for pat in ("12", "321", "1342"):
            assert count_avoiders(1, W(pat)).count == 1

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

    def test_worker_partition_matches_serial(self, monkeypatch):
        monkeypatch.setattr(counting, "POOL_MIN_TOTAL", 0)
        q = W("132")
        assert count_avoiders(7, q, workers=2).count == count_avoiders(7, q).count

    def test_small_count_starts_no_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        n = 7
        assert total_words(MultisetSpec.unit(n)) < counting.POOL_MIN_TOTAL
        assert (count_avoiders(n, W("1342"), workers=2).count
                == count_avoiders_bruteforce(n, W("1342")))

    def test_workers_capped_at_tasks(self, inline_pool):
        # 2 first letters are 2 tasks: 500 workers would idle in 498 processes
        assert count_avoiders(2, W("12"), workers=500).count == 1
        assert inline_pool == [2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_invalid_workers(self, workers):
        # refused before any pool is made: no process starts
        spec = MultisetSpec.regular(2, 2)
        with pytest.raises(ValueError, match="workers"):
            count_multiset_avoiders(spec, W("12"), workers=workers)
        with pytest.raises(ValueError, match="workers"):
            count_avoiders(3, W("12"), workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sequence(W("12"), 3, workers=workers)


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

    def test_pool_tasks_match_bruteforce(self, inline_pool):
        # each task counts from the state after its first letter; repeated
        # letters and uneven multisets exercise the dead-embedding pruning
        for comp in ((2, 1, 2), (1, 3, 1), (2, 2, 2), (3, 1, 1, 1)):
            spec = MultisetSpec(comp)
            for pat in ("1212", "2113", "132", "11", "1"):
                assert (count_multiset_avoiders(spec, W(pat), workers=2).count
                        == count_multiset_avoiders_bruteforce(spec, W(pat)))
        assert set(inline_pool) == {2}

    def test_worker_partition_matches_serial(self, monkeypatch):
        monkeypatch.setattr(counting, "POOL_MIN_TOTAL", 0)
        spec = MultisetSpec.regular(3, 2)
        q = W("212")
        assert (count_multiset_avoiders(spec, q, workers=2).count
                == count_multiset_avoiders(spec, q).count)


class TestTotals:
    def test_examples(self):
        assert total_words(MultisetSpec((2, 2))) == 6
        assert total_words(MultisetSpec((3, 3))) == 20
        for n in range(1, 7):
            assert total_words(MultisetSpec.unit(n)) == math.factorial(n)

    def test_against_generation(self):
        for spec in (MultisetSpec((2, 2)), MultisetSpec((3, 3)),
                     MultisetSpec((1, 2, 3)), MultisetSpec.regular(2, 3)):
            assert total_words(spec) == sum(1 for _ in iter_words(spec))

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

    def test_agrees_with_exhaustive_count(self):
        for n in range(1, 5):
            for m in range(1, 4):
                rec = count_multiset_avoiders(MultisetSpec.regular(n, m), W("212"))
                assert rec.count == stirling_count(n, m)

    def test_m1_gives_factorial(self):
        for n in range(1, 7):
            assert stirling_count(n, 1) == math.factorial(n)


class TestStirlingApprox:
    def test_one_one(self):
        assert abs(stirling_approx(1, 1) - 1 / math.e) < 1e-9

    def test_two_two(self):
        want = math.sqrt(8 * math.pi) * (4 / (2 * math.sqrt(math.pi) * math.e)) ** 2
        assert abs(stirling_approx(2, 2) - want) < 1e-9

    def test_positive(self):
        assert all(stirling_approx(n, m) > 0
                   for n in range(1, 8) for m in range(1, 5))

    def test_dominated_by_totals(self):
        ratios = [total_words(MultisetSpec.regular(n, 2)) / stirling_approx(n, 2)
                  for n in range(2, 16)]
        assert all(r >= 1 for r in ratios)
        assert all(x < y for x, y in zip(ratios, ratios[1:]))


class TestSequence:
    def test_catalan_run(self):
        counts = [r.count for r in sequence(W("132"), 5)]
        assert counts == [1, 2, 5, 14, 42]

    def test_all_ones(self):
        assert [r.count for r in sequence(W("12"), 6)] == [1] * 6

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
