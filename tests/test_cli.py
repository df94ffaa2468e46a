import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permpat
from permpat import cli, counting, matrices
from permpat.cli import main
from permpat.words import MultisetSpec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_pool_machinery():
    # no module starts a process pool, so importing the CLI must not pull
    # in the pool machinery (about half of the package's import time)
    src = str(Path(permpat.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permpat.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "False"


# stderr is empty on exit 0 or 1, starts "input error: " on exit 2 ("usage: "
# when argparse exits 2) and "refused: " on exit 3; {dir} holds MATRICES.
MATRICES = {"id2.txt": "10\n01\n", "bad.txt": "10\nxx\n",
            "not-perm.txt": "11\n01\n", "latin-1.txt": "\xff\n"}
EXTREMAL = "extremal --matrix-file {dir}/"
# bounds at d = 10^-5000: 15^(2d), 225^d and 450^d, none an integer
TINY_SLOPE = "1/1" + "0" * 5000
TINY_SLOPE_BOUNDS = json.dumps({
    "n": 1, "m": 1, "d": TINY_SLOPE,
    "klazar_bound": {"base": "15", "exponent": "1/5" + "0" * 4999,
                     "value": None},
    "multiset_bound": {"base": "225", "exponent": TINY_SLOPE, "value": None},
    "e_q": {"base": "450", "exponent": TINY_SLOPE, "value": None},
}, indent=2) + "\n"
EXIT_TABLE = [  # (argv, exit code, stdout, stderr fragment)
    ("contains --word 1214324 --pattern 211", 1, "avoids\n", "", "avoids"),
    ("contains --word 1 --pattern 12", 1, "avoids\n", "", "trivial_avoid"),
    ("contains --word 1a2 --pattern 12", 2, "", "not a word: '1a2'",
     "parse_error"),
    ("contains --word 13 --pattern 12", 2, "", "gaps: missing [2]",
     "gap_rejected"),
    ("contains --word 1,a --pattern 1", 2, "",
     "not a comma-separated word: '1,a'", "comma_word_not_decimal"),
    # int() refuses these with a plain ValueError, which would exit 3
    ("contains --word \u00b2 --pattern 1", 2, "", "not a word",
     "superscript_digit"),
    (f"contains --word 1,{'9' * 5000} --pattern 1", 2, "",
     "an entry exceeds the word length 2", "entry_past_int_digit_limit"),
    ("count --pattern 12", 2, "",
     "one of the arguments --n --n-max is required", "missing_n"),
    ("count --pattern 12 --n 3 --n-max 2", 2, "", "not allowed with argument",
     "n_and_n_max_exclusive"),
    ("count --pattern 12 --n 0", 2, "", "n >= 1 values", "count_n_0"),
    ("count --pattern 12 --n 2 --m 0", 2, "", "integers >= 1", "count_m_0"),
    ("count --pattern 12 --n-max 0", 2, "", "n_max must", "n_max_0"),
    # 1600! has more than 4,300 digits and 100000! more than 450,000; both
    # are refused from logarithms, before the total is formed
    *((f"count --pattern 12 --n {n}", 3, "", "exceed the counting budget",
       f"budget_refusal_{n}") for n in (12, 1600, 100000)),
    # one value: a single arrangement, but one counting layer per letter
    ("count --pattern 12 --n 1 --m 30000000", 3, "",
     "30000000 letters exceed the counting cap of 100000 layers",
     "layer_cap"),
    ("count --pattern 12 --n 1 --m 100000", 0,
     "n,m,pattern,count,total,growth,layers,peak_states,transitions\n"
     "1,100000,12,1,1,1.0,100000,1,100000\n", "",
     "layer_cap_largest_admitted"),
    # n*m is judged before the n entries of [n]_m are built; 10^30 of them
    # could not be built at all
    *((f"count --pattern 12 --{size} {10**30}", 3, "",
       f"{10**30} letters exceed the counting cap of 100000 layers",
       f"layer_cap_{size.replace('-', '_')}") for size in ("n", "n-max")),
    (EXTREMAL + "id2.txt --n-max 101", 3, "", "n <= 42", "size_guard"),
    (EXTREMAL + "bad.txt --n-max 2", 2, "", "over '0'/'1'", "bad_matrix"),
    (EXTREMAL + "missing.txt --n-max 2", 2, "",
     "input error: cannot read --matrix-file", "unreadable_matrix_file"),
    ("extremal --matrix-file {dir} --n-max 2", 2, "",
     "input error: cannot read --matrix-file", "matrix_file_is_a_directory"),
    (EXTREMAL + "latin-1.txt --n-max 2", 2, "", "can't decode byte 0xff",
     "matrix_file_not_utf8"),
    (EXTREMAL + "not-perm.txt --n-max 2", 2, "",
     "must be a permutation matrix", "extremal_not_permutation"),
    (EXTREMAL + "id2.txt --n-max 0", 2, "", "n_max must", "extremal_n_max_0"),
    ("verify --suite nonsense", 2, "", "invalid choice: 'nonsense'",
     "unknown_suite_exits_2"),
    ("census --pattern 12 --n 2 --m 2 --workers 2", 2, "",
     "unrecognized arguments: --workers", "census_has_no_workers_option"),
    ("census --pattern 12 --n 3 --m 3", 3, "", "exceeds the guard",
     "census_budget"),
    ("census --pattern 12 --n 0 --m 1", 2, "", "n and m must", "census_n_0"),
    ("census --pattern 11 --n 2 --m 1", 2, "", "ordinary permutation",
     "census_repeated_letter"),
    ("bounds --n 1000000 --m 2 --d 1", 3, "", "digits", "bounds_digit_guard"),
    ("bounds --n 1 --m 1 --d x", 2, "", "not a rational slope: 'x'",
     "bounds_bad_slope"),
    ("bounds --n 0 --m 1 --d 1", 2, "", "n and m must be >= 1", "bounds_n_0"),
    ("bounds --n 1 --m 1 --d -1", 2, "", "slope d must be >= 0",
     "bounds_negative_slope"),
    # a valid slope whose denominator has more digits than str(int) allows
    ("bounds --n 1 --m 1 --d 1e-5000", 0, TINY_SLOPE_BOUNDS, "",
     "bounds_tiny_slope"),
]


@pytest.mark.parametrize("argv, code, stdout, fragment",
                         [pytest.param(*row[:4], id=row[4])
                          for row in EXIT_TABLE])
def test_exit_code(capsys, tmp_path, argv, code, stdout, fragment):
    for name, text in MATRICES.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    try:
        got = main([arg.format(dir=tmp_path) for arg in argv.split()])
        prefix = {2: "input error: ", 3: "refused: "}.get(got, "")
    except SystemExit as exc:
        got, prefix = exc.code, "usage: "
    out, err = capsys.readouterr()
    assert (got, out) == (code, stdout)
    assert err.startswith(prefix) and fragment in err
    assert bool(err) == (code >= 2)


class TestContainsCommand:
    def test_contains_with_witness(self, capsys):
        code, out, _ = run(capsys, "contains", "--word", "23718465",
                           "--pattern", "312")
        assert code == 0
        assert out.splitlines()[0] == "contains"
        assert "positions 3,4,6" in out and "values 7,1,4" in out

    def test_internal_crash_is_a_refusal(self, capsys, monkeypatch):
        # an unexpected exception must exit 3, not 1 (the "avoids" code)
        def crash(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "find_occurrence", crash)
        code, out, err = run(capsys, "contains", "--word", "23718465",
                             "--pattern", "312")
        assert code == 3 and out == ""
        assert err.startswith("refused: internal error: RecursionError: ")
        assert "Traceback" not in err

    def test_value_error_is_a_refusal(self, capsys, monkeypatch):
        # a ValueError no input check raised is a fault, not an input error
        def fault(*args):
            raise ValueError("negative shift count")

        monkeypatch.setattr(cli, "find_occurrence", fault)
        code, out, err = run(capsys, "contains", "--word", "23718465",
                             "--pattern", "312")
        assert code == 3 and out == ""
        assert err.startswith("refused: internal error: ValueError: ")


class TestCountCommand:
    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "count", "--pattern", "123", "--n", "4",
                           "--format", "json")
        assert code == 0
        blob = json.loads(out)
        assert blob[0]["count"] == "14"

    def test_csv_record(self, capsys):
        code, out, _ = run(capsys, "count", "--pattern", "212", "--n", "2",
                           "--m", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["count"] == "3" and rows[0]["total"] == "6"

    def test_csv_json_identical_values(self, capsys):
        args = ("count", "--pattern", "132", "--n-max", "4")
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        _, json_out, _ = run(capsys, *args, "--format", "json")
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        blobs = json.loads(json_out)
        for row, blob in zip(rows, blobs):
            assert row["count"] == blob["count"]
            assert row["total"] == blob["total"]
            assert float(row["growth"]) == blob["growth"]

    def test_sequence_output(self, capsys):
        code, out, _ = run(capsys, "count", "--pattern", "12", "--n-max", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["count"] for r in rows] == ["1", "1", "1"]

    def test_count_out_of_range_is_a_refusal(self, capsys, monkeypatch):
        # a count past the total is an engine fault, not an input error
        monkeypatch.setattr(
            counting._Engine, "count",
            lambda self, avail: counting.total_words(MultisetSpec(avail)) + 1)
        code, out, err = run(capsys, "count", "--pattern", "123", "--n", "3")
        assert code == 3 and out == ""
        assert err.startswith("refused: internal check failed: count 7 ")


class TestExtremalCommand:
    def test_table(self, capsys, tmp_path):
        path = tmp_path / "id2.txt"
        path.write_text("10\n01\n")
        code, out, _ = run(capsys, "extremal", "--matrix-file", str(path),
                           "--n-max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n", "f", "slope"]
        values = [line.split()[1] for line in lines[1:5]]
        assert values == ["1", "3", "5", "7"]
        assert "witness n=4:" in out

    def test_json(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\n")
        code, out, _ = run(capsys, "extremal", "--matrix-file", str(path),
                           "--n-max", "3", "--format", "json")
        blobs = json.loads(out)
        assert [b["value"] for b in blobs] == [0, 0, 0]

    def test_json_search_statistics(self, capsys, tmp_path):
        path = tmp_path / "id2.txt"
        path.write_text("10\n01\n")
        code, out, _ = run(capsys, "extremal", "--matrix-file", str(path),
                           "--n-max", "14", "--format", "json")
        last = json.loads(out)[-1]
        assert code == 0 and (last["n"], last["value"]) == (14, 27)
        # one successor per effect class: at most n + 1 per state for I2
        assert last["states"] == 183
        assert 0 < last["transitions"] <= 183 * 15

    def test_table_guard(self, capsys, tmp_path, monkeypatch):
        # the first refused 2x2 table is refused before any search starts
        searched = []
        monkeypatch.setattr(matrices, "extremal_f",
                            lambda *args, **kwargs: searched.append(args))
        path = tmp_path / "id2.txt"
        path.write_text("10\n01\n")
        code, out, err = run(capsys, "extremal", "--matrix-file", str(path),
                             "--n-max", "43")
        assert code == 3 and out == "" and searched == []
        assert err.startswith("refused: exact extremal table limited to "
                              "n <= 42")

    def test_failed_certificate_is_a_refusal(self, capsys, tmp_path,
                                             monkeypatch):
        # an occurrence test that misses every occurrence yields an invalid
        # witness; its ArithmeticError must exit 3, not 1 (the "avoids" code)
        monkeypatch.setattr(matrices._RowEngine, "blocked",
                            lambda self, state: 0)
        path = tmp_path / "id2.txt"
        path.write_text("10\n01\n")
        code, out, err = run(capsys, "extremal", "--matrix-file", str(path),
                             "--n-max", "2")
        assert code == 3 and out == ""
        assert err.startswith("refused: internal check failed: ")
        assert "Traceback" not in err


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "[ok] core:example-containments: 9 fixed cases"
        assert lines[-1].endswith("checks passed")

    def test_manifest_json_reproducible(self, capsys):
        args = ("verify", "--suite", "core", "--seed", "42",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        # only the check times may differ between the runs
        blob, again = json.loads(first), json.loads(second)
        for check in blob["checks"] + again["checks"]:
            assert check.pop("seconds") >= 0
        assert blob == again
        assert blob["seed"] == 42
        assert blob["ok"] is True
        assert all(c["passed"] for c in blob["checks"])


class TestOtherCommands:
    def test_census(self, capsys):
        code, out, _ = run(capsys, "census", "--pattern", "12", "--n", "2",
                           "--m", "2")
        assert code == 0
        assert out.strip() == "80"

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1", "--m", "2",
                           "--d", "1")
        blob = json.loads(out)
        assert blob["multiset_bound"]["value"] == "675"
        assert blob["multiset_bound"]["base"] == "675"

    def test_bounds_rational(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "5", "--m", "2",
                           "--d", "9/5")
        blob = json.loads(out)
        assert blob["e_q"]["value"] is None

    def test_bounds_past_int_digit_limit(self, capsys):
        # 15^7200 has 8468 digits, past str(int)'s default limit of 4300
        code, out, _ = run(capsys, "bounds", "--n", "2000", "--m", "2",
                           "--d", "9/5")
        assert code == 0
        blob = json.loads(out)
        digits = blob["klazar_bound"]["value"]
        # rebuild the integer in chunks, each short enough for int()
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 15 ** 7200

    def test_bounds_base_past_int_digit_limit(self, capsys):
        # the base (2^20000 - 1) * 225 has 6023 digits; it prints as a
        # decimal string, as values do, instead of failing in json.dumps
        code, out, _ = run(capsys, "bounds", "--n", "1", "--m", "20000",
                           "--d", "0")
        assert code == 0
        blob = json.loads(out)
        digits = blob["multiset_bound"]["base"]
        value = 0
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == (2 ** 20000 - 1) * 225
        assert blob["multiset_bound"]["value"] == "1"

    def test_counterexample_report(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "graph of 1212:" in out and "graph of 111:" in out
        assert "containment before contraction: False" in out
        assert "containment after contraction: True" in out
