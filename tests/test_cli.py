import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import permpat
from permpat import matrices
from permpat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_import_loads_no_pool_machinery():
    # the drivers import the process pool only when a pool starts
    src = str(Path(permpat.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permpat.cli; "
            "print('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "False"


class TestContainsCommand:
    def test_contains_with_witness(self, capsys):
        code, out, _ = run(capsys, "contains", "--word", "23718465",
                           "--pattern", "312")
        assert code == 0
        assert out.splitlines()[0] == "contains"
        assert "positions 3,4,6" in out and "values 7,1,4" in out

    def test_avoids(self, capsys):
        code, out, _ = run(capsys, "contains", "--word", "1214324",
                           "--pattern", "211")
        assert code == 1
        assert out.strip() == "avoids"

    def test_trivial_avoid(self, capsys):
        code, out, _ = run(capsys, "contains", "--word", "1", "--pattern", "12")
        assert code == 1

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "contains", "--word", "1a2",
                           "--pattern", "12")
        assert code == 2
        assert "input error" in err

    def test_gap_rejected(self, capsys):
        code, _, err = run(capsys, "contains", "--word", "13",
                           "--pattern", "12")
        assert code == 2


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

    def test_missing_n(self, capsys):
        # argparse refuses the call before any count starts
        with pytest.raises(SystemExit) as exc:
            main(["count", "--pattern", "12"])
        assert exc.value.code == 2
        assert "one of the arguments --n --n-max is required" in (
            capsys.readouterr().err)

    def test_n_and_n_max_exclusive(self, capsys):
        # an input error, not a table that silently ignores --n
        with pytest.raises(SystemExit) as exc:
            main(["count", "--pattern", "12", "--n", "3", "--n-max", "2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not allowed with argument" in out.err

    def test_budget_refusal(self, capsys):
        code, _, err = run(capsys, "count", "--pattern", "12", "--n", "12")
        assert code == 3
        assert "refused" in err


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

    def test_size_guard(self, capsys, tmp_path):
        path = tmp_path / "id2.txt"
        path.write_text("10\n01\n")
        code, _, err = run(capsys, "extremal", "--matrix-file", str(path),
                           "--n-max", "16")
        assert code == 3

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

    def test_bad_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("10\nxx\n")
        code, _, err = run(capsys, "extremal", "--matrix-file", str(path),
                           "--n-max", "2")
        assert code == 2

    def test_unreadable_matrix_file(self, capsys, tmp_path):
        # an input error (exit 2), not a traceback with exit 1 ("avoids")
        for path in (tmp_path / "missing.txt", tmp_path):
            code, out, err = run(capsys, "extremal", "--matrix-file",
                                 str(path), "--n-max", "2")
            assert code == 2 and out == ""
            assert err.startswith("input error: cannot read --matrix-file")


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "proof-chain")
        assert code == 0
        assert "checks passed" in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_manifest_json_reproducible(self, capsys):
        args = ("verify", "--suite", "core", "--seed", "42",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        blob = json.loads(first)
        assert blob["seed"] == 42
        assert blob["ok"] is True
        assert all(c["passed"] for c in blob["checks"])

    def test_contraction_suite_names_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "contraction",
                           "--seed", "1")
        assert code == 0
        assert "contraction-counterexample" in out
        assert "1212" in out and "111" in out


class TestOtherCommands:
    def test_census(self, capsys):
        code, out, _ = run(capsys, "census", "--pattern", "12", "--n", "2",
                           "--m", "2")
        assert code == 0
        assert out.strip() == "80"

    def test_census_invalid_workers(self, capsys):
        code, out, err = run(capsys, "census", "--pattern", "12", "--n", "2",
                             "--m", "1", "--workers", "0")
        assert code == 2 and out == ""
        assert "workers" in err

    def test_census_budget(self, capsys):
        code, _, err = run(capsys, "census", "--pattern", "12", "--n", "3",
                           "--m", "3")
        assert code == 3

    def test_bounds(self, capsys):
        code, out, _ = run(capsys, "bounds", "--n", "1", "--m", "2",
                           "--d", "1")
        blob = json.loads(out)
        assert blob["multiset_bound"]["value"] == "675"

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

    def test_bounds_bad_slope(self, capsys):
        code, _, err = run(capsys, "bounds", "--n", "1", "--m", "1",
                           "--d", "x")
        assert code == 2

    def test_counterexample_report(self, capsys):
        code, out, _ = run(capsys, "counterexample")
        assert code == 0
        assert "graph of 1212:" in out and "graph of 111:" in out
        assert "containment before contraction: False" in out
        assert "containment after contraction: True" in out
