import sys

import pytest

from permpat import matrices, verify
from permpat.counting import catalan
from permpat.errors import ParseError
from permpat.verify import SUITES, run_suite


def untimed(blob: dict) -> dict:
    """A manifest's dict without the check times, the one part of it that
    a rerun changes."""
    return {**blob, "checks": [{k: v for k, v in check.items()
                                if k != "seconds"} for check in blob["checks"]]}


class TestRunSuite:
    def test_unknown_suite(self):
        with pytest.raises(ParseError):
            run_suite("nonsense")

    def test_single_suite_names_are_prefixed(self):
        manifest = run_suite("core", seed=3)
        assert manifest.ok
        assert all(c.name.startswith("core:") for c in manifest.checks)
        assert manifest.seed == 3

    def test_failed_certificate_fails_the_suite(self, monkeypatch):
        # a fault inside a suite is reported as one failed check instead of
        # ending the run, after the checks the suite made before it: an
        # extremal engine that misses every occurrence trips the witness
        # certificate (ArithmeticError), and a census walk that never
        # bottoms out raises RecursionError
        def endless_walk(*args):
            raise RecursionError("maximum recursion depth exceeded")

        faults = [("matrix", matrices._RowEngine, "blocked",
                   lambda self, state: 0, "invalid witness",
                   ["word-matrix-consistency"]),
                  ("proof-chain", verify, "census_avoiding_graphs",
                   endless_walk, "RecursionError",
                   ["fiber-single-edge", "fiber-partition",
                    "fiber-inversion"])]
        for suite, owner, name, fault, detail, before in faults:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, fault)
                manifest = run_suite(suite)
            assert not manifest.ok
            assert [c.name for c in manifest.checks] == [
                f"{suite}:{check}" for check in [*before, "internal-checks"]]
            assert all(c.passed for c in manifest.checks[:-1])
            assert detail in manifest.checks[-1].detail

    def test_failed_check_names_its_inputs(self, monkeypatch):
        # a Catalan number one too high at n = 5 fails every 3-pattern
        # there, and only the check that compares with it
        monkeypatch.setattr(verify, "catalan",
                            lambda n: catalan(n) + (n == 5))
        manifest = run_suite("catalan")
        failed = [c for c in manifest.checks if not c.passed]
        assert [c.name for c in failed] == ["catalan:catalan-agreement"]
        assert failed[0].detail == (
            "6 patterns, n = 1..8; 6 failed, first: [('123', 5), "
            "('132', 5), ('213', 5), ('231', 5), ('312', 5)]")

    def test_deterministic_given_seed(self):
        a = run_suite("core", seed=99).as_dict()
        b = run_suite("core", seed=99).as_dict()
        assert untimed(a) == untimed(b)

    def test_all_runs_every_suite(self, verify_all):
        manifest, _ = verify_all
        assert manifest.ok
        prefixes = {c.name.split(":")[0] for c in manifest.checks}
        assert prefixes == set(SUITES)

    def test_suite_result_independent_of_grouping(self, verify_all):
        # a suite inside "all" must match the suite run alone; core draws
        # from its rng, so this also shows the per-suite seeding
        manifest, _ = verify_all
        alone = run_suite("core", seed=manifest.seed).checks
        grouped = [c for c in manifest.checks if c.name.startswith("core:")]
        assert [c[:3] for c in alone] == [c[:3] for c in grouped]

    def test_manifest_shape(self):
        manifest = run_suite("core", seed=1)
        blob = manifest.as_dict()
        assert blob["command"] == "verify"
        assert blob["parameters"] == {"suite": "core"}
        assert blob["ok"] is True
        assert blob["summary"].endswith("checks passed")
        assert blob["python"] == ".".join(map(str, sys.version_info[:3]))
        assert all(set(check) == {"name", "passed", "detail", "seconds"}
                   and isinstance(check["seconds"], float)
                   and check["seconds"] >= 0 for check in blob["checks"])

    def test_checks_are_timed(self, monkeypatch):
        # each check's seconds is the time its suite took to yield it
        clock = iter(range(100))
        monkeypatch.setattr(verify, "perf_counter", lambda: next(clock) ** 2)
        checks = run_suite("core").checks
        assert [c.seconds for c in checks] == [
            (2 * k + 1) ** 2 - (2 * k) ** 2 for k in range(len(checks))]
