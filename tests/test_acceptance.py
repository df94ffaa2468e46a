"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is a set of named `permpat.verify` checks, read from the
session's single `run_suite("all", seed=0)`; the checks themselves are
defined only in `permpat.verify`.  A time bound applies to that whole
run, which is at least as strict as bounding the criterion's own checks.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""


def criterion(verify_all, name, checks, bound_s=None):
    manifest, elapsed = verify_all
    by_name = {c.name: c for c in manifest.checks}
    ok = all(by_name[check].passed for check in checks)
    detail = "; ".join(f"{check} ({by_name[check].detail})" for check in checks)
    if bound_s is not None:
        ok = ok and elapsed < bound_s
        detail += f"; whole verify run {elapsed:.1f}s, bound {bound_s:.0f}s"
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_catalan_reproduction(verify_all):
    criterion(verify_all, "catalan reproduction",
              ["catalan:catalan-agreement"], bound_s=60.0)


def test_worked_examples(verify_all):
    criterion(verify_all, "worked containment examples",
              ["core:example-containments", "core:three-letter-patterns"])


def test_stirling_permutations(verify_all):
    criterion(verify_all, "212-avoider counts",
              ["stirling:multiset-212-agreement",
               "stirling:super-exponential-growth"])


def test_multinomial_totals(verify_all):
    criterion(verify_all, "multinomial totals",
              ["stirling:multinomial-exhaustive",
               "stirling:multinomial-factorials"])


def test_furedi_hajnal_desk_scale(verify_all):
    criterion(verify_all, "extremal line for the increasing pair",
              ["matrix:identity-extremal-line", "matrix:witness-validity",
               "matrix:furedi-hajnal"],
              bound_s=300.0)


def test_contraction_counterexample(verify_all):
    criterion(verify_all, "contraction counterexample",
              ["contraction:contraction-counterexample"])


def test_avoidance_inheritance(verify_all):
    criterion(verify_all, "avoidance inheritance",
              ["contraction:inheritance-exhaustive"])


def test_fiber_accounting(verify_all):
    criterion(verify_all, "fiber accounting",
              ["proof-chain:fiber-partition", "proof-chain:fiber-single-edge"])


def test_proof_chain_inequalities(verify_all):
    criterion(verify_all, "proof-chain inequalities",
              ["proof-chain:word-census-sandwich",
               "proof-chain:census-fiber-inequality"])


def test_wilf_class_separation(verify_all):
    criterion(verify_all, "length-4 class separation",
              ["catalan:wilf-split-length-4"])
