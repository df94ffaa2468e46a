"""Self-verification suites over all modules.

Each suite yields named checks combining fixed worked examples,
exhaustive small-scale sweeps and seeded random sampling.  Every check
collects the inputs it fails on: it passes when there are none, and
otherwise its detail says how many failed and names the first five.
Suites are deterministic given (suite, seed): reruns reproduce the same
check list and outcomes.
"""
from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from time import perf_counter
from typing import Iterator, NamedTuple

from .bigraphs import (BipartiteGraph, adjacency, bounds,
                       census_avoiding_graphs, contract, fiber_size,
                       graph_of_matrix, graph_of_word, ordered_contains,
                       ordered_contains_bruteforce, pattern_graph)
from .counting import (catalan, count_avoiders, count_multiset_avoiders,
                       count_multiset_avoiders_bruteforce, iter_words,
                       sequence, stirling_count, total_words)
from .errors import BudgetExceeded, ParseError
from .matrices import (extremal_f, extremal_table, matrix_contains,
                       perm_to_matrix)
from .words import (MultisetSpec, Word, canonical_form, complement,
                    contained_patterns, contains, contains_bruteforce,
                    find_occurrence, reverse)

DEFAULT_SEED = 0

THREE_PATTERNS = ("123", "132", "213", "231", "312", "321")
SMALL_PATTERNS = ("1", "12", "21") + THREE_PATTERNS
# (pattern, multiplicities, most states the count engine may hold in a
# layer, most transitions it may build over all layers)
PEAK_STATES = (("132", (1,) * 10, 132, 1535), ("1234", (1,) * 10, 110, 1532),
               ("1342", (1,) * 10, 434, 4777), ("1212", (4, 4, 4), 111, 1110),
               ("1211", (3, 3, 3, 3), 98, 1424))
# (pattern, n, most memoized states and most transitions of the extremal
# search)
EXTREMAL_WORK = (("3142", 6, 295, 1395), ("213", 8, 707, 12713),
                 ("12", 14, 183, 1289))


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0  # set by run_suite: time since the previous check


def _check(name: str, failures: list, detail: str) -> Check:
    """A check that passes when no case failed; a failed one reports how
    many cases failed and the first five."""
    if failures:
        detail += f"; {len(failures)} failed, first: {failures[:5]}"
    return Check(name, not failures, detail)


class RunManifest(NamedTuple):
    """Machine-readable record of one verification run."""

    command: str
    parameters: dict
    seed: int
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def summary(self) -> str:
        passed = sum(1 for c in self.checks if c.passed)
        return f"{passed}/{len(self.checks)} checks passed"

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "seed": self.seed,
            "python": ".".join(map(str, sys.version_info[:3])),
            "checks": [c._asdict() for c in self.checks],
            "summary": self.summary,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _random_word(rng: random.Random, max_len: int, max_val: int = 6) -> Word:
    length = rng.randint(1, max_len)
    raw = tuple(rng.randint(1, max_val) for _ in range(length))
    return Word(canonical_form(raw))


def _random_subpattern(rng: random.Random, word: Word, max_len: int) -> Word:
    k = rng.randint(1, min(max_len, word.length))
    positions = sorted(rng.sample(range(word.length), k))
    return Word(canonical_form(tuple(word.entries[p] for p in positions)))


def _all_words_of_length(length: int):
    """Every gap-free word of the given length."""
    for raw in product(range(1, length + 1), repeat=length):
        values = set(raw)
        if len(values) == max(raw):
            yield Word(raw)


# ---------------------------------------------------------------------------
# core: containment on words


def _suite_core(rng: random.Random) -> Iterator[Check]:
    fixed = [
        ("23718465", "312", True),
        ("23718465", "2134", True),
        ("23718465", "4321", False),
        ("1214324", "122", True),
        ("1214324", "123", True),
        ("1214324", "321", True),
        ("1214324", "211", False),
        ("1212", "111", False),
        ("1", "12", False),
    ]
    bad = [(w, q, want) for w, q, want in fixed
           if contains(Word.parse(w), Word.parse(q)) is not want]
    yield _check("example-containments", bad, f"{len(fixed)} fixed cases")

    got = contained_patterns(Word.parse("23718465"), 3)
    want = {Word.parse(p) for p in THREE_PATTERNS}
    yield _check("three-letter-patterns", sorted(map(str, got ^ want)),
                 "23718465 holds all six 3-patterns")

    words = [_random_word(rng, 10) for _ in range(200)]
    yield _check("reflexivity",
                 [str(w) for w in words if not contains(w, w)],
                 "200 random words")

    mono_bad = []
    for _ in range(200):
        w = _random_word(rng, 9)
        q = _random_subpattern(rng, w, 4)
        extended = Word(canonical_form(w.entries + (rng.randint(1, 6),)))
        if contains(w, q) and not contains(extended, q):
            mono_bad.append((str(w), str(extended), str(q)))
    yield _check("append-monotonicity", mono_bad, "200 random extensions")

    trans_bad = []
    for _ in range(200):
        w = _random_word(rng, 8)
        u = _random_subpattern(rng, w, 6)
        q = _random_subpattern(rng, u, 4)
        if not (contains(w, u) and contains(u, q) and contains(w, q)):
            trans_bad.append((str(w), str(u), str(q)))
    yield _check("transitivity", trans_bad, "200 random chains")

    sym_bad = []
    for _ in range(200):
        w = _random_word(rng, 8)
        q = _random_word(rng, 4)
        base = contains(w, q)
        if base != contains(reverse(w), reverse(q)):
            sym_bad.append((str(w), str(q), "reverse"))
        if base != contains(complement(w), complement(q)):
            sym_bad.append((str(w), str(q), "complement"))
    yield _check("symmetry-equivariance", sym_bad, "200 random pairs")

    idem_bad = []
    for _ in range(200):
        w = _random_word(rng, 10)  # already canonical
        form = canonical_form(w.entries)
        if not canonical_form(form) == form == w.entries:
            idem_bad.append(str(w))
    yield _check("canonical-idempotence", idem_bad, "200 random words")

    # the witness `contains` prints is the lexicographically first one
    brute_bad = []
    for _ in range(300):
        w = _random_word(rng, 8)
        q = _random_word(rng, 4)
        first = next((pos for pos in combinations(range(1, w.length + 1),
                                                  q.length)
                      if canonical_form([w.entries[i - 1] for i in pos])
                      == q.entries), None)
        if (contains(w, q) != contains_bruteforce(w, q)
                or find_occurrence(w, q) != first):
            brute_bad.append((str(w), str(q)))
    yield _check("bruteforce-agreement", brute_bad,
                 "300 random pairs vs all-subsequences check, "
                 "witness included")


# ---------------------------------------------------------------------------
# catalan: permutation avoider counts


def _suite_catalan(rng: random.Random) -> Iterator[Check]:
    bad = []
    for pat in THREE_PATTERNS:
        q = Word.parse(pat)
        for n in range(1, 9):
            if count_avoiders(n, q).count != catalan(n):
                bad.append((pat, n))
    yield _check("catalan-agreement", bad, "6 patterns, n = 1..8")

    a = count_avoiders(6, Word.parse("1234")).count
    b = count_avoiders(6, Word.parse("1342")).count
    s6 = MultisetSpec.regular(6, 1)
    a_ref = count_multiset_avoiders_bruteforce(s6, Word.parse("1234"))
    b_ref = count_multiset_avoiders_bruteforce(s6, Word.parse("1342"))
    split_bad = [(pat, got, ref) for pat, got, ref
                 in (("1234", a, a_ref), ("1342", b, b_ref)) if got != ref]
    if a == b:
        split_bad.append(("S6(1234) = S6(1342)", a))
    yield _check("wilf-split-length-4", split_bad,
                 f"S6(1234) = {a}, S6(1342) = {b}, "
                 "no-pruning reference agrees")

    sym_bad = []
    for pat in ("123", "132", "1234", "1342"):
        q = Word.parse(pat)
        for n in range(1, 7):
            base = count_avoiders(n, q).count
            if base != count_avoiders(n, reverse(q)).count:
                sym_bad.append((pat, n, "reverse"))
            if base != count_avoiders(n, complement(q)).count:
                sym_bad.append((pat, n, "complement"))
    yield _check("reverse-complement-counts", sym_bad, "4 patterns, n = 1..6")

    # beyond brute-force reach: Gessel's and Bona's closed forms
    want = {("1234", 9): _gessel_1234(9), ("1234", 10): _gessel_1234(10),
            ("1342", 9): _bona_1342(9)}
    got = {(pat, n): count_avoiders(n, Word.parse(pat)).count
           for pat, n in want}
    yield _check("gessel-bona",
                 [(*key, got[key], want[key]) for key in want
                  if got[key] != want[key]],
                 ", ".join(f"S{n}({pat}) = {got[pat, n]}"
                           for pat, n in want) +
                 " against Gessel (1234) and Bona (1342)")

    trivial_bad = [("12", rec.n) for rec in sequence(Word.parse("12"), 6)
                   if rec.count != 1]
    trivial_bad += [(p, 1) for p in ("12", "321", "1342")
                    if count_avoiders(1, Word.parse(p)).count != 1]
    yield _check("trivial-counts", trivial_bad,
                 "pattern 12 leaves one avoider; n = 1 always one")


def _exact(value: Fraction) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"closed form gave a non-integer: {value}")
    return int(value)


def _gessel_1234(n: int) -> int:
    """Permutations of [n] avoiding 1234, by Gessel's formula:
    2 * sum_k C(2k,k) C(n,k)^2 (3k^2+2k+1-n-2nk) / ((k+1)^2 (k+2) (n-k+1))."""
    return _exact(2 * sum(
        Fraction(math.comb(2 * k, k) * math.comb(n, k) ** 2
                 * (3 * k * k + 2 * k + 1 - n - 2 * n * k),
                 (k + 1) ** 2 * (k + 2) * (n - k + 1))
        for k in range(n + 1)))


def _bona_1342(n: int) -> int:
    """Permutations of [n] avoiding 1342: the coefficient of x^n in Bona's
    32x / (1 + 20x - 8x^2 - (1-8x)^(3/2))."""
    # (1-8x)^(3/2) = sum_i c_i x^i, by the binomial series
    c = [Fraction(1)]
    for i in range(1, n + 2):
        c.append(c[-1] * (Fraction(3, 2) - (i - 1)) * -8 / i)
    # the denominator is x * d(x), so the series is 32 / d(x)
    d = [20 - c[1], -8 - c[2], *(-v for v in c[3:])]
    inverse: list[Fraction] = []
    for i in range(n + 1):
        acc = Fraction(32 if i == 0 else 0) - sum(
            d[j] * inverse[i - j] for j in range(1, i + 1))
        inverse.append(acc / d[0])
    return _exact(inverse[n])


# ---------------------------------------------------------------------------
# stirling: multiset counts and closed forms


def _suite_stirling(rng: random.Random) -> Iterator[Check]:
    q212 = Word.parse("212")

    bad = [(n, m) for n in range(1, 5) for m in range(1, 4)
           if count_multiset_avoiders(MultisetSpec.regular(n, m), q212).count
           != stirling_count(n, m)]
    yield _check("multiset-212-agreement", bad, "n = 1..4, m = 1..3")

    prod_bad = []
    for n in range(1, 10):
        for m in range(1, 5):
            prod = 1
            for i in range(n):
                prod *= m * i + 1
            if stirling_count(n, m) != prod:
                prod_bad.append((n, m))
    yield _check("rational-product-identity", prod_bad,
                 "closed form equals prod(m*i+1), n <= 9, m <= 4")

    roots = [stirling_count(n, 2) ** (1 / (2 * n)) for n in range(2, 9)]
    yield _check("super-exponential-growth",
                 [n for n, (x, y) in enumerate(zip(roots, roots[1:]), 2)
                  if not x < y],
                 "per-symbol root of the m = 2 count rises, n = 2..8")

    multi_bad = []
    for length in range(1, 9):
        for comp in _compositions(length):
            spec = MultisetSpec(comp)
            if total_words(spec) != sum(1 for _ in iter_words(spec)):
                multi_bad.append(comp)
    yield _check("multinomial-exhaustive", multi_bad,
                 "all multisets of size <= 8 against full generation")

    # repeated letters and uneven multisets, where dead embeddings arise:
    # each word's patterns are read off all its subsequences once
    patterns = [q for k in range(1, 5) for q in _all_words_of_length(k)]
    eng_bad, eng_cases = [], 0
    for length in range(1, 7):
        for comp in _compositions(length):
            spec = MultisetSpec(comp)
            held: Counter = Counter()
            for w in iter_words(spec):
                for k in range(1, min(4, length) + 1):
                    held.update(contained_patterns(Word(w), k))
            total = total_words(spec)
            for q in patterns:
                eng_cases += 1
                if count_multiset_avoiders(spec, q).count != total - held[q]:
                    eng_bad.append((comp, str(q)))
    yield _check("engine-exhaustive", eng_bad,
                 f"{eng_cases} cases: every multiset of size <= 6 "
                 f"against all {len(patterns)} patterns of length "
                 "<= 4, vs all-subsequences containment")

    # Savage and Wilf (2006): all six 3-patterns are equally avoided on
    # every multiset; this compares counts only, not the engine's states
    sw_bad, sw_cases = [], 0
    for length in range(1, 9):
        for comp in _compositions(length):
            sw_cases += 1
            counts = [count_multiset_avoiders(MultisetSpec(comp),
                                              Word.parse(pat)).count
                      for pat in THREE_PATTERNS]
            if len(set(counts)) > 1:
                sw_bad.append((comp, counts))
    yield _check("savage-wilf", sw_bad,
                 f"the 6 patterns of length 3 agree on all {sw_cases} "
                 "multisets of size <= 8")

    # Switching off a pruning step leaves every count exact, so the work is
    # pinned too: peak layer states and transitions at most their values
    # when last lowered
    works = [(pat, mults, peak, moves, count_multiset_avoiders(
                MultisetSpec(mults), Word.parse(pat)).work)
             for pat, mults, peak, moves in PEAK_STATES]
    yield _check("engine-work",
                 [(pat, str(MultisetSpec(mults)), work.peak_states,
                   work.transitions)
                  for pat, mults, peak, moves, work in works
                  if work.peak_states > peak or work.transitions > moves],
                 "peak layer states and transitions " + ", ".join(
                     f"{pat} on ({MultisetSpec(mults)}) {work.peak_states} "
                     f"and {work.transitions} (at most {peak} and {moves})"
                     for pat, mults, peak, moves, work in works))

    single = count_multiset_avoiders(MultisetSpec((4,)), Word.parse("12")).count
    degenerate_bad = [] if single == 1 else [((4,), "12", single)]
    degenerate_bad += [
        (n, p) for n in range(1, 6) for p in ("12", "123", "321")
        if count_multiset_avoiders(MultisetSpec.regular(n, 1),
                                   Word.parse(p)).count
        != count_avoiders(n, Word.parse(p)).count]
    yield _check("degenerate-specs", degenerate_bad,
                 "single-value multiset and m = 1 reduction")

    spec32 = MultisetSpec.regular(3, 2)
    base = count_multiset_avoiders(spec32, q212).count
    yield _check("multiset-count-symmetry",
                 [str(q) for q in (reverse(q212), complement(q212))
                  if count_multiset_avoiders(spec32, q).count != base],
                 "212 vs its reverse and complement on [3]_2")

    # past enumeration's reach, totals are judged by the factorial formula
    specs = [MultisetSpec(tuple(rng.randint(1, 8)
                                for _ in range(rng.randint(1, 12))))
             for _ in range(300)]
    yield _check("multinomial-factorials",
                 [str(spec) for spec in specs
                  if total_words(spec) != math.factorial(spec.length)
                  // math.prod(map(math.factorial, spec.multiplicities))],
                 f"L! // prod(m_i!) on {len(specs)} seeded multisets of "
                 "1-12 values with multiplicity 1-8")


def _compositions(total: int):
    """All ordered tuples of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for tail in _compositions(total - head):
            yield (head,) + tail


# ---------------------------------------------------------------------------
# matrix: containment and the extremal function


def _suite_matrix(rng: random.Random) -> Iterator[Check]:
    con_bad = []
    pattern_pairs = [(Word.parse(pat), perm_to_matrix(Word.parse(pat)))
                     for pat in SMALL_PATTERNS]
    perms = [Word(perm) for n in range(1, 7)
             for perm in permutations(range(1, n + 1))]
    for p in perms:
        mp = perm_to_matrix(p)
        for q, mq in pattern_pairs:
            want = contains_bruteforce(p, q)
            if contains(p, q) != want or matrix_contains(mp, mq) != want:
                con_bad.append((str(p), str(q)))
    yield _check("word-matrix-consistency", con_bad,
                 f"exhaustive |p| <= 6, |q| <= 3: "
                 f"{len(perms) * len(pattern_pairs)} pairs, word and "
                 "matrix containment each judged by all-subsequences "
                 "brute force")

    records = extremal_table(perm_to_matrix(Word.parse("12")), 5)
    yield _check("identity-extremal-line",
                 [(rec.n, rec.value, str(rec.slope)) for rec in records
                  if rec.value != 2 * rec.n - 1
                  or rec.slope != Fraction(2 * rec.n - 1, rec.n)],
                 "f(n) = 2n-1 and slope (2n-1)/n for n = 1..5")

    yield _check("extremal-monotonicity",
                 [rec.n for rec, nxt in zip(records, records[1:])
                  if not rec.value <= nxt.value
                  <= rec.value + 2 * rec.n + 1],
                 "f(n) <= f(n+1) <= f(n) + 2n + 1 along the table")

    # the oracle is the all-injections graph check, not the search's own
    yield _check("witness-validity", [
        rec.n for rec in records
        if not (rec.witness.ones == rec.value
                and not ordered_contains_bruteforce(
                    graph_of_matrix(rec.witness), graph_of_matrix(rec.pattern))
                and rec.witness.rows == rec.witness.cols == rec.n)],
        "witnesses re-checked by all-injections containment and popcount")

    dihedral_bad = []
    patterns = [Word.parse(p) for p in ("12", "21", *THREE_PATTERNS)]
    pats = [perm_to_matrix(q) for q in patterns]
    for q, pat in zip(patterns, pats):
        label = "/".join(pat.row_strings())
        for n in range(1, 5):
            base = extremal_f(n, pat).value
            # reversing the rows of q's matrix gives complement(q)'s, and
            # reversing its columns gives reverse(q)'s
            if extremal_f(n, perm_to_matrix(complement(q))).value != base:
                dihedral_bad.append((label, n, "rows"))
            if extremal_f(n, perm_to_matrix(reverse(q))).value != base:
                dihedral_bad.append((label, n, "cols"))
    yield _check("dihedral-symmetry", dihedral_bad,
                 "row/col reversal of all 2x2 and 3x3 patterns, n <= 4")

    exh_bad = []
    for pat in pats:
        gq = graph_of_matrix(pat)
        for n in range(1, 4):
            # the all-injections verdict for every n x n grid; bit r*n + c is
            # cell (r, c), so the reversed bit string is the row-major one
            best = max((bin(mask).count("1"), format(mask, f"0{n * n}b")[::-1])
                       for mask in range(1 << (n * n))
                       if not ordered_contains_bruteforce(
                           BipartiteGraph.from_mask(n, n, mask), gq))
            rec = extremal_f(n, pat)
            if best != (rec.value, "".join(rec.witness.row_strings())):
                exh_bad.append(("/".join(pat.row_strings()), n))
    yield _check("small-exhaustive-crosscheck", exh_bad,
                 "all 2^(n*n) matrices for n <= 3, checked by "
                 "all-injections containment, agree with the search "
                 "for all 2x2 and 3x3 permutation patterns on the "
                 "value and on the witness, the lexicographically "
                 "largest optimum")

    # beyond exhaustive reach: Furedi-Hajnal ex(n, I_k) = 2(k-1)n - (k-1)^2
    # for I2, I3, I4 and their reflections; the other 3x3 patterns match it
    # here.  The sizes are fixed, so each case passes its own max_n.
    fh_cases = [(pat, 6 if pat.rows == 2 else 5) for pat in pats]
    fh_cases += [(perm_to_matrix(Word.parse(p)), n)
                 for p, n in (("12", 10), ("21", 10), ("12", 20), ("21", 20),
                              ("123", 7), ("321", 7), ("1234", 8))]
    fh_bad = []
    for pat, n in fh_cases:
        k = pat.rows
        value = extremal_f(n, pat, max_n=n).value
        if value != 2 * (k - 1) * n - (k - 1) ** 2:
            fh_bad.append(("/".join(pat.row_strings()), n, value))
    yield _check("furedi-hajnal", fh_bad,
                 "f = 2(k-1)n - (k-1)^2: 11 for both 2x2 patterns at "
                 "n = 6, 19 at n = 10 and 39 at n = 20, 16 for all "
                 "six 3x3 patterns at n = 5, 24 for I3 and its "
                 "anti-diagonal at n = 7, and 39 for I4 at n = 8")

    tables = {pat: [extremal_f(n, perm_to_matrix(Word.parse(pat))).value
                    for n in range(1, 5)]
              for pat in THREE_PATTERNS}
    yield _check("same-size-pattern-agreement",
                 [(pat, table) for pat, table in tables.items()
                  if table != tables["123"]],
                 f"all six 3-patterns give f = {tables['123']} at "
                 "n <= 4; a finite observation, not an asymptotic claim")

    # a pruning step switched off leaves every value exact: memoized states
    # and transitions at most their values when last lowered
    works = [(pat, n, states, moves,
              extremal_f(n, perm_to_matrix(Word.parse(pat))))
             for pat, n, states, moves in EXTREMAL_WORK]
    yield _check("engine-work",
                 [(pat, n, rec.states, rec.transitions)
                  for pat, n, states, moves, rec in works
                  if rec.states > states or rec.transitions > moves],
                 "states and transitions " + ", ".join(
                     f"{pat} at n = {n} {rec.states} and {rec.transitions} "
                     f"(at most {states} and {moves})"
                     for pat, n, states, moves, rec in works))


# ---------------------------------------------------------------------------
# contraction: graph encodings and block contraction


def _graphs_on(a: int, b: int):
    for mask in range(1 << (a * b)):
        yield BipartiteGraph.from_mask(a, b, mask)


def _graph_case(G: BipartiteGraph) -> tuple[int, int, tuple]:
    """A graph as (left size, right size, sorted edges), for a failing
    case."""
    return G.left_size, G.right_size, tuple(sorted(G.edges))


def _suite_contraction(rng: random.Random) -> Iterator[Check]:
    ordinary = [Word.parse(p) for p in SMALL_PATTERNS]
    ordinary_graphs = [(q, pattern_graph(q)) for q in ordinary]

    spec_top, spec_bottom = MultisetSpec.regular(2, 2), MultisetSpec((3,))
    g1212 = graph_of_word(Word.parse("1212"), spec_top)
    g111 = graph_of_word(Word.parse("111"), spec_bottom)
    before = ordered_contains(g1212, g111)
    after = ordered_contains(contract(g1212, spec_top),
                             contract(g111, spec_bottom))
    yield _check("contraction-counterexample",
                 [] if (before, after) == (False, True)
                 else [("1212", "111")],
                 f"1212 vs 111: containment before {before}, "
                 f"after contraction {after}")

    enc_bad = []
    small_words = [w for length in range(1, 6)
                   for w in _all_words_of_length(length)]
    sampled_words = [_random_word(rng, 8) for _ in range(300)]
    for w in small_words + sampled_words:
        gw = pattern_graph(w)
        for q, gq in ordinary_graphs:
            # both encodings run one kernel, so the all-subsequences
            # reference judges each case as well
            want = contains_bruteforce(w, q)
            if contains(w, q) != want or ordered_contains(gw, gq) != want:
                enc_bad.append((str(w), str(q)))
    enc_cases = (len(small_words) + len(sampled_words)) * len(ordinary_graphs)
    yield _check("encoding-equivalence", enc_bad,
                 f"word vs graph containment vs the all-subsequences "
                 f"reference on {enc_cases} cases")

    # exhaustive on small sides, including isolated vertices and left
    # vertices with several neighbours in Q
    hosts = [P for a in range(1, 4) for b in range(1, 4)
             for P in _graphs_on(a, b)]
    guests = [Q for a in range(1, 3) for b in range(1, 3)
              for Q in _graphs_on(a, b)]
    mat_bad = [(_graph_case(P), _graph_case(Q)) for P in hosts for Q in guests
               if ordered_contains(P, Q) != ordered_contains_bruteforce(P, Q)]
    for _ in range(300):
        a, b = rng.randint(1, 5), rng.randint(1, 5)
        P = BipartiteGraph.from_mask(a, b, rng.getrandbits(a * b))
        qa, qb = rng.randint(1, a), rng.randint(1, b)
        Q = BipartiteGraph.from_mask(qa, qb, rng.getrandbits(qa * qb))
        want = ordered_contains(P, Q)
        if (want != matrix_contains(adjacency(P), adjacency(Q))
                or want != ordered_contains_bruteforce(P, Q)):
            mat_bad.append((_graph_case(P), _graph_case(Q)))
    yield _check("matrix-equivalence", mat_bad,
                 f"all {len(hosts) * len(guests)} pairs with host "
                 "sides <= 3 and pattern sides <= 2 vs the "
                 "all-injections reference, and 300 random graphs vs "
                 "the adjacency-matrix route and that reference")

    # an avoided ordinary pattern stays avoided under contraction, on every
    # graph of three small sizes and on seeded graphs of three larger ones
    def sampled():
        sizes = ((3, 2), (4, 2), (3, 3))
        specs = {(n, m): MultisetSpec.regular(n, m) for n, m in sizes}
        for t in range(10000):
            n, m = sizes[t % len(sizes)]
            cells = n * m * n
            mask = rng.getrandbits(cells)
            for _ in range(t % 3):  # thin out some graphs to reach avoiders
                mask &= rng.getrandbits(cells)
            yield BipartiteGraph.from_mask(n * m, n, mask), specs[n, m]

    exhaustive = ((G, spec) for n, m in ((2, 1), (2, 2), (3, 1))
                  for spec in [MultisetSpec.regular(n, m)]
                  for G in _graphs_on(n * m, n))
    for name, graphs, what in (
            ("inheritance-exhaustive", exhaustive,
             "all graphs for (n,m) in (2,1),(2,2),(3,1)"),
            ("inheritance-random", sampled(), "10000 seeded graphs")):
        inh_bad, inh_cases = [], 0
        for G, spec in graphs:
            contracted = None
            for q, gq in ordinary_graphs:
                if not ordered_contains(G, gq):
                    inh_cases += 1
                    if contracted is None:
                        contracted = contract(G, spec)
                    if ordered_contains(contracted, gq):
                        inh_bad.append((_graph_case(G), str(q)))
        yield _check(name, inh_bad, f"{what}: {inh_cases} avoiding cases")


# ---------------------------------------------------------------------------
# proof-chain: fibers, censuses and formula bounds


def _suite_proof_chain(rng: random.Random) -> Iterator[Check]:
    single = BipartiteGraph(1, 1, frozenset({(1, 1)}))
    size = fiber_size(single, MultisetSpec((2,)))
    yield _check("fiber-single-edge", [] if size == 3 else [size],
                 "one edge over a block of size 2 has 3 preimages")

    part_bad = []
    for n in range(1, 3):
        for m in range(1, 4):
            spec = MultisetSpec.regular(n, m)
            sigma = sum(fiber_size(G, spec) for G in _graphs_on(n, n))
            if sigma != 2 ** (m * n * n):
                part_bad.append((n, m, sigma))
    yield _check("fiber-partition", part_bad,
                 "fiber sizes sum to 2^(m*n^2) for n <= 2, m <= 3")

    spec22 = MultisetSpec.regular(2, 2)
    k22 = BipartiteGraph(2, 2, frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    inverted = sum(1 for G in _graphs_on(4, 2)
                   if contract(G, spec22) == k22)
    counted = fiber_size(k22, spec22)
    yield _check("fiber-inversion",
                 [] if inverted == 81 == counted
                 else [(inverted, counted)],
                 "exhaustive preimage count of the complete graph "
                 "over 256 graphs")

    # the census walk against an all-masks scan judged by all-injections
    # containment, independent of both the walk and its kernel
    exh_bad, exh_cases = [], 0
    patterns = [(q, pattern_graph(q)) for q in map(Word.parse, SMALL_PATTERNS)]
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1)):
        avoiders = Counter()
        for G in _graphs_on(n * m, n):
            avoiders.update(q for q, gq in patterns
                            if not ordered_contains_bruteforce(G, gq))
        for q, _ in patterns:
            exh_cases += 1
            if census_avoiding_graphs(n, m, q) != avoiders[q]:
                exh_bad.append((n, m, str(q)))
    yield _check("census-exhaustive", exh_bad,
                 f"{exh_cases} censuses: every pattern of length <= 3 "
                 "on (1,1), (1,2), (2,1), (2,2), (2,3), (3,1) vs an "
                 "all-masks scan with all-injections containment")

    # when the pattern's length k equals n, the right classes match only
    # through the identity, so a graph on ([km],[k]) contains p exactly
    # when some rows r_1 < .. < r_k hold the edges (r_i, p_i).  A greedy
    # scan down the rows decides that: after matching t letters, a row
    # matches letter t+1 when it holds (r, p_{t+1}).  Before the scan
    # completes, each row advances it with 2^(k-1) masks (bit p_{t+1} set,
    # any other bits) and leaves it with the other 2^(k-1).  So an avoider
    # is a choice of the j < k rows that advance, and 2^(k-1) masks per
    # row: census(p, k, m) = 2^((k-1)km) * sum_{j<k} C(km, j).  At k = 2
    # this is (2m+1) 4^m, and at m = 1 it is 2^(k^2) - 2^(k^2-k)
    full_bad, full_cases = [], 0
    # per k, the largest m checked
    for k, m_max in ((1, 24), (2, 12), (3, 2), (4, 1)):
        for m in range(1, m_max + 1):
            want = 2 ** ((k - 1) * k * m) * sum(
                math.comb(k * m, j) for j in range(k))
            for p in permutations(range(1, k + 1)):
                full_cases += 1
                try:
                    got = census_avoiding_graphs(k, m, Word(p))
                except BudgetExceeded:
                    got = None  # every case here is in reach of the limit
                if got != want:
                    full_bad.append((k, m, "".join(map(str, p))))
    yield _check("census-full-width", full_bad,
                 f"{full_cases} censuses: every k-pattern on (k,m), m <= "
                 "24, 12, 2, 1 at k = 1, 2, 3, 4, give "
                 "2^((k-1)km) sum_{j<k} C(km, j)")

    chain_sizes = ((2, 1), (2, 2), (3, 1), (2, 3), (2, 4), (3, 2))
    censuses = {(n, m, pat): census_avoiding_graphs(n, m, Word.parse(pat))
                for n, m in chain_sizes for pat in ("12", "21")}
    chain_bad = []
    for (n, m, pat), census in censuses.items():
        spec = MultisetSpec.regular(n, m)
        gq = pattern_graph(Word.parse(pat))
        fiber_total = sum(fiber_size(G, spec) for G in _graphs_on(n, n)
                          if not ordered_contains(G, gq))
        if census > fiber_total:
            chain_bad.append((n, m, pat, census, fiber_total))
    yield _check("census-fiber-inequality", chain_bad,
                 "census <= avoiding-fiber mass at (2,1), (2,2), "
                 "(3,1), (2,3), (2,4), (3,2)")

    sandwich_bad = [
        (n, m, pat) for (n, m, pat), census in censuses.items()
        if count_multiset_avoiders(MultisetSpec.regular(n, m),
                                   Word.parse(pat)).count > census]
    yield _check("word-census-sandwich", sandwich_bad,
                 "avoiding words never outnumber avoiding graphs "
                 "at the same six sizes")

    d95 = Fraction(9, 5)
    fixed = [((1, 1, 1), "klazar_bound", 225),
             ((1, 2, 1), "multiset_bound", 675), ((1, 1, 1), "e_q", 450),
             ((3, 2, 0), "klazar_bound", 1),
             ((3, 2, 0), "multiset_bound", 1), ((3, 2, 0), "e_q", 1),
             ((5, 2, d95), "klazar_bound", 15 ** 18),
             ((5, 2, d95), "multiset_bound", 675 ** 9)]
    bound_bad = [(*map(str, args), part) for args, part, want in fixed
                 if getattr(bounds(*args), part).value != want]
    bound_bad += [(*map(str, args), "multiset < balanced") for args in
                  [(5, 2, d95), *product(range(1, 4), range(1, 4), [1])]
                  if bounds(*args).multiset_bound.value
                  < bounds(*args).klazar_bound.value]
    yield _check("bound-formulas", bound_bad,
                 "fixed evaluations and multiset >= balanced bound")


SUITES = {
    "core": _suite_core,
    "catalan": _suite_catalan,
    "stirling": _suite_stirling,
    "matrix": _suite_matrix,
    "contraction": _suite_contraction,
    "proof-chain": _suite_proof_chain,
}


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> RunManifest:
    """Run one suite (or 'all'); each suite gets its own rng seeded from
    (seed, suite name) so results do not depend on execution order."""
    if suite != "all" and suite not in SUITES:
        raise ParseError(f"unknown suite {suite!r}; "
                         f"choose from {', '.join([*SUITES, 'all'])}")
    names = list(SUITES) if suite == "all" else [suite]
    manifest = RunManifest(command="verify", parameters={"suite": suite},
                           seed=seed, checks=[])
    for name in names:
        # string seeding hashes via sha512, stable across processes
        checks = SUITES[name](random.Random(f"{seed}:{name}"))
        while True:
            # a check's time runs from the previous yield to its own, and
            # the checks made before a fault stay in the manifest
            start = perf_counter()
            try:
                check = next(checks, None)
            except Exception as exc:
                # a certificate refused an answer, or a checked routine
                # failed: report the suite as failed and keep the manifest
                # whole (the stopped suite ends the loop at the next step)
                check = _check("internal-checks", [exc], "suite stopped")
            if check is None:
                break
            manifest.checks.append(Check(f"{name}:{check.name}", check.passed,
                                         check.detail, perf_counter() - start))
    return manifest
