"""One pass of a benchmark workload, in a fresh interpreter.

Reads a request as JSON on stdin and writes one JSON object on stdout.
`run.py` starts this file with `python -I`, so the interpreter pays the
same imports a CLI user pays, and no cache survives from an earlier pass.

Modes:
  setup      import permpat.cli, build the job inputs, report the time
  pass       setup, then time every job; with "trace" also wrap the names
             each module calls across its boundary and count their calls
  reference  answer each point query of the `query` workload by a second,
             independent route (and a seeded sample by brute force)

Answers are checked after the timed section, never inside it.
"""
from __future__ import annotations

import json
import os
import random
import resource
import sys
import time


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import permpat.cli  # noqa: F401  the CLI imports every module
    import_s = time.perf_counter() - t0
    import permpat
    if not os.path.abspath(permpat.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise ImportError(f"permpat imported from {permpat.__file__}, "
                          f"not from {src}")
    return import_s


def probe_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop that never touches permpat.

    Other tenants of a shared host slow every process on it, by up to two
    thirds and for minutes at a time.  Timing this loop between the jobs
    of a pass lets run.py scale each job to a fixed host speed.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


# A pass probes the host before its first job, then after each run of jobs
# that took at least this long, and after its last job.
PROBE_EVERY_S = 0.25


# --- tracing ----------------------------------------------------------------

class Span:
    __slots__ = ("calls", "hits", "seconds", "child_s")

    def __init__(self):
        self.calls = self.hits = 0
        self.seconds = self.child_s = 0.0


class Tracer:
    """Counting and timing wrappers installed on module attributes.

    A wrapper counts calls, calls whose result is a hit, and its own wall
    time; time spent in wrapped calls nested inside it is its child time,
    so seconds - child_s is the layer's self time.  Calls made inside
    forked pool workers are not seen.
    """

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, hit=None) -> None:
        """Replace owner.attr; `name` is a layer name or a function of the
        call's arguments that returns one."""
        if not hasattr(owner, attr):
            self.absent.extend([name] if isinstance(name, str) else name.names)
            return
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        fn = getattr(owner, attr)
        stack, spans = self._stack, self.spans
        pick = (lambda args, kwargs: name) if isinstance(name, str) else name
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
            key = pick(args, kwargs)
            span = spans.get(key)
            if span is None:
                span = spans[key] = Span()
            span.calls += 1
            span.seconds += dt
            span.child_s += child
            if hit is not None and hit(result):
                span.hits += 1
            return result

        self._undo.append((owner, attr, raw if raw is not None else fn))
        setattr(owner, attr, staticmethod(wrapper)
                if isinstance(raw, classmethod) else wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        return {name: {"calls": s.calls, "hits": s.hits,
                       "seconds": s.seconds, "child_s": s.child_s}
                for name, s in self.spans.items()}


class CountLayer:
    """Attributes a count call to the pool layer when it uses workers."""

    names = ("counting.count", "counting.pool")

    def __call__(self, args, kwargs):
        return self.names[1] if kwargs.get("workers", 1) > 1 else self.names[0]


def install_tracer() -> Tracer:
    from permpat import bigraphs, counting, matrices, words
    tracer = Tracer()
    tracer.wrap(counting, "_occurs_using_final", "words.occurs_final", bool)
    tracer.wrap(words, "find_occurrence", "words.find_occurrence",
                lambda r: r is not None)
    tracer.wrap(counting, "count_multiset_avoiders", CountLayer())
    tracer.wrap(matrices, "_cells_contains", "matrices.cells_contains", bool)
    tracer.wrap(matrices, "matrix_contains", "matrices.matrix_contains", bool)
    tracer.wrap(matrices, "extremal_f", "matrices.extremal")
    tracer.wrap(bigraphs.BipartiteGraph, "from_mask", "bigraphs.from_mask")
    tracer.wrap(bigraphs, "ordered_contains", "bigraphs.ordered_contains", bool)
    tracer.wrap(bigraphs, "census_avoiding_graphs", "bigraphs.census")
    return tracer


# --- jobs -------------------------------------------------------------------

def make_call(job: dict):
    """A no-argument call for the job.  Library names are looked up on their
    module at call time, so tracing wrappers see the call."""
    from permpat import bigraphs, counting, matrices, words
    from permpat.matrices import BinaryMatrix
    from permpat.words import MultisetSpec, Word
    kind = job["kind"]
    if kind == "count":
        pattern, mults = Word(tuple(job["pattern"])), tuple(job["mults"])
        workers = job["workers"]
        if set(mults) == {1} and pattern.is_permutation:
            return lambda: counting.count_avoiders(
                len(mults), pattern, workers=workers).count
        spec = MultisetSpec(mults)
        return lambda: counting.count_multiset_avoiders(
            spec, pattern, workers=workers).count
    if kind == "extremal":
        pattern = BinaryMatrix(tuple(map(tuple, job["cells"])))
        return lambda: matrices.extremal_f(job["n"], pattern,
                                           max_n=job["max_n"])
    if kind == "census":
        pattern = Word(tuple(job["pattern"]))
        return lambda: bigraphs.census_avoiding_graphs(job["n"], job["m"],
                                                       pattern)
    # point queries build their objects inside the timed call
    if kind == "word":
        w, p = tuple(job["word"]), tuple(job["pattern"])
        return lambda: words.find_occurrence(Word(w), Word(p))
    if kind == "matrix":
        cells, perm = tuple(map(tuple, job["cells"])), tuple(job["perm"])
        return lambda: matrices.matrix_contains(
            BinaryMatrix(cells), matrices.perm_to_matrix(Word(perm)))
    if kind == "graph":
        a, b, mask = job["left"], job["right"], job["mask"]
        p = tuple(job["pattern"])
        return lambda: bigraphs.ordered_contains(
            bigraphs.BipartiteGraph.from_mask(a, b, mask),
            bigraphs.pattern_graph(Word(p)))
    raise ValueError(f"unknown job kind {kind!r}")


def answer_of(job: dict, result):
    """The JSON answer compared against the reference, plus a check of any
    witness the call returned (None when there is nothing to check)."""
    from permpat.matrices import matrix_contains
    from permpat.words import canonical_form
    kind = job["kind"]
    if kind == "extremal":
        # the witness must carry `value` ones and avoid the pattern
        ok = (result.witness.ones == result.value
              and not matrix_contains(result.witness, result.pattern))
        return result.value, ok
    if kind == "word":
        if result is None:
            return False, None
        w, p = job["word"], job["pattern"]
        ok = (len(result) == len(p) and list(result) == sorted(set(result))
              and 1 <= result[0] and result[-1] <= len(w)
              and canonical_form([w[i - 1] for i in result]) == canonical_form(p))
        return True, ok
    if kind in ("matrix", "graph"):
        return bool(result), None
    return result, None


def _cpu_s() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_pass(jobs: list[dict], trace: bool) -> dict:
    """Time every job.  `segment[i]` indexes the probe taken after job i;
    the probe before it is `segment[i] - 1`.  Probe time is kept out of the
    wall and CPU times."""
    calls = [make_call(job) for job in jobs]
    ready = time.monotonic()
    tracer = install_tracer() if trace else None
    results: list = [None] * len(jobs)
    errors: dict[int, str] = {}
    times: list[float] = []
    segment: list[int] = []
    probes = [probe_s()]
    probe_cpu = 0.0
    since = 0.0
    perf_counter = time.perf_counter
    cpu0 = _cpu_s()
    for i, call in enumerate(calls):
        j0 = perf_counter()
        try:
            results[i] = call()
        except Exception as exc:  # a refusal or crash is a failed job
            errors[i] = f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - j0
        times.append(dt)
        segment.append(len(probes))
        since += dt
        if since >= PROBE_EVERY_S or i == len(calls) - 1:
            c0 = _cpu_s()
            probes.append(probe_s())
            probe_cpu += _cpu_s() - c0
            since = 0.0
    cpu = _cpu_s() - cpu0 - probe_cpu
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = {"spans": tracer.snapshot(), "absent": tracer.absent}
    answers, witness_ok = [], []
    for i, job in enumerate(jobs):
        if i in errors:
            answers.append(None)
            witness_ok.append(None)
            continue
        answer, ok = answer_of(job, results[i])
        answers.append(answer)
        witness_ok.append(ok)
    return {"ready": ready, "wall_s": sum(times), "cpu_s": cpu,
            "peak_rss_mb": peak_kb / 1024, "job_s": times,
            "probes": probes, "segment": segment,
            "answers": answers, "witness_ok": witness_ok,
            "errors": {str(i): e for i, e in errors.items()},
            "layers": layers}


# Largest number of candidate embeddings a brute-force check may try.
BRUTE_MAX = 5000


def _brute_cost(job: dict) -> int:
    from math import comb
    if job["kind"] == "word":
        return comb(len(job["word"]), len(job["pattern"]))
    if job["kind"] == "matrix":
        k = len(job["perm"])
        return comb(len(job["cells"]), k) * comb(len(job["cells"][0]), k)
    k, values = len(job["pattern"]), len(set(job["pattern"]))
    return comb(job["left"], k) * comb(job["right"], values)


def reference_answers(jobs: list[dict], seed: int, sample: int) -> dict:
    """Second-route answers for point queries.  A seeded sample of `sample`
    queries of each kind, among those small enough for brute force, is
    also answered that way and must agree with the second route."""
    from permpat.bigraphs import (BipartiteGraph, adjacency, graph_of_word,
                                  ordered_contains,
                                  ordered_contains_bruteforce, pattern_graph)
    from permpat.matrices import BinaryMatrix, matrix_contains, perm_to_matrix
    from permpat.words import MultisetSpec, Word, contains_bruteforce

    def graph_of_matrix(M):
        return BipartiteGraph(M.rows, M.cols, frozenset(
            (r + 1, c + 1) for r, row in enumerate(M.cells)
            for c, v in enumerate(row) if v))

    def second(job):
        if job["kind"] == "word":
            w, p = Word(tuple(job["word"])), Word(tuple(job["pattern"]))
            return (ordered_contains(graph_of_word(w, MultisetSpec.from_word(w)),
                                     pattern_graph(p)),
                    lambda: contains_bruteforce(w, p))
        if job["kind"] == "matrix":
            P = graph_of_matrix(BinaryMatrix(tuple(map(tuple, job["cells"]))))
            Q = graph_of_matrix(perm_to_matrix(Word(tuple(job["perm"]))))
            return (ordered_contains(P, Q),
                    lambda: ordered_contains_bruteforce(P, Q))
        G = BipartiteGraph.from_mask(job["left"], job["right"], job["mask"])
        Q = pattern_graph(Word(tuple(job["pattern"])))
        return (matrix_contains(adjacency(G), adjacency(Q)),
                lambda: ordered_contains_bruteforce(G, Q))

    rng = random.Random(seed)
    sampled = set()
    for kind in ("word", "matrix", "graph"):
        small = [i for i, job in enumerate(jobs)
                 if job["kind"] == kind and _brute_cost(job) <= BRUTE_MAX]
        sampled.update(rng.sample(small, min(sample, len(small))))
    expect, disagree = [], []
    for i, job in enumerate(jobs):
        value, brute = second(job)
        if i in sampled and brute() != value:
            disagree.append(i)
        expect.append(value)
    return {"expect": expect, "sampled": len(sampled), "disagree": disagree}


def main() -> int:
    request = json.load(sys.stdin)
    import_s = _import_program(request["root"])
    mode, jobs = request["mode"], request["jobs"]
    if mode == "setup":
        [make_call(job) for job in jobs]
        out = {"ready": time.monotonic(), "probe_s": probe_s()}
    elif mode == "pass":
        out = run_pass(jobs, request["trace"])
    elif mode == "reference":
        out = reference_answers(jobs, request["seed"], request["sample"])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out["import_s"] = import_s
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
