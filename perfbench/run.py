"""permpat benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload count --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload query --seconds 1 --smoke

Run from anywhere; the program is imported from `src/` beside this
directory.  Workloads are listed in `workloads.py`.  Every pass of a
workload is a fresh `python -I perfbench/child.py` process, the way a CLI
user pays for it.  Passes repeat until `--seconds` is used up, and each
metric is the median over the run's passes (set-up: over its fresh
interpreters).  With `--trace 1`, passes alternate between untraced and
traced ones, and the run reports the per-layer metrics and the tracing
overhead instead.

Times are host-scaled.  Other tenants of a shared host slow every process
on it, by up to two thirds for minutes at a time, which no number of
passes averages away.  So each process also times a fixed pure-Python
loop (`child.probe_s`) between its jobs, and each time it measured is
multiplied by PROBE_REF_S / (probe time around it): it reads as seconds
on a host that runs the loop in PROBE_REF_S.  The context line keeps the
raw times.

Every answer is checked against an independent reference outside the
timed section.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it
holds the run context (seed, jobs, versions, quartiles).

Exit codes: 0 every answer correct; 1 a job failed, was refused or
answered wrongly; 2 the program could not be found or started.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import probe_s
from workloads import WORKLOADS, build_jobs, describe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

# Every run ends within 180 s; the first may also compile bytecode.
HARD_LIMIT_S = 170.0
# Fresh interpreters started only to time set-up, besides one per pass.
SETUP_SPAWNS = 5
# Point queries of each kind also answered by brute force, per run.
BRUTE_SAMPLE = 15
# Probe time of the reference host: a 2-vCPU x86-64 VM with Python 3.11,
# with no other tenant busy, runs child.probe_s in about 6.5 ms.
PROBE_REF_S = 0.0065

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p99_ms": "ms",
}

# Layer metrics, each from the wrapper on the name given in child.py.
PER_LAYER = {
    "words.occurs_final.calls": "count", "words.occurs_final.s": "s",
    "words.occurs_final.hit_ratio": "ratio",
    "words.find_occurrence.calls": "count", "words.find_occurrence.s": "s",
    "words.find_occurrence.hit_ratio": "ratio",
    "counting.count.s": "s", "counting.self_s": "s",
    "counting.nodes_per_avoider": "count", "counting.pool.s": "s",
    "matrices.cells_contains.calls": "count", "matrices.cells_contains.s": "s",
    "matrices.cells_contains.hit_ratio": "ratio",
    "matrices.extremal.self_s": "s",
    "matrices.matrix_contains.calls": "count",
    "matrices.matrix_contains.s": "s",
    "matrices.matrix_contains.hit_ratio": "ratio",
    "bigraphs.from_mask.calls": "count", "bigraphs.from_mask.s": "s",
    "bigraphs.ordered_contains.calls": "count",
    "bigraphs.ordered_contains.s": "s",
    "bigraphs.ordered_contains.hit_ratio": "ratio",
    "bigraphs.census.self_s": "s", "bigraphs.census.avoid_ratio": "ratio",
    "setup.import_s": "s", "host.probe_s": "s", "trace.overhead_frac": "ratio",
}


class ProgramMissing(Exception):
    """The program under test could not be found or imported."""


class PassFailed(Exception):
    """A pass process crashed, printed no result or ran out of time."""


def spawn(request: dict, timeout: float) -> tuple[dict, float]:
    """Run child.py in a fresh interpreter; return its result and the
    monotonic time just before it was started."""
    payload = json.dumps(dict(request, root=str(ROOT)))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(CHILD)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(payload, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # the session also holds the pass's pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{request['mode']} process timed out") from None
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise PassFailed(f"{request['mode']} process failed: {tail[0]}")
    return json.loads(out), t_spawn


def program_version() -> str | None:
    try:
        text = (ROOT / "pyproject.toml").read_text()
    except OSError:
        return None
    match = re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)
    return match.group(1) if match else None


def git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"min": min(values), "q1": q1, "median": statistics.median(values),
            "q3": q3, "n": len(values)}


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def check_pass(jobs: list[dict], expect: list, bad: set[int],
               result: dict) -> list[str]:
    """Describe every failed job of one pass: an exception, a refusal, a
    wrong answer or an invalid witness."""
    failures = []
    for i, job in enumerate(jobs):
        label = job.get("id", f"{job['kind']} query {i}")
        if str(i) in result["errors"]:
            failures.append(f"{label}: {result['errors'][str(i)]}")
        elif result["answers"][i] != expect[i]:
            failures.append(f"{label}: answered {result['answers'][i]}, "
                            f"reference {expect[i]}")
        elif result["witness_ok"][i] is False:
            failures.append(f"{label}: invalid witness")
        elif i in bad:
            failures.append(f"{label}: second route and brute force disagree")
    return failures


def add_scaled_times(result: dict) -> None:
    """Scale each job time of a pass by the probes either side of it; the
    pass's `scale` is the resulting factor over its whole timed section."""
    probes = result["probes"]
    result["scaled_job_s"] = [
        t * 2 * PROBE_REF_S / (probes[k - 1] + probes[k])
        for t, k in zip(result["job_s"], result["segment"])]
    result["scale"] = sum(result["scaled_job_s"]) / result["wall_s"]


def layer_metrics(traced: list[dict], untraced: list[dict], jobs: list[dict],
                  import_s: list[float], probe: float) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes, and whether their call
    and hit counts repeated exactly."""
    spans = [(p["layers"]["spans"], p["scale"]) for p in traced]
    absent = set(traced[0]["layers"]["absent"])

    def counts(name, field):
        return spans[0][0].get(name, {}).get(field, 0)

    def seconds(name, self_time=False):
        return statistics.median(
            (s[name]["seconds"] - (s[name]["child_s"] if self_time else 0.0))
            * k if name in s else 0.0 for s, k in spans)

    # the result line must hold a number for every metric: a ratio with
    # nothing to count (a layer the workload never calls) reads 0
    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("words.occurs_final", "words.find_occurrence",
                  "matrices.cells_contains", "matrices.matrix_contains",
                  "bigraphs.ordered_contains", "bigraphs.from_mask"):
        out[f"{layer}.calls"] = counts(layer, "calls")
        out[f"{layer}.s"] = seconds(layer)
        if layer != "bigraphs.from_mask":
            out[f"{layer}.hit_ratio"] = ratio(counts(layer, "hits"),
                                              counts(layer, "calls"))
    out["counting.count.s"] = seconds("counting.count")
    out["counting.self_s"] = seconds("counting.count", self_time=True)
    # pool jobs run their kernel calls in workers the tracer cannot see
    avoiders = sum(j["expect"] for j in jobs
                   if j["kind"] == "count" and j["workers"] == 1)
    out["counting.nodes_per_avoider"] = ratio(
        counts("words.occurs_final", "calls"), avoiders)
    out["counting.pool.s"] = seconds("counting.pool")
    out["matrices.extremal.self_s"] = seconds("matrices.extremal",
                                              self_time=True)
    out["bigraphs.census.self_s"] = seconds("bigraphs.census", self_time=True)
    census = [j for j in jobs if j["kind"] == "census"]
    out["bigraphs.census.avoid_ratio"] = ratio(
        sum(j["expect"] for j in census),
        sum(2 ** (j["n"] * j["m"] * j["n"]) for j in census))
    out["setup.import_s"] = statistics.median(import_s)
    out["host.probe_s"] = probe
    out["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] * p["scale"] for p in traced)
        / statistics.median(p["wall_s"] * p["scale"] for p in untraced) - 1.0)
    # a wrapped name the program no longer has reads 0 and is listed in
    # absent_layers on the context line
    for name in out:
        if any(name.startswith(layer + ".") or name.startswith(layer + "_")
               for layer in absent):
            out[name] = 0.0
    repeat = all({k: (v["calls"], v["hits"]) for k, v in s.items()}
                 == {k: (v["calls"], v["hits"]) for k, v in spans[0][0].items()}
                 for s, _ in spans)
    return out, {"absent_layers": sorted(absent), "counts_repeat": repeat}


def end_to_end(untraced: list[dict], setups: list[tuple[float, float, float]],
               jobs: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced passes, and their raw and
    host-scaled quartiles for the context line."""
    raw = {"wall_s": [p["wall_s"] for p in untraced],
           "cpu_s": [p["cpu_s"] for p in untraced],
           "setup_s": [elapsed for elapsed, _, _ in setups],
           "probe_s": [x for p in untraced for x in p["probes"]]}
    scaled = {"wall_s": [p["wall_s"] * p["scale"] for p in untraced],
              "cpu_s": [p["cpu_s"] * p["scale"] for p in untraced],
              "setup_s": [elapsed * k for elapsed, _, k in setups]}
    # a job's latency is its median over the passes; the percentiles are
    # taken over the jobs of the list
    per_job = [1000 * statistics.median(p["scaled_job_s"][i]
                                        for p in untraced)
               for i in range(len(jobs))]
    values = {name: statistics.median(v) for name, v in scaled.items()}
    values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"]
                                              for p in untraced)
    values["jobs_per_s"] = len(jobs) / values["wall_s"]
    values["job_p50_ms"] = percentile(per_job, 50)
    values["job_p99_ms"] = percentile(per_job, 99)
    context = {"raw": {k: summary(v) for k, v in raw.items()},
               "scaled": {k: summary(v) for k, v in scaled.items()}}
    context["scaled"]["job_ms"] = summary(per_job)
    if jobs[0]["kind"] not in ("word", "matrix", "graph"):
        context["job_ms"] = {job["id"]: ms for job, ms in zip(jobs, per_job)}
    return values, context


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """One run: set up, then passes until `seconds` is used up.  Returns
    the result object and the run context."""
    hard = time.monotonic() + HARD_LIMIT_S
    if not (ROOT / "src" / "permpat" / "cli.py").is_file():
        raise ProgramMissing(f"no program source under {ROOT / 'src'}")
    jobs = build_jobs(workload, seed, smoke)
    probe = probe_s(5)
    try:
        # untimed: the first run in a checkout compiles bytecode here
        spawn({"mode": "setup", "jobs": jobs}, hard - time.monotonic())
    except PassFailed as exc:
        raise ProgramMissing(str(exc)) from None

    deadline = time.monotonic() + seconds
    # (spawn to ready, import time, scale) of every fresh interpreter
    setups: list[tuple[float, float, float]] = []
    for _ in range(SETUP_SPAWNS):
        ready, t_spawn = spawn({"mode": "setup", "jobs": jobs},
                               hard - time.monotonic())
        setups.append((ready["ready"] - t_spawn, ready["import_s"],
                       PROBE_REF_S / ready["probe_s"]))

    bad: set[int] = set()
    reference = {}
    if workload == "query":
        reference, _ = spawn({"mode": "reference", "jobs": jobs,
                              "seed": seed, "sample": BRUTE_SAMPLE},
                             hard - time.monotonic())
        expect = reference["expect"]
        bad = set(reference["disagree"])
    else:
        expect = [job["expect"] for job in jobs]

    untraced, traced, failures, durations = [], [], [], []
    attempted = failed = 0
    while True:
        tracing = trace and len(untraced) > len(traced)
        t0 = time.monotonic()
        attempted += len(jobs)
        try:
            result, t_spawn = spawn({"mode": "pass", "jobs": jobs,
                                     "trace": tracing},
                                    hard - time.monotonic())
        except PassFailed as exc:
            failed += len(jobs)
            failures.append(f"pass {len(durations)}: {exc}")
            break
        durations.append(time.monotonic() - t0)
        add_scaled_times(result)
        setups.append((result["ready"] - t_spawn, result["import_s"],
                       PROBE_REF_S / result["probes"][0]))
        wrong = check_pass(jobs, expect, bad, result)
        failed += len(wrong)
        failures.extend(wrong)
        (traced if tracing else untraced).append(result)
        enough = traced if trace else untraced
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            break

    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "setup_only": SETUP_SPAWNS},
        "failed_frac": failed / attempted, "failures": failures[:20],
        "host.probe_s": probe, "probe_ref_s": PROBE_REF_S,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "permpat": program_version(), "commit": git_commit(),
        "reference": ({"brute_sampled": reference["sampled"],
                       "disagree": reference["disagree"]}
                      if reference else "closed forms and pinned values"),
        **describe(workload, jobs, smoke),
    }
    metrics: dict = {}
    if trace and traced:
        import_s = [imp * k for _, imp, k in setups]
        values, extra = layer_metrics(traced, untraced, jobs, import_s, probe)
        context.update(extra)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    elif untraced:
        values, extra = end_to_end(untraced, setups, jobs)
        context.update(extra)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, context


def print_table(results: dict) -> None:
    names = list(END_TO_END)
    print("metric".ljust(14) + "".join(w.rjust(12) for w in results))
    for name in names:
        row = [results[w]["metrics"].get(name, {}).get("value")
               for w in results]
        cells = "".join(("-" if v is None else f"{v:.4g}").rjust(12)
                        for v in row)
        print(f"{name} [{END_TO_END[name]}]".ljust(14) + cells)
    print("failed".ljust(14) + "".join(
        f"{r['failed']}/{r['attempted']}".rjust(12) for r in results.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny job sizes, for checking the benchmark")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result, context = run_workload(workload, args.seed, args.seconds,
                                           bool(args.trace), args.smoke)
        except (ProgramMissing, PassFailed) as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"context": context}))
        results[workload] = result
    if args.workload == "all":
        if not args.trace:
            print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
