#!/usr/bin/env python3
"""Benchmark of the iavar package: one client, closed loop, one call at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload interior_table --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  The
package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.

With ``--trace 0`` the run repeats its passes and prints the end-to-end
metrics, each call at its fastest repeat; with ``--trace 1`` it runs the
same passes once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Wiring  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 3
# References are computed per distinct call after the timed passes; this
# cap keeps that untimed work bounded however fast the program gets.
MAX_CALLS = 1000
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 60
SETUP_ARGS = ["-m", "iavar.cli", "eval", "--a", "0.25", "--b", "0.25", "--s", "1", "--t", "1"]
NU_11 = 4.0 / math.pi  # the value SETUP_ARGS must print
# A returned value is wrong (not just outside its error bar) when it
# misses the reference by more than this share of max(1, |ref|) as well.
GROSS_TOL = 1e-6


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )


def measure_setup() -> list[float]:
    """Wall seconds of fresh ``python -m iavar.cli eval`` cold starts."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = _run_child(SETUP_ARGS)
        elapsed = time.perf_counter() - start
        value = re.search(r"value=(\S+)", proc.stdout)
        if proc.returncode != 0 or not value or abs(float(value[1]) - NU_11) > 1e-12:
            raise BenchError(f"cold-start eval failed: {proc.stdout}{proc.stderr}")
        times.append(elapsed)
    return times


def measure_imports() -> dict[str, float]:
    """Median cumulative import ms per package module, from ``-X importtime``."""
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        proc = _run_child(["-X", "importtime", "-c", "import iavar.cli"])
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2].startswith("iavar."):
                runs.setdefault(parts[2], []).append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) for name, v in runs.items()}


def run_passes(name: str, seed: int, seconds: float = 0.0, repeats: int | None = None,
               n_passes: int | None = None, recorder: Recorder | None = None):
    """Run distinct passes, each ``repeats`` times, every time on a cold edge cache.

    The first sweep runs passes 0, 1, ...: ``n_passes`` of them, or at
    least the workload's ``min_passes`` and then as many as come closest
    to its share ``seconds / workload.repeats`` of timed wall time (at
    most ``MAX_CALLS`` calls).  Each later sweep runs the same passes
    again in the same order, so the repeats of one call lie a whole sweep
    apart.  ``repeats`` defaults to the workload's own.

    Returns (sweeps, timed seconds, passes, edge cache hits, misses), where
    ``sweeps[r]`` holds the outcomes of sweep ``r`` in call order.
    """
    # the edge path's F4 cache, if the package still has one
    edge_cache = getattr(importlib.import_module("iavar.variogram"), "_cached_f4", None)
    workload = workloads.WORKLOADS[name]
    repeats = workload.repeats if repeats is None else repeats
    budget_ns = seconds * 1e9 / workload.repeats
    passes: list[list[workloads.Call]] = []
    timed_ns = hits = misses = 0

    def timed_pass(calls, outcomes):
        nonlocal timed_ns, hits, misses
        if edge_cache is not None:
            edge_cache.cache_clear()  # also resets its hit and miss counts
        start = time.perf_counter_ns()
        for call in calls:
            if recorder is None:
                outcomes.append(workload.evaluate(call))
            else:
                span = recorder.enter(workload.root_span)
                outcomes.append(workload.evaluate(call))
                recorder.exit(span)
        timed_ns += time.perf_counter_ns() - start
        if edge_cache is not None:
            info = edge_cache.cache_info()
            hits, misses = hits + info.hits, misses + info.misses

    first: list[workloads.Outcome] = []

    def more() -> bool:
        if n_passes is not None:
            return len(passes) < n_passes
        # stop where one more pass would overshoot by more than it fills
        return len(passes) < workload.min_passes or (
            timed_ns + 0.5 * timed_ns / len(passes) < budget_ns and len(first) < MAX_CALLS)

    while more():
        passes.append(workload.make(seed, len(passes)))
        timed_pass(passes[-1], first)
    sweeps = [first]
    for _ in range(repeats - 1):
        sweeps.append([])
        for calls in passes:
            timed_pass(calls, sweeps[-1])
    return sweeps, timed_ns / 1e9, len(passes), hits, misses


class References:
    """Untimed references, computed once per distinct input."""

    def __init__(self):
        self.quarter: dict | None = None
        self.cache: dict[workloads.Call, tuple[float, float]] = {}

    def get(self, call: workloads.Call) -> tuple[float, float]:
        if call not in self.cache:
            if call.a == call.b == 0.25:
                if self.quarter is None:
                    self.quarter = reference.quarter_point_references(workloads.QUARTER_MAX)
                self.cache[call] = self.quarter[(call.s, call.t)]
            else:
                self.cache[call] = reference.bessel_reference(call.a, call.b, call.s, call.t)
        return self.cache[call]


def check(outcomes, refs: References) -> tuple[list[bool], list[str]]:
    """Per-call pass/fail, plus a list of problems that make the run incorrect.

    A call fails if it raised, if the CLI exited non-zero, or if a value
    misses the reference by more than its ``est_error`` plus the
    reference's own uncertainty (for ``verify``: by more than the
    certified ``--tol``).  The run is incorrect if a call raised anything
    but a documented convergence refusal, or returned a value that also
    misses the reference by more than ``GROSS_TOL``.  Values that
    ``verify`` printed before exiting 2 are checked the same way.
    """
    ok, problems = [], []
    for out in outcomes:
        if out.error is not None and not out.expected_failure:
            problems.append(f"{out.call}: {out.error}")
        if out.error is not None and not out.values:
            ok.append(False)
            continue
        try:
            ref, ref_err = refs.get(out.call)
        except Exception as exc:  # an unchecked value cannot count as correct
            ok.append(False)
            problems.append(f"{out.call}: reference failed: {type(exc).__name__}: {exc}")
            continue
        bar = workloads.VERIFY_TOL if out.values else out.est_error
        gross = max(bar, GROSS_TOL * max(1.0, abs(ref))) + ref_err
        diffs = [abs(v - ref) for v in (out.values or (out.value,))]
        ok.append(out.error is None and all(d <= bar + ref_err for d in diffs))
        if not all(d <= gross for d in diffs):
            problems.append(f"{out.call}: value {out.value!r} vs reference {ref!r}")
    return ok, problems


def _quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(sweeps, ok, setup_times, rss_mb):
    """End-to-end metrics as ``name -> (value, unit, sample count)``.

    ``sweeps`` are the repeats of one run's calls and ``ok`` their
    pass/fail flags, sweep after sweep.  A call's latency is the fastest
    of its repeats: a shared host only ever adds time, so the slower
    repeats measure other tenants, not the program.  Latency percentiles
    are over calls that succeeded in every repeat: a failed call has no
    latency to an answer.  It counts in ``ok_share``, and the time it
    burned counts against ``evals_per_s``: successful calls per second of
    the calls' fastest repeats.
    """
    n = len(sweeps[0])
    good = [all(ok[r * n + j] for r in range(len(sweeps))) for j in range(n)]
    fastest_ms = [min(sweep[j].ns for sweep in sweeps) / 1e6 for j in range(n)]
    lat_ms = [ms for ms, g in zip(fastest_ms, good) if g]
    est = [sweeps[0][j].est_error for j in range(n) if good[j]]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "evals_per_s": (1e3 * sum(good) / sum(fastest_ms), "1/s", sum(good)),
        "eval_ms_p50": (_quantile(lat_ms, 0.5), "ms", len(lat_ms)),
        "eval_ms_p90": (_quantile(lat_ms, 0.9), "ms", len(lat_ms)),
        "ok_share": (sum(ok) / len(ok), "ratio", len(ok)),
        "est_error_p50": (statistics.median(est) if est else 0.0, "1", len(est)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def environment() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for mod in ("numpy", "scipy", "mpmath"):
        info[mod] = importlib.import_module(mod).__version__
    return info


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    refs = References()
    if traced:
        import_ms = measure_imports()
    else:
        setup_times = measure_setup()
    workloads.WORKLOADS[name].evaluate(workloads.WORKLOADS[name].warmup)
    # the traced run needs one untraced sweep only, as the base of the overhead
    sweeps, timed_s, n_passes, _, _ = run_passes(
        name, seed, seconds, repeats=1 if traced else None)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        untraced_s = timed_s
        untraced_ok, untraced_problems = check(sweeps[0], refs)
        recorder = Recorder()
        with Wiring(recorder, layers.TARGETS) as wiring:
            if wiring.missing:  # their metrics would read 0, a false gain
                raise BenchError(f"trace targets not found: {', '.join(wiring.missing)}")
            sweeps, timed_s, _, hits, misses = run_passes(
                name, seed, repeats=1, n_passes=n_passes, recorder=recorder)
    outcomes = [o for sweep in sweeps for o in sweep]
    ok, problems = check(outcomes, refs)
    if traced:
        problems += untraced_problems
    for problem in problems[:20]:
        print(f"INCORRECT {problem}")
    summary = {
        "workload": name, "seed": seed, "passes": n_passes, "repeats": len(sweeps),
        "calls": len(outcomes),
        "failed": len(ok) - sum(ok), "fail_share": round(1 - sum(ok) / len(ok), 6),
        "timed_s": round(timed_s, 4),
        "failures": sorted({f"{o.call.a:.6g},{o.call.b:.6g} ({o.call.s},{o.call.t}) "
                            f"{o.error or 'outside est_error'}"
                            for o, good in zip(outcomes, ok) if not good}),
    }
    if traced:
        metrics = layers.per_layer(
            recorder, outcomes, refs.get, ok, n_passes, timed_s, untraced_s, sum(untraced_ok),
            hits, misses, import_ms,
        )
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{name}-seed{seed}.jsonl"
        with path.open("w") as fh:
            for row in recorder.to_rows():
                fh.write(json.dumps(row) + "\n")
        summary["spans"] = len(recorder.spans)
    else:
        metrics = end_to_end(sweeps, ok, setup_times, rss_mb)
    print("run " + json.dumps(summary))
    print("env " + json.dumps(environment()))
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:34s} {value:14.6g} {unit:6s} n={n}")
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(ok) - sum(ok),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "iavar" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        importlib.import_module("iavar")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
