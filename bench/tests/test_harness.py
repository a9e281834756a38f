"""Checks of the benchmark's own parts: inputs, references, spans, gate."""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import run
import workloads
from reference import bessel_reference, kernel_value, potential_kernel_table
from spans import Recorder, Wiring
from workloads import Call, Outcome


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed(name):
    make = workloads.WORKLOADS[name].make
    assert make(7, 0) == make(7, 0)
    assert make(7, 1) == make(7, 1)
    assert make(7, 0) != make(8, 0)
    # fixed strata: the seed never changes how many calls a pass makes
    assert len({len(make(seed, 0)) for seed in range(5)}) == 1


def test_quarter_point_seed_only_reorders():
    first = workloads.quarter_point_pass(1, 0)
    second = workloads.quarter_point_pass(2, 0)
    assert first != second
    square = [(s, t) for s in range(13) for t in range(13)]
    assert sorted((c.s, c.t) for c in first) == sorted((c.s, c.t) for c in second) == square


def test_interior_table_is_one_table_per_stratum():
    calls = workloads.interior_table_pass(3, 0)
    pairs = list(dict.fromkeys((c.a, c.b) for c in calls))
    assert len(pairs) == len(workloads.INTERIOR_STRATA)
    gaps = sorted(round(1 - 2 * abs(a) - 2 * abs(b), 9) for a, b in pairs)
    assert gaps == sorted(g for g, _, _ in workloads.INTERIOR_STRATA)
    assert sum(min(a, b) < 0 for a, b in pairs) == 2
    lags = [(s, t) for s in range(workloads.INTERIOR_MAX + 1)
            for t in range(workloads.INTERIOR_MAX + 1)]
    for k, (a, b) in enumerate(pairs):  # tables taken in turn, each whole and in row order
        table = calls[k::len(pairs)]
        assert [(c.a, c.b) for c in table] == [(a, b)] * len(lags)
        assert [(c.s, c.t) for c in table] == lags


def test_sweeps_repeat_the_same_passes(monkeypatch):
    seen = []

    def evaluate(call):
        seen.append(call)
        return Outcome(call, 1, 1.0, 1e-12)

    fake = workloads.Workload(
        lambda seed, index: [Call(0.2, 0.1, index, seed)], evaluate, Call(0.2, 0.1, 0, 0),
        "variogram.dispatch", repeats=3, min_passes=2)
    monkeypatch.setitem(workloads.WORKLOADS, "fake", fake)
    sweeps, _, n_passes, _, _ = run.run_passes("fake", 5, seconds=0.0)
    assert n_passes == 2
    assert [[o.call for o in sweep] for sweep in sweeps] == [[Call(0.2, 0.1, 0, 5),
                                                              Call(0.2, 0.1, 1, 5)]] * 3
    assert len(seen) == 6
    one, _, _, _, _ = run.run_passes("fake", 5, repeats=1, n_passes=1)
    assert len(one) == 1 and len(one[0]) == 1


def test_latency_is_the_fastest_repeat_of_calls_that_never_failed():
    first, second = Call(0.2, 0.1, 1, 0), Call(0.2, 0.1, 2, 0)
    sweeps = [
        [Outcome(first, 4_000_000, 1.0, 1e-12), Outcome(second, 9_000_000, 1.0, 1e-12)],
        [Outcome(first, 2_000_000, 1.0, 1e-12), Outcome(second, 1_000_000, 1.0, 1e-12)],
    ]
    m = run.end_to_end(sweeps, [True, True, True, False], [1.0], 80.0)
    assert m["eval_ms_p50"] == (2.0, "ms", 1)  # the second call failed once
    # one good call in 2 + 1 ms of fastest repeats; the failed call's time counts
    assert m["evals_per_s"] == (pytest.approx(1e3 / 3), "1/s", 1)
    assert m["ok_share"] == (0.75, "ratio", 4)


def test_potential_kernel_first_values():
    nu = potential_kernel_table(3)
    assert nu[(1, 0)] == (1, 0)
    assert nu[(1, 1)] == (0, 4)  # 4/pi
    assert nu[(2, 0)] == (4, -8)  # 4 - 8/pi
    assert nu[(2, 1)] == (-1, 8)  # 8/pi - 1
    assert nu[(0, 2)] == nu[(2, 0)]


def test_potential_kernel_is_harmonic_off_the_origin():
    n = 12
    nu = potential_kernel_table(n)

    def at(s, t):
        return nu[(abs(s), abs(t))]

    for s in range(n):
        for t in range(n):
            if (s, t) == (0, 0):
                continue
            around = [at(s + 1, t), at(s - 1, t), at(s, t + 1), at(s, t - 1)]
            assert tuple(4 * x for x in at(s, t)) == tuple(
                sum((v[i] for v in around), Fraction(0)) for i in range(2)
            )


def test_potential_kernel_matches_diagonal_closed_form():
    from iavar import variogram_diagonal

    nu = potential_kernel_table(12)
    for s in range(13):
        assert kernel_value(nu[(s, s)]) == pytest.approx(variogram_diagonal(s), rel=4e-16, abs=0)


def _nested(recorder):
    def leaf():
        time.sleep(0.002)

    def middle():
        recorder.call("leaf", leaf)
        time.sleep(0.001)
        recorder.call("leaf", leaf)

    def top():
        recorder.call("middle", middle)
        recorder.call("leaf", leaf)

    recorder.call("top", top)


def test_span_self_times_sum_to_root_duration():
    recorder = Recorder()
    _nested(recorder)
    _nested(recorder)
    roots = recorder.roots()
    assert [r.call_id for r in roots] == [1, 2]
    for root in roots:
        spans = [s for s in recorder.spans if s.call_id == root.call_id]
        assert len(spans) == 5
        assert all(s.self_ns >= 0 for s in spans)
        assert sum(s.self_ns for s in spans) == root.duration_ns


def test_wiring_wraps_and_restores():
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original = module.inner
    import sys

    sys.modules["fake_layer"] = module
    try:
        recorder = Recorder()
        targets = [("inner", "fake_layer", "inner"), ("gone", "fake_layer", "missing")]
        with Wiring(recorder, targets) as wiring:
            assert recorder.call("outer", module.outer, 1) == 4
        assert module.inner is original
        assert wiring.missing == ["fake_layer.missing"]
        assert [s.name for s in recorder.spans] == ["outer", "inner"]
        assert recorder.spans[1].parent == 0
    finally:
        del sys.modules["fake_layer"]


class _Refs:
    def __init__(self, value, err=0.0):
        self.value, self.err = value, err

    def get(self, call):
        return self.value, self.err


def test_check_separates_bound_misses_from_wrong_values():
    call = Call(0.2, 0.1, 1, 0)
    within = Outcome(call, 1, 1.0 + 1e-11, 2e-11)
    bound_miss = Outcome(call, 1, 1.0 + 1e-9, 1e-11)
    wrong = Outcome(call, 1, 1.1, 1e-11)
    refused = Outcome(call, 1, error="MaxTermsExceededError", expected_failure=True)
    crashed = Outcome(call, 1, error="TypeError")
    ok, problems = run.check([within, bound_miss, wrong, refused, crashed], _Refs(1.0))
    assert ok == [True, False, False, False, False]
    assert len(problems) == 2  # the wrong value and the crash, not the refusal


def test_check_verify_values_against_certified_tolerance():
    call = Call(0.2, 0.1, 1, 0)
    good = Outcome(call, 1, 1.0, 1e-12, values=(1.0, 1.0 + 5e-7))
    bad = Outcome(call, 1, 1.0, 1e-12, values=(1.0, 1.0 + 5e-6))
    ok, _ = run.check([good, bad], _Refs(1.0))
    assert ok == [True, False]


def test_negative_coefficient_reference_matches_exact_path():
    from iavar import CoeffPair, Lag, variogram_exact

    for a, b, s, t in [(-0.2, 0.15, 1, 0), (0.1, -0.3, 2, 3), (-0.25, -0.1, 3, 1)]:
        ref, err = bessel_reference(a, b, s, t)
        res = variogram_exact(CoeffPair.from_ab(a, b), Lag(s, t))
        assert abs(res.value - ref) <= res.est_error + err


def test_verify_discrepancy_values_are_checked(monkeypatch):
    import iavar.cli

    exact = iavar.cli.variogram_exact

    def off_by_1e3(*args, **kwargs):
        res = exact(*args, **kwargs)
        return type(res)(res.value + 1e-3, res.method, res.est_error, res.diagnostics)

    monkeypatch.setattr(iavar.cli, "variogram_exact", off_by_1e3)
    out = workloads.eval_verify(Call(0.2, 0.1, 1, 0))
    assert out.error == "exit 2" and len(out.values) == 3
    ok, problems = run.check([out], run.References())
    assert ok == [False]
    assert len(problems) == 1  # a wrong value, not a refusal


def test_verify_convergence_failure_is_a_refusal(monkeypatch):
    import iavar.cli
    from iavar.errors import MaxTermsExceededError

    def refuse(*args, **kwargs):
        raise MaxTermsExceededError("term cap")

    monkeypatch.setattr(iavar.cli, "variogram_exact", refuse)
    out = workloads.eval_verify(Call(0.2, 0.1, 1, 0))
    assert out.expected_failure and not out.values
    ok, problems = run.check([out], run.References())
    assert ok == [False] and problems == []


def test_traced_run_refuses_missing_targets(monkeypatch):
    monkeypatch.setattr(run, "measure_imports", lambda: {})
    monkeypatch.setattr(layers, "TARGETS", [("gone", "iavar.variogram", "no_such_function")])
    with pytest.raises(run.BenchError, match="iavar.variogram.no_such_function"):
        run.run_workload("verify", 1, 0.0, traced=True)


def test_verify_output_parsing():
    text = "exact              0.5\nquad               0.50000000001\n" \
           "max discrepancy    1e-11  (tolerance 9.9999999999999995e-07)\n"
    values, spread = workloads._parse_verify(text)
    assert values == (0.5, 0.50000000001)
    assert spread == 1e-11
    assert not math.isnan(spread)


BENCH = Path(__file__).resolve().parent.parent


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = Outcome(Call(0.2, 0.1, 1, 0), 1_000_000, 1.0, 1e-10)
    e2e = run.end_to_end([[done, done]], [True, True], [0.5], 80.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit, _) in e2e.items()
    ]
    traced = layers.per_layer(Recorder(), [], None, [True], 1, 1.0, 1.0, 1, 0, 0, {})
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit, _) in traced.items()
    ]


def test_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
