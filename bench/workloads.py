"""Seeded inputs for each benchmark workload, and one timed call of each kind.

A workload is a sequence of passes.  Pass ``k`` of seed ``n`` is drawn
from its own generator, so the same seed gives the same inputs.  Cost
classes are fixed strata: the seed moves directions, lags and call
order inside them, never the number of calls of each class, so
changing the seed changes the inputs but not the cost.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import math
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

# Every stratum fixes a gap 1 - 2|a| - 2|b|, a direction share |a|/(|a|+|b|)
# and a lag.  The seed jitters the share by up to SHARE_JITTER, may mirror
# the input to (b, a) with the lag transposed (same cost, same accuracy,
# different numbers), and picks the call order at the quarter point.
SHARE_JITTER = 0.03

# boundary_band: boundary directions (a, 1/2 - a), each at the same few
# small lags; then one near-boundary interior pair and lag per gap, and
# the published pair (0.4848, 0.0132) at lag (1, 0).
BAND_EDGE_A = (0.08, 0.13, 0.19)
BAND_EDGE_LAGS = ((1, 0), (1, 1), (2, 1))
BAND_STRATA = (
    (1e-2, 0.6, (1, 0)),
    (1e-3, 0.6, (1, 1)),
    (1e-4, 0.6, (2, 1)),
    (1e-5, 0.6, (1, 0)),
    (1e-6, 0.6, (1, 1)),
)
PAPER_PAIR = (0.4848, 0.0132, 1, 0)

# interior_table: the full 0..INTERIOR_MAX square for one pair per stratum,
# each table in row order as the table command runs it, the tables taken
# in turn one lag at a time.  A stratum is (gap, share, which coefficient
# is negative: 0 none, 1 a, 2 b).  An odd number of equal-size tables
# keeps the median latency inside one class.
INTERIOR_MAX = 4
INTERIOR_STRATA = (
    (0.6, 0.3, 0),
    (0.2, 0.6, 1),
    (0.06, 0.45, 0),
    (0.02, 0.35, 2),
    (0.011, 0.55, 0),
)

# quarter_point: the full 0..QUARTER_MAX square at a = b = 1/4, once per
# pass, in a seeded order.
QUARTER_MAX = 12

# verify: one pair per stratum, gaps log-spaced from 0.5 to 0.01, a, b >= 0.
# Cost grows as the gap shrinks, so five equal strata put the median
# latency in the middle of the third and p90 in the middle of the fifth;
# an even count would put the median on the step between two strata.
# No mirroring here: the 2-D quadrature oracle integrates y inside x, so
# its cost is not symmetric in (a, b).
VERIFY_STRATA = tuple(
    (0.5 * (0.01 / 0.5) ** (i / 4), share, lag)
    for i, (share, lag) in enumerate(zip(
        (0.3, 0.6, 0.45, 0.7, 0.4),
        ((1, 0), (2, 1), (1, 1), (3, 2), (2, 0)),
    ))
)


@dataclass(frozen=True)
class Call:
    a: float
    b: float
    s: int
    t: int


@dataclass
class Outcome:
    """What one timed call returned."""

    call: Call
    ns: int
    value: float | None = None
    est_error: float | None = None
    error: str | None = None
    expected_failure: bool = False
    # verify: every method value the CLI printed, also when it exited 2
    values: tuple[float, ...] = ()


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _stratum(rng: random.Random, gap: float, share: float, lag: tuple[int, int],
             mirror: bool = True) -> tuple[float, float, int, int]:
    """A nonnegative pair at ``gap`` near ``share``, maybe mirrored."""
    total = (1.0 - gap) / 2.0
    a = total * (share + rng.uniform(-SHARE_JITTER, SHARE_JITTER))
    b = total - a
    s, t = lag
    return (b, a, t, s) if mirror and rng.random() < 0.5 else (a, b, s, t)


def _interleave(groups: list[list[Call]]) -> list[Call]:
    """Round-robin over the groups, each kept in its own order."""
    return [c for row in itertools.zip_longest(*groups) for c in row if c is not None]


def boundary_band_pass(seed: int, index: int) -> list[Call]:
    """Each edge direction in turn, its lags interleaved with a share of the near band.

    A direction's first lag is its cold call (its f00 series is not yet
    cached), so taking the directions one after another spreads the cold
    calls, which set p90, over the whole pass.
    """
    rng = _rng("boundary_band", seed, index)
    groups = []
    for a0 in BAND_EDGE_A:
        a = a0 + rng.uniform(-0.01, 0.01)
        mirror = rng.random() < 0.5
        groups.append([Call(0.5 - a, a, t, s) if mirror else Call(a, 0.5 - a, s, t)
                       for s, t in BAND_EDGE_LAGS])
    band = [Call(*_stratum(rng, gap, share, lag)) for gap, share, lag in BAND_STRATA]
    band.append(Call(*PAPER_PAIR))
    per = len(band) // len(groups)
    return [call for k, group in enumerate(groups)
            for call in _interleave([group, band[k * per:(k + 1) * per]])]


def interior_table_pass(seed: int, index: int) -> list[Call]:
    """One lag table per stratum, interleaved in a seeded order of tables."""
    rng = _rng("interior_table", seed, index)
    tables = []
    for gap, share, negative in INTERIOR_STRATA:
        a, b, _, _ = _stratum(rng, gap, share, (0, 0), mirror=False)
        a, b = (-a if negative == 1 else a), (-b if negative == 2 else b)
        if rng.random() < 0.5:
            a, b = b, a
        tables.append([Call(a, b, s, t)
                       for s in range(INTERIOR_MAX + 1) for t in range(INTERIOR_MAX + 1)])
    rng.shuffle(tables)
    return _interleave(tables)


def quarter_point_pass(seed: int, index: int) -> list[Call]:
    rng = _rng("quarter_point", seed, index)
    lags = [(s, t) for s in range(QUARTER_MAX + 1) for t in range(QUARTER_MAX + 1)]
    rng.shuffle(lags)
    return [Call(0.25, 0.25, s, t) for s, t in lags]


def verify_pass(seed: int, index: int) -> list[Call]:
    rng = _rng("verify", seed, index)
    return [Call(*_stratum(rng, gap, share, lag, mirror=False))
            for gap, share, lag in VERIFY_STRATA]


def _expected(exc: Exception) -> bool:
    """A documented refusal (term cap, tolerance not certified), not a bug."""
    errors = importlib.import_module("iavar.errors")
    return isinstance(exc, errors.ConvergenceError)


def eval_variogram(call: Call) -> Outcome:
    """``variogram(CoeffPair.from_ab(a, b), Lag(s, t))``, as the table command runs it."""
    vmod = importlib.import_module("iavar.variogram")
    start = time.perf_counter_ns()
    try:
        res = vmod.variogram(vmod.CoeffPair.from_ab(call.a, call.b), vmod.Lag(call.s, call.t))
    except Exception as exc:  # every failure is counted, none stops the run
        ns = time.perf_counter_ns() - start
        return Outcome(call, ns, error=type(exc).__name__, expected_failure=_expected(exc))
    ns = time.perf_counter_ns() - start
    return Outcome(call, ns, res.value, res.est_error)


VERIFY_TOL = 1e-6  # the CLI's default --tol, which verify certifies


def eval_verify(call: Call) -> Outcome:
    """``iavar verify`` through ``cli.main`` with the default ``--tol``."""
    cli = importlib.import_module("iavar.cli")
    argv = ["verify", "--a", repr(call.a), "--b", repr(call.b),
            "--s", str(call.s), "--t", str(call.t)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # cli.main maps package errors to exit codes
        ns = time.perf_counter_ns() - start
        return Outcome(call, ns, error=type(exc).__name__)
    ns = time.perf_counter_ns() - start
    values, spread = _parse_verify(out.getvalue())
    if rc == 2 and "convergence failure" in err.getvalue():
        return Outcome(call, ns, error="exit 2", expected_failure=True)
    if not values or math.isnan(spread):
        return Outcome(call, ns, error=f"exit {rc}, unparsed output")
    # exit 2 after printing: the methods disagree by more than --tol.  A
    # failed call, but its values are still checked against the reference.
    error = None if rc == 0 else f"exit {rc}"
    return Outcome(call, ns, values[0], spread, error=error, expected_failure=rc == 2,
                   values=values)


def _parse_verify(text: str) -> tuple[tuple[float, ...], float]:
    """Method values (``<method> <value>`` lines) and the max discrepancy."""
    values, spread = [], math.nan
    for line in text.splitlines():
        parts = line.split()
        try:
            if line.startswith("max discrepancy"):
                spread = float(parts[2])
            elif len(parts) == 2:
                values.append(float(parts[1]))
        except (IndexError, ValueError):
            continue
    return tuple(values), spread


@dataclass(frozen=True)
class Workload:
    make: Callable[[int, int], list[Call]]  # (seed, pass index) -> calls
    evaluate: Callable[[Call], Outcome]
    warmup: Call  # one untimed call before the passes
    root_span: str  # span name of the benchmark's own call in a traced run
    repeats: int  # times each pass runs; a call's latency is its fastest
    min_passes: int = 1  # distinct passes a run makes at least


WORKLOADS = {
    "interior_table": Workload(
        interior_table_pass, eval_variogram, Call(0.2, 0.1, 1, 0), "variogram.dispatch",
        repeats=5),
    "boundary_band": Workload(
        boundary_band_pass, eval_variogram, Call(0.2, 0.1, 1, 0), "variogram.dispatch",
        repeats=1),
    "quarter_point": Workload(
        quarter_point_pass, eval_variogram, Call(0.25, 0.25, 1, 0), "variogram.dispatch",
        repeats=2),
    "verify": Workload(
        verify_pass, eval_verify, Call(0.2, 0.1, 1, 0), "cli.verify", repeats=4, min_passes=10),
}
