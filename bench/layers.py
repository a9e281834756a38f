"""Per-layer metrics of the traced run.

Layers are the package modules: ``specfun`` (the F4 engine, reached
from ``iavar.variogram``), ``variogram`` (dispatch, interior, Abel edge,
B-series quarter point, diagonal), ``oracle`` (2-D quadrature and
Bessel-Laplace) and ``cli``.  Spans are recorded at the import sites the
package's own code calls through, so the wrappers see exactly the calls
the package makes.
"""

from __future__ import annotations

import statistics

_VARIOGRAM_PATHS = (
    ("variogram.exact", "variogram_exact"),
    ("variogram.edge", "variogram_edge"),
    ("variogram.symmetric", "variogram_symmetric"),
)

TARGETS = [
    ("specfun.appell_f4", "iavar.variogram", "appell_f4"),
    *[(span, "iavar.variogram", attr) for span, attr in _VARIOGRAM_PATHS],
    ("variogram.diagonal", "iavar.variogram", "variogram_diagonal"),
    ("variogram.b_st", "iavar.variogram", "b_st"),
    ("variogram.b_st_transformed", "iavar.variogram", "b_st_transformed"),
    *[(span, "iavar.cli", attr) for span, attr in _VARIOGRAM_PATHS],
    ("variogram.dispatch", "iavar.cli", "variogram"),
    ("oracle.quad", "iavar.cli", "quadrature_variogram"),
    ("oracle.bessel", "iavar.cli", "bessel_laplace_variogram"),
    ("oracle.scipy_quad", "iavar.oracle", "quad"),
]

# Cumulative import time of these modules, from ``-X importtime``.
IMPORTS = {
    "oracle.import_ms": "iavar.oracle",
    "variogram.import_ms": "iavar.variogram",
    "specfun.import_ms": "iavar.specfun",
    "cli.import_ms": "iavar.cli",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _repeat_share(spans) -> float:
    """Share of spans whose (name, arguments) already occurred earlier."""
    seen, repeats = set(), 0
    for span in spans:
        key = (span.name, repr(span.args))
        repeats += key in seen
        seen.add(key)
    return _ratio(repeats, len(spans))


def per_layer(recorder, outcomes, reference, ok, n_passes, traced_s, untraced_s, untraced_ok,
              cache_hits, cache_misses, import_ms) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics as ``name -> (value, unit, sample count)``.

    Counts and seconds are per pass, so runs that fit a different number
    of passes stay comparable.  ``outcomes`` are the traced root calls in
    order, so root span ``i`` (call id ``i + 1``) belongs to
    ``outcomes[i]``; ``reference(call)`` returns ``(value, uncertainty)``.
    """
    spans = recorder.spans
    per = 1.0 / n_passes
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def count(items):
        return len(items) * per

    def seconds(items, attr="duration_ns"):
        return sum(getattr(s, attr) for s in items) / 1e9 * per

    def busy(name):
        return seconds(named(name))

    def self_s(name):
        return seconds(named(name), "self_ns")

    def children_of(name, child):
        return [s for s in named(child)
                if s.parent is not None and spans[s.parent].name == name]

    def errors_over_bars(name):
        """|value - ref| / est_error of each span's result."""
        out = []
        for span in named(name):
            if span.error is not None:
                continue
            ref, ref_err = reference(outcomes[span.call_id - 1].call)
            diff = abs(span.result.value - ref)
            if span.result.est_error > 0.0 or diff > ref_err:
                out.append(diff / max(span.result.est_error, 1e-300))
        return out

    m: dict[str, tuple[float, str, int]] = {}
    f4 = named("specfun.appell_f4")
    f4_ok = [s for s in f4 if s.error is None]
    f4_failed = [s for s in f4 if s.error == "MaxTermsExceededError"]
    f4_terms = sum(s.result.terms_used for s in f4_ok)
    n = len(f4)
    m["specfun.appell_f4.calls"] = (count(f4), "count", n)
    m["specfun.appell_f4.terms"] = (f4_terms * per, "count", len(f4_ok))
    m["specfun.appell_f4.busy_s"] = (busy("specfun.appell_f4"), "s", n)
    m["specfun.appell_f4.ns_per_term"] = (
        _ratio(sum(s.duration_ns for s in f4_ok), f4_terms), "ns", len(f4_ok))
    m["specfun.appell_f4.failed"] = (count(f4_failed), "count", n)
    m["specfun.appell_f4.failed_busy_s"] = (seconds(f4_failed), "s", len(f4_failed))

    dispatch = named("variogram.dispatch")
    m["variogram.dispatch.calls"] = (count(dispatch), "count", len(dispatch))
    m["variogram.dispatch.self_s"] = (self_s("variogram.dispatch"), "s", len(dispatch))

    exact = named("variogram.exact")
    exact_f4 = children_of("variogram.exact", "specfun.appell_f4")
    m["variogram.exact.calls"] = (count(exact), "count", len(exact))
    m["variogram.exact.self_s"] = (self_s("variogram.exact"), "s", len(exact))
    m["variogram.exact.f4_repeat_share"] = (_repeat_share(exact_f4), "ratio", len(exact_f4))

    edge = named("variogram.edge")
    edge_f4 = children_of("variogram.edge", "specfun.appell_f4")
    lookups = cache_hits + cache_misses
    edge_est_over_err = [
        1.0 / max(r, 1e-300) for r in errors_over_bars("variogram.edge")
    ]
    m["variogram.edge.calls"] = (count(edge), "count", len(edge))
    m["variogram.edge.busy_s"] = (busy("variogram.edge"), "s", len(edge))
    m["variogram.edge.self_s"] = (self_s("variogram.edge"), "s", len(edge))
    m["variogram.edge.cache_hit_ratio"] = (_ratio(cache_hits, lookups), "ratio", lookups)
    m["variogram.edge.f4_terms_per_eval"] = (
        _ratio(sum(s.result.terms_used for s in edge_f4 if s.error is None), len(edge)),
        "count", len(edge))
    m["variogram.edge.est_over_err_p50"] = (
        statistics.median(edge_est_over_err) if edge_est_over_err else 0.0,
        "ratio", len(edge_est_over_err))

    symmetric = named("variogram.symmetric")
    b_series = named("variogram.b_st") + named("variogram.b_st_transformed")
    b_series.sort(key=lambda s: s.start_ns)
    m["variogram.symmetric.calls"] = (count(symmetric), "count", len(symmetric))
    m["variogram.symmetric.self_s"] = (self_s("variogram.symmetric"), "s", len(symmetric))
    m["variogram.b_series.calls"] = (count(b_series), "count", len(b_series))
    m["variogram.b_series.busy_s"] = (seconds(b_series), "s", len(b_series))
    m["variogram.b_series.repeat_share"] = (_repeat_share(b_series), "ratio", len(b_series))
    diagonal = named("variogram.diagonal")
    m["variogram.diagonal.calls"] = (count(diagonal), "count", len(diagonal))

    for span_name, _ in _VARIOGRAM_PATHS:
        ratios = errors_over_bars(span_name)
        m[f"{span_name}.err_over_est_max"] = (max(ratios, default=0.0), "ratio", len(ratios))

    quad = named("oracle.quad")
    bessel = named("oracle.bessel")
    m["oracle.quad.calls"] = (count(quad), "count", len(quad))
    m["oracle.quad.busy_s"] = (busy("oracle.quad"), "s", len(quad))
    m["oracle.quad.scipy_quad_calls"] = (count(named("oracle.scipy_quad")), "count", len(quad))
    m["oracle.bessel.calls"] = (count(bessel), "count", len(bessel))
    m["oracle.bessel.busy_s"] = (busy("oracle.bessel"), "s", len(bessel))

    for metric, module in IMPORTS.items():
        m[metric] = (import_ms.get(module, 0.0), "ms", 1)

    verify = named("cli.verify")
    m["cli.verify.busy_s"] = (busy("cli.verify"), "s", len(verify))
    m["cli.verify.self_s"] = (self_s("cli.verify"), "s", len(verify))

    roots = recorder.roots()
    self_total = sum(s.self_ns for s in spans) / 1e9
    traced_eps = sum(ok) / traced_s
    untraced_eps = untraced_ok / untraced_s
    m["trace.evals_per_s"] = (traced_eps, "1/s", sum(ok))
    m["trace.untraced_evals_per_s"] = (untraced_eps, "1/s", untraced_ok)
    m["trace.overhead_share"] = (1.0 - _ratio(traced_eps, untraced_eps), "ratio", len(roots))
    m["trace.self_sum_share"] = (_ratio(self_total, traced_s), "ratio", len(spans))
    return m
