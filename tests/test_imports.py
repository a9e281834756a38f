"""scipy and mpmath load only on the paths that use them.

The default route and the diagonal closed form need numpy alone; scipy
serves the quadrature oracle and mpmath the B series.  Each check runs
in a fresh interpreter, because this suite imports both packages itself.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iavar
from iavar.variogram import CoeffPair, Lag

SRC = Path(iavar.__file__).resolve().parents[1]

# Prints the packages loaded, comma-separated, as the last line.
_LOADED = "print(','.join(m for m in ('scipy', 'mpmath') if m in sys.modules))"
_CLI = f"import sys; from iavar import cli; code = cli.main(sys.argv[1:]); {_LOADED}; sys.exit(code)"


def _python(code, *argv):
    """stdout lines of ``python -c code argv...`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_neither():
    assert _python(f"import sys, iavar, iavar.cli; {_LOADED}") == [""]


@pytest.mark.parametrize(
    "a,b,s,t",
    [("0.2", "0.1", "2", "1"), ("0.3", "0.2", "2", "1"), ("0.25", "0.25", "2", "1"),
     ("0.25", "0.25", "3", "3")],
)
def test_auto_eval_loads_neither(a, b, s, t):
    value, loaded = _python(_CLI, "eval", "--a", a, "--b", b, "--s", s, "--t", t)
    assert loaded == ""
    assert "value=" in value


@pytest.mark.parametrize(
    "method,a,b,module",
    [("quad", "0.2", "0.1", "scipy"), ("symmetric", "0.25", "0.25", "mpmath")],
)
def test_named_route_loads_its_package(method, a, b, module):
    record, loaded = _python(_CLI, "eval", "--a", a, "--b", b, "--s", "2", "--t", "1",
                             "--method", method, "--json")
    assert module in loaded.split(",")
    auto = iavar.variogram(CoeffPair(float(a), float(b)), Lag(2, 1)).value
    assert json.loads(record)["value"] == pytest.approx(auto, abs=1e-8)


def test_quadrature_oracle_calls_quad_through_module_global(monkeypatch):
    # The benchmark traces iavar.oracle.quad: every oracle call must go
    # through that attribute, once.
    oracle = importlib.import_module("iavar.oracle")
    calls = []
    real = oracle.quad

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "quad", counting)
    lags = [Lag(1, 0), Lag(2, 1), Lag(0, 3)]
    for lag in lags:
        oracle.quadrature_variogram(CoeffPair(0.2, 0.1), lag)
    assert len(calls) == len(lags)
