"""The traced benchmark run's wiring still resolves against the package.

``bench/layers.py`` names the import sites the traced run wraps; a
missing one makes a traced run exit 2.  The run also clears and reads
the shared F4 cache between passes, so its untimed passes start cold.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,module,attr", _load_layers().TARGETS)
def test_trace_target_resolves(span, module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{span}: {module}.{attr}"


def test_f4_cache_can_be_cleared_and_read():
    cached = importlib.import_module("iavar.variogram")._cached_f4
    assert callable(cached.cache_clear)
    assert callable(cached.cache_info)
