"""The benchmark's traced run wraps package names from outside.

perfbench/tracing.py lists every (module, attribute) it replaces for the
per-layer spans; a name renamed or removed in the package would crash
`perfbench/run.py --trace 1`.  This checks each one resolves.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from volterra_greeks.weights import DEGENERATE_INTG

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layers_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod.layers_table(DEGENERATE_INTG)


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _, _ in _layers_table()}))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"volterra_greeks.{module}"), attr))
