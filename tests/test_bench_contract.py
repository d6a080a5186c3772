"""The benchmark's traced run wraps package names from outside.

perfbench/tracing.py lists every (module, attribute) it replaces for the
per-layer spans; a name renamed or removed in the package would crash
`perfbench/run.py --trace 1`.  This checks each one resolves, that a
traced fine-grid run (several convolution row blocks) still gives every
convolution a flop count and passes the trace's own checks, and that a
traced three-draw run makes one draw span per draw and builds each
kernel matrix once per call while its tiles run.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

from volterra_greeks import cli, greeks, kernel, models, oracles, paths, weights
from volterra_greeks.greeks import OptionSpec
from volterra_greeks.kernel import KernelSpec
from volterra_greeks.models import AlphaRFSV, MarketSpec
from volterra_greeks.paths import TimeGrid, gen_increments
from volterra_greeks.weights import DEGENERATE_INTG

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up there
    spec.loader.exec_module(mod)
    return mod


def _layers_table():
    return _tracing().layers_table(DEGENERATE_INTG)


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _, _ in _layers_table()}))
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"volterra_greeks.{module}"), attr))


def test_traced_fine_grid_run_counts_blocked_convolutions():
    tracing = _tracing()
    mods = {"cli": cli, "greeks": greeks, "kernel": kernel, "models": models,
            "oracles": oracles, "paths": paths, "weights": weights}
    grid = TimeGrid(T=1.0, n=1100)  # three convolution row blocks
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
    market, opt = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
    tracer = tracing.Tracer()
    t0 = perf_counter()
    with tracer.installed(mods, tracing.layers_table(DEGENERATE_INTG)):
        inc = gen_increments(grid, model.rho, seed=3, n_paths=16)
        model.dtheta(grid, greeks.make_bundle(model, market, grid, inc), "H")
        oracles.fd_greek("hsens", model, market, opt, grid, 16, seed=3)
    wall = perf_counter() - t0
    # every wrapped name is put back
    assert greeks.make_bundle is models.make_bundle and paths.convolve_kernel.__module__ == paths.__name__
    conv = [s for s in tracer.spans if s.name == "paths.convolve_kernel"]
    assert len(conv) == 4  # Y and dY/dH of the bundle, the two H-bumped Y of the oracle
    assert all(s.work["flop"] == 2.0 * 16 * 1100 * 1101 for s in conv)
    metrics, checks = tracing.layer_metrics(tracer.spans, wall)
    assert metrics["paths.conv_calls"][0] == 4 and metrics["paths.conv_gflop"][0] > 0.0
    assert metrics["kernel.matrix_builds"][0] == 4
    assert len(checks) == 2 and all(ok for _, ok, _ in checks), checks


def test_traced_run_sees_one_draw_span_per_chunk_with_threaded_fills(monkeypatch):
    # the Tracer's span stack is not thread-safe: the block fills on the
    # pool must never call a wrapped name, so each draw is one span, made
    # on the calling thread even when it is queued ahead of the tiles
    tracing = _tracing()
    mods = {"cli": cli, "greeks": greeks, "kernel": kernel, "models": models,
            "oracles": oracles, "paths": paths, "weights": weights}
    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    grid = TimeGrid(T=1.0, n=256)
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
    market, opt = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
    n_paths = greeks._CHUNK + 1024  # draws of 4096, 4096 and 1024 paths
    tracer = tracing.Tracer()
    t0 = perf_counter()
    with tracer.installed(mods, tracing.layers_table(DEGENERATE_INTG)):
        greeks.estimate_many(["delta", "hsens"], model, market, opt, grid, n_paths, seed=5)
        oracles.fd_greek("hsens", model, market, opt, grid, n_paths, seed=5)
    wall = perf_counter() - t0
    draws = [s for s in tracer.spans if s.name == "paths.gen_increments"]
    assert [tracer.spans[s.parent].name for s in draws] == ["greeks.estimate_many"] * 3 + ["oracles.fd_greek"] * 3
    assert [s.work["normals"] for s in draws] == [2 * 256 * 4096, 2 * 256 * 4096, 2 * 256 * 1024] * 2
    metrics, checks = tracing.layer_metrics(tracer.spans, wall)
    assert metrics["paths.rng_calls"][0] == 6
    assert len(checks) == 2 and all(ok for _, ok, _ in checks), checks


def test_traced_tiled_run_draws_once_per_chunk_and_builds_each_matrix_once_per_call():
    tracing = _tracing()
    mods = {"cli": cli, "greeks": greeks, "kernel": kernel, "models": models,
            "oracles": oracles, "paths": paths, "weights": weights}
    grid = TimeGrid(T=1.0, n=64)
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
    market, opt = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
    n_paths = greeks._CHUNK + 1024  # three draws, 4 + 4 + 1 tiles
    tracer = tracing.Tracer()
    t0 = perf_counter()
    with tracer.installed(mods, tracing.layers_table(DEGENERATE_INTG)):
        greeks.estimate_many(["delta", "hsens"], model, market, opt, grid, n_paths, seed=5)
        oracles.fd_greek(["delta", "hsens"], model, market, opt, grid, n_paths, seed=5)
    wall = perf_counter() - t0
    spans = tracer.spans

    def call_of(span):  # the top-level call a span belongs to
        while span.parent >= 0:
            span = spans[span.parent]
        return span.name

    def per_call(name):
        return Counter(call_of(s) for s in spans if s.name == name)

    assert per_call("paths.gen_increments") == {"greeks.estimate_many": 3, "oracles.fd_greek": 3}
    # K and dK/dH for the estimates; K, K(H + h) and K(H - h) for the FD pass
    assert per_call("kernel.matrix") == {"greeks.estimate_many": 2, "oracles.fd_greek": 3}
    metrics, checks = tracing.layer_metrics(spans, wall)
    assert metrics["kernel.matrix_builds"][0] == 5
    assert metrics["greeks.chunks"][0] == 9  # one bundle per tile
    assert metrics["oracles.fd_reprices"][0] == 4 * 9  # s0 +- h and H +- h per tile
    assert len(checks) == 2 and all(ok for _, ok, _ in checks), checks
