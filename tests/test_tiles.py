"""Tiled chunks: each chunk is drawn once and simulated in row tiles.

Estimates must not depend on the tile size, and a chunk's peak memory
must stay near its draw plus one tile instead of growing with every
per-path array of the chunk.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_golden import GOLDEN, MARKET, MODELS, OPTION

from volterra_greeks import greeks, models, oracles
from volterra_greeks.greeks import OptionSpec, estimate_many
from volterra_greeks.kernel import KernelSpec, kernel_matrix
from volterra_greeks.models import AlphaRFSV, MarketSpec, kernel_cache
from volterra_greeks.oracles import fd_greek
from volterra_greeks.paths import TimeGrid

CHUNK = 2048  # a smaller chunk keeps the n = 600 runs short
N_PATHS = CHUNK + 700  # a chunk boundary, and a partial last tile at every tile size
TILES = (256, 1024, CHUNK)  # CHUNK: one tile per chunk, the untiled layout
FD_KINDS = {"alpharfsv": ["delta", "gamma", "rho", "vega", "hsens"], "black_scholes": ["delta", "gamma", "rho", "vega"]}


def _tiled(monkeypatch, module, name, tile):
    """Patch the chunk and tile sizes; record how many paths each call of module.name gets."""
    monkeypatch.setattr(greeks, "_CHUNK", CHUNK)
    monkeypatch.setattr(greeks, "_TILE", tile)
    fn, sizes = getattr(models, name), []  # both patched names are models functions

    def counted(*args, **kwargs):  # the increments are the last positional argument
        sizes.append(args[-1].dZ.shape[0])
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return sizes


def _tile_sizes(tile):
    return [min(tile, stop - lo) for start, stop in ((0, CHUNK), (CHUNK, N_PATHS)) for lo in range(start, stop, tile)]


@pytest.mark.parametrize("n", [16, 600])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_estimates_do_not_depend_on_tile_size(monkeypatch, name, n):
    tasks = [kind for (m, kind), want in GOLDEN.items() if m == name and want is not None]
    grid = TimeGrid(T=1.0, n=n)
    results = []
    for tile in TILES:
        sizes = _tiled(monkeypatch, greeks, "make_bundle", tile)
        results.append(estimate_many(tasks, MODELS[name], MARKET, OPTION, grid, N_PATHS, seed=29))
        assert sizes == _tile_sizes(tile)
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("n", [16, 600])
@pytest.mark.parametrize("name", sorted(FD_KINDS))
def test_fd_sequences_do_not_depend_on_tile_size(monkeypatch, name, n):
    grid = TimeGrid(T=1.0, n=n)
    results = []
    for tile in TILES:
        sizes = _tiled(monkeypatch, oracles, "vol_path", tile)
        results.append(fd_greek(FD_KINDS[name], MODELS[name], MARKET, OPTION, grid, N_PATHS, seed=31))
        # every vol path covers one tile
        assert sorted(set(sizes)) == sorted(set(_tile_sizes(tile)))
    assert results[0] == results[1] == results[2]


def test_kernel_cache_builds_each_matrix_once_per_block(monkeypatch):
    builds = []

    def counting(spec, times):
        builds.append(spec)
        return kernel_matrix(spec, times)

    monkeypatch.setattr(models, "kernel_matrix", counting)
    grid = TimeGrid(T=1.0, n=32)
    model = MODELS["alpharfsv"]
    inc = greeks.gen_increments(grid, model.rho, seed=1, n_paths=8)
    bumped = replace(model, kernel=KernelSpec(H=0.3))
    with kernel_cache():
        (v1, first), (v2, second) = model.path(grid, inc), model.path(grid, inc)
        bumped.path(grid, inc)
    assert builds == [model.kernel, bumped.kernel]
    assert np.array_equal(v1, v2)
    assert first["kappa_hat"] is second["kappa_hat"] and not first["kappa_hat"].flags.writeable
    model.path(grid, inc)  # outside the block: built again, nothing kept
    assert builds == [model.kernel, bumped.kernel, model.kernel]
    assert models._KERNELS.get(None) is None


def test_worker_threads_build_each_matrix_once(monkeypatch):
    builds = []

    def counting(spec, times):
        builds.append(spec)
        return kernel_matrix(spec, times)

    monkeypatch.setattr(models, "kernel_matrix", counting)
    monkeypatch.setattr(greeks, "_CHUNK", 256)  # 16 chunks for 8 threads on the shared cache
    model, grid = MODELS["alpharfsv"], TimeGrid(T=1.0, n=64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = estimate_many(["delta", "hsens"], model, MARKET, OPTION, grid, 16 * 256, seed=41, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert builds == [model.kernel]
    assert threaded == estimate_many(["delta", "hsens"], model, MARKET, OPTION, grid, 16 * 256, seed=41)


# peak memory, in units of one (paths x n) float64 array: the chunk's draw
# (dW, dWt and dZ) is three of them, each tile adds an eighth of a chunk
# per path array (3.88 and 3.38 measured), and the untiled engine held
# about ten (estimate) and five (FD) of them at once
_MEM_GRID = TimeGrid(T=1.0, n=1024)
_MEM_MODEL = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
_MEM_MKT, _MEM_OPT = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
_ARRAY = greeks._CHUNK * _MEM_GRID.n * 8


def _peak_arrays(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / _ARRAY
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "run,limit",
    [
        (lambda: estimate_many(["delta", "hsens"], _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_GRID, greeks._CHUNK, 3), 4.0),
        (lambda: fd_greek("hsens", _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_GRID, greeks._CHUNK, 3), 3.5),
    ],
    ids=["estimate_many", "fd_greek"],
)
def test_peak_memory_is_one_draw_plus_one_tile(run, limit):
    assert _peak_arrays(run) <= limit
