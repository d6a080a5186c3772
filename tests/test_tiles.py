"""Tiled draws: each draw is made once and simulated in row tiles.

Estimates must not depend on the tile size or on the draw size, the
draws alive at once must hold at most 2^22 path-steps (or one tile), and
a run's peak memory must stay near those draws plus one tile instead of
growing with every per-path array of the run.
"""

import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from test_golden import GOLDEN, MARKET, MODELS, OPTION

from volterra_greeks import greeks, models, oracles, paths
from volterra_greeks.greeks import OptionSpec, estimate_many
from volterra_greeks.kernel import KernelSpec, kernel_matrix
from volterra_greeks.models import AlphaRFSV, MarketSpec, kernel_cache
from volterra_greeks.oracles import fd_greek
from volterra_greeks.paths import TimeGrid

CHUNK = 2048  # a smaller cap keeps the n = 600 runs short
N_PATHS = CHUNK + 700  # a draw boundary, and a partial last tile at every tile size
TILES = (256, 1024, CHUNK)  # CHUNK: one tile per draw, the untiled layout
FD_KINDS = {"alpharfsv": ["delta", "gamma", "rho", "vega", "hsens"], "black_scholes": ["delta", "gamma", "rho", "vega"]}


def _tiled(monkeypatch, module, name, tile):
    """Patch the cap and tile sizes; record how many paths each call of module.name gets."""
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


def _draws(monkeypatch, *modules):
    """Record (n_paths, start) of each gen_increments call made through the modules, and the paths alive after it.

    A draw is alive until its dZ array is freed, which no tile view of it
    outlives, so the count is what the run really holds.
    """
    calls, alive, live = [], [], {}

    def counted(grid, rho, seed, n_paths=1, start=0):
        calls.append((n_paths, start))
        inc = paths.gen_increments(grid, rho, seed, n_paths, start)
        live[start] = n_paths
        weakref.finalize(inc.dZ, live.pop, start)
        alive.append(sum(live.values()))
        return inc

    for module in modules:
        monkeypatch.setattr(module, "gen_increments", counted)
    return calls, alive


# paths per draw: the whole tiles in half the cap, at least one tile
DRAW = {64: 4096, 256: 4096, 1100: 1024, 2048: 1024}


@pytest.mark.parametrize("n,cap", [(64, 8192), (256, 8192), (1100, 3072), (2048, 2048)])
def test_draws_hold_at_most_2_22_path_steps(monkeypatch, n, cap):
    # the cap is the most paths alive in draws at once; the constant-vol
    # model keeps the n = 2048 runs cheap; a full cap and 300 more paths
    grid, model, size = TimeGrid(T=1.0, n=n), MODELS["black_scholes"], DRAW[n]
    want = [(size, start) for start in range(0, cap, size)] + [(300, cap)]
    calls, alive = _draws(monkeypatch, greeks)
    estimate_many(["delta"], model, MARKET, OPTION, grid, cap + 300, seed=7)
    assert calls == want and max(alive) == cap
    calls, alive = _draws(monkeypatch, oracles)
    fd_greek("delta", model, MARKET, OPTION, grid, cap + 300, seed=7)
    assert calls == want and max(alive) == cap
    assert cap * n <= greeks._DRAW_STEPS and size % paths._BLOCK == 0


def test_draw_cap_does_not_change_estimates(monkeypatch):
    grid, model, n_paths = TimeGrid(T=1.0, n=1100), MODELS["alpharfsv"], 3072 + 300
    kinds = ["delta", "hsens"]
    runs, draws = [], []
    # capped (1024-path draws, three alive at once), then one draw of up to half of _CHUNK paths
    for steps in (greeks._DRAW_STEPS, greeks._CHUNK * grid.n):
        monkeypatch.setattr(greeks, "_DRAW_STEPS", steps)
        calls, _ = _draws(monkeypatch, greeks, oracles)
        runs.append((
            estimate_many(kinds, model, MARKET, OPTION, grid, n_paths, seed=11),
            fd_greek(kinds, model, MARKET, OPTION, grid, n_paths, seed=11),
        ))
        draws.append(len(calls))
    assert draws == [8, 2]
    assert runs[0] == runs[1]


def test_fft_grid_estimates_do_not_depend_on_tile_or_draw_size(monkeypatch):
    # n = 2048 convolves by FFT; a draw at the cap (2048 paths) plus 300 more
    grid, model, n_paths = TimeGrid(T=1.0, n=2048), MODELS["alpharfsv"], 2048 + 300
    assert grid.n >= paths._FFT_STEPS
    kinds = ["delta", "hsens"]
    runs = []
    for tile, steps in ((1024, greeks._DRAW_STEPS), (256, greeks._DRAW_STEPS), (1024, greeks._CHUNK * grid.n)):
        monkeypatch.setattr(greeks, "_TILE", tile)
        monkeypatch.setattr(greeks, "_DRAW_STEPS", steps)
        runs.append((
            estimate_many(kinds, model, MARKET, OPTION, grid, n_paths, seed=13),
            fd_greek(kinds, model, MARKET, OPTION, grid, n_paths, seed=13),
        ))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("name", ["alpharfsv", "mixed", "rough_stein_stein"])
def test_fft_and_gemm_estimates_agree(monkeypatch, name):
    # the two convolutions differ only in rounding (at most 4e-12 measured)
    grid, model = TimeGrid(T=1.0, n=2048), MODELS[name]
    kinds = [kind for (m, kind), want in GOLDEN.items() if m == name and want is not None]
    fd_kinds = FD_KINDS.get(name, ["delta"])
    assert grid.n >= paths._FFT_STEPS
    runs = []
    for steps in (paths._FFT_STEPS, grid.n + 1):  # FFT, then forced GEMM
        monkeypatch.setattr(paths, "_FFT_STEPS", steps)
        runs.append(
            estimate_many(kinds, model, MARKET, OPTION, grid, 1024, seed=19)
            + fd_greek(fd_kinds, model, MARKET, OPTION, grid, 1024, seed=19)
        )
    for fft, gemm in zip(*runs):
        assert fft.kind == gemm.kind and fft.n_paths == gemm.n_paths
        assert fft.value == pytest.approx(gemm.value, rel=1e-9, abs=0.0)
        assert fft.stderr == pytest.approx(gemm.stderr, rel=1e-9, abs=0.0)


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


def test_chunks_share_one_matrix_build_per_call(monkeypatch):
    model, grid, kinds, n_paths = MODELS["alpharfsv"], TimeGrid(T=1.0, n=64), ["delta", "hsens"], 16 * 256
    one_draw = estimate_many(kinds, model, MARKET, OPTION, grid, n_paths, seed=41)
    builds = []

    def counting(spec, times):
        builds.append(spec)
        return kernel_matrix(spec, times)

    monkeypatch.setattr(models, "kernel_matrix", counting)
    # 16 draws of 256 paths on the call's one cache: a cap below one tile
    # (one draw alive at a time), then two alive at once with 256-path tiles
    for chunk, tile, most_alive in ((256, 1024, 256), (512, 256, 512)):
        monkeypatch.setattr(greeks, "_CHUNK", chunk)
        monkeypatch.setattr(greeks, "_TILE", tile)
        builds.clear()
        calls, alive = _draws(monkeypatch, greeks)
        assert estimate_many(kinds, model, MARKET, OPTION, grid, n_paths, seed=41) == one_draw
        assert builds == [model.kernel]
        assert calls == [(256, start) for start in range(0, n_paths, 256)] and max(alive) == most_alive


def test_concurrent_host_threads_keep_their_own_kernel_cache(monkeypatch):
    # two host threads in their own kernel_cache() blocks at once: an FFT grid
    # (whose draw and transforms start threads of their own) and a dense one
    builds, weights = [], paths.kernel_weights

    def counting(build, by_lag, spec, grid):
        builds.append((grid.n, build.__name__))
        return weights(build, by_lag, spec, grid)

    monkeypatch.setattr(paths, "kernel_weights", counting)
    model, kinds = MODELS["alpharfsv"], ["delta", "hsens"]
    runs = {
        "fft": (TimeGrid(T=1.0, n=paths._FFT_STEPS), 2048),  # one draw, two tiles
        "dense": (TimeGrid(T=1.0, n=64), 2 * greeks._CHUNK),
    }
    serial = {name: estimate_many(kinds, model, MARKET, OPTION, grid, n, seed=43) for name, (grid, n) in runs.items()}
    serial_builds = sorted(builds)
    assert len(serial_builds) == 4  # K and dK/dH once per call
    builds.clear()
    start = threading.Barrier(len(runs))

    def run(grid, n):
        start.wait(timeout=60)
        return estimate_many(kinds, model, MARKET, OPTION, grid, n, seed=43)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two calls finely
    try:
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            futures = {name: pool.submit(run, *args) for name, args in runs.items()}
            concurrent = {name: f.result(timeout=300) for name, f in futures.items()}
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial
    assert sorted(builds) == serial_builds  # neither call lost its cache to the other


# peak memory, in units of one (_CHUNK x 1024) float64 array: at n = 1024 a
# draw is 4096 paths (2^22 path-steps), so the draw (dW, dWt and dZ) is
# one and a half of them, and each tile adds an eighth per path array
# (2.381 and 1.879 measured); whole-_CHUNK draws peaked at 3.88 and 3.38,
# and the untiled engine held about ten (estimate) and five (FD) at once.
# At n = 2048 a draw is 2048 paths, again one and a half units, and the
# FFT tile holds dZ's spectrum (half a unit) but no dense kernel matrices
# (3.256 and 2.506 measured; 3.755 and 2.753 with the matrices)
_MEM_GRID = TimeGrid(T=1.0, n=1024)
_MEM_FFT_GRID = TimeGrid(T=1.0, n=2048)
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
        (lambda: estimate_many(["delta", "hsens"], _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_GRID, greeks._CHUNK, 3), 2.45),
        (lambda: fd_greek("hsens", _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_GRID, greeks._CHUNK, 3), 1.95),
        (lambda: estimate_many(["delta", "hsens"], _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_FFT_GRID, 2048, 3), 3.35),
        (lambda: fd_greek("hsens", _MEM_MODEL, _MEM_MKT, _MEM_OPT, _MEM_FFT_GRID, 2048, 3), 2.58),
    ],
    ids=["estimate_many", "fd_greek", "estimate_many_fft", "fd_greek_fft"],
)
def test_peak_memory_is_one_draw_plus_one_tile(run, limit):
    assert _peak_arrays(run) <= limit
