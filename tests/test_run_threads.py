"""A run's threads: the draw fills behind the tiles, and OpenBLAS runs on one thread.

Inside an estimator or FD run each draw queues its 256-path block fills
on the run's pool and returns, the next draw queued while the calling
thread works through the current one; each tile is handed on only once
its blocks are filled, and the FFT shares the pool has not started are
taken back by the calling thread.  These tests slow the fills so the
tiles outrun them, interleave threads finely, and require every result
to equal the one-CPU run (no pool), with no pool thread left once the
call returns.  The run also holds numpy's OpenBLAS to one thread and
restores the count when the last open run exits.
"""

import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from test_tiles import _draws

from volterra_greeks import greeks, oracles, paths
from volterra_greeks.greeks import OptionSpec, converge, estimate_many
from volterra_greeks.kernel import KernelSpec
from volterra_greeks.models import AlphaRFSV, MarketSpec
from volterra_greeks.oracles import fd_greek
from volterra_greeks.paths import TimeGrid

ROOT = Path(__file__).resolve().parent.parent
MODEL = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
MARKET, OPT = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
KINDS = ["delta", "hsens"]
# (steps, paths): three draws each, the last tile partial; n = 1536 is an FFT grid
RUNS = [(64, greeks._CHUNK + 700), (256, greeks._CHUNK + 700), (1536, 2048 + 700)]


def _pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


@pytest.fixture
def fine_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture
def slow_fills(monkeypatch):
    """Slow every block fill; (fills done when each tile reached make_bundle, fills done)."""
    fill, bundle, done, seen = paths._fill_block, greeks.make_bundle, [], []

    def slow(*args, **kwargs):
        time.sleep(0.003)
        fill(*args, **kwargs)
        done.append(args[1])  # the block filled

    def counted(*args, **kwargs):
        seen.append(len(done))
        return bundle(*args, **kwargs)

    monkeypatch.setattr(paths, "_fill_block", slow)
    monkeypatch.setattr(greeks, "make_bundle", counted)
    return seen, done


def _serial(monkeypatch, call):
    monkeypatch.setattr(paths, "_cpu_count", lambda: 1)
    out = call()
    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    return out


@pytest.mark.parametrize("n,n_paths", RUNS)
def test_tiles_ahead_of_slow_fills_equal_the_one_cpu_run(monkeypatch, fine_switching, slow_fills, n, n_paths):
    grid = TimeGrid(T=1.0, n=n)

    def run():
        return estimate_many(KINDS, MODEL, MARKET, OPT, grid, n_paths, seed=11)

    want = _serial(monkeypatch, run)
    seen, done = slow_fills
    seen.clear(), done.clear()
    before = _pool_threads()
    assert run() == want
    assert _pool_threads() == before
    if n < paths._FFT_STEPS:  # the first tile started while most of its 32-block chunk was still unfilled
        assert seen[0] < greeks._CHUNK // paths._BLOCK // 2


def test_fd_pass_ahead_of_slow_fills_equals_the_one_cpu_run(monkeypatch, fine_switching, slow_fills):
    grid = TimeGrid(T=1.0, n=256)

    def run():
        return fd_greek(["delta", "hsens"], MODEL, MARKET, OPT, grid, greeks._CHUNK + 700, seed=11)

    want = _serial(monkeypatch, run)
    before = _pool_threads()
    assert run() == want
    assert _pool_threads() == before


@pytest.mark.parametrize("call", ["estimate_many", "fd_greek"])
def test_a_failed_fill_raises_from_the_run_and_leaves_no_thread(monkeypatch, fine_switching, call):
    fill = paths._fill_block

    def failing(seed, b, *args, **kwargs):
        if b == 5:
            raise RuntimeError("fill of block 5 failed")
        fill(seed, b, *args, **kwargs)

    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    monkeypatch.setattr(paths, "_fill_block", failing)
    grid, before = TimeGrid(T=1.0, n=64), _pool_threads()
    with pytest.raises(RuntimeError, match="block 5"):
        if call == "estimate_many":
            estimate_many(KINDS, MODEL, MARKET, OPT, grid, 4096, seed=11)
        else:
            fd_greek("hsens", MODEL, MARKET, OPT, grid, 4096, seed=11)
    assert _pool_threads() == before


# --- draws made ahead, and FFT shares taken back by the calling thread -------

# paths per draw: the whole tiles in half the cap (8192 paths and 2^22
# path-steps), at least one tile; two draws alive, three at n = 1100
DRAW = {64: 4096, 256: 4096, 1100: 1024, 1536: 1024, 2048: 1024}


@pytest.mark.parametrize("n", sorted(DRAW))
def test_draws_made_ahead_of_slow_fills_equal_the_one_cpu_run(monkeypatch, fine_switching, slow_fills, n):
    # three draws, the last tile partial; the calling thread is held at the
    # first draw's last tile until the second draw's first block is filled:
    # the pool fills it behind the tiles, with no tile of its own to wait on
    grid, size, seen_bundle = TimeGrid(T=1.0, n=n), DRAW[n], greeks.make_bundle
    last_tile, first_block, held = -(-size // greeks._TILE) - 1, size // paths._BLOCK, []
    seen, done = slow_fills

    def holding(*args, **kwargs):
        if len(seen) == last_tile:
            deadline = time.monotonic() + 30
            while first_block not in done and time.monotonic() < deadline:
                time.sleep(0.001)
            held.append(first_block in done)
        return seen_bundle(*args, **kwargs)

    monkeypatch.setattr(greeks, "make_bundle", holding)
    calls, alive = _draws(monkeypatch, greeks)

    def run():
        return estimate_many(KINDS, MODEL, MARKET, OPT, grid, 2 * size + 700, seed=11)

    want = _serial(monkeypatch, run)
    seen.clear(), done.clear(), held.clear(), calls.clear(), alive.clear()
    before = _pool_threads()
    assert run() == want
    assert _pool_threads() == before
    assert held == [True]
    assert calls == [(size, 0), (size, size), (700, 2 * size)]
    assert max(alive) == (2 * size + 700 if n == 1100 else 2 * size)  # all three draws alive at n = 1100


def test_one_draw_alive_at_a_time_from_n_4096(monkeypatch, fine_switching, slow_fills):
    # the cap is one tile: no lookahead, each draw freed before the next is made
    grid, n_paths = TimeGrid(T=1.0, n=4096), 2 * greeks._TILE + 300
    calls, alive = _draws(monkeypatch, greeks)

    def run():
        return estimate_many(["delta"], MODEL, MARKET, OPT, grid, n_paths, seed=11)

    want = _serial(monkeypatch, run)
    calls.clear(), alive.clear()
    assert run() == want
    assert calls == [(1024, 0), (1024, 1024), (300, 2048)]
    assert alive == [1024, 1024, 300]


def test_fft_rows_finish_on_the_calling_thread_while_the_pool_is_held(monkeypatch):
    # every pool thread waits on an Event: the convolution must not wait on
    # the helpers it queued behind them, and gives the values of a run-free call
    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    grid = TimeGrid(T=1.0, n=paths._FFT_STEPS)
    inc = paths.gen_increments(grid, MODEL.rho, seed=5, n_paths=700)

    def fresh():  # no dZ spectrum taken yet
        return paths.DriverIncrements(dW=inc.dW, dWt=inc.dWt, dZ=inc.dZ, rho=inc.rho)

    want, release = paths.volterra_path(MODEL.kernel, grid, fresh())[0], threading.Event()
    with paths.run_threads() as run:
        held = [run.pool.submit(release.wait, 30) for _ in range(3)]
        try:
            got = paths.volterra_path(MODEL.kernel, grid, fresh())[0]
            assert not any(f.done() for f in held)
        finally:
            release.set()
        assert all(f.result(timeout=60) for f in held)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("call", ["estimate_many", "fd_greek"])
def test_a_failed_fft_share_raises_from_the_run_and_leaves_no_thread(monkeypatch, fine_switching, call):
    on_threads = paths._on_threads

    def failing(task, rows):  # every share but the first of each call fails, on whichever thread takes it
        def share(lo, hi):
            if lo > 0:
                raise RuntimeError("an FFT share failed")
            task(lo, hi)

        on_threads(share, rows)

    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    monkeypatch.setattr(paths, "_on_threads", failing)
    grid, before = TimeGrid(T=1.0, n=paths._FFT_STEPS), _pool_threads()
    with pytest.raises(RuntimeError, match="FFT share"):
        if call == "estimate_many":
            estimate_many(KINDS, MODEL, MARKET, OPT, grid, 2048, seed=11)
        else:
            fd_greek("hsens", MODEL, MARKET, OPT, grid, 2048, seed=11)
    assert _pool_threads() == before


# --- OpenBLAS held to one thread -------------------------------------------

needs_openblas = pytest.mark.skipif(paths._openblas() is None, reason="numpy's OpenBLAS thread count not found")


@pytest.fixture
def blas_count():
    """Set the OpenBLAS thread count to 2 for the test; put the old count back after."""
    get, put = paths._openblas()
    old = get()
    put(2)
    yield get
    put(old)


def _recording(monkeypatch, module, name, get, fail_on=None):
    """Record the BLAS thread count at each call of module.name; raise at call fail_on."""
    fn, counts = getattr(module, name), []

    def wrapped(*args, **kwargs):
        counts.append(get())
        if len(counts) == fail_on:
            raise RuntimeError("stop the run")
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return counts


_GRID = TimeGrid(T=1.0, n=256)
_CALLS = {
    "estimate_many": (greeks, "make_bundle", lambda: estimate_many(KINDS, MODEL, MARKET, OPT, _GRID, 3000, seed=3)),
    "converge": (greeks, "make_bundle", lambda: converge("delta", MODEL, MARKET, OPT, _GRID, [1000, 3000], seed=3)),
    "fd_greek": (oracles, "price_path", lambda: fd_greek("hsens", MODEL, MARKET, OPT, _GRID, 3000, seed=3)),
}


@needs_openblas
@pytest.mark.parametrize("fail_on", [None, 2])
@pytest.mark.parametrize("call", sorted(_CALLS))
def test_blas_runs_on_one_thread_in_a_run_and_is_restored(monkeypatch, blas_count, call, fail_on):
    module, name, run = _CALLS[call]
    counts = _recording(monkeypatch, module, name, blas_count, fail_on)
    if fail_on is None:
        run()
    else:
        with pytest.raises(RuntimeError, match="stop the run"):
            run()
    assert counts and set(counts) == {1}
    assert blas_count() == 2


@needs_openblas
def test_concurrent_runs_restore_the_blas_count_once_both_exit(monkeypatch, blas_count, fine_switching):
    counts = _recording(monkeypatch, greeks, "make_bundle", blas_count)
    runs = {"a": (TimeGrid(T=1.0, n=256), 5000), "b": (TimeGrid(T=1.0, n=64), 12000)}
    serial = {k: estimate_many(KINDS, MODEL, MARKET, OPT, g, m, seed=7) for k, (g, m) in runs.items()}
    start, got = threading.Barrier(len(runs)), {}

    def host(key):
        start.wait(timeout=60)
        got[key] = estimate_many(KINDS, MODEL, MARKET, OPT, *runs[key], seed=7)

    threads = [threading.Thread(target=host, args=(k,)) for k in runs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    assert got == serial
    assert set(counts) == {1}
    assert blas_count() == 2


def test_a_failed_blas_lookup_runs_unpinned_and_warns_once(monkeypatch, caplog):
    grid = TimeGrid(T=1.0, n=256)
    want = (estimate_many(KINDS, MODEL, MARKET, OPT, grid, 3000, seed=3),
            fd_greek("hsens", MODEL, MARKET, OPT, grid, 3000, seed=3))
    monkeypatch.setattr(paths, "_OPENBLAS_SET", "no_such_symbol_set_num_threads")
    paths._openblas.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="volterra_greeks"):
            for _ in range(2):
                assert estimate_many(KINDS, MODEL, MARKET, OPT, grid, 3000, seed=3) == want[0]
                assert fd_greek("hsens", MODEL, MARKET, OPT, grid, 3000, seed=3) == want[1]
    finally:
        paths._openblas.cache_clear()
    warned = [r for r in caplog.records if r.name == "volterra_greeks" and r.levelno == logging.WARNING]
    assert len(warned) == 1 and "OpenBLAS" in warned[0].getMessage()


_ESTIMATES = """
import sys
from volterra_greeks.greeks import OptionSpec, estimate_many
from volterra_greeks.kernel import KernelSpec, kernel_by_lag, kernel_matrix
from volterra_greeks.models import AlphaRFSV, MarketSpec
from volterra_greeks.paths import TimeGrid
model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14))
market, opt = MarketSpec(s0=100.0, r=0.05), OptionSpec(strike=100.0, maturity=1.0)
for n in (256, 512):
    print(repr(estimate_many(["price", "delta", "hsens"], model, market, opt, TimeGrid(1.0, n), 2600, seed=19)))
"""


def test_estimates_do_not_depend_on_the_blas_thread_count():
    # the dense product's last column Y_n can round differently with the
    # BLAS thread count; no estimator reads it
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run([sys.executable, "-c", _ESTIMATES], capture_output=True, text=True,
                              env={**env, **extra}, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count("GreekEstimate(") == 6
