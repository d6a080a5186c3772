import math
import sys
import threading

import numpy as np
import pytest
from brute_force import stream2_increments

from volterra_greeks import greeks, paths
from volterra_greeks.kernel import (
    KernelSpec,
    cell_variance_matrix,
    kernel_by_lag,
    kernel_dh_by_lag,
    kernel_dh_matrix,
    kernel_eval,
    kernel_matrix,
    kernel_variance,
)
from volterra_greeks.paths import (
    DriverIncrements,
    TimeGrid,
    convolve_kernel,
    gen_increments,
    volterra_dh_path,
    volterra_path,
)


def test_grid_basics():
    g = TimeGrid(T=1.0, n=4)
    assert g.dt == 0.25
    assert np.array_equal(g.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, n=4)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, n=0)
    for n in (2.5, 4.0, "4"):  # n.5 steps would run the grid past T
        with pytest.raises(ValueError, match=r"\bn must be an integer"):
            TimeGrid(T=1.0, n=n)
    assert np.array_equal(TimeGrid(T=1.0, n=np.int64(4)).times, g.times)


def test_increment_validation():
    g = TimeGrid(T=1.0, n=8)
    with pytest.raises(ValueError):
        gen_increments(g, rho=1.5, seed=0)
    with pytest.raises(ValueError):
        gen_increments(g, rho=0.0, seed=0, n_paths=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        gen_increments(g, rho=0.0, seed=-1)
    with pytest.raises(ValueError, match="start must be >= 0, got -3"):
        gen_increments(g, rho=0.0, seed=0, start=-3)
    # float sizes and keys are refused by name, not by numpy's unnamed TypeErrors
    for kw, name in (({"seed": 1.5}, "seed"), ({"seed": 1.0}, "seed"), ({"seed": 0, "n_paths": 3.0}, "n_paths"),
                     ({"seed": 0, "start": 2.0}, "start")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            gen_increments(g, rho=0.0, **kw)


def test_rho_extremes():
    g = TimeGrid(T=1.0, n=16)
    inc = gen_increments(g, rho=1.0, seed=7, n_paths=5)
    assert np.array_equal(inc.dZ, inc.dW)
    inc = gen_increments(g, rho=0.0, seed=7, n_paths=5)
    assert np.array_equal(inc.dZ, inc.dWt)
    inc = gen_increments(g, rho=-1.0, seed=7, n_paths=5)
    assert np.array_equal(inc.dZ, -inc.dW)


def test_increment_moments_and_correlation():
    g = TimeGrid(T=2.0, n=4)
    rho = -0.6
    inc = gen_increments(g, rho=rho, seed=11, n_paths=40_000)
    n = inc.dW.size
    se_mean = math.sqrt(g.dt / n)
    assert abs(inc.dW.mean()) < 4 * se_mean
    assert abs(inc.dZ.mean()) < 4 * se_mean
    # var of a sample variance of N(0, dt) is 2 dt^2 / n
    se_var = math.sqrt(2.0 / n) * g.dt
    assert abs(inc.dW.var() - g.dt) < 4 * se_var
    assert abs(inc.dZ.var() - g.dt) < 4 * se_var
    corr = np.corrcoef(inc.dW.ravel(), inc.dZ.ravel())[0, 1]
    assert abs(corr - rho) < 4 * (1 - rho * rho) / math.sqrt(n)


def test_substreams_are_batch_invariant():
    g = TimeGrid(T=1.0, n=32)
    full = gen_increments(g, rho=0.3, seed=42, n_paths=10)
    for k in (0, 3, 9):
        one = gen_increments(g, rho=0.3, seed=42, n_paths=1, start=k)
        assert np.array_equal(one.dW[0], full.dW[k])
        assert np.array_equal(one.dWt[0], full.dWt[k])
    # a larger run extends a smaller one
    head = gen_increments(g, rho=0.3, seed=42, n_paths=4)
    assert np.array_equal(head.dW, full.dW[:4])
    # different seeds differ
    other = gen_increments(g, rho=0.3, seed=43, n_paths=1)
    assert not np.array_equal(other.dW[0], full.dW[0])
    # runs that straddle the 256-path blocks; estimator chunks hold whole blocks
    assert greeks._CHUNK % paths._BLOCK == 0
    big = gen_increments(g, rho=0.3, seed=42, n_paths=600)
    assert np.array_equal(big.dW[:10], full.dW)
    for start, n in ((250, 12), (511, 2), (255, 1), (256, 256)):
        part = gen_increments(g, rho=0.3, seed=42, n_paths=n, start=start)
        assert np.array_equal(part.dW, big.dW[start:start + n])
        assert np.array_equal(part.dWt, big.dWt[start:start + n])
    # a 600-path run rebuilt from three unaligned pieces
    pieces = [gen_increments(g, rho=0.3, seed=42, n_paths=n, start=s) for s, n in ((0, 137), (137, 300), (437, 163))]
    assert np.array_equal(np.concatenate([p.dW for p in pieces]), big.dW)
    assert np.array_equal(np.concatenate([p.dWt for p in pieces]), big.dWt)


def test_rng_stream_2_golden_values():
    # path 300 is row 44 of block 1's (256, 2, n) draws; a change to these
    # numbers is a new stream version (paths.RNG_STREAM)
    assert paths.RNG_STREAM == 2
    g = TimeGrid(T=1.0, n=4)  # sqrt(dt) = 0.5 scales exactly
    inc = gen_increments(g, rho=0.0, seed=2024, n_paths=1, start=300)
    assert inc.dW[0].tolist() == [-0.0029064215725905086, 0.36605455454625496, 0.7059736338675835, -0.39686665785051706]
    assert inc.dWt[0].tolist() == [-0.45983908292340775, -0.2212784536426816, 0.40949554022858814, 0.03371916301071297]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2024, spawn_key=(1,))))
    z = rng.standard_normal((256, 2, 4))
    assert np.array_equal(inc.dW[0], 0.5 * z[44, 0]) and np.array_equal(inc.dWt[0], 0.5 * z[44, 1])


@pytest.mark.parametrize("rho", [-1.0, -0.05, 0.0, 0.7])
@pytest.mark.parametrize("cpus", [1, 3])
def test_increments_equal_the_serial_stream_2_reference(monkeypatch, cpus, rho):
    # each draw is made in its own run: with cpus = 3 its blocks are filled
    # on the run's pool (3 threads oversubscribe a 2-core host), with 1 on
    # the calling thread; read once the run has seen every row filled, the
    # draws, the sqrt(dt) scaling and the dZ mixing must equal the serial
    # definition
    monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
    ranges = [(0, 1), (255, 2), (100, 1000), (8192, 1024)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in (1, 64, 512, 2048):
            g = TimeGrid(T=1.0, n=n)
            # the 9216-path run (two estimator chunks) only where it stays small
            for start, n_paths in ranges + [(0, 9216)] * (n <= 64):
                with paths.run_threads() as run:
                    inc = gen_increments(g, rho, seed=17, n_paths=n_paths, start=start)
                    run.wait(start + n_paths)
                    dw, dwt, dz = stream2_increments(g, rho, 17, n_paths, start)
                    assert np.array_equal(inc.dW, dw) and np.array_equal(inc.dWt, dwt)
                    assert np.array_equal(inc.dZ, dz)
    finally:
        sys.setswitchinterval(interval)


def test_calls_outside_a_run_start_no_thread(monkeypatch):
    # threads start only inside a run: with 3 CPUs and no way to build a
    # pool, a 2^22 path-step draw and n = 2048 FFT paths are made on the
    # calling thread and equal their serial definitions
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was built outside a run")

    monkeypatch.setattr(paths, "_cpu_count", lambda: 3)
    monkeypatch.setattr(paths, "ThreadPoolExecutor", NoPool)
    before = set(threading.enumerate())
    g = TimeGrid(T=1.0, n=256)
    inc = gen_increments(g, 0.3, seed=17, n_paths=1 << 14)
    dw, dwt, dz = stream2_increments(g, 0.3, 17, 1 << 14)
    assert np.array_equal(inc.dW, dw) and np.array_equal(inc.dWt, dwt) and np.array_equal(inc.dZ, dz)
    del inc, dw, dwt, dz
    # convolution 2 on an FFT grid: each row's irfft(rfft(dZ) * rfft(kernel by lag))
    spec, g = KernelSpec(H=0.14, eps=1e-6), TimeGrid(T=1.0, n=2048)
    inc, size = gen_increments(g, 0.3, seed=17, n_paths=300), paths._fft_len(2048)
    dz_hat = np.fft.rfft(inc.dZ, n=size)
    ys = {kernel_by_lag: volterra_path(spec, g, inc)[0], kernel_dh_by_lag: volterra_dh_path(spec, g, inc)[0]}
    for by_lag, y in ys.items():
        want = np.fft.irfft(dz_hat * np.fft.rfft(by_lag(spec, g.times), n=size), n=size)[:, :2048]
        assert np.array_equal(y[:, 1:], want) and np.all(y[:, 0] == 0.0)
    assert set(threading.enumerate()) == before


def test_h_half_path_is_cumsum():
    g = TimeGrid(T=1.0, n=64)
    inc = gen_increments(g, rho=0.2, seed=5, n_paths=3)
    y = volterra_path(KernelSpec(H=0.5, eps=0.0), g, inc)[0]
    assert np.array_equal(y[:, 1:], np.cumsum(inc.dZ, axis=-1))
    assert np.all(y[:, 0] == 0.0)


def test_two_step_path_unrolled():
    spec = KernelSpec(H=0.14, eps=0.0)
    g = TimeGrid(T=1.0, n=2)
    inc = gen_increments(g, rho=0.0, seed=1, n_paths=1)
    y = volterra_path(spec, g, inc)[0][0]
    t = g.times
    assert y[0] == 0.0
    assert y[1] == pytest.approx(kernel_eval(spec, t[1], t[0]) * inc.dZ[0, 0], rel=1e-15)
    want = kernel_eval(spec, t[2], t[0]) * inc.dZ[0, 0] + kernel_eval(spec, t[2], t[1]) * inc.dZ[0, 1]
    assert y[2] == pytest.approx(want, rel=1e-14)


def _dense(kmat, dz):
    y = dz @ kmat.T
    y[..., 0] = 0.0
    return y


def _conv_case(n, seed):
    kmat = kernel_matrix(KernelSpec(H=0.14, eps=1e-6), TimeGrid(T=1.0, n=n).times)
    rng = np.random.default_rng(seed)
    return kmat, (rng.standard_normal(n), rng.standard_normal((5, n)))


@pytest.mark.parametrize("n", [1, 7, 256, 512])
def test_convolve_kernel_is_dense_product_up_to_512(n):
    kmat, dzs = _conv_case(n, n)
    for dz in dzs:
        assert np.array_equal(convolve_kernel(kmat, dz), _dense(kmat, dz))


@pytest.mark.parametrize("n", [513, 1025, 1500, 2048])
def test_row_blocked_convolve_kernel_matches_dense(n):
    # ceil(n / 512) row blocks, each skipping the zero columns right of it
    kmat, dzs = _conv_case(n, n)
    for dz in dzs:
        got, want = convolve_kernel(kmat, dz), _dense(kmat, dz)
        assert got.shape == want.shape == dz.shape[:-1] + (n + 1,)
        assert np.all(got[..., 0] == 0.0)
        # relative to the sum of the absolute terms of each dot product
        assert np.all(np.abs(got - want) <= 1e-13 * (np.abs(dz) @ np.abs(kmat).T))


@pytest.mark.parametrize("n", [300, 600])
def test_convolve_kernel_rows_do_not_depend_on_the_paths_after_them(n):
    # BLAS rounds a row by how many rows share its product; groups of 256
    # paths make a tile's rows equal to the same rows of the whole chunk
    kmat = kernel_matrix(KernelSpec(H=0.14, eps=1e-6), TimeGrid(T=1.0, n=n).times)
    dz = np.random.default_rng(n).standard_normal((1100, n))
    y = convolve_kernel(kmat, dz)
    for lo, hi in ((0, 256), (256, 1024), (0, 1024), (1024, 1100)):
        assert np.array_equal(convolve_kernel(kmat, dz[lo:hi]), y[lo:hi])


def test_convolve_kernel_is_causal_across_row_blocks():
    n = 1500  # three row blocks, with edges near 500 and 1000
    kmat, (_, dz) = _conv_case(n, 3)
    y = convolve_kernel(kmat, dz)
    for j in (0, 498, 499, 500, 501, 999, 1000, 1001, 1499):
        bumped = dz.copy()
        bumped[:, j] += 1.0
        moved = convolve_kernel(kmat, bumped) != y
        assert not moved[:, : j + 1].any()
        assert moved[:, j + 1 :].all()


_FFT_SPEC = KernelSpec(H=0.14, eps=1e-6)  # the _conv_case kernel


def _fft_case(n):
    """Per-lag vector of the _conv_case kernel on an FFT grid."""
    assert n >= paths._FFT_STEPS
    return kernel_by_lag(_FFT_SPEC, TimeGrid(T=1.0, n=n).times)


def _fft_conv(dz, grid=None):
    grid = grid or TimeGrid(T=1.0, n=dz.shape[-1])
    return volterra_path(_FFT_SPEC, grid, DriverIncrements(dW=dz, dWt=dz, dZ=dz, rho=0.0))[0]


@pytest.mark.parametrize("n", [1536, 2048, 2500])
def test_fft_convolution_matches_dense(monkeypatch, n):
    # an FFT spreads its rounding over the whole row, so the bound is
    # normwise, |error| <= 1e-15 |k| |dz| per entry; a per-term bound fails
    # on rows with one tiny term (Y_1 = k_0 dZ_0 with dZ_0 near zero)
    for name in ("kernel_matrix", "kernel_dh_matrix"):
        monkeypatch.setattr(paths, name, None)  # a spectrum: no (n+1) x n matrix is built
    kmat, dzs = _conv_case(n, n)
    k = _fft_case(n)
    for dz in dzs:
        got, want = _fft_conv(dz), _dense(kmat, dz)
        assert got.shape == want.shape == dz.shape[:-1] + (n + 1,)
        assert np.all(got[..., 0] == 0.0)
        scale = np.linalg.norm(k) * np.linalg.norm(dz, axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
    # the row integrals stay the dense matrices' row sums bit for bit
    grid, dz = TimeGrid(T=1.0, n=n), dzs[1]
    inc = DriverIncrements(dW=dz, dWt=dz, dZ=dz, rho=0.0)
    for door, build in ((volterra_path, kernel_matrix), (volterra_dh_path, kernel_dh_matrix)):
        assert np.array_equal(door(_FFT_SPEC, grid, inc)[1], grid.dt * build(_FFT_SPEC, grid.times).sum(axis=1))


def test_fft_rows_do_not_depend_on_the_batch(monkeypatch):
    # FFT rows are transformed independently: no prefix exception on FFT grids
    spec, grid = KernelSpec(H=0.14, eps=1e-6), TimeGrid(T=1.0, n=2048)
    inc = gen_increments(grid, 0.3, seed=5, n_paths=2048)
    y = volterra_path(spec, grid, inc)[0]
    assert np.array_equal(volterra_path(spec, grid, gen_increments(grid, 0.3, seed=5, n_paths=300))[0], y[:300])
    for lo, hi in ((0, 256), (256, 1024), (1024, 1100), (5, 9), (2047, 2048)):
        part = DriverIncrements(dW=inc.dW[lo:hi], dWt=inc.dWt[lo:hi], dZ=inc.dZ[lo:hi], rho=inc.rho)
        assert np.array_equal(volterra_path(spec, grid, part)[0], y[lo:hi])
    for cpus in (1, 3):  # in a run the transforms split the paths between threads
        monkeypatch.setattr(paths, "_cpu_count", lambda: cpus)
        part = DriverIncrements(dW=inc.dW[:300], dWt=inc.dWt[:300], dZ=inc.dZ[:300], rho=inc.rho)
        with paths.run_threads():
            assert np.array_equal(volterra_path(spec, grid, part)[0], y[:300])


def test_fft_convolution_is_causal():
    n = 2048
    k = _fft_case(n)
    dz = np.random.default_rng(3).standard_normal((5, n))
    y = _fft_conv(dz)
    for j in (0, 1, 1023, 1024, 2046, 2047):
        bumped = dz.copy()
        bumped[:, j] += 1.0
        got = _fft_conv(bumped)
        assert np.all(got[:, j + 1 :] != y[:, j + 1 :])
        # the earlier entries move only by the transform's rounding
        scale = np.linalg.norm(k) * np.linalg.norm(bumped, axis=-1, keepdims=True)
        assert np.all(np.abs(got[:, : j + 1] - y[:, : j + 1]) <= 1e-15 * scale)


def test_shape_mismatch_rejected():
    g = TimeGrid(T=1.0, n=8)
    inc = gen_increments(TimeGrid(T=1.0, n=4), rho=0.0, seed=0)
    with pytest.raises(ValueError):
        volterra_path(KernelSpec(H=0.3, eps=0.0), g, inc)
    with pytest.raises(ValueError):
        volterra_dh_path(KernelSpec(H=0.3, eps=0.0), g, inc)
    kmat, _ = _conv_case(600, 0)  # two row blocks; neither may drop a trailing cell
    for cells in (599, 601):
        with pytest.raises(ValueError):
            convolve_kernel(kmat, np.zeros((2, cells)))


def test_fft_shape_mismatch_rejected():
    # a spectrum's length does not name its grid, so the grid is checked
    grid = TimeGrid(T=1.0, n=2048)
    for cells in (2047, 2049, 2500):
        dz = np.zeros((2, cells))
        for door in (volterra_path, volterra_dh_path):
            with pytest.raises(ValueError):
                door(_FFT_SPEC, grid, DriverIncrements(dW=dz, dWt=dz, dZ=dz, rho=0.0))


def test_fft_len_is_scipys_real_next_fast_len():
    # the transform length (and so the FFT's bits) is the one convolution 2 was measured with
    from scipy.fft import next_fast_len

    got = [paths._fft_len(n) for n in range(1, 2**15 + 1)]
    assert got == [next_fast_len(2 * n - 1, real=True) for n in range(1, 2**15 + 1)]


@pytest.mark.parametrize("cell_integrated", [False, True])
def test_terminal_variance_matches_scheme(cell_integrated):
    # left-point variance is dt * sum_j K(T,t_j)^2; the RMS-cell weights (cell_variance_matrix) hit r(T)
    spec = KernelSpec(H=0.14, eps=0.0)
    g = TimeGrid(T=1.0, n=16)
    n_paths = 60_000
    inc = gen_increments(g, rho=0.0, seed=9, n_paths=n_paths)
    if cell_integrated:
        yt = convolve_kernel(cell_variance_matrix(spec, g.times), inc.dZ)[:, -1]
        want = kernel_variance(spec, g.T)
    else:
        yt = volterra_path(spec, g, inc)[0][:, -1]
        k = kernel_eval(spec, g.T, g.times[:-1])
        want = g.dt * float(k @ k)
    got = yt.var()
    se = math.sqrt(2.0 / n_paths) * want
    assert abs(got - want) < 4 * se
    assert abs(yt.mean()) < 4 * math.sqrt(want / n_paths)


def test_path_covariance_matrix():
    spec = KernelSpec(H=0.3, eps=0.0)
    g = TimeGrid(T=1.0, n=12)
    idx = [4, 8, 12]
    inc = gen_increments(g, rho=0.0, seed=21, n_paths=60_000)
    y = volterra_path(spec, g, inc)[0][:, idx]
    got = np.cov(y.T)
    want = np.empty((3, 3))
    t = g.times
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            m = min(i, j)
            want[a, b] = g.dt * float(
                kernel_eval(spec, t[i], t[:m]) @ kernel_eval(spec, t[j], t[:m])
            )
    assert np.allclose(got, want, atol=4 * math.sqrt(2.0 / 60_000) * want.max())


def test_dh_path_matches_finite_difference():
    g = TimeGrid(T=1.0, n=32)
    inc = gen_increments(g, rho=-0.4, seed=3, n_paths=4)
    h = 1e-6
    for H, eps in [(0.14, 1e-6), (0.3, 0.0), (0.6, 0.0)]:
        fd = (
            volterra_path(KernelSpec(H=H + h, eps=eps), g, inc)[0]
            - volterra_path(KernelSpec(H=H - h, eps=eps), g, inc)[0]
        ) / (2 * h)
        got = volterra_dh_path(KernelSpec(H=H, eps=eps), g, inc)[0]
        assert np.allclose(got, fd, rtol=1e-4, atol=1e-7)


def test_dh_path_single_increment_analytic():
    # one cell contributing: dY_i/dH = dZ_0 * K(t_i,0) (1/(2H) + ln t_i)
    spec = KernelSpec(H=0.5, eps=0.0)
    g = TimeGrid(T=2.0, n=4)
    dz = np.zeros((1, 4))
    dz[0, 0] = 1.0
    from volterra_greeks.paths import DriverIncrements

    inc = DriverIncrements(dW=dz, dWt=dz, dZ=dz, rho=0.0)
    got = volterra_dh_path(spec, g, inc)[0][0]
    t = g.times
    want = np.array([0.0] + [1.0 + math.log(ti) for ti in t[1:]])
    assert np.allclose(got, want, rtol=1e-14, atol=1e-15)
