"""Time grid, correlated driver increments and discrete Volterra paths.

Simulation is exact-in-law for the Gaussian driver: on a uniform grid with
step dt, dW, dWt ~ N(0, dt) i.i.d. from block-keyed substreams (RNG stream
2): path p is row p % 256 of a generator keyed by (seed, p // 256), so it
depends only on (seed, path index), never on batching or worker schedule,
and larger runs extend smaller ones.  dZ = rho dW + sqrt(1 - rho^2) dWt.
A call drawing at least 2^20 path-steps fills its blocks on one thread
per available CPU; each block is drawn, scaled and mixed by one task
into its own rows, so the values do not depend on the thread count.
The estimators draw at most 8192 paths and max(1024 paths, 2^22
path-steps) per call (greeks._per_tile), so a full draw is threaded on
every grid with n >= 128 and holds about 100 MB up to n = 4096.

The Volterra path uses the left-point rule

    Y_i = sum_{j < i} K(t_i, t_j) dZ_j,

which never evaluates the kernel on its singular diagonal.  The same
convolution with dK/dH in place of K gives the pathwise H-derivative.
An optional variance-exact variant replaces K(t_i, t_j) with per-cell
root-mean-square kernel weights (used to tighten variance tests; the
weight formulas elsewhere assume the left-point scheme).

The weights are Toeplitz, so Y is a causal convolution of dZ with the
kernel's per-lag vector.  Grids with n < 1536 (_FFT_STEPS) multiply by
the dense (n+1) x n matrix (convolve_kernel); from n = 1536 on, where a
real FFT is faster on a 1024-path tile, Y is the inverse rfft of the
product of the kernel's spectrum and dZ's, and no dense matrix is built.
Each DriverIncrements transforms its dZ once, and every kernel applied
to it shares that spectrum.  FFT rows are computed independently, so a
path's Y never depends on the other paths of the call.  This arithmetic
is convolution version 2 (CONVOLUTION, in the CLI schema line); version
1 used the dense product on every grid.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import (
    KernelSpec,
    cell_variance_by_lag,
    cell_variance_matrix,
    kernel_by_lag,
    kernel_dh_by_lag,
    kernel_dh_matrix,
    kernel_matrix,
)

RNG_STREAM = 2  # version of the (seed, path index) -> draws map, in the CLI schema line
CONVOLUTION = 2  # version of the dZ -> Y arithmetic (2: real FFT from _FFT_STEPS), in the CLI schema line
_BLOCK = 256  # paths per substream and per convolution product; divides greeks._TILE
_ROW_BLOCK = 512  # grids with n above this convolve in row blocks; smaller ones in one product
_FFT_STEPS = 1536  # grids with at least this many steps convolve by real FFT; GEMM wins below
_FFT_GROUP = 128  # paths per inverse transform on each thread; keeps the scratch arrays near 8 MB
_PARALLEL_STEPS = 1 << 20  # draws of at least this many path-steps fill their blocks on threads

__all__ = [
    "RNG_STREAM",
    "TimeGrid",
    "DriverIncrements",
    "VolterraPath",
    "gen_increments",
    "volterra_path",
    "volterra_dh_path",
    "convolve_kernel",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T with t_i = i * (T / n)."""

    T: float
    n: int

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")

    @property
    def dt(self) -> float:
        return self.T / self.n

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.dt


@dataclass(frozen=True)
class DriverIncrements:
    """Brownian increments over grid cells; last axis is time (length n).

    dZ = rho * dW + sqrt(1 - rho^2) * dWt drives the volatility factor,
    dW drives the asset.  Arrays may carry a leading path axis.
    """

    dW: np.ndarray
    dWt: np.ndarray
    dZ: np.ndarray
    rho: float

    @cached_property
    def _dz_spectrum(self) -> np.ndarray:
        """rfft of each path's dZ zero-padded to _fft_len(n), taken once, the paths split between CPUs."""
        n = self.dZ.shape[-1]
        dz = self.dZ.reshape(-1, n)
        out = np.empty((len(dz), _fft_len(n) // 2 + 1), dtype=complex)
        _on_threads(lambda lo, hi: np.fft.rfft(dz[lo:hi], n=_fft_len(n), out=out[lo:hi]), len(dz))
        return out


@dataclass(frozen=True)
class VolterraPath:
    """Discrete Volterra path Y (last axis length n+1, Y_0 = 0)."""

    Y: np.ndarray
    kernel: KernelSpec


def _fft_len(n: int) -> int:
    """Transform length for the convolution of two n-vectors: no wrap-around reaches outputs 0..n-1.

    The smallest 2^a 3^b 5^c >= 2n - 1: the length scipy.fft.next_fast_len
    picks for a real transform, so every grid keeps convolution 2's bits.
    """
    target = 2 * n - 1
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())  # least p35 * 2^a >= target
            p35 *= 3
        p5 *= 5
    return best


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _on_threads(task, rows: int) -> None:
    """task(lo, hi) on one contiguous share of rows 0..rows per CPU, on a per-call pool.

    The FFT rows are transformed one by one (numpy releases the GIL), so
    the values do not depend on the split.
    """
    k = min(_cpu_count(), rows)
    if k <= 1:
        task(0, rows)
        return
    with ThreadPoolExecutor(max_workers=k) as pool:
        list(pool.map(lambda i: task(i * rows // k, (i + 1) * rows // k), range(k)))  # a failed task raises here


def gen_increments(
    grid: TimeGrid, rho: float, seed: int, n_paths: int = 1, start: int = 0
) -> DriverIncrements:
    """Draw increments for paths [start, start + n_paths).

    Path p is row p % 256 of the draws of the generator keyed by (seed,
    p // 256), so results for a given path do not depend on batching,
    worker count or the total number of paths requested.  Each block's
    rows are drawn, scaled by sqrt(dt) and mixed into dZ by one task; a
    call of at least 2^20 path-steps runs those tasks on a per-call pool
    of min(CPUs, blocks) threads (the fills release the GIL), with the
    same values as the serial loop.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    stop = start + n_paths
    z = np.empty((n_paths, 2, grid.n))
    dz = np.empty((n_paths, grid.n))
    scale, mix = math.sqrt(grid.dt), math.sqrt(1.0 - rho * rho)

    def fill(b):
        lo, hi = max(start, b * _BLOCK), min(stop, (b + 1) * _BLOCK)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        rng.standard_normal((lo - b * _BLOCK, 2, grid.n))  # discard the block's rows before start
        zb, dzb = z[lo - start : hi - start], dz[lo - start : hi - start]
        rng.standard_normal(out=zb)
        zb *= scale
        np.multiply(zb[:, 0], rho, out=dzb)
        dzb += mix * zb[:, 1]

    blocks = range(start // _BLOCK, (stop - 1) // _BLOCK + 1)
    threads = min(_cpu_count(), len(blocks)) if n_paths * grid.n >= _PARALLEL_STEPS else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))  # reads every result, so a failed fill raises here
    else:
        for b in blocks:
            fill(b)
    return DriverIncrements(dW=z[:, 0, :], dWt=z[:, 1, :], dZ=dz, rho=rho)


def convolve_kernel(kmat: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Apply the lower-triangular kernel weights: Y = dz @ kmat.T, Y_0 = 0.

    kmat is (n+1) x n and zero on and above its diagonal.  The paths go
    through it 256 at a time, since BLAS rounds a row differently
    depending on how many rows share a product: so a path's Y does not
    depend on how many paths the call holds, as long as the call starts
    on a multiple of 256 paths and the path is not in a short last group.
    For each group the rows of kmat are split into ceil(n / 512)
    near-equal blocks of about 512 rows, and each block takes only the
    columns below its last row, so the zero upper blocks are never
    multiplied.  For n <= 512 that is one dense product per group.
    """
    rows, n = kmat.shape
    if dz.shape[-1] != n:
        raise ValueError(f"increments have {dz.shape[-1]} cells, the kernel matrix {n}")
    y = np.empty(dz.shape[:-1] + (rows,))
    dz2, y2 = dz.reshape(-1, n), y.reshape(-1, rows)
    blocks = -(-n // _ROW_BLOCK)
    for p in range(0, dz2.shape[0], _BLOCK):
        for b in range(blocks):
            lo, hi = b * rows // blocks, (b + 1) * rows // blocks
            np.matmul(dz2[p : p + _BLOCK, : hi - 1], kmat[lo:hi, : hi - 1].T, out=y2[p : p + _BLOCK, lo:hi])
    y[..., 0] = 0.0
    return y


def kernel_weights(build, by_lag, spec: KernelSpec, grid: TimeGrid) -> np.ndarray:
    """One kernel's convolution weights in the form convolve applies.

    build and by_lag are the same weights in two forms: a dense builder
    (kernel_matrix, kernel_dh_matrix or cell_variance_matrix) and its
    per-lag vector (kernel_by_lag, ...).  Below _FFT_STEPS this is the
    (n+1) x n matrix build(spec, times); from there, the rfft of the
    per-lag vector zero-padded to _fft_len(n), and no matrix is built.
    """
    if grid.n < _FFT_STEPS:
        return build(spec, grid.times)
    return np.fft.rfft(by_lag(spec, grid.times), n=_fft_len(grid.n))


def convolve(weights: np.ndarray, grid: TimeGrid, inc: DriverIncrements) -> np.ndarray:
    """Y = W dZ for the weights kernel_weights made on grid; Y_0 = 0, last axis length n+1.

    A dense matrix goes through convolve_kernel.  A spectrum multiplies
    the increments' own spectrum (taken once per DriverIncrements) and is
    transformed back on one thread per CPU, each taking its share of the
    paths 128 at a time into scratch arrays written in place, so no array
    is allocated per group.
    """
    n = grid.n
    if inc.dZ.shape[-1] != n:
        raise ValueError("increments do not match the grid")
    if weights.ndim == 2:
        return convolve_kernel(weights, inc.dZ)
    if weights.shape != (_fft_len(n) // 2 + 1,):
        raise ValueError(f"the kernel spectrum is not one of the {n}-step grid")
    y = np.empty(inc.dZ.shape[:-1] + (n + 1,))
    y2 = y.reshape(-1, n + 1)
    y2[:, 0] = 0.0
    dz_hat, size = inc._dz_spectrum, _fft_len(n)

    def back(lo, hi):  # _FFT_GROUP rows at a time through two scratch arrays
        prod = np.empty((min(_FFT_GROUP, hi - lo), len(weights)), dtype=complex)
        full = np.empty((len(prod), size))
        for p in range(lo, hi, _FFT_GROUP):
            m = min(_FFT_GROUP, hi - p)
            np.multiply(dz_hat[p : p + m], weights, out=prod[:m])
            np.fft.irfft(prod[:m], n=size, out=full[:m])
            y2[p : p + m, 1:] = full[:m, :n]

    _on_threads(back, len(y2))
    return y


def volterra_path(
    spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements, cell_integrated: bool = False
) -> VolterraPath:
    """Left-point Volterra path Y_i = sum_{j<i} K(t_i, t_j) dZ_j.

    With cell_integrated=True the kernel values are replaced by per-cell
    RMS weights, making Var(Y_i) = r(t_i) exact.  At H = 1/2, eps = 0 the
    default scheme is a running sum of dZ, computed exactly as such.
    """
    if inc.dZ.shape[-1] != grid.n:
        raise ValueError("increments do not match the grid")
    if not cell_integrated and spec.H == 0.5 and spec.eps == 0.0:
        # constant kernel: exact cumulative sum
        y = np.zeros(inc.dZ.shape[:-1] + (grid.n + 1,))
        np.cumsum(inc.dZ, axis=-1, out=y[..., 1:])
        return VolterraPath(Y=y, kernel=spec)
    if cell_integrated:
        w = kernel_weights(cell_variance_matrix, cell_variance_by_lag, spec, grid)
    else:
        w = kernel_weights(kernel_matrix, kernel_by_lag, spec, grid)
    return VolterraPath(Y=convolve(w, grid, inc), kernel=spec)


def volterra_dh_path(spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements) -> np.ndarray:
    """Pathwise H-derivative: the same convolution with dK/dH weights."""
    return convolve(kernel_weights(kernel_dh_matrix, kernel_dh_by_lag, spec, grid), grid, inc)
