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
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import KernelSpec, cell_variance_matrix, kernel_dh_matrix, kernel_matrix

RNG_STREAM = 2  # version of the (seed, path index) -> draws map, in the CLI schema line
_BLOCK = 256  # paths per substream and per convolution product; divides greeks._TILE
_ROW_BLOCK = 512  # grids with n above this convolve in row blocks; smaller ones in one product
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


@dataclass(frozen=True)
class VolterraPath:
    """Discrete Volterra path Y (last axis length n+1, Y_0 = 0)."""

    Y: np.ndarray
    kernel: KernelSpec


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


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
    build = cell_variance_matrix if cell_integrated else kernel_matrix
    return VolterraPath(Y=convolve_kernel(build(spec, grid.times), inc.dZ), kernel=spec)


def volterra_dh_path(spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements) -> np.ndarray:
    """Pathwise H-derivative: the same convolution with dK/dH weights."""
    if inc.dZ.shape[-1] != grid.n:
        raise ValueError("increments do not match the grid")
    return convolve_kernel(kernel_dh_matrix(spec, grid.times), inc.dZ)
