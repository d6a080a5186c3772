"""Time grid, correlated driver increments and discrete Volterra paths.

Simulation is exact-in-law for the Gaussian driver: on a uniform grid with
step dt, dW, dWt ~ N(0, dt) i.i.d. from block-keyed substreams (RNG stream
2): path p is row p % 256 of a generator keyed by (seed, p // 256), so it
depends only on (seed, path index), never on batching or worker schedule,
and larger runs extend smaller ones.  dZ = rho dW + sqrt(1 - rho^2) dWt.
Each block is drawn, scaled and mixed by one task into its own rows, so
the values do not depend on which thread runs it.  Threads start only
inside a run (run_threads, opened by greeks._per_tile around an
estimator or FD pass); outside one, and on one CPU, the calling thread
does all the work before it returns.  In a run a draw queues its blocks
on the run's pool and returns at once; the run tracks every queued
block by its first path row, and a row is read only after _Run.wait has
seen its block filled, so the calling thread works on one tile while
the pool fills the next ones, of this draw and of the draws queued
ahead of it.  The estimators' live draws hold at most 8192 paths and
max(1024 paths, 2^22 path-steps) at once, about 100 MB up to n = 4096.

The Volterra path uses the left-point rule

    Y_i = sum_{j < i} K(t_i, t_j) dZ_j,

which never evaluates the kernel on its singular diagonal.  The same
convolution with dK/dH in place of K gives the pathwise H-derivative.
volterra_path and volterra_dh_path are the one door from a kernel to
its path: each returns the path and the kernel's row integrals
dt sum_{j<i} W(t_i, t_j), which the models' weights read.

The weights are Toeplitz, so Y is a causal convolution of dZ with the
kernel's per-lag vector.  Grids with n < 1536 (_FFT_STEPS) multiply by
the dense (n+1) x n matrix (convolve_kernel); from n = 1536 on, where a
real FFT is faster on a 1024-path tile, Y is the inverse rfft of the
product of the kernel's spectrum and dZ's, and no dense matrix is built.
The constant H = 1/2, eps = 0 kernel is an exact running sum of dZ.
Each kernel's weights are made once per run and on every call outside
one.  Each DriverIncrements transforms its dZ once, and every kernel
applied to it shares that spectrum.  FFT rows are computed
independently, so a path's Y never depends on the other paths of the
call.  This arithmetic is convolution version 2 (CONVOLUTION, in the
CLI schema line); version 1 used the dense product on every grid.

A run holds numpy's bundled OpenBLAS to one thread (_BlasPin): an idle
BLAS worker spinning after each product slows the fills that share the
cores with it.  The dense product's last column Y_n may round
differently with the BLAS thread count from n = 256; no estimator reads
Y_n, and every other entry is the same.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import logging
import math
import operator
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Optional

import numpy as np

from .kernel import (
    KernelSpec,
    kernel_by_lag,
    kernel_dh_by_lag,
    kernel_dh_matrix,
    kernel_matrix,
    toeplitz_row_sums,
)
# not called here, but the benchmark's traced run (perfbench/tracing.py) wraps paths.cell_variance_matrix
from .kernel import cell_variance_matrix  # noqa: F401

RNG_STREAM = 2  # version of the (seed, path index) -> draws map, in the CLI schema line
CONVOLUTION = 2  # version of the dZ -> Y arithmetic (2: real FFT from _FFT_STEPS), in the CLI schema line
_BLOCK = 256  # paths per substream and per convolution product; divides greeks._TILE
_ROW_BLOCK = 512  # grids with n above this convolve in row blocks; smaller ones in one product
_FFT_STEPS = 1536  # grids with at least this many steps convolve by real FFT; GEMM wins below
_FFT_GROUP = 128  # paths per inverse transform on each thread; keeps the scratch arrays near 8 MB
_SHARES_PER_CPU = 4  # inside a run, _on_threads cuts its rows into this many shares per CPU
# numpy's bundled OpenBLAS, next to the numpy package, and its thread-count symbols
_OPENBLAS = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "libscipy_openblas64_-*.so")
_OPENBLAS_GET, _OPENBLAS_SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"

__all__ = [
    "RNG_STREAM",
    "TimeGrid",
    "DriverIncrements",
    "gen_increments",
    "volterra_path",
    "volterra_dh_path",
    "convolve_kernel",
]


def _index(name: str, x) -> int:
    """x as an int: ints and numpy integers pass, anything else (2.0 too) is rejected, naming it."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_n = T with t_i = i * (T / n)."""

    T: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        if _index("n", self.n) < 1:
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
        """rfft of each path's dZ zero-padded to _fft_len(n), taken once; _on_threads shares out the paths."""
        n = self.dZ.shape[-1]
        dz = self.dZ.reshape(-1, n)
        out = np.empty((len(dz), _fft_len(n) // 2 + 1), dtype=complex)
        _on_threads(lambda lo, hi: np.fft.rfft(dz[lo:hi], n=_fft_len(n), out=out[lo:hi]), len(dz))
        return out


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
    """task(lo, hi) on contiguous shares of rows 0..rows, on the run's threads; task(0, rows) outside a run.

    Outside a run, or with one CPU, the calling thread takes every row in
    one call, and no thread starts.  Inside a run the rows are cut into
    _SHARES_PER_CPU shares per CPU, which the calling thread and up to
    one pool helper per other CPU take from one shared counter.  A helper
    the pool has not started by the time the calling thread runs out of
    shares (it may be queued behind block fills) is cancelled, so the
    calling thread waits only on shares already under way.  The FFT rows
    are transformed one by one (numpy releases the GIL), so the values do
    not depend on the split.
    """
    run = _RUN.get(None)
    if run is None or run.pool is None:  # no run open, or a run on one CPU
        task(0, rows)
        return
    k = min(_cpu_count(), rows)
    m = min(rows, _SHARES_PER_CPU * k)
    shares, lock = iter([(i * rows // m, (i + 1) * rows // m) for i in range(m)]), threading.Lock()

    def take():  # shares from the counter until none is left
        while True:
            with lock:
                share = next(shares, None)
            if share is None:
                return
            task(*share)

    helpers = [run.pool.submit(take) for _ in range(k - 1)]
    try:
        take()
    finally:  # a helper not started yet takes no share
        started = [f for f in helpers if not f.cancel()]
    for f in started:
        f.result()  # a failed share raises here


class _Run:
    """One run's thread pool, the block fills its draws queued there by path row, and its kernels' weights."""

    def __init__(self, pool: Optional[ThreadPoolExecutor]):
        self.pool = pool  # None with one CPU: the draws are filled before they return
        self.queued = deque()  # (a block's first path row in the run, the block's fill), in row order
        self.kernels = {}  # _weights' (weights, row integrals) by (dh, KernelSpec, TimeGrid)

    def wait(self, stop: int) -> None:
        """Return once rows 0..stop-1 of the run are filled, over every draw queued; a failed fill raises here."""
        while self.queued and self.queued[0][0] < stop:
            self.queued.popleft()[1].result()


# the _Run of the current run_threads() block; unset outside one
_RUN: ContextVar[_Run] = ContextVar("volterra_greeks_run")


@cache
def _openblas():
    """(get, set) of numpy's bundled OpenBLAS thread count; None, with one warning, where they are not found."""
    try:
        lib = ctypes.CDLL(glob.glob(_OPENBLAS)[0])
        get, put = getattr(lib, _OPENBLAS_GET), getattr(lib, _OPENBLAS_SET)
    except (IndexError, OSError, AttributeError):
        logging.getLogger("volterra_greeks").warning(
            "numpy's OpenBLAS thread count was not found (%s); runs leave BLAS threading as it is", _OPENBLAS
        )
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


class _BlasPin:
    """Holds OpenBLAS to one thread while any run is open in the process.

    The thread count is process-wide, so a lock and a depth count keep
    nested and concurrent runs apart: the first run in saves the count
    and sets 1, the last one out restores it.  Both happen on the thread
    that opens or closes the run.
    """

    def __init__(self):
        self.lock, self.depth, self.saved = threading.Lock(), 0, None

    def __enter__(self):
        with self.lock:
            blas = _openblas()
            if blas and self.depth == 0:
                self.saved = blas[0]()
                blas[1](1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            blas = _openblas()
            if blas and self.depth == 0:
                blas[1](self.saved)


_ONE_BLAS_THREAD = _BlasPin()


@contextlib.contextmanager
def run_threads():
    """One run: yields the _Run whose pool fills draws and FFT rows and which keeps its kernels' weights.

    The pool has one thread per CPU and lives until the block exits; on
    exit, fills not yet started are cancelled and the pool's threads are
    joined, so none outlives the run.  Only the calling thread reads the
    draws, and only after _Run.wait; only it reads and writes the
    kernels' weights, which live until the block exits.  With one CPU
    the pool is None: the draws are filled before they return, as
    outside a run.  OpenBLAS runs on one thread in the block.  The run
    lives in a context variable, so concurrent runs in other host
    threads keep their own.
    """
    cpus = _cpu_count()
    with _ONE_BLAS_THREAD:
        pool = ThreadPoolExecutor(max_workers=cpus) if cpus > 1 else None
        run = _Run(pool)
        token = _RUN.set(run)
        try:
            yield run
        finally:
            _RUN.reset(token)
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


def _fill_block(seed, b, start, z, dz, scale, rho):
    """Block b's rows of paths start.. into z (paths, 2, n) and dz: drawn, scaled by scale, mixed into dZ."""
    lo, hi = max(start, b * _BLOCK), min(start + len(z), (b + 1) * _BLOCK)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
    rng.standard_normal((lo - b * _BLOCK,) + z.shape[1:])  # discard the block's rows before start
    zb, dzb = z[lo - start : hi - start], dz[lo - start : hi - start]
    rng.standard_normal(out=zb)
    zb *= scale
    np.multiply(zb[:, 0], rho, out=dzb)
    dzb += math.sqrt(1.0 - rho * rho) * zb[:, 1]


def gen_increments(
    grid: TimeGrid, rho: float, seed: int, n_paths: int = 1, start: int = 0
) -> DriverIncrements:
    """Draw increments for paths [start, start + n_paths).

    Path p is row p % 256 of the draws of the generator keyed by (seed,
    p // 256), so results for a given path do not depend on batching,
    thread count or the total number of paths requested.  Each block's
    rows are drawn, scaled by sqrt(dt) and mixed into dZ by one task
    (_fill_block; the fills release the GIL).  Outside a run the calling
    thread runs the tasks in order and the arrays are complete on return.
    Inside a run_threads() block with a pool, the tasks are queued there
    behind those of earlier draws and the arrays are filled after the
    return.  _Run.wait counts rows by path index, so the caller reads row
    r only after _Run.wait(start + r + 1).
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    z = np.empty((n_paths, 2, grid.n))
    dz = np.empty((n_paths, grid.n))
    blocks = range(start // _BLOCK, (start + n_paths - 1) // _BLOCK + 1)
    fill = partial(_fill_block, seed, start=start, z=z, dz=dz, scale=math.sqrt(grid.dt), rho=rho)
    run = _RUN.get(None)
    if run is not None and run.pool is not None:
        run.queued.extend((max(start, b * _BLOCK), run.pool.submit(fill, b)) for b in blocks)
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


def _weights(dh: bool, spec: KernelSpec, grid: TimeGrid):
    """K's (with dh, dK/dH's) convolution weights on grid, and its read-only row integrals dt W.sum(axis=1).

    The weights are the dense (n+1) x n matrix below _FFT_STEPS, and from
    there the rfft of the per-lag vector zero-padded to _fft_len(n), with
    no matrix built; None for the constant H = 1/2, eps = 0 kernel, whose
    path is a running sum.  The row integrals are summed from the per-lag
    vector, so they never depend on the route.  The pair is kept in the
    current run and made on every call outside one.
    """
    run = _RUN.get(None)
    kernels, key = ({} if run is None else run.kernels), (dh, spec, grid)
    if key not in kernels:
        by_lag = (kernel_dh_by_lag if dh else kernel_by_lag)(spec, grid.times)
        if not dh and spec.H == 0.5 and spec.eps == 0.0:
            w = None
        elif grid.n < _FFT_STEPS:
            w = (kernel_dh_matrix if dh else kernel_matrix)(spec, grid.times)
        else:
            w = np.fft.rfft(by_lag, n=_fft_len(grid.n))
        row_int = grid.dt * toeplitz_row_sums(by_lag)
        row_int.flags.writeable = False  # handed to every tile of the run
        kernels[key] = w, row_int
    return kernels[key]


def _path(dh: bool, spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements):
    """(Y = W dZ, the row integrals of W) for W = K, or dK/dH with dh; Y_0 = 0, last axis length n+1.

    A dense matrix goes through convolve_kernel.  A spectrum multiplies
    the increments' own spectrum (taken once per DriverIncrements) and is
    transformed back by _on_threads, 128 paths at a time into scratch
    arrays written in place, so no array is allocated per group.
    """
    n = grid.n
    if inc.dZ.shape[-1] != n:
        raise ValueError("increments do not match the grid")
    w, row_int = _weights(dh, spec, grid)
    if w is None:  # constant kernel: exact cumulative sum
        y = np.zeros(inc.dZ.shape[:-1] + (n + 1,))
        np.cumsum(inc.dZ, axis=-1, out=y[..., 1:])
        return y, row_int
    if w.ndim == 2:
        return convolve_kernel(w, inc.dZ), row_int
    y = np.empty(inc.dZ.shape[:-1] + (n + 1,))
    y2 = y.reshape(-1, n + 1)
    y2[:, 0] = 0.0
    dz_hat, size = inc._dz_spectrum, _fft_len(n)

    def back(lo, hi):  # _FFT_GROUP rows at a time through two scratch arrays
        prod = np.empty((min(_FFT_GROUP, hi - lo), len(w)), dtype=complex)
        full = np.empty((len(prod), size))
        for p in range(lo, hi, _FFT_GROUP):
            m = min(_FFT_GROUP, hi - p)
            np.multiply(dz_hat[p : p + m], w, out=prod[:m])
            np.fft.irfft(prod[:m], n=size, out=full[:m])
            y2[p : p + m, 1:] = full[:m, :n]

    _on_threads(back, len(y2))
    return y, row_int


def volterra_path(spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements) -> tuple[np.ndarray, np.ndarray]:
    """Left-point Volterra path Y_i = sum_{j<i} K(t_i, t_j) dZ_j, and kappa_hat_i = dt sum_{j<i} K(t_i, t_j).

    Y has last axis length n+1 and Y_0 = 0; kappa_hat (length n+1) is
    read-only.  At H = 1/2, eps = 0, Y is a running sum of dZ, computed
    exactly as such.
    """
    return _path(False, spec, grid, inc)


def volterra_dh_path(spec: KernelSpec, grid: TimeGrid, inc: DriverIncrements) -> tuple[np.ndarray, np.ndarray]:
    """Pathwise H-derivative dY/dH, the same convolution with dK/dH weights, and dK/dH's row integrals."""
    return _path(True, spec, grid, inc)
