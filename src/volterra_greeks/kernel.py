"""Shifted power-law Volterra kernel and its closed-form integrals.

The kernel

    K(t, s) = sqrt(2H) * (t - s + eps)**(H - 1/2),   0 <= s <= t,

drives every rough-volatility model in this package.  H in (0, 1) is the
roughness index, eps >= 0 a small shift that regularises the t = s
singularity for H < 1/2.  Three closed-form integrals are used by the
weight formulas and the variance normalisation:

    kappa(t) = int_0^t K(t, s) ds
             = sqrt(2H)/(H + 1/2) * ((t + eps)**(H + 1/2) - eps**(H + 1/2))
    r(t)     = int_0^t K(t, s)^2 ds = (t + eps)**(2H) - eps**(2H)
    dK/dH    = K(t, s) * (1/(2H) + log(t - s + eps))

At H = 1/2, eps = 0 the kernel collapses to the constant 1 and
kappa(t) = r(t) = t; those reductions are exact in floating point.

On a uniform grid K(t_i, t_j) depends on the lag i - j only, so the
kernel matrices are Toeplitz: kernel_by_lag, kernel_dh_by_lag and
cell_variance_by_lag evaluate a weight once per lag l = 1..n, at
x = t_l - t_0 (+ eps), and kernel_matrix, kernel_dh_matrix and
cell_variance_matrix gather the strictly lower-triangular matrix from
that vector.  toeplitz_row_sums gives that matrix's row sums bit for bit
without building it.  All of them reject a grid that is not uniformly
spaced, on which the lag structure does not hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "kernel_eval",
    "kernel_kappa",
    "kernel_variance",
    "kernel_dh",
    "kernel_variance_dh",
    "kernel_matrix",
    "kernel_dh_matrix",
    "cell_variance_matrix",
]


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the shifted power-law kernel."""

    H: float
    eps: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.H < 1.0:
            raise ValueError(f"H must lie in (0, 1), got {self.H}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


def _check_args(spec: KernelSpec, t, s) -> None:
    t = np.asarray(t)
    s = np.asarray(s)
    if np.any(s > t) or np.any(s < 0.0):
        raise ValueError("kernel arguments require 0 <= s <= t")
    if spec.H < 0.5 and spec.eps == 0.0 and np.any(s == t):
        raise ValueError("t = s with H < 1/2 requires eps > 0")


def kernel_eval(spec: KernelSpec, t, s):
    """Evaluate K(t, s) = sqrt(2H) (t - s + eps)^(H - 1/2).

    Accepts scalars or broadcastable arrays.  Raises ValueError outside
    the domain 0 <= s <= t, or on the diagonal when it is singular
    (H < 1/2 with eps = 0).
    """
    _check_args(spec, t, s)
    out = math.sqrt(2.0 * spec.H) * (np.asarray(t) - s + spec.eps) ** (spec.H - 0.5)
    return out if out.ndim else float(out)


def kernel_kappa(spec: KernelSpec, t):
    """Closed form of kappa(t) = int_0^t K(t, s) ds, exact t at H=1/2, eps=0."""
    t = np.asarray(t)
    if np.any(t < 0.0):
        raise ValueError("kappa requires t >= 0")
    p = spec.H + 0.5
    out = math.sqrt(2.0 * spec.H) / p * ((t + spec.eps) ** p - spec.eps**p)
    return out if out.ndim else float(out)


def kernel_variance(spec: KernelSpec, t):
    """Closed form of r(t) = int_0^t K(t, s)^2 ds = (t+eps)^2H - eps^2H."""
    t = np.asarray(t)
    if np.any(t < 0.0):
        raise ValueError("variance requires t >= 0")
    out = (t + spec.eps) ** (2.0 * spec.H) - spec.eps ** (2.0 * spec.H)
    return out if out.ndim else float(out)


def kernel_dh(spec: KernelSpec, t, s):
    """Derivative of the kernel in H: K(t,s) * (1/(2H) + log(t - s + eps))."""
    _check_args(spec, t, s)
    x = np.asarray(t) - s + spec.eps
    out = math.sqrt(2.0 * spec.H) * x ** (spec.H - 0.5) * (0.5 / spec.H + np.log(x))
    return out if out.ndim else float(out)


def kernel_variance_dh(spec: KernelSpec, t):
    """Derivative of r(t) in H: 2(t+eps)^2H log(t+eps) - 2 eps^2H log(eps).

    The eps = 0 limit is 2 t^2H log t (zero at t = 0 by continuity).
    """
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * spec.H
    if spec.eps == 0.0:
        out = np.where(t > 0.0, 2.0 * t**h2 * np.log(np.where(t > 0.0, t, 1.0)), 0.0)
    else:
        out = 2.0 * (t + spec.eps) ** h2 * np.log(t + spec.eps) - 2.0 * spec.eps**h2 * math.log(spec.eps)
    return out if out.ndim else float(out)


def _lags(times: np.ndarray) -> np.ndarray:
    """Lags x_l = t_l - t_0, l = 1..n, of a uniform grid; ValueError otherwise."""
    times = np.asarray(times, dtype=float)
    lags = times[1:] - times[0]
    n = len(lags)
    if n:
        off = np.abs(lags - np.arange(1, n + 1) * (lags[-1] / n))
        if not (lags[-1] > 0.0 and off.max() <= 1e-9 * lags[-1]):
            raise ValueError("kernel matrices need an increasing, uniformly spaced times array")
    return lags


def _toeplitz_rows(by_lag: np.ndarray):
    """Read-only view of the (n+1) x n matrix M[i, j] = by_lag[i - j - 1] for j < i, zero elsewhere."""
    n = len(by_lag)
    padded = np.concatenate([by_lag[::-1], np.zeros(n)])  # row i is padded[n-i : 2n-i]
    return np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]


def toeplitz_row_sums(by_lag: np.ndarray) -> np.ndarray:
    """Row sums of the lower-triangular Toeplitz matrix of by_lag, 256 rows at a time.

    Each block is made contiguous before it is summed, so every row is
    reduced exactly as in the whole matrix: the result equals
    kernel_matrix(...).sum(axis=1) (and the other builders') bit for bit,
    while only 256 rows exist at once.
    """
    m = _toeplitz_rows(by_lag)
    return np.concatenate([np.ascontiguousarray(m[lo : lo + 256]).sum(axis=1) for lo in range(0, len(m), 256)])


def kernel_by_lag(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """K at the lags x_l = t_l - t_0, l = 1..n: entry l - 1 fills diagonal i - j = l of kernel_matrix."""
    return kernel_eval(spec, _lags(times), 0.0)


def kernel_dh_by_lag(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """dK/dH at the lags x_l, l = 1..n, as kernel_by_lag."""
    return kernel_dh(spec, _lags(times), 0.0)


def cell_variance_by_lag(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """The variance-exact weights of cell_variance_matrix at the lags l = 1..n."""
    hi = _lags(times)  # x_l, the far end of the cell at lag l; hi[0] is dt
    lo = np.concatenate([[0.0], hi[:-1]])
    h2 = 2.0 * spec.H
    return np.sqrt(((hi + spec.eps) ** h2 - (lo + spec.eps) ** h2) / hi[0])


def kernel_matrix(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """Strictly lower-triangular matrix K[i, j] = K(t_i, t_j) for j < i.

    Rows index the evaluation time t_i (0..n), columns the increment cell
    [t_j, t_{j+1}) (0..n-1).  Entries with j >= i are zero; the diagonal is
    never evaluated, so eps = 0 is valid for any H.  The kernel is taken
    once per lag (see the module docstring), so times must be uniformly
    spaced; ValueError otherwise.
    """
    return np.ascontiguousarray(_toeplitz_rows(kernel_by_lag(spec, times)))


def kernel_dh_matrix(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """Strictly lower-triangular matrix of dK/dH values on the uniform grid."""
    return np.ascontiguousarray(_toeplitz_rows(kernel_dh_by_lag(spec, times)))


def cell_variance_matrix(spec: KernelSpec, times: np.ndarray) -> np.ndarray:
    """Variance-exact convolution weights W[i, j] = sqrt(int_cell K^2 / dt).

    Scales each kernel weight so the per-cell variance contribution of the
    discrete scheme is exact:  sum_j W[i,j]^2 dt = r(t_i) by telescoping.
    Cell j of row i spans the lags x_{i-j-1} .. x_{i-j}, so the weight is
    taken once per lag; times must be uniformly spaced, ValueError otherwise.
    """
    return np.ascontiguousarray(_toeplitz_rows(cell_variance_by_lag(spec, times)))
