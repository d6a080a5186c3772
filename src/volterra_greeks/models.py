"""Stochastic-volatility model family, path construction and Malliavin grids.

Every model writes the volatility factor V as a functional of the Volterra
driver Y_t = int_0^t K(t, s) dZ_s and prices the asset by log-Euler:

    S_{i+1} = S_i * exp((r - sigma(V_i)^2 / 2) dt + sigma(V_i) dW_i).

Variants (sigma is the vol-of-spot map applied to V):

* AlphaRFSV        V_t = v0 exp(xi Y_t - alpha xi^2 r(t) / 2), sigma(x) = x.
                   alpha = 1 is the martingale normalisation (rough Bergomi
                   style), alpha = 0 the plain exponential.
* MixedAlphaRFSV   average of two AlphaRFSV factors with kernels of
                   different roughness driven by the same dZ, one alpha.
* RoughSteinStein  V_i = v0 + kappa sum_{j<i} (theta - V_j) dt + nu Y_i,
                   sigma(x) = x (V may go negative).
* AlphaSV          V is a variance process, V_t = v0 exp(xi Z_t -
                   alpha xi^2 t / 2) with Brownian Z, sigma(x) = sqrt(x).
* SteinStein       Ornstein-Uhlenbeck V by explicit Euler, sigma(x) = x.
* BlackScholes     constant sigma; equals AlphaRFSV with xi = 0.

The Malliavin derivative grids follow the same left-point convention as
the weight quadratures: D[j][i] = D_{t_j} V_{t_i} is exactly zero for
j >= i, so inner integrals never touch the kernel diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernel import (
    KernelSpec,
    kernel_dh_matrix,
    kernel_kappa,
    kernel_matrix,
    kernel_variance,
    kernel_variance_dh,
)
from .paths import DriverIncrements, TimeGrid, volterra_dh_path, volterra_path

__all__ = [
    "UnsupportedError",
    "MarketSpec",
    "AlphaRFSV",
    "MixedAlphaRFSV",
    "RoughSteinStein",
    "AlphaSV",
    "SteinStein",
    "BlackScholes",
    "ModelSpec",
    "PathBundle",
    "sigma_of",
    "sigma_prime",
    "sigma_second",
    "vol_path",
    "price_path",
    "make_bundle",
    "malliavin_dv",
    "malliavin_ddv",
    "ddv_double_integral",
    "idv_profile",
    "dtheta_vol",
]


class UnsupportedError(ValueError):
    """Requested a model/operation combination that has no implementation."""


def _check_rho(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")


@dataclass(frozen=True)
class MarketSpec:
    s0: float
    r: float = 0.0

    def __post_init__(self):
        if self.s0 <= 0.0:
            raise ValueError(f"s0 must be > 0, got {self.s0}")
        if self.r < 0.0:
            raise ValueError(f"r must be >= 0, got {self.r}")


@dataclass(frozen=True)
class AlphaRFSV:
    """Rough exponential volatility; xi = 0 degenerates to Black-Scholes."""

    v0: float
    xi: float
    alpha: float
    rho: float
    kernel: KernelSpec

    def __post_init__(self):
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_rho(self.rho)


@dataclass(frozen=True)
class MixedAlphaRFSV:
    """Average of a rough (H < 1/2) and a smooth (H' > 1/2) AlphaRFSV factor.

    Both factors share v0, alpha and the volatility driver dZ.  The H
    ordering is the intended regime but is not enforced, so that equal
    kernels collapse the model onto plain AlphaRFSV.
    """

    v0: float
    xi_h: float
    xi_hp: float
    alpha: float
    rho: float
    kernel_h: KernelSpec
    kernel_hp: KernelSpec

    def __post_init__(self):
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if self.xi_h < 0.0 or self.xi_hp < 0.0:
            raise ValueError("xi_h and xi_hp must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_rho(self.rho)


@dataclass(frozen=True)
class RoughSteinStein:
    """Mean-reverting Gaussian vol with Volterra noise, sigma(x) = x."""

    v0: float
    kappa: float
    theta: float
    nu: float
    rho: float
    kernel: KernelSpec

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        _check_rho(self.rho)


@dataclass(frozen=True)
class AlphaSV:
    """Exponential variance process on Brownian Z, sigma(x) = sqrt(x)."""

    v0: float
    xi: float
    alpha: float
    rho: float

    def __post_init__(self):
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be > 0, got {self.v0}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_rho(self.rho)


@dataclass(frozen=True)
class SteinStein:
    """Ornstein-Uhlenbeck volatility, explicit Euler, sigma(x) = x."""

    v0: float
    kappa: float
    theta: float
    nu: float
    rho: float

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        _check_rho(self.rho)


@dataclass(frozen=True)
class BlackScholes:
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


ModelSpec = Union[AlphaRFSV, MixedAlphaRFSV, RoughSteinStein, AlphaSV, SteinStein, BlackScholes]


@dataclass
class PathBundle:
    """Simulated paths plus cached per-run grid vectors.

    Path arrays have time as the last axis (length n+1 for paths, n for
    increments) and may carry a leading path axis; ST is the terminal
    asset value alone.  kappa_hat holds the left-point kernel row integrals
    dt * sum_{j<i} K(t_i, t_j) used by the weight formulas; idv_static the
    deterministic dt * sum_{j<i} D[j][i] for the Stein-Stein models.
    """

    inc: DriverIncrements
    Y: Optional[np.ndarray]
    V: np.ndarray
    ST: np.ndarray
    yp: Optional[np.ndarray] = None
    vh: Optional[np.ndarray] = None
    vhp: Optional[np.ndarray] = None
    dydh: Optional[np.ndarray] = None
    kappa_hat: Optional[np.ndarray] = None
    kappa_hat_p: Optional[np.ndarray] = None
    kappa_hat_dh: Optional[np.ndarray] = None
    idv_static: Optional[np.ndarray] = None


def sigma_of(model: ModelSpec, v):
    """Vol-of-spot map sigma applied to the volatility factor."""
    if isinstance(model, AlphaSV):
        return np.sqrt(v)
    return v


def sigma_prime(model: ModelSpec, v):
    if isinstance(model, AlphaSV):
        return 0.5 / np.sqrt(v)
    return np.ones_like(v)


def sigma_second(model: ModelSpec, v):
    if isinstance(model, AlphaSV):
        return -0.25 * v ** (-1.5)
    return np.zeros_like(v)


def _arfsv_factor(v0, xi, alpha, kernel, grid, y):
    rt = kernel_variance(kernel, grid.times)
    return v0 * np.exp(xi * y - 0.5 * alpha * xi * xi * rt)


def _mean_revert(v0, kappa, theta, dt, y, nu):
    """V_i = v0 + kappa sum_{j<i} (theta - V_j) dt + nu Y_i, left point."""
    n = y.shape[-1] - 1
    v = np.empty_like(y)
    v[..., 0] = v0
    drift = np.zeros(y.shape[:-1])
    for i in range(1, n + 1):
        drift += (theta - v[..., i - 1]) * dt
        v[..., i] = v0 + kappa * drift + nu * y[..., i]
    return v


def vol_path(model: ModelSpec, grid: TimeGrid, inc: DriverIncrements, cell_integrated: bool = False):
    """Volatility factor path; returns (V, dict of auxiliary driver paths)."""
    if isinstance(model, AlphaRFSV):
        y = volterra_path(model.kernel, grid, inc, cell_integrated).Y
        return _arfsv_factor(model.v0, model.xi, model.alpha, model.kernel, grid, y), {"Y": y}
    if isinstance(model, MixedAlphaRFSV):
        y = volterra_path(model.kernel_h, grid, inc, cell_integrated).Y
        yp = volterra_path(model.kernel_hp, grid, inc, cell_integrated).Y
        vh = _arfsv_factor(model.v0, model.xi_h, model.alpha, model.kernel_h, grid, y)
        vhp = _arfsv_factor(model.v0, model.xi_hp, model.alpha, model.kernel_hp, grid, yp)
        return 0.5 * (vh + vhp), {"Y": y, "Yp": yp, "Vh": vh, "Vhp": vhp}
    if isinstance(model, RoughSteinStein):
        y = volterra_path(model.kernel, grid, inc, cell_integrated).Y
        return _mean_revert(model.v0, model.kappa, model.theta, grid.dt, y, model.nu), {"Y": y}
    if isinstance(model, AlphaSV):
        z = np.zeros(inc.dZ.shape[:-1] + (grid.n + 1,))
        np.cumsum(inc.dZ, axis=-1, out=z[..., 1:])
        v = model.v0 * np.exp(model.xi * z - 0.5 * model.alpha * model.xi**2 * grid.times)
        return v, {"Y": z}
    if isinstance(model, SteinStein):
        dz = inc.dZ
        v = np.empty(dz.shape[:-1] + (grid.n + 1,))
        v[..., 0] = model.v0
        for i in range(grid.n):
            v[..., i + 1] = (
                v[..., i] + model.kappa * (model.theta - v[..., i]) * grid.dt + model.nu * dz[..., i]
            )
        return v, {"Y": None}
    if isinstance(model, BlackScholes):
        shape = inc.dZ.shape[:-1] + (grid.n + 1,)
        return np.full(shape, model.sigma), {"Y": None}
    raise UnsupportedError(f"unknown model {type(model).__name__}")


def price_path(market: MarketSpec, model: ModelSpec, grid: TimeGrid, v: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Log-Euler S_T = s0 exp(r T - dt/2 sum sigma_i^2 + sum sigma_i dW_i); shape v.shape[:-1]."""
    sv = sigma_of(model, v[..., :-1])
    ssq, cross = np.einsum("...i,...i->...", sv, sv), np.einsum("...i,...i->...", sv, dw)
    return market.s0 * np.exp(market.r * grid.T - 0.5 * grid.dt * ssq + cross)


def make_bundle(
    model: ModelSpec,
    market: MarketSpec,
    grid: TimeGrid,
    inc: DriverIncrements,
    with_dh: bool = False,
    cell_integrated: bool = False,
) -> PathBundle:
    """Simulate all paths a Greek estimate needs and cache grid vectors."""
    v, aux = vol_path(model, grid, inc, cell_integrated)
    st = price_path(market, model, grid, v, inc.dW)
    b = PathBundle(inc=inc, Y=aux.get("Y"), V=v, ST=st, yp=aux.get("Yp"), vh=aux.get("Vh"), vhp=aux.get("Vhp"))
    dt = grid.dt
    if isinstance(model, AlphaRFSV):
        b.kappa_hat = dt * kernel_matrix(model.kernel, grid.times).sum(axis=1)
        if with_dh:
            b.dydh = volterra_dh_path(model.kernel, grid, inc)
            b.kappa_hat_dh = dt * kernel_dh_matrix(model.kernel, grid.times).sum(axis=1)
    elif isinstance(model, MixedAlphaRFSV):
        b.kappa_hat = dt * kernel_matrix(model.kernel_h, grid.times).sum(axis=1)
        b.kappa_hat_p = dt * kernel_matrix(model.kernel_hp, grid.times).sum(axis=1)
    elif isinstance(model, (RoughSteinStein, SteinStein)):
        b.idv_static = dt * _dv_deterministic(model, grid).sum(axis=0)
    if with_dh and not isinstance(model, AlphaRFSV):
        raise UnsupportedError(f"H-derivative paths are only defined for AlphaRFSV, got {type(model).__name__}")
    return b


def _strict_lower(n: int) -> np.ndarray:
    """Mask M[j, i] = True iff j < i, shape (n+1, n+1)."""
    idx = np.arange(n + 1)
    return idx[:, None] < idx[None, :]


def _dv_deterministic(model: Union[RoughSteinStein, SteinStein], grid: TimeGrid) -> np.ndarray:
    """Path-independent D grid for the Stein-Stein models."""
    n = grid.n
    t = grid.times
    d = np.zeros((n + 1, n + 1))
    mask = _strict_lower(n)
    if isinstance(model, SteinStein):
        lag = t[None, :] - t[:, None]
        d[mask] = model.rho * model.nu * np.exp(-model.kappa * lag[mask])
        return d
    ker = model.kernel
    if ker.H < 0.5 and ker.eps == 0.0:
        raise ValueError("RoughSteinStein Malliavin grid requires eps > 0 when H < 1/2")
    # I(d) = int_0^{t_d} K(u, 0) e^{-kappa (t_d - u)} du by exact kernel cell
    # masses against a trapezoidal exponential factor; depends on the lag only.
    kap = kernel_kappa(ker, t)
    cm = kap[1:] - kap[:-1]  # cell masses, lag l -> [t_l, t_{l+1}]
    e = np.exp(-model.kappa * t)
    ebar = 0.5 * (e[:-1] + e[1:])
    integ = np.concatenate([[0.0], np.convolve(cm, ebar)[:n]])
    kmat = kernel_matrix(ker, t)
    lag_idx = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    d = np.zeros((n + 1, n + 1))
    jj, ii = np.nonzero(mask)
    d[jj, ii] = model.rho * model.nu * (kmat[ii, jj] - model.kappa * integ[lag_idx[jj, ii]])
    return d


def malliavin_dv(model: ModelSpec, grid: TimeGrid, bundle: PathBundle) -> np.ndarray:
    """Malliavin derivative grid D[j, i] = D_{t_j} V_{t_i} for one path.

    Strictly lower-triangular in (j, i): entries with j >= i are exactly
    zero, matching the left-point quadratures that consume the grid.
    """
    if bundle.V.ndim != 1:
        raise ValueError("malliavin_dv expects a single-path bundle")
    n = grid.n
    mask = _strict_lower(n)
    if isinstance(model, BlackScholes):
        return np.zeros((n + 1, n + 1))
    if isinstance(model, (RoughSteinStein, SteinStein)):
        return _dv_deterministic(model, grid)
    if isinstance(model, AlphaSV):
        return np.where(mask, model.rho * model.xi * bundle.V[None, :], 0.0)
    if isinstance(model, AlphaRFSV):
        kmat = kernel_matrix(model.kernel, grid.times)
        d = np.zeros((n + 1, n + 1))
        d[:n, :] = model.rho * model.xi * kmat.T * bundle.V[None, :]
        return d
    if isinstance(model, MixedAlphaRFSV):
        kh = kernel_matrix(model.kernel_h, grid.times)
        khp = kernel_matrix(model.kernel_hp, grid.times)
        d = np.zeros((n + 1, n + 1))
        d[:n, :] = (
            0.5
            * model.rho
            * (model.xi_h * kh.T * bundle.vh[None, :] + model.xi_hp * khp.T * bundle.vhp[None, :])
        )
        return d
    raise UnsupportedError(f"no Malliavin grid for {type(model).__name__}")


def malliavin_ddv(model: ModelSpec, grid: TimeGrid, bundle: PathBundle, s: int, t: int) -> np.ndarray:
    """Second derivative path r -> D_{t_t} D_{t_s} V_{t_r}, zero for r <= max(s, t).

    Symmetric in (s, t).  Identically zero for the Stein-Stein models
    (their first derivative is deterministic) and for Black-Scholes.
    """
    if bundle.V.ndim != 1:
        raise ValueError("malliavin_ddv expects a single-path bundle")
    n = grid.n
    out = np.zeros(n + 1)
    lo = max(s, t)
    if isinstance(model, (BlackScholes, RoughSteinStein, SteinStein)):
        return out
    rr = np.arange(lo + 1, n + 1)
    if rr.size == 0:
        return out
    if isinstance(model, AlphaSV):
        out[rr] = model.rho**2 * model.xi**2 * bundle.V[rr]
        return out
    if isinstance(model, AlphaRFSV):
        kmat = kernel_matrix(model.kernel, grid.times)
        out[rr] = model.rho**2 * model.xi**2 * kmat[rr, s] * kmat[rr, t] * bundle.V[rr]
        return out
    if isinstance(model, MixedAlphaRFSV):
        kh = kernel_matrix(model.kernel_h, grid.times)
        khp = kernel_matrix(model.kernel_hp, grid.times)
        out[rr] = (
            0.5
            * model.rho**2
            * (
                model.xi_h**2 * kh[rr, s] * kh[rr, t] * bundle.vh[rr]
                + model.xi_hp**2 * khp[rr, s] * khp[rr, t] * bundle.vhp[rr]
            )
        )
        return out
    raise UnsupportedError(f"no second Malliavin derivative for {type(model).__name__}")


def idv_profile(model: ModelSpec, grid: TimeGrid, bundle: PathBundle) -> np.ndarray:
    """Inner integral IDV_i = dt * sum_{j<i} D[j, i], vectorised over paths."""
    if isinstance(model, BlackScholes):
        return np.zeros_like(bundle.V)
    if isinstance(model, AlphaRFSV):
        return model.rho * model.xi * bundle.V * bundle.kappa_hat
    if isinstance(model, MixedAlphaRFSV):
        return 0.5 * model.rho * (
            model.xi_h * bundle.vh * bundle.kappa_hat + model.xi_hp * bundle.vhp * bundle.kappa_hat_p
        )
    if isinstance(model, AlphaSV):
        return model.rho * model.xi * bundle.V * grid.times
    if isinstance(model, (RoughSteinStein, SteinStein)):
        return np.broadcast_to(bundle.idv_static, bundle.V.shape)
    raise UnsupportedError(f"no Malliavin grid for {type(model).__name__}")


def ddv_double_integral(model: ModelSpec, grid: TimeGrid, bundle: PathBundle) -> np.ndarray:
    """IDDV_i = dt^2 * sum_{s,t} D_t D_s V_{t_i}, vectorised over paths."""
    if isinstance(model, (BlackScholes, RoughSteinStein, SteinStein)):
        return np.zeros_like(bundle.V)
    if isinstance(model, AlphaRFSV):
        return (model.rho * model.xi * bundle.kappa_hat) ** 2 * bundle.V
    if isinstance(model, MixedAlphaRFSV):
        return 0.5 * model.rho**2 * (
            model.xi_h**2 * bundle.vh * bundle.kappa_hat**2
            + model.xi_hp**2 * bundle.vhp * bundle.kappa_hat_p**2
        )
    if isinstance(model, AlphaSV):
        return (model.rho * model.xi * grid.times) ** 2 * bundle.V
    raise UnsupportedError(f"no second Malliavin derivative for {type(model).__name__}")


def dtheta_vol(model: ModelSpec, grid: TimeGrid, bundle: PathBundle, which: str) -> np.ndarray:
    """Pathwise parameter derivative of V for theta-style weights.

    which = "v0": dV/dv0 = V / v0.
    which = "H":  dV/dH = V * (xi * dY/dH - alpha xi^2 dr/dH(t) / 2),
    requiring the bundle to carry the dY/dH convolution.  Only the
    AlphaRFSV family (including its Black-Scholes degeneration) supports
    these derivatives.
    """
    if isinstance(model, BlackScholes):
        if which == "v0":
            return np.ones_like(bundle.V)
        raise UnsupportedError("BlackScholes has no H parameter")
    if not isinstance(model, AlphaRFSV):
        raise UnsupportedError(f"dtheta_vol supports the AlphaRFSV family, got {type(model).__name__}")
    if which == "v0":
        return bundle.V / model.v0
    if which == "H":
        if bundle.dydh is None:
            raise ValueError("bundle was built without with_dh=True")
        rdh = kernel_variance_dh(model.kernel, grid.times)
        return bundle.V * (model.xi * bundle.dydh - 0.5 * model.alpha * model.xi**2 * rdh)
    raise ValueError(f"which must be 'v0' or 'H', got {which!r}")
