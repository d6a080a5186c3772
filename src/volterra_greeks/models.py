"""Stochastic-volatility models: each class carries its own path and Malliavin profiles.

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

Each class supplies everything the estimator needs to know about it, so
no other module branches on the model type:

* path(grid, inc)            V and the per-tile arrays the members below
                             read (the kernel row integrals kappa_hat that
                             paths.volterra_path returns with Y, and the
                             mixed model's two factors);
* sigma_of(v)                the vol-of-spot map;
* profiles(grid, bundle)     sigma(V), g1 = sigma'(V) IDV and
                             g2 = sigma''(V) IDV^2 + sigma'(V) IDDV on cells
                             0..n-1, where IDV_i = dt sum_{j<i} D_{t_j} V_{t_i}
                             and IDDV_i = dt^2 sum_{s,t} D_{t_t} D_{t_s} V_{t_i};
* triple_term(grid, bundle)  iiint D_w D_s G dw ds dt for the gamma weight;
* dtheta(grid, bundle, p)    dV/dp and its inner integral dt sum_j D_{t_j}
                             (for p = H, AlphaRFSV convolves dY/dH itself);
* rho                        correlation of the vol driver with the asset;
* bs_sigma()                 the Black-Scholes vol of a degenerate model.

The Malliavin derivatives follow the same left-point convention as the
weight quadratures: D_{t_j} V_{t_i} is exactly zero for j >= i, so inner
integrals never touch the kernel diagonal.  Members a model cannot
supply raise UnsupportedError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .kernel import KernelSpec, kernel_eval, kernel_kappa, kernel_variance, kernel_variance_dh
# not called here, but the benchmark's traced run (perfbench/tracing.py) wraps both names in models
from .kernel import kernel_dh_matrix, kernel_matrix  # noqa: F401
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
    "vol_path",
    "price_path",
    "make_bundle",
]


class UnsupportedError(ValueError):
    """Requested a model/operation combination that has no implementation."""


def _check_rho(rho: float) -> None:
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")


def _check_exponential(v0: float, alpha: float, rho: float, **xis: float) -> None:
    if not 0.0 < v0 < math.inf:
        raise ValueError(f"v0 must be finite and > 0, got {v0}")
    for name, xi in xis.items():
        if not 0.0 <= xi < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {xi}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    _check_rho(rho)


def _check_mean_reverting(v0: float, kappa: float, theta: float, nu: float, rho: float) -> None:
    for name, x in (("v0", v0), ("theta", theta)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    for name, x in (("kappa", kappa), ("nu", nu)):
        if not 0.0 <= x < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {x}")
    _check_rho(rho)


def _dot(a, b):
    """Inner product over the last (time) axis, broadcasting the rest."""
    return np.einsum("...i,...i->...", a, b)


@dataclass(frozen=True)
class MarketSpec:
    s0: float
    r: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.s0 < math.inf:
            raise ValueError(f"s0 must be finite and > 0, got {self.s0}")
        if not 0.0 <= self.r < math.inf:
            raise ValueError(f"r must be finite and >= 0, got {self.r}")


@dataclass
class PathBundle:
    """Simulated paths plus what the model's weight members read.

    Path arrays have time as the last axis (length n+1 for paths, n for
    increments) and may carry a leading path axis; ST is the terminal
    asset value alone.  aux holds, by name, the arrays the model's path
    computed for its profiles, triple_term and dtheta, and nothing else.
    """

    inc: DriverIncrements
    V: np.ndarray
    ST: np.ndarray
    aux: dict


class _Model:
    """Defaults of the model protocol; the subclasses override what they support."""

    VOL_LEVEL = "v0"  # the field vega differentiates and the FD oracle bumps

    def sigma_of(self, v):
        return v

    def triple_term(self, grid: TimeGrid, b: PathBundle):
        raise UnsupportedError(
            f"gamma needs the triple D_sG integral, not available for {type(self).__name__}"
        )

    def dtheta(self, grid: TimeGrid, b: PathBundle, which: str):
        raise UnsupportedError(f"dV/dtheta is defined for AlphaRFSV and BlackScholes, got {type(self).__name__}")

    def bs_sigma(self) -> Optional[float]:
        return None


def _exp_factor(v0, xi, alpha, kernel, grid, y):
    """v0 exp(xi y - alpha xi^2 r(t) / 2), built in y's buffer (y is not kept)."""
    rt = kernel_variance(kernel, grid.times)
    v = y
    v *= xi
    v -= 0.5 * alpha * xi * xi * rt
    np.exp(v, out=v)
    v *= v0
    return v


@dataclass(frozen=True)
class AlphaRFSV(_Model):
    """Rough exponential volatility; xi = 0 degenerates to Black-Scholes.

    D_{t_j} V_{t_i} = rho xi K(t_i, t_j) V_i, so with kappa_hat the kernel
    row integrals IDV = rho xi kappa_hat V and IDDV = (rho xi kappa_hat)^2 V.
    """

    v0: float
    xi: float
    alpha: float
    rho: float
    kernel: KernelSpec

    def __post_init__(self):
        _check_exponential(self.v0, self.alpha, self.rho, xi=self.xi)

    def path(self, grid, inc):
        y, kappa_hat = volterra_path(self.kernel, grid, inc)
        return _exp_factor(self.v0, self.xi, self.alpha, self.kernel, grid, y), {"kappa_hat": kappa_hat}

    def profiles(self, grid, b):
        v = b.V[..., :-1]
        rk = self.rho * self.xi * b.aux["kappa_hat"][:-1]
        g1 = v * rk
        return v, g1, g1 * rk

    def triple_term(self, grid, b):
        """3 dt sum V rk^2 + sum V rk^3 (dW - 4 V dt) with rk = rho xi kappa_hat."""
        v = b.V[..., :-1]
        rk = self.rho * self.xi * b.aux["kappa_hat"][:-1]
        g3 = v * rk**3
        return 3.0 * grid.dt * _dot(v, rk * rk) + _dot(g3, b.inc.dW) - 4.0 * grid.dt * _dot(g3, v)

    def dtheta(self, grid, b, which):
        """dV/dtheta for theta = v0 or H, and its inner integral.

        D_t (dV/dtheta)_s = rho xi (dV/dtheta_s K(s,t) + [theta=H] V_s dK/dH(s,t)).
        The H derivative V (xi dY/dH - alpha xi^2 dr/dH / 2) convolves dY/dH
        and the row integrals of dK/dH from the bundle's increments.
        """
        rx = self.rho * self.xi
        if which == "v0":
            a = b.V / self.v0
            return a, rx * a * b.aux["kappa_hat"]
        if which == "H":
            dydh, kappa_hat_dh = volterra_dh_path(self.kernel, grid, b.inc)
            # a in dY/dH's buffer and its inner integral in one more, with the same arithmetic
            a = dydh
            a *= self.xi
            a -= 0.5 * self.alpha * self.xi**2 * kernel_variance_dh(self.kernel, grid.times)
            a *= b.V
            ida = a * b.aux["kappa_hat"]
            ida += b.V * kappa_hat_dh
            ida *= rx
            return a, ida
        raise ValueError(f"which must be 'v0' or 'H', got {which!r}")

    def bs_sigma(self):
        return self.v0 if self.xi == 0.0 else None


@dataclass(frozen=True)
class MixedAlphaRFSV(_Model):
    """Average of a rough (H < 1/2) and a smooth (H' > 1/2) AlphaRFSV factor.

    Both factors share v0, alpha and the volatility driver dZ.  The H
    ordering is the intended regime but is not enforced, so that equal
    kernels collapse the model onto plain AlphaRFSV.  IDV and IDDV are
    the averages of the two factors' AlphaRFSV profiles.
    """

    v0: float
    xi_h: float
    xi_hp: float
    alpha: float
    rho: float
    kernel_h: KernelSpec
    kernel_hp: KernelSpec

    def __post_init__(self):
        _check_exponential(self.v0, self.alpha, self.rho, xi_h=self.xi_h, xi_hp=self.xi_hp)

    def path(self, grid, inc):
        y, kh = volterra_path(self.kernel_h, grid, inc)
        yp, khp = volterra_path(self.kernel_hp, grid, inc)
        vh = _exp_factor(self.v0, self.xi_h, self.alpha, self.kernel_h, grid, y)
        vhp = _exp_factor(self.v0, self.xi_hp, self.alpha, self.kernel_hp, grid, yp)
        aux = {"Vh": vh, "Vhp": vhp, "kappa_hat": kh, "kappa_hat_p": khp}
        return 0.5 * (vh + vhp), aux

    def profiles(self, grid, b):
        rk = self.rho * self.xi_h * b.aux["kappa_hat"][:-1]
        rkp = self.rho * self.xi_hp * b.aux["kappa_hat_p"][:-1]
        gh, gp = b.aux["Vh"][..., :-1] * rk, b.aux["Vhp"][..., :-1] * rkp
        return b.V[..., :-1], 0.5 * (gh + gp), 0.5 * (gh * rk + gp * rkp)

    def bs_sigma(self):
        return self.v0 if self.xi_h == 0.0 and self.xi_hp == 0.0 else None


class _StaticDV(_Model):
    """Models whose D V is path-independent and sigma(x) = x.

    Then IDDV and the triple term vanish and IDV is a fixed vector.  On
    the uniform grid D_{t_j} V_{t_i} depends on the lag i - j only, so
    IDV_i = dt sum_{l=1}^{i} d_l with d the lag profile of _dv_lag.
    """

    def profiles(self, grid, b):
        idv = grid.dt * np.concatenate([[0.0], np.cumsum(self._dv_lag(grid)[1:-1])])  # cells 0..n-1
        return b.V[..., :-1], idv, np.zeros(grid.n)

    def triple_term(self, grid, b):
        return np.zeros(b.V.shape[:-1])

    def bs_sigma(self):
        # with nu = 0, V reverts deterministically from v0 to theta: constant iff kappa = 0 or theta = v0
        if self.nu == 0.0 and (self.kappa == 0.0 or self.theta == self.v0) and self.v0 > 0.0:
            return self.v0
        return None


@dataclass(frozen=True)
class RoughSteinStein(_StaticDV):
    """Mean-reverting Gaussian vol with Volterra noise, sigma(x) = x."""

    v0: float
    kappa: float
    theta: float
    nu: float
    rho: float
    kernel: KernelSpec

    def __post_init__(self):
        _check_mean_reverting(self.v0, self.kappa, self.theta, self.nu, self.rho)

    def path(self, grid, inc):
        """V_i = v0 + kappa sum_{j<i} (theta - V_j) dt + nu Y_i, left point."""
        y = volterra_path(self.kernel, grid, inc)[0]
        v = y  # V_i overwrites Y_i once it is read (Y_0 = 0 is never read)
        v[..., 0] = self.v0
        drift = np.zeros(y.shape[:-1])
        for i in range(1, grid.n + 1):
            drift += (self.theta - v[..., i - 1]) * grid.dt
            v[..., i] = self.v0 + self.kappa * drift + self.nu * y[..., i]
        return v, {}

    def _dv_lag(self, grid):
        """d_l = rho nu (K(t_l, 0) - kappa I(l)), I(l) = int_0^{t_l} K(u, 0) e^{-kappa (t_l - u)} du."""
        ker = self.kernel
        if ker.H < 0.5 and ker.eps == 0.0:
            raise UnsupportedError(
                f"RoughSteinStein weights need kernel eps > 0 when H < 1/2 (D V is singular), got H={ker.H}, eps=0"
            )
        t = grid.times
        # I by exact kernel cell masses against a trapezoidal exponential factor
        e = np.exp(-self.kappa * t)
        cells = np.convolve(np.diff(kernel_kappa(ker, t)), 0.5 * (e[:-1] + e[1:]))[: grid.n]
        integ = np.concatenate([[0.0], cells])
        return self.rho * self.nu * (kernel_eval(ker, t, 0.0) - self.kappa * integ)


@dataclass(frozen=True)
class AlphaSV(_Model):
    """Exponential variance process on Brownian Z, sigma(x) = sqrt(x).

    IDV = rho xi t V and IDDV = (rho xi t)^2 V, so the chain rule gives
    g1 = rho xi t sqrt(V) / 2 and g2 = (rho xi t)^2 sqrt(V) / 4.
    """

    v0: float
    xi: float
    alpha: float
    rho: float

    def __post_init__(self):
        _check_exponential(self.v0, self.alpha, self.rho, xi=self.xi)

    def sigma_of(self, v):
        return np.sqrt(v)

    def path(self, grid, inc):
        z = np.zeros(inc.dZ.shape[:-1] + (grid.n + 1,))
        np.cumsum(inc.dZ, axis=-1, out=z[..., 1:])
        v = self.v0 * np.exp(self.xi * z - 0.5 * self.alpha * self.xi**2 * grid.times)
        return v, {}

    def profiles(self, grid, b):
        s = np.sqrt(b.V[..., :-1])
        rt = self.rho * self.xi * grid.times[:-1]
        g1 = 0.5 * rt * s
        return s, g1, 0.5 * rt * g1

    def bs_sigma(self):
        return math.sqrt(self.v0) if self.xi == 0.0 else None


@dataclass(frozen=True)
class SteinStein(_StaticDV):
    """Ornstein-Uhlenbeck volatility, explicit Euler, sigma(x) = x."""

    v0: float
    kappa: float
    theta: float
    nu: float
    rho: float

    def __post_init__(self):
        _check_mean_reverting(self.v0, self.kappa, self.theta, self.nu, self.rho)

    def path(self, grid, inc):
        dz = inc.dZ
        v = np.empty(dz.shape[:-1] + (grid.n + 1,))
        v[..., 0] = self.v0
        for i in range(grid.n):
            v[..., i + 1] = v[..., i] + self.kappa * (self.theta - v[..., i]) * grid.dt + self.nu * dz[..., i]
        return v, {}

    def _dv_lag(self, grid):
        return self.rho * self.nu * np.exp(-self.kappa * grid.times)


@dataclass(frozen=True)
class BlackScholes(_StaticDV):
    """Constant volatility sigma; D V = 0."""

    sigma: float
    rho = 0.0  # not a field: the vol driver plays no part
    VOL_LEVEL = "sigma"

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma}")

    def path(self, grid, inc):
        return np.full(inc.dZ.shape[:-1] + (grid.n + 1,), self.sigma), {}

    def _dv_lag(self, grid):
        return np.zeros(grid.n + 1)

    def dtheta(self, grid, b, which):
        if which != "v0":
            raise UnsupportedError("BlackScholes has no H parameter")
        return np.ones_like(b.V), np.zeros_like(b.V)

    def bs_sigma(self):
        return self.sigma


ModelSpec = Union[AlphaRFSV, MixedAlphaRFSV, RoughSteinStein, AlphaSV, SteinStein, BlackScholes]


def vol_path(model: ModelSpec, grid: TimeGrid, inc: DriverIncrements):
    """Volatility factor path; returns (V, the dict that becomes PathBundle.aux)."""
    return model.path(grid, inc)


def price_path(market: MarketSpec, model: ModelSpec, grid: TimeGrid, v: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Log-Euler S_T = s0 exp(r T - dt/2 sum sigma_i^2 + sum sigma_i dW_i); shape v.shape[:-1]."""
    sv = model.sigma_of(v[..., :-1])
    return market.s0 * np.exp(market.r * grid.T - 0.5 * grid.dt * _dot(sv, sv) + _dot(sv, dw))


def make_bundle(model: ModelSpec, market: MarketSpec, grid: TimeGrid, inc: DriverIncrements) -> PathBundle:
    """Simulate all paths a Greek estimate needs."""
    v, aux = vol_path(model, grid, inc)
    st = price_path(market, model, grid, v, inc.dW)
    return PathBundle(inc=inc, V=v, ST=st, aux=aux)
