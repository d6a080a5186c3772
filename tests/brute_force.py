"""Single-path brute-force references for the Malliavin weight components.

These build the full Malliavin grids of one path straight from each
model's definition,

    D[j, i]      = D_{t_j} V_{t_i}               (zero for j >= i),
    DD[s, t, r]  = D_{t_t} D_{t_s} V_{t_r}       (zero for r <= max(s, t)),

and the left-point quadratures of intG and iintDsG over them.  The
library gets the same statistics in O(n) per path from each model's
chain-rule profiles; the tests compare the two.  stream2_increments is
the serial definition of the Brownian increments (RNG stream 2).
"""

import math

import numpy as np

from volterra_greeks.kernel import kernel_kappa, kernel_matrix
from volterra_greeks.models import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    MixedAlphaRFSV,
    RoughSteinStein,
    SteinStein,
)


def sigma_prime(model, v):
    if isinstance(model, AlphaSV):
        return 0.5 / np.sqrt(v)
    return np.ones_like(v)


def sigma_second(model, v):
    if isinstance(model, AlphaSV):
        return -0.25 * v ** (-1.5)
    return np.zeros_like(v)


def strict_lower(n: int) -> np.ndarray:
    """Mask M[j, i] = True iff j < i, shape (n+1, n+1)."""
    idx = np.arange(n + 1)
    return idx[:, None] < idx[None, :]


def dv_deterministic(model, grid) -> np.ndarray:
    """Path-independent D grid of the Stein-Stein models."""
    n = grid.n
    t = grid.times
    d = np.zeros((n + 1, n + 1))
    mask = strict_lower(n)
    if isinstance(model, SteinStein):
        lag = t[None, :] - t[:, None]
        d[mask] = model.rho * model.nu * np.exp(-model.kappa * lag[mask])
        return d
    ker = model.kernel
    # I(d) = int_0^{t_d} K(u, 0) e^{-kappa (t_d - u)} du by exact kernel cell
    # masses against a trapezoidal exponential factor; depends on the lag only.
    kap = kernel_kappa(ker, t)
    cm = kap[1:] - kap[:-1]
    e = np.exp(-model.kappa * t)
    ebar = 0.5 * (e[:-1] + e[1:])
    integ = np.concatenate([[0.0], np.convolve(cm, ebar)[:n]])
    kmat = kernel_matrix(ker, t)
    lag_idx = np.arange(n + 1)[None, :] - np.arange(n + 1)[:, None]
    jj, ii = np.nonzero(mask)
    d[jj, ii] = model.rho * model.nu * (kmat[ii, jj] - model.kappa * integ[lag_idx[jj, ii]])
    return d


def _kernel_square(kernel, grid) -> np.ndarray:
    """K[r, s] = K(t_r, t_s) for s < r, zero elsewhere, shape (n+1, n+1)."""
    k = np.zeros((grid.n + 1, grid.n + 1))
    k[:, : grid.n] = kernel_matrix(kernel, grid.times)
    return k


def malliavin_dv(model, grid, bundle) -> np.ndarray:
    """Malliavin derivative grid D[j, i] = D_{t_j} V_{t_i} for one path."""
    if bundle.V.ndim != 1:
        raise ValueError("malliavin_dv expects a single-path bundle")
    v = bundle.V
    if isinstance(model, BlackScholes):
        return np.zeros((grid.n + 1, grid.n + 1))
    if isinstance(model, (RoughSteinStein, SteinStein)):
        return dv_deterministic(model, grid)
    if isinstance(model, AlphaSV):
        return np.where(strict_lower(grid.n), model.rho * model.xi * v[None, :], 0.0)
    if isinstance(model, AlphaRFSV):
        return model.rho * model.xi * _kernel_square(model.kernel, grid).T * v[None, :]
    if isinstance(model, MixedAlphaRFSV):
        vh, vhp = bundle.aux["Vh"], bundle.aux["Vhp"]
        return 0.5 * model.rho * (
            model.xi_h * _kernel_square(model.kernel_h, grid).T * vh[None, :]
            + model.xi_hp * _kernel_square(model.kernel_hp, grid).T * vhp[None, :]
        )
    raise TypeError(f"no Malliavin grid for {type(model).__name__}")


def malliavin_ddv_tensor(model, grid, bundle) -> np.ndarray:
    """DD[s, t, r] = D_{t_t} D_{t_s} V_{t_r} for one path, symmetric in (s, t).

    Identically zero for the Stein-Stein models (their first derivative
    is deterministic) and for Black-Scholes.
    """
    if bundle.V.ndim != 1:
        raise ValueError("malliavin_ddv_tensor expects a single-path bundle")
    n = grid.n
    if isinstance(model, (BlackScholes, RoughSteinStein, SteinStein)):
        return np.zeros((n + 1, n + 1, n + 1))

    def factor(kernel, xi, v):
        k = _kernel_square(kernel, grid)  # k[r, s] vanishes unless s < r
        return xi * xi * k.T[:, None, :] * k.T[None, :, :] * v[None, None, :]

    if isinstance(model, AlphaSV):
        idx = np.arange(n + 1)
        live = idx[None, None, :] > np.maximum.outer(idx, idx)[:, :, None]
        return np.where(live, model.rho**2 * model.xi**2 * bundle.V[None, None, :], 0.0)
    if isinstance(model, AlphaRFSV):
        return model.rho**2 * factor(model.kernel, model.xi, bundle.V)
    if isinstance(model, MixedAlphaRFSV):
        return 0.5 * model.rho**2 * (
            factor(model.kernel_h, model.xi_h, bundle.aux["Vh"])
            + factor(model.kernel_hp, model.xi_hp, bundle.aux["Vhp"])
        )
    raise TypeError(f"no second Malliavin derivative for {type(model).__name__}")


def malliavin_ddv(model, grid, bundle, s: int, t: int) -> np.ndarray:
    """Second derivative path r -> D_{t_t} D_{t_s} V_{t_r}."""
    return malliavin_ddv_tensor(model, grid, bundle)[s, t]


def compute_intG_generic(model, grid, bundle, dv) -> float:
    """intG by left-point quadrature of the G formula, driven by a D grid.

    The inner integral int_0^s D_t V_s dt is the grid's column sum times dt.
    """
    dt = grid.dt
    v, ii, dw = bundle.V[:-1], dt * dv.sum(axis=0)[:-1], bundle.inc.dW
    sig, sp = model.sigma_of(v), sigma_prime(model, v)
    return float(dt * sig.sum() + (sp * ii * dw).sum() - dt * (sig * sp * ii).sum())


def compute_iintDsG_generic(model, grid, bundle, dv, iddv=None) -> float:
    """iint D_s G(t, T) ds dt by double left-point quadrature.

    The six-term integrand is summed in Fubini form: with
    IDV_u = dt sum_{j<u} D[j][u] and IDDV_u = dt^2 sum_{s,t} DD[s][t][u],

      2 dt sum_u sigma'(V_u) IDV_u
      + sum_u (sigma''(V_u) IDV_u^2 + sigma'(V_u) IDDV_u) dW_u
      - dt sum_u ((sigma'^2 + sigma'' sigma)(V_u) IDV_u^2
                  + (sigma' sigma)(V_u) IDDV_u),

    which reassociates the literal double sum exactly.  iddv defaults to
    the double sum over the brute-force second-derivative tensor.
    """
    dt = grid.dt
    if iddv is None:
        iddv = dt * dt * malliavin_ddv_tensor(model, grid, bundle).sum(axis=(0, 1))
    v, ii, dd, dw = bundle.V[:-1], dt * dv.sum(axis=0)[:-1], iddv[:-1], bundle.inc.dW
    sig, sp, spp = model.sigma_of(v), sigma_prime(model, v), sigma_second(model, v)
    lead = 2.0 * dt * (sp * ii).sum()
    stoch = ((spp * ii * ii + sp * dd) * dw).sum()
    drift = dt * (((sp * sp + spp * sig) * ii * ii) + sp * sig * dd).sum()
    return float(lead + stoch - drift)


def stream2_increments(grid, rho: float, seed: int, n_paths: int, start: int = 0):
    """(dW, dWt, dZ) of paths [start, start + n_paths), one whole block at a time.

    Path p is row p % 256 of the (256, 2, n) standard normals of the
    generator keyed by (seed, p // 256), scaled by sqrt(dt); dZ = rho dW +
    sqrt(1 - rho^2) dWt.
    """
    stop = start + n_paths
    rows = []
    for b in range(start // 256, (stop - 1) // 256 + 1):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        block = rng.standard_normal((256, 2, grid.n))
        rows.append(block[max(start - 256 * b, 0) : min(stop - 256 * b, 256)])
    z = np.concatenate(rows)
    z *= math.sqrt(grid.dt)
    dW, dWt = z[:, 0, :], z[:, 1, :]
    dZ = rho * dW + math.sqrt(1.0 - rho * rho) * dWt
    return dW, dWt, dZ
