"""Malliavin weight components and their assembly into Greek weights.

The delta weight is built from the kernel-smoothed volatility functional

    G(t, T) = sigma(V_t) + int_t^T sigma'(V_s) D_t V_s dW_s
                         - int_t^T sigma(V_s) sigma'(V_s) D_t V_s ds,

through the two path statistics intG = int_0^T G(t, T) dt and
iintDsG = iint_{[0,T]^2} D_s G(t, T) ds dt:

    delta weight = W_T / intG + iintDsG / intG^2.

Parameter sensitivities (vega in v0, the H sensitivity) use the numerator
N = int b dt + int a dW with a = d_theta sigma(V), b = -V a, and

    theta weight = (N W_T - intDN) / intG + N iintDsG / intG^2,

where intDN = int_0^T D_t N dt.

Discretisation convention: every stochastic integral is a left-point
(Ito) sum and every time integral a left-point rectangle sum over cells
0..n-1, with the Malliavin derivatives strictly lower-triangular.  Under
this convention Fubini reduces both statistics, for every model, to one
quadrature over the model's chain-rule profiles (models.py) g1 and g2:

    intG    = dt sum sigma + <g1, dW> - dt <g1, sigma>
    iintDsG = 2 dt sum g1 + <g2, dW> - dt <g2, sigma> - dt <g1, g1>

The test-suite checks this against O(n^2)/O(n^3) brute-force sums over
the full Malliavin grids.

All functions broadcast over a leading path axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .models import ModelSpec, PathBundle, _dot
from .paths import TimeGrid

__all__ = [
    "DEGENERATE_INTG",
    "DegenerateWeightError",
    "WeightComponents",
    "weight_components",
    "assemble_delta_weight",
    "assemble_vega_numerator",
    "assemble_theta_weight",
    "triple_ddg_integral",
]

DEGENERATE_INTG = 1e-12


class DegenerateWeightError(ArithmeticError):
    """|intG| fell below the degeneracy threshold; the path must be discarded."""


@dataclass(frozen=True)
class WeightComponents:
    """Path statistics entering every weight: intG, iintDsG and W_T.

    sigma and g1 are the model profiles the statistics were built from,
    kept for the theta-weight numerator (None when not built from paths).
    """

    intG: Union[float, np.ndarray]
    iintDsG: Union[float, np.ndarray]
    WT: Union[float, np.ndarray]
    sigma: Optional[np.ndarray] = None
    g1: Optional[np.ndarray] = None


def weight_components(model: ModelSpec, grid: TimeGrid, bundle: PathBundle) -> WeightComponents:
    """intG, iintDsG and W_T for every path in the bundle."""
    dt, dw = grid.dt, bundle.inc.dW
    sig, g1, g2 = model.profiles(grid, bundle)
    ig = dt * sig.sum(axis=-1) + _dot(g1, dw) - dt * _dot(g1, sig)
    dg = 2.0 * dt * g1.sum(axis=-1) + _dot(g2, dw) - dt * _dot(g2, sig) - dt * _dot(g1, g1)
    return WeightComponents(intG=ig, iintDsG=dg, WT=dw.sum(axis=-1), sigma=sig, g1=g1)


def _over_intg(w: WeightComponents, first, second):
    """first / intG + second / intG^2, degenerate |intG| handled.

    Scalar components raise DegenerateWeightError when |intG| is below
    the discard threshold; array components return NaN on such paths so
    the estimator can drop and count them.
    """
    ig = np.asarray(w.intG, dtype=float)
    bad = np.abs(ig) < DEGENERATE_INTG
    if ig.ndim == 0 and bad:
        raise DegenerateWeightError(f"|intG| = {abs(float(ig)):.3e} below {DEGENERATE_INTG}")
    safe = np.where(bad, 1.0, ig)
    out = np.where(bad, np.nan, first / safe + second / safe**2)
    return out if out.ndim else float(out)


def assemble_delta_weight(w: WeightComponents):
    """Delta weight W_T / intG + iintDsG / intG^2."""
    return _over_intg(w, w.WT, w.iintDsG)


def assemble_vega_numerator(
    model: ModelSpec, grid: TimeGrid, bundle: PathBundle, which: str, w: WeightComponents
):
    """Numerator statistics (N, intDN) for the theta weight, theta = v0 or H.

    N = sum_i b_i dt + sum_i a_i dW_i with a = d_theta V (sigma(x) = x on
    the models that supply dtheta) and b = -V a.  By the product rule
    D_t b_s = -(D_t V_s a_s + V_s D_t a_s), so with IDa the inner integral
    of D a (from the model) and IDV = g1

      intDN = dt sum a + sum IDa dW - dt sum (IDV a + V IDa).

    V and IDV are read from w, the components weight_components built on
    the same bundle.
    """
    dt = grid.dt
    a, ida = model.dtheta(grid, bundle, which)
    v, idv = w.sigma, w.g1
    an, dan, dw = a[..., :-1], ida[..., :-1], bundle.inc.dW
    n_num = -dt * (v * an).sum(axis=-1) + (an * dw).sum(axis=-1)
    int_dn = dt * an.sum(axis=-1) + _dot(dan, dw) - dt * (_dot(idv, an) + _dot(v, dan))
    return n_num, int_dn


def assemble_theta_weight(n_num, int_dn, w: WeightComponents):
    """Theta weight (N W_T - intDN) / intG + N iintDsG / intG^2."""
    return _over_intg(w, n_num * w.WT - int_dn, n_num * w.iintDsG)


def triple_ddg_integral(model: ModelSpec, grid: TimeGrid, bundle: PathBundle):
    """iiint D_w D_s G(t, T) dw ds dt, needed by the re-derived Gamma weight.

    Zero whenever the first Malliavin derivative of V is deterministic
    (Black-Scholes, both Stein-Stein models); AlphaRFSV has a closed
    form; the other models raise UnsupportedError.
    """
    return model.triple_term(grid, bundle)
