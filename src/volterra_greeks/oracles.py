"""Independent verification oracles for the Malliavin estimators.

Two oracles, both free of any Malliavin machinery:

  * Closed-form Black-Scholes prices and Greeks (call, put, digital
    call), used to check every estimator on the degenerate constant-vol
    model.
  * Central finite differences under common random numbers: the bumped
    and base runs reuse the exact same Gaussian draws path for path, so
    the per-path difference quotients are low-variance samples of the
    bump-and-reprice Greek.  An H bump rebuilds the kernel against the
    unchanged driver increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.stats import norm

from .greeks import GreekEstimate, OptionSpec, _reduce, _run_chunks, _validate_run, payoff
from .models import MarketSpec, ModelSpec, UnsupportedError, price_path, vol_path
from .paths import TimeGrid, gen_increments

__all__ = ["BsGreeks", "bs_price_greeks", "BumpSpec", "default_bump", "fd_greek"]


@dataclass(frozen=True)
class BsGreeks:
    price: float
    delta: float
    gamma: float
    vega: float
    rho: float


def bs_price_greeks(
    s0: float, strike: float, maturity: float, r: float, sigma: float, payout: str = "call"
) -> BsGreeks:
    """Black-Scholes price and Greeks; vega is d/d sigma, rho is d/d r."""
    st = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * maturity) / st
    d2 = d1 - st
    disc = math.exp(-r * maturity)
    nd1, nd2 = norm.cdf(d1), norm.cdf(d2)
    pd1, pd2 = norm.pdf(d1), norm.pdf(d2)
    if payout == "call":
        return BsGreeks(
            price=s0 * nd1 - strike * disc * nd2,
            delta=nd1,
            gamma=pd1 / (s0 * st),
            vega=s0 * pd1 * math.sqrt(maturity),
            rho=strike * maturity * disc * nd2,
        )
    if payout == "put":
        return BsGreeks(
            price=strike * disc * (1.0 - nd2) - s0 * (1.0 - nd1),
            delta=nd1 - 1.0,
            gamma=pd1 / (s0 * st),
            vega=s0 * pd1 * math.sqrt(maturity),
            rho=-strike * maturity * disc * (1.0 - nd2),
        )
    if payout == "digital_call":
        return BsGreeks(
            price=disc * nd2,
            delta=disc * pd2 / (s0 * st),
            gamma=-disc * pd2 * d1 / (s0 * s0 * sigma * sigma * maturity),
            vega=-disc * pd2 * d1 / sigma,
            rho=disc * (-maturity * nd2 + pd2 * math.sqrt(maturity) / sigma),
        )
    raise ValueError(f"payout must be call, put or digital_call, got {payout!r}")


# parameter -> (default size, absolute?); s0 and v0 bump relatively,
# H and r absolutely since both can sit near zero.
_BUMP_DEFAULTS = {"s0": (1e-2, False), "v0": (1e-2, False), "H": (1e-3, True), "r": (1e-3, True)}
_FD_PARAM = {"delta": "s0", "gamma": "s0", "vega": "v0", "rho": "r", "hsens": "H"}


@dataclass(frozen=True)
class BumpSpec:
    parameter: str
    size: float
    absolute: bool

    def __post_init__(self):
        if self.parameter not in _BUMP_DEFAULTS:
            raise ValueError(f"parameter must be one of {sorted(_BUMP_DEFAULTS)}, got {self.parameter!r}")
        if self.size <= 0.0:
            raise ValueError(f"bump size must be > 0, got {self.size}")


def default_bump(parameter: str) -> BumpSpec:
    size, absolute = _BUMP_DEFAULTS[parameter]
    return BumpSpec(parameter, size, absolute)


def _base_value(model: ModelSpec, market: MarketSpec, parameter: str) -> float:
    if parameter in ("s0", "r"):
        return getattr(market, parameter)
    if parameter == "v0":
        return getattr(model, model.VOL_LEVEL)
    if not hasattr(model, "kernel"):
        raise UnsupportedError(f"{type(model).__name__} has no Hurst parameter to bump")
    return model.kernel.H


def _apply_bump(model: ModelSpec, market: MarketSpec, parameter: str, value: float):
    if parameter in ("s0", "r"):
        return model, replace(market, **{parameter: value})
    if parameter == "v0":
        return replace(model, **{model.VOL_LEVEL: value}), market
    return replace(model, kernel=replace(model.kernel, H=value)), market


def fd_greek(
    kind: str,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    bump: Optional[BumpSpec] = None,
    confidence: float = 0.99,
    crn: bool = True,
    workers: int = 1,
) -> GreekEstimate:
    """Finite-difference estimate of one Greek, bump and reprice.

    Central differences by default; the rate falls back to a forward
    difference when r - h would leave the domain.  gamma uses the
    3-point second difference in s0.  With crn=False the bumped runs
    draw from disjoint substreams instead of sharing draws.
    """
    if kind not in _FD_PARAM:
        raise ValueError(f"kind must be one of {sorted(_FD_PARAM)}, got {kind!r}")
    _validate_run(model, market, opt, grid, n_paths, confidence)
    parameter = _FD_PARAM[kind]
    bump = bump or default_bump(parameter)
    if bump.parameter != parameter:
        raise ValueError(f"kind {kind!r} bumps {parameter!r}, got a bump for {bump.parameter!r}")
    base = _base_value(model, market, parameter)
    h = bump.size if bump.absolute else bump.size * base
    if h <= 0.0:
        raise ValueError(f"relative bump of {parameter} needs a nonzero base value, got {base}")

    forward = parameter == "r" and base - h < 0.0
    if kind == "gamma":
        values = (base + h, base, base - h)
    elif forward:
        values = (base + h, base)
    else:
        values = (base + h, base - h)
    setups = [_apply_bump(model, market, parameter, x) for x in values]
    disc = [math.exp(-mk.r * opt.maturity) for _, mk in setups]

    def one(md, mk, inc):
        v, _ = vol_path(md, grid, inc)
        return payoff(opt, price_path(mk, md, grid, v, inc.dW))

    def chunk(start, stop):
        m = stop - start
        if crn:
            inc = gen_increments(grid, model.rho, seed, m, start)
            prices = [d * one(md, mk, inc) for d, (md, mk) in zip(disc, setups)]
        else:
            prices = [
                d * one(md, mk, gen_increments(grid, model.rho, seed, m, k * n_paths + start))
                for k, (d, (md, mk)) in enumerate(zip(disc, setups))
            ]
        if kind == "gamma":
            return (prices[0] - 2.0 * prices[1] + prices[2]) / (h * h)
        if forward:
            return (prices[0] - prices[1]) / h
        return (prices[0] - prices[1]) / (2.0 * h)

    x = np.concatenate(_run_chunks(n_paths, workers, chunk))
    return _reduce(kind, None, x, np.ones(x.shape, dtype=bool), confidence)
