"""Independent verification oracles for the Malliavin estimators.

Two oracles, both free of any Malliavin machinery:

  * Closed-form Black-Scholes prices and Greeks (call, put, digital
    call), used to check every estimator on the degenerate constant-vol
    model.
  * Central finite differences under common random numbers: the bumped
    and base runs reuse the exact same Gaussian draws path for path, so
    the per-path difference quotients are low-variance samples of the
    bump-and-reprice Greek.  An H bump rebuilds the kernel against the
    unchanged driver increments.  Several kinds share one pass, which
    prices each distinct bumped setup once.  The pass runs on the
    estimators' tile driver (greeks._per_tile): draws of half the cap
    (8192 paths and 2^22 path-steps, or one tile), the next queued on the
    run's pool while the current one is priced, prices per 1024-path tile
    as soon as its blocks are filled, each kernel's weights made once in
    the run (paths.run_threads); on FFT grids the bumped kernels
    K(H + h) and K(H - h) share the tile's one dZ spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .greeks import GreekEstimate, OptionSpec, _per_tile, _reduce, _validate_run, payoff
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


def _norm_cdf(x: float) -> float:
    """Standard normal cdf; the erfc form keeps its relative accuracy deep in the lower tail, 0.5 (1 + erf) does not."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def bs_price_greeks(
    s0: float, strike: float, maturity: float, r: float, sigma: float, payout: str = "call"
) -> BsGreeks:
    """Black-Scholes price and Greeks; vega is d/d sigma, rho is d/d r."""
    for name, x in (("s0", s0), ("strike", strike), ("maturity", maturity), ("sigma", sigma)):
        if not 0.0 < x < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {x}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    st = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * maturity) / st
    d2 = d1 - st
    disc = math.exp(-r * maturity)
    nd1, nd2 = _norm_cdf(d1), _norm_cdf(d2)
    pd1, pd2 = _norm_pdf(d1), _norm_pdf(d2)
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
            price=strike * disc * _norm_cdf(-d2) - s0 * _norm_cdf(-d1),
            delta=-_norm_cdf(-d1),
            gamma=pd1 / (s0 * st),
            vega=s0 * pd1 * math.sqrt(maturity),
            rho=-strike * maturity * disc * _norm_cdf(-d2),
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


# parameter -> (default size, absolute?); s0 and v0 bump relatively (h = size * |base|),
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
        if not 0.0 < self.size < math.inf:
            raise ValueError(f"bump size must be finite and > 0, got {self.size}")


def default_bump(parameter: str) -> BumpSpec:
    size, absolute = _BUMP_DEFAULTS.get(parameter, (1.0, False))  # BumpSpec names an unknown parameter
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


def _second(h, up, mid, down):
    return (up - 2.0 * mid + down) / (h * h)


def _forward(h, up, base):
    return (up - base) / h


def _central(h, up, down):
    return (up - down) / (2.0 * h)


def _plan(kind: str, model: ModelSpec, market: MarketSpec, bump: Optional[BumpSpec]):
    """The bumped (model, market) setups of one kind and its difference quotient."""
    parameter = _FD_PARAM[kind]
    if bump is None or bump.parameter != parameter:
        bump = default_bump(parameter)
    base = _base_value(model, market, parameter)
    h = bump.size if bump.absolute else bump.size * abs(base)
    if h == 0.0:
        raise ValueError(f"relative bump of {parameter} needs a nonzero base value, got {base}")
    if kind == "gamma":
        values, quotient = (base + h, base, base - h), _second
    elif parameter == "r" and base - h < 0.0:
        values, quotient = (base + h, base), _forward
    else:
        values, quotient = (base + h, base - h), _central
    return [_apply_bump(model, market, parameter, x) for x in values], partial(quotient, h)


def fd_greek(
    kinds: Union[str, Sequence[str]],
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    bump: Optional[BumpSpec] = None,
    confidence: float = 0.99,
    workers: int = 1,
):
    """Finite-difference estimates, bump and reprice.

    kinds is one kind, which returns one GreekEstimate, or a sequence of
    kinds, which returns a list of estimates in the same order from one
    pass over the paths: the increments are drawn once; per tile of
    each draw one vol path is built per distinct bumped model (s0
    and r bumps share the unbumped one) and each distinct (model, market)
    setup is priced once.  Every setup reuses the same draws (common
    random numbers), and each kind's difference quotient is formed once
    over all paths.  The estimates equal those of one call per kind.

    Central differences by default; the rate falls back to a forward
    difference when r - h would leave the domain.  gamma uses the
    3-point second difference in s0.  bump sets the size for every
    requested kind that bumps its parameter and must match at least one;
    the other kinds use default_bump.  workers accepts only 1: the chunk
    pool it sized was removed.
    """
    single = isinstance(kinds, str)
    kinds = [kinds] if single else list(kinds)
    if not kinds:
        raise ValueError("kinds must name at least one kind")
    for kind in kinds:
        if kind not in _FD_PARAM:
            raise ValueError(f"kind must be one of {sorted(_FD_PARAM)}, got {kind!r}")
    _validate_run(opt, grid, n_paths, seed, confidence, workers)
    if bump is not None and all(_FD_PARAM[k] != bump.parameter for k in kinds):
        bumped = sorted({_FD_PARAM[k] for k in kinds})
        raise ValueError(f"kinds {kinds} bump {bumped}, got a bump for {bump.parameter!r}")

    # plans[i] = (kind i's (model, market) setups, its quotient);
    # setups: model -> its markets, each distinct setup listed once
    plans, setups = [], {}
    for kind in kinds:
        pairs, quotient = _plan(kind, model, market, bump)
        for md, mk in pairs:
            markets = setups.setdefault(md, [])
            if mk not in markets:
                markets.append(mk)
        plans.append((pairs, quotient))

    def prices(tile):
        out = {}
        for md, markets in setups.items():
            v = vol_path(md, grid, tile)[0]
            for mk in markets:
                out[md, mk] = math.exp(-mk.r * opt.maturity) * payoff(opt, price_path(mk, md, grid, v, tile.dW))
            del v  # one vol path alive at a time
        return out

    px = _per_tile(n_paths, grid.n, partial(gen_increments, grid, model.rho, seed), prices)
    xs = [quotient(*(px[p] for p in pairs)) for pairs, quotient in plans]
    ests = [_reduce(kind, x, np.ones(x.shape, dtype=bool), confidence) for kind, x in zip(kinds, xs)]
    return ests[0] if single else ests
