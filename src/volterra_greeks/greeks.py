"""Monte-Carlo Greek estimation with Malliavin weights.

Per-path samples for each Greek kind (discount D = e^{-rT}, payoff f,
delta weight pi = W_T/intG + iintDsG/intG^2):

    price   X = D f(S_T)
    delta   X = (D / S0)   f(S_T) pi
    gamma   X = (D/S0^2) f (pi^2 - intDpi/intG - pi)
    rho     X = T D f (pi - 1)
    vega    X = D f * theta-weight for d/d v0
    hsens   X = D f * theta-weight for d/d H

One weight per Greek.  On the constant-vol degeneration the gamma and
rho weights are those of Fournie, Lasry, Lebuchoux, Lions & Touzi
(1999), checked against the Black-Scholes closed forms.  intDpi in gamma
is int_0^T D_t pi dt expanded as
T/intG - W_T iintDsG / intG^2 + C / intG^2 - 2 iintDsG^2 / intG^3 with
C the triple D_sG integral; gamma raises UnsupportedError on models
that do not provide it.

Layout of a run (_per_tile, which the FD oracle shares): the draws alive
at once hold at most the cap, 8192 paths and max(one tile, 2^22
path-steps).  Each draw (one gen_increments call) is the whole tiles in
half the cap, at least one tile, and the run keeps as many draws alive
as the cap holds: two of 4096 paths up to n = 512, three of 1024 at
n = 1100, two of 1024 at n = 2048, and from n = 4096 one draw of one
tile.  Each draw's vol paths, prices and weights are computed in tiles
of 1024 paths, one after another on the calling thread, so a run's peak
memory is its live draws plus one tile.  A draw queues one fill per
256-path block on a pool of one thread per CPU that lives for the run
(paths.run_threads) and returns; each tile starts as soon as its four
blocks are filled, and the next draw is queued before the calling
thread reaches it, so the pool fills it while the calling thread works.
The FFT rows run in shares that the calling thread and the pool take
from one counter, and the run holds OpenBLAS to one thread.  Each
distinct kernel's weights (its dense matrix, or from n = 1536 its
spectrum) are made once per call and kept in the run, and on the FFT
grids each tile's dZ is transformed once for every kernel applied to
it.  The workers keyword
of estimate, estimate_many, converge and oracles.fd_greek accepts only
1: the chunk pool it sized was removed.

Determinism: path p is row p % 256 of the substream keyed by (seed,
p // 256) (RNG stream 2), and draws and tiles start on multiples of 256
paths, where the convolution groups its BLAS products (see
paths.convolve_kernel; the FFT convolution transforms each row on its
own), so every per-path sample depends on that path's draws alone, and
not on the BLAS thread count (which may round only the dense product's
last column Y_n, a column no weight reads).
Samples go into a path-indexed array and all reductions run over it in a
fixed pairwise order, so estimates are bit-identical for a given (seed,
config) under any draw or tile size, and runs with larger
n_paths extend smaller ones (for 256 <= n < 1536 up to the rounding of
the smaller run's last group, when n_paths is not a multiple of 256).
The CI is value +- z stderr, z the two-sided standard normal quantile
from statistics.NormalDist (normal version 2, NORMAL, in the CLI schema
line; version 1 took z from scipy.stats, which differs in the last bits).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .models import MarketSpec, ModelSpec, make_bundle
from .paths import DriverIncrements, TimeGrid, _index, gen_increments, run_threads
from .weights import (
    DEGENERATE_INTG,
    assemble_delta_weight,
    assemble_theta_weight,
    assemble_vega_numerator,
    triple_ddg_integral,
    weight_components,
)

__all__ = [
    "GREEK_KINDS",
    "NumericalFailureError",
    "OptionSpec",
    "GreekEstimate",
    "payoff",
    "estimate",
    "estimate_many",
    "converge",
]

GREEK_KINDS = ("price", "delta", "gamma", "rho", "vega", "hsens")
_CHUNK = 8192  # most paths alive in the draws of a run at once
_TILE = 1024  # paths per vol path, pricing and weight pass; four RNG blocks, divides _CHUNK
_DRAW_STEPS = 1 << 22  # the draws alive at once hold at most this many path-steps, or one tile
NORMAL = 2  # version of the normal quantile and cdf (1 was scipy.stats), in the CLI schema line


class NumericalFailureError(RuntimeError):
    """Too few usable paths, or a non-finite sample on a used path."""


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    maturity: float
    payoff: str = "call"

    def __post_init__(self):
        if not 0.0 < self.strike < math.inf:
            raise ValueError(f"strike must be finite and > 0, got {self.strike}")
        if not 0.0 < self.maturity < math.inf:
            raise ValueError(f"maturity must be finite and > 0, got {self.maturity}")
        if self.payoff not in ("call", "put", "digital_call"):
            raise ValueError(f"payoff must be call, put or digital_call, got {self.payoff!r}")


@dataclass(frozen=True)
class GreekEstimate:
    kind: str
    value: float
    stderr: float
    ci_low: float
    ci_high: float
    n_paths: int
    n_discarded: int
    confidence: float = 0.99


def payoff(opt: OptionSpec, s_t):
    """Terminal payoff; the digital call pays on S_T > K strictly."""
    s_t = np.asarray(s_t, dtype=float)
    if opt.payoff == "call":
        out = np.maximum(s_t - opt.strike, 0.0)
    elif opt.payoff == "put":
        out = np.maximum(opt.strike - s_t, 0.0)
    else:
        out = (s_t > opt.strike).astype(float)
    return out if out.ndim else float(out)


def _check_kinds(kinds) -> list:
    kinds = list(kinds)
    for kind in kinds:
        if kind not in GREEK_KINDS:
            raise ValueError(f"unknown greek kind {kind!r}")
    return kinds


def _task_samples(kinds, model, market, opt, grid, inc: DriverIncrements):
    """Per-path samples of each kind on one tile, and the "valid" mask of its weights."""
    bundle = make_bundle(model, market, grid, inc)
    disc = math.exp(-market.r * opt.maturity)
    f = payoff(opt, bundle.ST)
    s0 = market.s0
    horizon = grid.n * grid.dt
    out = {"valid": np.ones(np.shape(f), dtype=bool)}
    if any(k != "price" for k in kinds):
        w = weight_components(model, grid, bundle)
        ig = np.asarray(w.intG, dtype=float)
        out["valid"] = np.abs(ig) >= DEGENERATE_INTG
        pi = assemble_delta_weight(w)  # NaN on discarded paths
    for kind in kinds:
        if kind == "price":
            x = disc * f
        elif kind == "delta":
            x = disc / s0 * f * pi
        elif kind == "gamma":
            c3 = triple_ddg_integral(model, grid, bundle)
            int_dpi = (
                horizon / ig
                - w.WT * w.iintDsG / ig**2
                + c3 / ig**2
                - 2.0 * w.iintDsG**2 / ig**3
            )
            x = disc / s0**2 * f * (pi * pi - int_dpi / ig - pi)
        elif kind == "rho":
            x = opt.maturity * disc * f * (pi - 1.0)
        else:  # vega and hsens: the theta weight for v0 and H
            n_num, int_dn = assemble_vega_numerator(model, grid, bundle, "v0" if kind == "vega" else "H", w)
            x = disc * f * assemble_theta_weight(n_num, int_dn, w)
        out[kind] = x
    return out


def _per_tile(n_paths: int, n_steps: int, draw, fn) -> dict:
    """fn(tile) on each _TILE-path tile (the last may be shorter); fn's dicts of per-path arrays joined in path order.

    draw(n, start) gives the increments of paths start..start+n-1.  The
    cap is the whole tiles that fit in _DRAW_STEPS path-steps of the
    n_steps grid, at least one and at most _CHUNK paths; each draw is the
    whole tiles in half the cap (at least one tile, at most the cap), and
    as many draws as the cap holds are alive at once.  So the pool fills
    draw k + 1 while the calling thread works through draw k, and draw
    k + ahead is made as soon as draw k is freed; a cap of one tile (from
    n = 4096) leaves one draw alive and no lookahead.  The run is one
    paths.run_threads() block: each distinct kernel's weights are made
    once, the draws queue their block fills on the run's pool, and each
    tile goes to fn, on the calling thread, as soon as its blocks are
    filled.
    """
    cap = min(_CHUNK, max(_TILE, (_DRAW_STEPS // n_steps) // _TILE * _TILE))  # most paths alive at once
    size = min(cap, max(_TILE, cap // 2 // _TILE * _TILE))  # paths per draw
    ahead, starts, tiles = cap // size, range(0, n_paths, size), []

    def drawn(j):  # the j-th draw, its fills queued on the run's pool
        return draw(min(size, n_paths - starts[j]), starts[j])

    with run_threads() as run:
        alive = deque(drawn(j) for j in range(min(ahead, len(starts))))
        for k, start in enumerate(starts):
            inc = alive.popleft()
            for lo in range(0, len(inc.dZ), _TILE):
                rows = slice(lo, min(lo + _TILE, len(inc.dZ)))
                run.wait(start + rows.stop)
                tiles.append(fn(DriverIncrements(dW=inc.dW[rows], dWt=inc.dWt[rows], dZ=inc.dZ[rows], rho=inc.rho)))
            del inc  # draw k is freed before draw k + ahead is made
            if k + ahead < len(starts):
                alive.append(drawn(k + ahead))
    return {key: np.concatenate([t[key] for t in tiles]) for key in tiles[0]}


def _all_task_samples(kinds, model, market, opt, grid, n_paths, seed):
    """Each kind's (samples, valid mask) over the run; price keeps every path."""
    draw = partial(gen_increments, grid, model.rho, seed)  # draw(n, start)
    samples = _per_tile(n_paths, grid.n, draw, partial(_task_samples, kinds, model, market, opt, grid))
    every = np.ones(n_paths, dtype=bool)
    return {k: (samples[k], every if k == "price" else samples["valid"]) for k in kinds}


def _reduce(kind, x, valid, confidence) -> GreekEstimate:
    used = x[valid]
    n_used, n_bad = used.size, used.size - np.count_nonzero(np.isfinite(used))
    if n_used < 2 or n_bad:
        raise NumericalFailureError(f"{n_used} usable paths for {kind}, {n_bad} of them with non-finite samples")
    value = float(np.mean(used))
    stderr = float(np.std(used, ddof=1) / math.sqrt(n_used))
    z = NormalDist().inv_cdf(0.5 * (1.0 + confidence))
    return GreekEstimate(
        kind=kind,
        value=value,
        stderr=stderr,
        ci_low=value - z * stderr,
        ci_high=value + z * stderr,
        n_paths=n_used,
        n_discarded=int(valid.size - n_used),
        confidence=confidence,
    )


def _validate_run(opt, grid, n_paths, seed, confidence, workers):
    if opt.maturity != grid.T:
        raise ValueError(f"option maturity {opt.maturity} must equal the grid horizon {grid.T}")
    if _index("n_paths", n_paths) < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if _index("seed", seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if workers != 1:  # the keyword stays only for callers that still pass workers=1
        raise ValueError(f"workers must be 1: the chunk pool was removed and chunks run in order, got {workers}")


def estimate_many(
    kinds: Sequence[str],
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    confidence: float = 0.99,
    workers: int = 1,
) -> list:
    """Estimate several Greeks on common paths; one simulation pass."""
    kinds = _check_kinds(kinds)
    _validate_run(opt, grid, n_paths, seed, confidence, workers)
    samples = _all_task_samples(kinds, model, market, opt, grid, n_paths, seed)
    return [_reduce(k, *samples[k], confidence) for k in kinds]


def estimate(
    kind: str,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    confidence: float = 0.99,
    workers: int = 1,
) -> GreekEstimate:
    """Monte-Carlo estimate of one Greek with a 2-sided normal CI."""
    return estimate_many([kind], model, market, opt, grid, n_paths, seed, confidence, workers)[0]


def converge(
    kind: str,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    ns_schedule: Sequence[int],
    seed: int,
    confidence: float = 0.99,
    workers: int = 1,
) -> list:
    """Nested-sample convergence trace: one estimate per schedule entry.

    Paths are simulated once at the largest entry; each smaller entry
    reduces the prefix of the same path-indexed samples, so every run
    extends the smaller ones path-for-path.
    """
    ns = [_index("ns_schedule entry", x) for x in ns_schedule]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 2:
        raise ValueError("ns_schedule must be strictly increasing with entries >= 2")
    kinds = _check_kinds([kind])
    _validate_run(opt, grid, ns[-1], seed, confidence, workers)
    x, valid = _all_task_samples(kinds, model, market, opt, grid, ns[-1], seed)[kind]
    return [_reduce(kind, x[:m], valid[:m], confidence) for m in ns]
