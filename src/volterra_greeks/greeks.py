"""Monte-Carlo Greek estimation with Malliavin weights.

Per-path samples for each Greek kind (discount D = e^{-rT}, payoff f,
delta weight pi = W_T/intG + iintDsG/intG^2):

    price   X = D f(S_T)
    delta   X = (D / S0)   f(S_T) pi
    gamma   "literal" variant X = (D^2/S0^2) f pi / intG - (D/S0^2) f pi
            "derived" variant X = (D/S0^2) f (pi^2 - intDpi/intG - pi)
    rho     "literal" variant X = D (r T f pi - f)
            "derived" variant X = T D f (pi - 1)
    vega    X = D f * theta-weight for d/d v0
    hsens   X = D f * theta-weight for d/d H

Gamma and rho ship in two algebraic variants: the literal forms keep the
discount/denominator placement of the raw integration-by-parts displays,
the derived forms re-expand the second IBP and the rate derivative from
scratch.  Only the derived forms reproduce the Black-Scholes closed
forms (the oracle suite arbitrates), so they are the default.  intDpi
in the derived gamma is int_0^T D_t pi dt expanded as
T/intG - W_T iintDsG / intG^2 + C / intG^2 - 2 iintDsG^2 / intG^3 with
C the triple D_sG integral.

Determinism: path p is row p % 256 of the substream keyed by (seed,
p // 256) (RNG stream 2), samples go into a path-indexed array, and all
reductions run over it in a fixed pairwise order, so estimates are
bit-identical for a given (seed, config) under any worker count or
batching, and runs with larger n_paths extend smaller ones.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import norm

from .models import MarketSpec, ModelSpec, PathBundle, make_bundle
from .paths import TimeGrid, gen_increments
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
_VARIANT_KINDS = ("gamma", "rho")
DEFAULT_VARIANT = "derived"
_CHUNK = 8192


class NumericalFailureError(RuntimeError):
    """Too few usable paths, or a non-finite sample on a used path."""


@dataclass(frozen=True)
class OptionSpec:
    strike: float
    maturity: float
    payoff: str = "call"

    def __post_init__(self):
        if self.strike <= 0.0:
            raise ValueError(f"strike must be > 0, got {self.strike}")
        if self.maturity <= 0.0:
            raise ValueError(f"maturity must be > 0, got {self.maturity}")
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
    variant: Optional[str] = None


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


def _normalize_tasks(tasks) -> list:
    out = []
    for t in tasks:
        kind, variant = t if isinstance(t, tuple) else (t, None)
        if kind not in GREEK_KINDS:
            raise ValueError(f"unknown greek kind {kind!r}")
        if kind in _VARIANT_KINDS:
            variant = variant or DEFAULT_VARIANT
            if variant not in ("literal", "derived"):
                raise ValueError(f"variant must be 'literal' or 'derived', got {variant!r}")
        elif variant is not None:
            raise ValueError(f"kind {kind!r} has no variants")
        out.append((kind, variant))
    return out


def _task_samples(tasks, model, market, opt, grid, bundle: PathBundle):
    """Per-path samples for each (kind, variant) task on one bundle."""
    disc = math.exp(-market.r * opt.maturity)
    f = payoff(opt, bundle.ST)
    s0 = market.s0
    horizon = grid.n * grid.dt
    need_w = any(k != "price" for k, _ in tasks)
    if need_w:
        w = weight_components(model, grid, bundle)
        ig = np.asarray(w.intG, dtype=float)
        valid = np.abs(ig) >= DEGENERATE_INTG
        pi = assemble_delta_weight(w)  # NaN on discarded paths
    else:
        valid = np.ones(np.shape(f), dtype=bool)
    out = {}
    for kind, variant in tasks:
        if kind == "price":
            out[(kind, variant)] = (disc * f, np.ones(np.shape(f), dtype=bool))
            continue
        if kind == "delta":
            x = disc / s0 * f * pi
        elif kind == "gamma":
            if variant == "literal":
                x = disc * disc / s0**2 * f * pi / ig - disc / s0**2 * f * pi
            else:
                c3 = triple_ddg_integral(model, grid, bundle)
                int_dpi = (
                    horizon / ig
                    - w.WT * w.iintDsG / ig**2
                    + c3 / ig**2
                    - 2.0 * w.iintDsG**2 / ig**3
                )
                x = disc / s0**2 * f * (pi * pi - int_dpi / ig - pi)
        elif kind == "rho":
            if variant == "literal":
                x = disc * (market.r * opt.maturity * f * pi - f)
            else:
                x = opt.maturity * disc * f * (pi - 1.0)
        else:  # vega and hsens: the theta weight for v0 and H
            n_num, int_dn = assemble_vega_numerator(model, grid, bundle, "v0" if kind == "vega" else "H", w)
            x = disc * f * assemble_theta_weight(n_num, int_dn, w)
        out[(kind, variant)] = (x, valid)
    return out


def _run_chunks(n_paths: int, workers: int, fn):
    """Run fn(start, stop) over fixed chunks, results in path order."""
    ranges = [(s, min(s + _CHUNK, n_paths)) for s in range(0, n_paths, _CHUNK)]
    if workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda r: fn(*r), ranges))
    return [fn(*r) for r in ranges]


def _all_task_samples(tasks, model, market, opt, grid, n_paths, seed, workers):
    with_dh = any(k == "hsens" for k, _ in tasks)

    def chunk(start, stop):
        inc = gen_increments(grid, model.rho, seed, stop - start, start)
        bundle = make_bundle(model, market, grid, inc, with_dh=with_dh)
        return _task_samples(tasks, model, market, opt, grid, bundle)

    chunks = _run_chunks(n_paths, workers, chunk)
    out = {}
    for key in chunks[0]:
        x = np.concatenate([c[key][0] for c in chunks])
        valid = np.concatenate([c[key][1] for c in chunks])
        out[key] = (x, valid)
    return out


def _reduce(kind, variant, x, valid, confidence) -> GreekEstimate:
    used = x[valid]
    n_used, n_bad = used.size, used.size - np.count_nonzero(np.isfinite(used))
    if n_used < 2 or n_bad:
        raise NumericalFailureError(f"{n_used} usable paths for {kind}, {n_bad} of them with non-finite samples")
    value = float(np.mean(used))
    stderr = float(np.std(used, ddof=1) / math.sqrt(n_used))
    z = float(norm.ppf(0.5 * (1.0 + confidence)))
    return GreekEstimate(
        kind=kind,
        value=value,
        stderr=stderr,
        ci_low=value - z * stderr,
        ci_high=value + z * stderr,
        n_paths=n_used,
        n_discarded=int(valid.size - n_used),
        confidence=confidence,
        variant=variant,
    )


def _validate_run(opt, grid, n_paths, seed, confidence):
    if opt.maturity != grid.T:
        raise ValueError(f"option maturity {opt.maturity} must equal the grid horizon {grid.T}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")


def estimate_many(
    tasks: Sequence,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    confidence: float = 0.99,
    workers: int = 1,
) -> list:
    """Estimate several Greeks on common paths; one simulation pass.

    tasks is a sequence of kinds or (kind, variant) pairs; gamma and rho
    default to the 'derived' variant.
    """
    tasks = _normalize_tasks(tasks)
    _validate_run(opt, grid, n_paths, seed, confidence)
    samples = _all_task_samples(tasks, model, market, opt, grid, n_paths, seed, workers)
    return [_reduce(k, v, *samples[(k, v)], confidence) for k, v in tasks]


def estimate(
    kind: str,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    n_paths: int,
    seed: int,
    confidence: float = 0.99,
    variant: Optional[str] = None,
    workers: int = 1,
) -> GreekEstimate:
    """Monte-Carlo estimate of one Greek with a 2-sided normal CI."""
    return estimate_many(
        [(kind, variant)], model, market, opt, grid, n_paths, seed, confidence, workers
    )[0]


def converge(
    kind: str,
    model: ModelSpec,
    market: MarketSpec,
    opt: OptionSpec,
    grid: TimeGrid,
    ns_schedule: Sequence[int],
    seed: int,
    confidence: float = 0.99,
    variant: Optional[str] = None,
    workers: int = 1,
) -> list:
    """Nested-sample convergence trace: one estimate per schedule entry.

    Paths are simulated once at the largest entry; each smaller entry
    reduces the prefix of the same path-indexed samples, so every run
    extends the smaller ones path-for-path.
    """
    ns = [int(x) for x in ns_schedule]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 2:
        raise ValueError("ns_schedule must be strictly increasing with entries >= 2")
    tasks = _normalize_tasks([(kind, variant)])
    _validate_run(opt, grid, ns[-1], seed, confidence)
    samples = _all_task_samples(tasks, model, market, opt, grid, ns[-1], seed, workers)
    x, valid = samples[tasks[0]]
    return [_reduce(tasks[0][0], tasks[0][1], x[:m], valid[:m], confidence) for m in ns]
