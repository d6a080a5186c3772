"""Command-line surface: volterra-greeks <price|greek|converge>.

Configuration is flat INI (key = value in named sections): [model] kind
plus the model's dataclass fields (a kernel field reads h, or hp for the
second kernel of the mixed model), [market] s0/r, [option] k/t/payoff,
[numerics] n_steps/n_paths/seed/confidence/epsilon/workers, [task]
kinds/variant/oracles/ns_schedule; any other key is a config error.
Output is CSV only, UTF-8, first line `# volterra-greeks v1 schema; rng
stream 2` (paths.RNG_STREAM); plotting is left to external tools.

Exit statuses: 0 success, 2 config error (message carries the
section.key field path), 3 unsupported kind-model combination,
4 numerical failure (too few usable paths, or a non-finite sample).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from .greeks import (
    GREEK_KINDS,
    GreekEstimate,
    NumericalFailureError,
    OptionSpec,
    converge,
    estimate_many,
)
from .kernel import KernelSpec
from .models import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    MarketSpec,
    MixedAlphaRFSV,
    ModelSpec,
    RoughSteinStein,
    SteinStein,
    UnsupportedError,
)
from .oracles import bs_price_greeks, fd_greek
from .paths import RNG_STREAM, TimeGrid

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

SCHEMA_COMMENT = f"# volterra-greeks v1 schema; rng stream {RNG_STREAM}"
WORKERS_ENV = "VOLTERRA_GREEKS_WORKERS"
_PRICE_COLS = ["kind", "value", "stderr", "ci_low", "ci_high", "n_paths", "n_discarded", "seed", "wallclock_ms"]
_GREEK_COLS = ["kind", "method", "variant", "value", "stderr", "ci_low", "ci_high",
               "n_paths", "n_discarded", "seed", "wallclock_ms", "agreement"]
_CONVERGE_COLS = ["ns", "value", "ci_low", "ci_high"]
_SENS_KINDS = ("delta", "gamma", "rho", "vega", "hsens")
_MODELS = {
    "alpharfsv": AlphaRFSV,
    "mixed": MixedAlphaRFSV,
    "rough_stein_stein": RoughSteinStein,
    "alphasv": AlphaSV,
    "stein_stein": SteinStein,
    "black_scholes": BlackScholes,
}
_KERNEL_KEYS = {"kernel": "h", "kernel_h": "h", "kernel_hp": "hp"}  # KernelSpec field -> INI key of its H


class ConfigError(Exception):
    """Invalid or missing configuration; message names section.key."""


@dataclass
class RunConfig:
    model: ModelSpec
    market: MarketSpec
    option: OptionSpec
    grid: TimeGrid
    n_paths: int
    seed: int
    confidence: float = 0.99
    workers: int = 1
    kinds: Sequence[str] = ()
    variant: str = "derived"
    oracles: Sequence[str] = ()
    ns_schedule: Sequence[int] = ()


_MISSING = object()


class _Ini(configparser.ConfigParser):
    """INI parser that records every section.key the loader reads."""

    def __init__(self):
        super().__init__(inline_comment_prefixes=("#", ";"))
        self.seen = set()


def _raw(cp, section, key, default=_MISSING):
    cp.seen.add((section, key))
    if not cp.has_section(section):
        raise ConfigError(f"{section}: missing required section")
    if cp.has_option(section, key):
        return cp.get(section, key)
    if default is _MISSING:
        raise ConfigError(f"{section}.{key}: missing required key")
    return default


def _number(cp, section, key, default=_MISSING, cast=float):
    """The key's value converted by cast (float, or int for counts)."""
    raw = _raw(cp, section, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        return cast(raw)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(f"{section}.{key}: expected {what}, got {raw!r}") from None


def _list(raw: str) -> List[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _load_model(cp, eps: float) -> ModelSpec:
    tag = _raw(cp, "model", "kind").strip().lower()
    if tag not in _MODELS:
        raise ConfigError(f"model.kind: expected one of {', '.join(_MODELS)}; got {tag!r}")
    cls = _MODELS[tag]
    try:
        kwargs = {
            f.name: KernelSpec(H=_number(cp, "model", _KERNEL_KEYS[f.name]), eps=eps)
            if f.name in _KERNEL_KEYS
            else _number(cp, "model", f.name)
            for f in fields(cls)
        }
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"model: {e}") from None


def load_config(path: str) -> RunConfig:
    cp = _Ini()
    if not cp.read(path, encoding="utf-8"):
        raise ConfigError(f"config file not found or unreadable: {path}")

    eps = _number(cp, "numerics", "epsilon", 1e-6)
    if eps < 0.0:
        raise ConfigError(f"numerics.epsilon: must be >= 0, got {eps}")
    model = _load_model(cp, eps)
    try:
        market = MarketSpec(s0=_number(cp, "market", "s0"), r=_number(cp, "market", "r", 0.0))
    except ValueError as e:
        raise ConfigError(f"market: {e}") from None
    try:
        option = OptionSpec(
            strike=_number(cp, "option", "k"),
            maturity=_number(cp, "option", "t"),
            payoff=_raw(cp, "option", "payoff", "call").strip().lower(),
        )
    except ValueError as e:
        raise ConfigError(f"option: {e}") from None

    n_steps = _number(cp, "numerics", "n_steps", cast=int)
    if n_steps < 1:
        raise ConfigError(f"numerics.n_steps: must be >= 1, got {n_steps}")
    grid = TimeGrid(T=option.maturity, n=n_steps)
    n_paths = _number(cp, "numerics", "n_paths", cast=int)
    if n_paths < 2:
        raise ConfigError(f"numerics.n_paths: must be >= 2, got {n_paths}")
    seed = _number(cp, "numerics", "seed", cast=int)
    if seed < 0:
        raise ConfigError(f"numerics.seed: must be >= 0, got {seed}")
    confidence = _number(cp, "numerics", "confidence", 0.99)
    if not 0.0 < confidence < 1.0:
        raise ConfigError(f"numerics.confidence: must lie in (0, 1), got {confidence}")
    workers = _number(cp, "numerics", "workers", 1, int)
    if workers < 1:
        raise ConfigError(f"numerics.workers: must be >= 1, got {workers}")

    kinds = tuple(k.lower() for k in _list(_raw(cp, "task", "kinds", "")))
    for k in kinds:
        if k not in GREEK_KINDS:
            raise ConfigError(f"task.kinds: unknown kind {k!r}")
    variant = _raw(cp, "task", "variant", "derived").strip().lower()
    if variant not in ("literal", "derived"):
        raise ConfigError(f"task.variant: expected literal or derived, got {variant!r}")
    oracles = tuple(o.lower() for o in _list(_raw(cp, "task", "oracles", "")))
    for o in oracles:
        if o not in ("fd", "bs"):
            raise ConfigError(f"task.oracles: expected fd or bs, got {o!r}")
    ns_raw = _list(_raw(cp, "task", "ns_schedule", ""))
    try:
        ns_schedule = tuple(int(x) for x in ns_raw)
    except ValueError:
        raise ConfigError(f"task.ns_schedule: expected integers, got {ns_raw}") from None
    if ns_schedule and (ns_schedule[0] < 2 or any(b <= a for a, b in zip(ns_schedule, ns_schedule[1:]))):
        raise ConfigError(f"task.ns_schedule: must be strictly increasing with entries >= 2, got {list(ns_schedule)}")
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in cp.seen:
                raise ConfigError(f"{section}.{key}: unknown key")

    return RunConfig(
        model=model, market=market, option=option, grid=grid,
        n_paths=n_paths, seed=seed, confidence=confidence,
        workers=workers, kinds=kinds, variant=variant, oracles=oracles,
        ns_schedule=ns_schedule,
    )


def _variant_of(kind: str, cfg: RunConfig) -> Optional[str]:
    return cfg.variant if kind in ("gamma", "rho") else None


def cmd_price(cfg: RunConfig) -> tuple:
    t0 = time.perf_counter()
    est = estimate_many(
        [("price", None)], cfg.model, cfg.market, cfg.option, cfg.grid,
        cfg.n_paths, cfg.seed, cfg.confidence, cfg.workers,
    )[0]
    ms = int(round(1000.0 * (time.perf_counter() - t0)))
    row = [est.kind, est.value, est.stderr, est.ci_low, est.ci_high,
           est.n_paths, est.n_discarded, cfg.seed, ms]
    return _PRICE_COLS, [row]


def _greek_row(est: GreekEstimate, method: str, seed: int, ms: int, agreement) -> list:
    return [est.kind, method, est.variant or "", est.value, est.stderr,
            est.ci_low, est.ci_high, est.n_paths, est.n_discarded, seed, ms, agreement]


def cmd_greek(cfg: RunConfig) -> tuple:
    kinds = cfg.kinds or ("delta",)
    for k in kinds:
        if k not in _SENS_KINDS:
            raise ConfigError(f"task.kinds: {k!r} is not a sensitivity kind (use the price command)")
    t0 = time.perf_counter()

    def elapsed_ms():
        return int(round(1000.0 * (time.perf_counter() - t0)))

    tasks = [(k, _variant_of(k, cfg)) for k in kinds]
    ests = estimate_many(
        tasks, cfg.model, cfg.market, cfg.option, cfg.grid,
        cfg.n_paths, cfg.seed, cfg.confidence, cfg.workers,
    )
    malliavin_ms = elapsed_ms()
    fds, fd_ms = [], 0
    if "fd" in cfg.oracles:
        fds = fd_greek(
            list(kinds), cfg.model, cfg.market, cfg.option, cfg.grid,
            cfg.n_paths, cfg.seed, confidence=cfg.confidence, workers=cfg.workers,
        )
        fd_ms = elapsed_ms()
    sigma_bs = cfg.model.bs_sigma()
    rows = []
    for i, est in enumerate(ests):
        rows.append(_greek_row(est, "malliavin", cfg.seed, malliavin_ms, ""))
        if fds:
            fd = fds[i]
            se = math.hypot(est.stderr, fd.stderr)
            agreement = abs(est.value - fd.value) / se if se > 0.0 else 0.0
            rows.append(_greek_row(fd, "fd", cfg.seed, fd_ms, agreement))
        if "bs" in cfg.oracles and sigma_bs is not None and est.kind != "hsens":
            bs = bs_price_greeks(
                cfg.market.s0, cfg.option.strike, cfg.option.maturity,
                cfg.market.r, sigma_bs, cfg.option.payoff,
            )
            value = getattr(bs, est.kind)
            agreement = abs(est.value - value) / est.stderr if est.stderr > 0.0 else 0.0
            rows.append([est.kind, "bs", "", value, 0.0, value, value, 0, 0, cfg.seed, elapsed_ms(), agreement])
    return _GREEK_COLS, rows


def cmd_converge(cfg: RunConfig) -> tuple:
    kinds = cfg.kinds or ("delta",)
    if len(kinds) != 1:
        raise ConfigError(f"task.kinds: converge takes exactly one kind, got {list(kinds)}")
    if not cfg.ns_schedule:
        raise ConfigError("task.ns_schedule: missing required key")
    kind = kinds[0]
    ests = converge(
        kind, cfg.model, cfg.market, cfg.option, cfg.grid, cfg.ns_schedule,
        cfg.seed, cfg.confidence, _variant_of(kind, cfg), cfg.workers,
    )
    rows = [[ns, e.value, e.ci_low, e.ci_high] for ns, e in zip(cfg.ns_schedule, ests)]
    return _CONVERGE_COLS, rows


def _write_csv(cols, rows, out: Optional[str]) -> None:
    fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        fh.write(SCHEMA_COMMENT + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(cols)
        w.writerows(rows)
    finally:
        if out:
            fh.close()


def _parse_args(argv):
    p = argparse.ArgumentParser(prog="volterra-greeks",
                                description="Malliavin-weight Monte-Carlo Greeks for rough Volterra models")
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (("price", "discounted payoff expectation"),
                      ("greek", "Malliavin-weight sensitivities with optional oracle rows"),
                      ("converge", "nested-sample convergence trace for one kind")):
        sp = sub.add_parser(name, help=doc)
        sp.add_argument("--config", required=True, help="INI config file")
        sp.add_argument("--seed", type=int, default=None, help="override numerics.seed")
        sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
            cfg.seed = args.seed
        env_workers = os.environ.get(WORKERS_ENV)
        if env_workers is not None:
            try:
                cfg.workers = int(env_workers)
            except ValueError:
                raise ConfigError(f"{WORKERS_ENV}: expected an integer, got {env_workers!r}") from None
            if cfg.workers < 1:
                raise ConfigError(f"{WORKERS_ENV}: must be >= 1, got {cfg.workers}")
        cols, rows = {"price": cmd_price, "greek": cmd_greek, "converge": cmd_converge}[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except UnsupportedError as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 3
    except NumericalFailureError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    _write_csv(cols, rows, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
