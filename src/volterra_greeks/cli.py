"""Command-line surface: volterra-greeks <price|greek|converge>.

Configuration is flat INI (key = value in named sections): [model] kind
plus the fields of the model class, [market] and [option] the fields of
MarketSpec and OptionSpec (k/t for strike/maturity, h for a kernel's H,
hp for the mixed model's second kernel; a field default makes its key
optional), [numerics] the keys of _NUMERICS (epsilon only for a model
with a kernel), [task] kinds (no kind twice)/oracles/ns_schedule; any
other key is a config error, and so is a [task] key the command does not
use (_TASK_KEYS).  [task] variant and [numerics] workers are read only so
that older files load: `derived` and `1` change nothing, any other value
is a config error.  Values are read as written (no % interpolation); a
number must be finite.
Output is CSV only, UTF-8, first line `# volterra-greeks v2 schema; rng
stream 2; convolution 2; normal 2` (paths.RNG_STREAM, paths.CONVOLUTION
and greeks.NORMAL); plotting is left to external tools.

Exit statuses: 0 success, 2 config error (message carries the
section.key field path, or the line of a malformed file), 3 unsupported
kind-model combination, 4 numerical failure (too few usable paths, or a
non-finite sample).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from typing import List, Optional, Sequence

from .greeks import (
    GREEK_KINDS,
    NORMAL,
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
from .paths import CONVOLUTION, RNG_STREAM, TimeGrid

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

SCHEMA_COMMENT = f"# volterra-greeks v2 schema; rng stream {RNG_STREAM}; convolution {CONVOLUTION}; normal {NORMAL}"
_PRICE_COLS = ["kind", "value", "stderr", "ci_low", "ci_high", "n_paths", "n_discarded", "seed", "wallclock_ms"]
_GREEK_COLS = ["kind", "method", "value", "stderr", "ci_low", "ci_high",
               "n_paths", "n_discarded", "seed", "wallclock_ms", "agreement"]
_CONVERGE_COLS = ["ns", "value", "ci_low", "ci_high"]
_SENS_KINDS = ("delta", "gamma", "rho", "vega", "hsens")
# the [task] keys each command uses; a file that sets another one is a config error
_TASK_KEYS = {"price": (), "greek": ("kinds", "variant", "oracles"), "converge": ("kinds", "variant", "ns_schedule")}
_MODELS = {
    "alpharfsv": AlphaRFSV,
    "mixed": MixedAlphaRFSV,
    "rough_stein_stein": RoughSteinStein,
    "alphasv": AlphaSV,
    "stein_stein": SteinStein,
    "black_scholes": BlackScholes,
}
# INI key of a spec field not named by its key; a KernelSpec field's key holds its H
_KEYS = {"strike": "k", "maturity": "t", "kernel": "h", "kernel_h": "h", "kernel_hp": "hp"}
# [numerics] key -> (type, default or MISSING if required, rule the value must meet, the rule in words);
# --seed is held to the rule of seed
_NUMERICS = {
    "n_steps": (int, MISSING, lambda v: v >= 1, "must be >= 1"),
    "n_paths": (int, MISSING, lambda v: v >= 2, "must be >= 2"),
    "seed": (int, MISSING, lambda v: v >= 0, "must be >= 0"),
    "confidence": (float, 0.99, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "workers": (int, 1, lambda v: v == 1, "must be 1 (the chunk pool was removed; chunks run in order)"),
    "epsilon": (float, 1e-6, lambda v: v >= 0.0, "must be >= 0"),  # read by the model's kernel fields only
}


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
    workers: int = 1  # always 1: [numerics] workers loads only as 1
    kinds: Sequence[str] = ()
    variant: Optional[str] = None  # "derived" when an older file sets it, else None; changes nothing
    oracles: Sequence[str] = ()
    ns_schedule: Sequence[int] = ()


def _ini_error(e: configparser.Error) -> ConfigError:
    """A malformed file, named by section.key where the parser knows it, else by line."""
    if isinstance(e, configparser.DuplicateOptionError):
        return ConfigError(f"{e.section}.{e.option}: duplicate key (line {e.lineno})")
    if isinstance(e, configparser.DuplicateSectionError):
        return ConfigError(f"{e.section}: duplicate section (line {e.lineno})")
    if isinstance(e, configparser.MissingSectionHeaderError):
        return ConfigError(f"line {e.lineno}: key outside any [section], got {e.line.strip()!r}")
    lineno, line = e.errors[0]  # a ParsingError, the one other error read() raises: (line number, its repr)
    return ConfigError(f"line {lineno}: expected key = value, got {line}")


def _convert(name: str, raw, cast):
    """raw (text, or a default) as cast: float, or int for counts; errors are named name."""
    try:
        value = cast(raw)
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(f"{name}: expected {what}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name}: expected a finite number, got {raw!r}")
    return value


def _checked(name: str, key: str, raw):
    """raw as the type of [numerics] key, held to its rule; errors are named name."""
    cast, _, ok, rule = _NUMERICS[key]
    value = _convert(name, raw, cast)
    if not ok(value):
        raise ConfigError(f"{name}: {rule}, got {value}")
    return value


def _list(raw: str) -> List[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


class _Reader:
    """An INI file and the section.key pairs read from it; any other key is unknown."""

    def __init__(self, path: str):
        self.cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        self.seen = set()
        try:
            if not self.cp.read(path, encoding="utf-8"):
                raise ConfigError(f"config file not found or unreadable: {path}")
        except configparser.Error as e:
            raise _ini_error(e) from None
        except UnicodeDecodeError:
            raise ConfigError(f"config file is not UTF-8 text: {path}") from None
        for key in self.cp.defaults():  # configparser would copy these into every section
            raise ConfigError(f"{self.cp.default_section}.{key}: unknown key "
                              f"(no [{self.cp.default_section}] key is read)")

    def raw(self, section: str, key: str, default=MISSING):
        """The key's text; a key with a default may be missing, and so may its section."""
        self.seen.add((section, key))
        if self.cp.has_option(section, key):
            return self.cp.get(section, key)
        if default is not MISSING:
            return default
        if not self.cp.has_section(section):
            raise ConfigError(f"{section}: missing required section")
        raise ConfigError(f"{section}.{key}: missing required key")

    def numerics(self, key: str):
        return _checked(f"numerics.{key}", key, self.raw("numerics", key, _NUMERICS[key][1]))

    def spec(self, section: str, cls):
        """cls from the keys of its dataclass fields (renamed by _KEYS); a field default makes its key optional."""
        try:
            kwargs = {}
            for f in fields(cls):
                key = _KEYS.get(f.name, f.name)
                raw = self.raw(section, key, f.default)
                value = raw.strip().lower() if f.type == "str" else _convert(f"{section}.{key}", raw, float)
                kwargs[f.name] = KernelSpec(H=value, eps=self.numerics("epsilon")) if f.type == "KernelSpec" else value
            return cls(**kwargs)
        except ValueError as e:
            raise ConfigError(f"{section}: {e}") from None


def load_config(path: str) -> RunConfig:
    r = _Reader(path)
    tag = r.raw("model", "kind").strip().lower()
    if tag not in _MODELS:
        raise ConfigError(f"model.kind: expected one of {', '.join(_MODELS)}; got {tag!r}")
    model = r.spec("model", _MODELS[tag])
    market = r.spec("market", MarketSpec)
    option = r.spec("option", OptionSpec)
    numerics = {key: r.numerics(key) for key in _NUMERICS if key != "epsilon"}
    grid = TimeGrid(T=option.maturity, n=numerics.pop("n_steps"))

    kinds = tuple(k.lower() for k in _list(r.raw("task", "kinds", "")))
    for i, k in enumerate(kinds):
        if k not in GREEK_KINDS:
            raise ConfigError(f"task.kinds: unknown kind {k!r}")
        if k in kinds[:i]:
            raise ConfigError(f"task.kinds: duplicate kind {k!r}")
    variant = r.raw("task", "variant", None)
    if variant is not None:
        variant = variant.strip().lower()
        if variant != "derived":
            raise ConfigError(f"task.variant: the literal gamma and rho weights were removed; "
                              f"only 'derived' is accepted, got {variant!r}")
    oracles = tuple(o.lower() for o in _list(r.raw("task", "oracles", "")))
    for o in oracles:
        if o not in ("fd", "bs"):
            raise ConfigError(f"task.oracles: expected fd or bs, got {o!r}")
    ns_raw = _list(r.raw("task", "ns_schedule", ""))
    try:
        ns_schedule = tuple(int(x) for x in ns_raw)
    except ValueError:
        raise ConfigError(f"task.ns_schedule: expected integers, got {ns_raw}") from None
    if ns_schedule and (ns_schedule[0] < 2 or any(b <= a for a, b in zip(ns_schedule, ns_schedule[1:]))):
        raise ConfigError(f"task.ns_schedule: must be strictly increasing with entries >= 2, got {list(ns_schedule)}")
    for section in r.cp.sections():
        for key in r.cp.options(section):
            if (section, key) not in r.seen:
                raise ConfigError(f"{section}.{key}: unknown key")

    return RunConfig(
        model=model, market=market, option=option, grid=grid, **numerics,
        kinds=kinds, variant=variant, oracles=oracles, ns_schedule=ns_schedule,
    )


def _check_task_keys(command: str, cfg: RunConfig) -> None:
    """Reject a [task] key the file sets but the command does not use."""
    for key in ("kinds", "variant", "oracles", "ns_schedule"):
        value = getattr(cfg, key)
        if value and key not in _TASK_KEYS[command]:
            users = " and ".join(c for c, keys in _TASK_KEYS.items() if key in keys)
            shown = list(value) if isinstance(value, tuple) else value
            raise ConfigError(f"task.{key}: {command} does not use this key (used by {users}), got {shown!r}")


def cmd_price(cfg: RunConfig) -> tuple:
    t0 = time.perf_counter()
    est = estimate_many(
        ["price"], cfg.model, cfg.market, cfg.option, cfg.grid,
        cfg.n_paths, cfg.seed, cfg.confidence,
    )[0]
    ms = int(round(1000.0 * (time.perf_counter() - t0)))
    row = [est.kind, est.value, est.stderr, est.ci_low, est.ci_high,
           est.n_paths, est.n_discarded, cfg.seed, ms]
    return _PRICE_COLS, [row]


def _greek_row(est: GreekEstimate, method: str, seed: int, ms: int, agreement) -> list:
    return [est.kind, method, est.value, est.stderr,
            est.ci_low, est.ci_high, est.n_paths, est.n_discarded, seed, ms, agreement]


def _agreement(value: float, ref: float, se: float) -> float:
    """|value - ref| in standard errors se; with se = 0, 0.0 if the two are equal and inf if not."""
    diff = abs(value - ref)
    return diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)


def cmd_greek(cfg: RunConfig) -> tuple:
    kinds = cfg.kinds or ("delta",)
    for k in kinds:
        if k not in _SENS_KINDS:
            raise ConfigError(f"task.kinds: {k!r} is not a sensitivity kind (use the price command)")
    t0 = time.perf_counter()

    def elapsed_ms():
        return int(round(1000.0 * (time.perf_counter() - t0)))

    ests = estimate_many(
        list(kinds), cfg.model, cfg.market, cfg.option, cfg.grid,
        cfg.n_paths, cfg.seed, cfg.confidence,
    )
    malliavin_ms = elapsed_ms()
    fds, fd_ms = [], 0
    if "fd" in cfg.oracles:
        fds = fd_greek(
            list(kinds), cfg.model, cfg.market, cfg.option, cfg.grid,
            cfg.n_paths, cfg.seed, confidence=cfg.confidence,
        )
        fd_ms = elapsed_ms()
    sigma_bs = cfg.model.bs_sigma()
    rows = []
    for i, est in enumerate(ests):
        rows.append(_greek_row(est, "malliavin", cfg.seed, malliavin_ms, ""))
        if fds:
            fd = fds[i]
            agreement = _agreement(est.value, fd.value, math.hypot(est.stderr, fd.stderr))
            rows.append(_greek_row(fd, "fd", cfg.seed, fd_ms, agreement))
        if "bs" in cfg.oracles and sigma_bs is not None and est.kind != "hsens":
            bs = bs_price_greeks(
                cfg.market.s0, cfg.option.strike, cfg.option.maturity,
                cfg.market.r, sigma_bs, cfg.option.payoff,
            )
            value = getattr(bs, est.kind)
            agreement = _agreement(est.value, value, est.stderr)
            rows.append([est.kind, "bs", value, 0.0, value, value, 0, 0, cfg.seed, elapsed_ms(), agreement])
    return _GREEK_COLS, rows


def cmd_converge(cfg: RunConfig) -> tuple:
    kinds = cfg.kinds or ("delta",)
    if len(kinds) != 1:
        raise ConfigError(f"task.kinds: converge takes exactly one kind, got {list(kinds)}")
    if not cfg.ns_schedule:
        raise ConfigError("task.ns_schedule: missing required key")
    ests = converge(
        kinds[0], cfg.model, cfg.market, cfg.option, cfg.grid, cfg.ns_schedule,
        cfg.seed, cfg.confidence,
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


def _check_out(out: str) -> None:
    """Fail before any simulation if the CSV cannot be written at out."""
    where = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        raise ConfigError(f"--out: {out!r} is a directory")
    if not os.path.isdir(where):
        raise ConfigError(f"--out: directory {where!r} does not exist")
    if not os.access(where, os.W_OK):
        raise ConfigError(f"--out: directory {where!r} is not writable")


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
            cfg.seed = _checked("--seed", "seed", args.seed)
        if args.out:
            _check_out(args.out)
        _check_task_keys(args.command, cfg)
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
