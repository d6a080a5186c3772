"""Spans around the calls into each package module, recorded from outside.

The benchmark replaces the names a calling module resolves (for example
``greeks.gen_increments`` or ``oracles.price_path``) with wrappers that
record a span, runs one repetition, and puts the originals back.  The
package itself is not changed.  A span is (name, start, end, parent,
work); ``work`` holds counts computed from argument and result shapes.

ENTRY times only the public entry points the end-to-end metrics need (a
few calls per repetition); layers_table() adds every module boundary for
the traced run.  A span name's prefix is the layer that owns the callee.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("kernel", "paths", "models", "weights", "greeks", "oracles", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    work: Dict[str, float] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _normals(args, kwargs, out):
    return {"normals": out.dW.size + out.dWt.size}


def _conv_flop(args, kwargs, out):
    # dense Y = dz @ kmat.T with kmat of shape (n+1, n): 2 P n (n+1)
    kmat, dz = args[0], args[1]
    return {"flop": 2.0 * (dz.size // dz.shape[-1]) * kmat.shape[1] * kmat.shape[0]}


def _nbytes(args, kwargs, out):
    return {"bytes": out.nbytes}


def _discards(threshold: float):
    def measure(args, kwargs, out):
        ig = np.asarray(out.intG)
        return {"paths": ig.size, "discarded": int(np.count_nonzero(np.abs(ig) < threshold))}

    return measure


# (calling module, attribute it resolves, span name, work counter)
ENTRY = [
    ("cli", "estimate_many", "greeks.estimate_many", None),
    ("cli", "converge", "greeks.converge", None),
    ("cli", "fd_greek", "oracles.fd_greek", None),
    ("cli", "bs_price_greeks", "oracles.bs_price_greeks", None),
    ("greeks", "estimate_many", "greeks.estimate_many", None),
    ("oracles", "fd_greek", "oracles.fd_greek", None),
]


def layers_table(degenerate_intg: float) -> list:
    """ENTRY plus every module boundary the estimator and the oracles cross."""
    return ENTRY + [
        ("cli", "main", "cli.main", None),
        ("cli", "load_config", "cli.load_config", None),
        ("cli", "_write_csv", "cli.write_csv", None),
        ("greeks", "gen_increments", "paths.gen_increments", _normals),
        ("oracles", "gen_increments", "paths.gen_increments", _normals),
        ("greeks", "make_bundle", "models.make_bundle", None),
        ("models", "vol_path", "models.vol_path", None),
        ("oracles", "vol_path", "models.vol_path", None),
        ("models", "price_path", "models.price_path", _nbytes),
        ("oracles", "price_path", "models.price_path", _nbytes),
        ("models", "volterra_path", "paths.volterra_path", None),
        ("models", "volterra_dh_path", "paths.volterra_path", None),
        ("paths", "convolve_kernel", "paths.convolve_kernel", _conv_flop),
        ("models", "kernel_matrix", "kernel.matrix", _nbytes),
        ("models", "kernel_dh_matrix", "kernel.matrix", _nbytes),
        ("paths", "kernel_matrix", "kernel.matrix", _nbytes),
        ("paths", "kernel_dh_matrix", "kernel.matrix", _nbytes),
        ("paths", "cell_variance_matrix", "kernel.matrix", _nbytes),
        ("greeks", "weight_components", "weights.components", _discards(degenerate_intg)),
        ("greeks", "assemble_delta_weight", "weights.assemble", None),
        ("greeks", "assemble_theta_weight", "weights.assemble", None),
        ("greeks", "assemble_vega_numerator", "weights.assemble", None),
        ("greeks", "triple_ddg_integral", "weights.assemble", None),
    ]


class Tracer:
    """Records spans in memory while a table is installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def _wrap(self, name: str, fn: Callable, measure) -> Callable:
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.work = measure(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict, table: list):
        """Wrap every (module, attribute) of table for the with-block."""
        saved = []
        try:
            for mod_name, attr, name, measure in table:
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig, measure))
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def total(self, *names: str) -> float:
        """Summed duration of the spans with these names."""
        return sum(s.dur for s in self.spans if s.name in names)


# stage -> span names whose self time it collects; together they
# partition the traced time, the rest of the repetition is "untraced"
_STAGES = {
    "rng": ("paths.gen_increments",),
    "conv": ("paths.convolve_kernel",),
    "kernel_matrix": ("kernel.matrix",),
    "volterra_self": ("paths.volterra_path",),
    "vol_path_self": ("models.vol_path",),
    "price_path": ("models.price_path",),
    "bundle_self": ("models.make_bundle",),
    "weights": ("weights.components", "weights.assemble"),
    "greeks_self": ("greeks.estimate_many", "greeks.converge"),
    "fd_self": ("oracles.fd_greek", "oracles.bs_price_greeks"),
    "cli_self": ("cli.main", "cli.load_config", "cli.write_csv"),
}


def layer_metrics(spans: List[Span], wall_s: float):
    """Per-layer metrics of one traced repetition, and the sanity checks.

    Returns ({name: (value, unit)}, [(check name, ok, detail)]).
    """
    self_t = [s.dur for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_t[s.parent] -= s.dur

    def total(*names, of=None):
        vals = self_t if of == "self" else [s.dur for s in spans]
        return sum(v for s, v in zip(spans, vals) if s.name in names)

    def count(name, parent_prefix=None):
        return sum(
            1
            for s in spans
            if s.name == name
            and (parent_prefix is None or (s.parent >= 0 and spans[s.parent].name.startswith(parent_prefix)))
        )

    def work(name, key):
        return sum(s.work.get(key, 0) for s in spans if s.name == name)

    rng_s = total("paths.gen_increments")
    conv_s = total("paths.convolve_kernel")
    gflop = work("paths.convolve_kernel", "flop") / 1e9
    seen = work("weights.components", "paths")
    discarded = work("weights.components", "discarded")
    m = {
        "paths.rng_s": (rng_s, "s"),
        "paths.rng_calls": (count("paths.gen_increments"), "count"),
        "paths.rng_mnormals_per_s": (_ratio(work("paths.gen_increments", "normals") / 1e6, rng_s), "Mnormal/s"),
        "paths.conv_s": (conv_s, "s"),
        "paths.conv_calls": (count("paths.convolve_kernel"), "count"),
        "paths.conv_gflop": (gflop, "GFLOP"),
        "paths.conv_gflops": (_ratio(gflop, conv_s), "GFLOP/s"),
        "kernel.matrix_builds": (count("kernel.matrix"), "count"),
        "kernel.matrix_s": (total("kernel.matrix"), "s"),
        "kernel.matrix_mb": (work("kernel.matrix", "bytes") / 1e6, "MB"),
        "models.vol_path_self_s": (total("models.vol_path", of="self"), "s"),
        "models.price_path_s": (total("models.price_path"), "s"),
        "models.price_path_mb": (work("models.price_path", "bytes") / 1e6, "MB"),
        "models.bundle_self_s": (total("models.make_bundle", of="self"), "s"),
        "weights.components_s": (total("weights.components"), "s"),
        "weights.assemble_s": (total("weights.assemble"), "s"),
        "weights.discarded": (discarded, "count"),
        "weights.valid_frac": (_ratio(seen - discarded, seen), "frac"),
        "greeks.estimate_s": (total("greeks.estimate_many", "greeks.converge"), "s"),
        "greeks.self_s": (total("greeks.estimate_many", "greeks.converge", of="self"), "s"),
        "greeks.chunks": (count("models.make_bundle", "greeks."), "count"),
        "oracles.fd_s": (total("oracles.fd_greek"), "s"),
        "oracles.fd_self_s": (total("oracles.fd_greek", of="self"), "s"),
        "oracles.fd_reprices": (count("models.price_path", "oracles.fd_greek"), "count"),
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.write_csv_s": (total("cli.write_csv"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, t in zip(spans, self_t):
        layer_self[s.name.split(".")[0]] += t
    for layer, t in layer_self.items():
        m[f"{layer}.layer_self_s"] = (t, "s")
    staged = 0.0
    for stage, names in _STAGES.items():
        t = total(*names, of="self")
        staged += t
        m[f"share.{stage}"] = (_ratio(t, wall_s), "frac")
    m["share.untraced"] = (_ratio(wall_s - staged, wall_s), "frac")

    nested = all(
        s.parent < 0 or (spans[s.parent].start <= s.start and s.end <= spans[s.parent].end) for s in spans
    )
    summed = sum(layer_self.values())
    checks = [
        ("trace: child spans lie inside their parents", nested, f"{len(spans)} spans"),
        (
            "trace: layer self times sum to at most the traced wall_s",
            summed <= wall_s and min(self_t, default=0.0) >= 0.0,
            f"{summed:.6f} s of {wall_s:.6f} s",
        ),
    ]
    return m, checks


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
