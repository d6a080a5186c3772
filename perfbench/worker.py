"""One benchmark workload, run in its own process by perfbench/run.py.

    python3 perfbench/worker.py WORKLOAD --spawned-at T --result FILE
        [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--setup-only]

It imports the package from the checkout's src/ and builds the
workload's config; set-up ends there and is timed from --spawned-at, the
parent's time.monotonic() just before it started this process.  It then
repeats the workload until --seconds have passed and at least two
repetitions are done, checks every estimate of every repetition, and
writes one JSON result to FILE.  Repetition k runs on seed
N + k * SEED_STRIDE, so a run's medians pool several seeds' half-widths.
With --trace 1 the repetitions come in pairs on one seed, untraced then
traced: the traced run reports its own overhead, and the pair's
estimates must be identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import checks
import envinfo
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2
SEED_STRIDE = 1_000_003
_TEXT_COLS = ("kind", "method", "variant")
_INT_COLS = ("ns", "n_paths", "n_discarded", "seed")


def import_package() -> dict:
    """The package modules, imported from ROOT/src and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import volterra_greeks
    from volterra_greeks import cli, greeks, kernel, models, oracles, paths, weights

    where = Path(volterra_greeks.__file__).resolve().parent
    if where != (src / "volterra_greeks").resolve():
        raise SystemExit(f"volterra_greeks was imported from {where}, not from {src}")
    return {"cli": cli, "greeks": greeks, "kernel": kernel, "models": models,
            "oracles": oracles, "paths": paths, "weights": weights}


def _read_csv(path: Path) -> list:
    """CLI output rows without the wall-clock column, numbers parsed."""
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()  # schema comment
        rows = []
        for rec in csv.DictReader(fh):
            rec.pop("wallclock_ms", None)
            rows.append({k: v if k in _TEXT_COLS else int(v) if k in _INT_COLS else float(v) if v else None
                         for k, v in rec.items()})
    return rows


def _row(est, method: str) -> dict:
    return {"kind": est.kind, "method": method, "value": est.value, "stderr": est.stderr}


class Job:
    """A workload's config and the runner of one repetition."""

    def __init__(self, wl, mods: dict, seed, outdir: Path):
        self.wl, self.mods = wl, mods
        self.config = workloads.config_path(wl, outdir)
        self.cfg = mods["cli"].load_config(str(self.config))
        self.seed = self.cfg.seed if seed is None else seed
        self.csv = outdir / f"{wl.name}.csv"
        self.n_paths = self.cfg.ns_schedule[-1] if wl.runner == "converge" else self.cfg.n_paths

    def run(self, seed: int):
        """One repetition: (exit status, output rows)."""
        if self.wl.runner == "library":
            return self._library(seed)
        self.csv.unlink(missing_ok=True)
        argv = [self.wl.runner, "--config", str(self.config), "--seed", str(seed), "--out", str(self.csv)]
        status = self.mods["cli"].main(argv)
        return status, _read_csv(self.csv) if status == 0 else []

    def _library(self, seed: int):
        g, o, m, c = self.mods["greeks"], self.mods["oracles"], self.mods["models"], self.cfg
        try:
            ests = g.estimate_many(list(c.kinds), c.model, c.market, c.option, c.grid,
                                   c.n_paths, seed, c.confidence, workers=c.workers)
            rows = [_row(e, "malliavin") for e in ests]
            for kind, oracles in self.wl.oracles.items():
                if "fd" in oracles:
                    fd = o.fd_greek(kind, c.model, c.market, c.option, c.grid, c.n_paths, seed,
                                    confidence=c.confidence, workers=c.workers)
                    rows.append(_row(fd, "fd"))
        except g.NumericalFailureError:
            return 4, []
        except m.UnsupportedError:
            return 3, []
        return 0, rows

    def headline_hw(self, rows: list) -> float:
        """CI half-width of the headline kind's Malliavin estimate."""
        if self.wl.runner == "converge":
            final = [r for r in rows if r["ns"] == self.n_paths]
            return 0.5 * (final[0]["ci_high"] - final[0]["ci_low"]) if final else math.nan
        est = [r for r in rows if r["kind"] == self.wl.headline and r["method"] == "malliavin"]
        return checks.z_quantile(self.cfg.confidence) * est[0]["stderr"] if est else math.nan


def run_reps(job: Job, seconds: float, trace: bool):
    mods = job.mods
    layers = tracing.layers_table(mods["weights"].DEGENERATE_INTG)
    reps, results, untraced_rows = [], [], None
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - t0 < seconds:
        traced = trace and len(reps) % 2 == 1
        seed = job.seed + SEED_STRIDE * (len(reps) // 2 if trace else len(reps))
        tracer = tracing.Tracer()
        with tracer.installed(mods, layers if traced else tracing.ENTRY):
            start = time.perf_counter()
            status, rows = job.run(seed)
            wall = time.perf_counter() - start
        rep = {
            "seed": seed,
            "traced": traced,
            "wall_s": wall,
            "estimate_s": tracer.total("greeks.estimate_many", "greeks.converge"),
            "oracle_s": tracer.total("oracles.fd_greek", "oracles.bs_price_greeks"),
            "half_width": job.headline_hw(rows),
        }
        found = checks.check_rep(job.wl, job.cfg, status, rows)
        if traced:
            found.append(("trace: same estimates as the untraced repetition", rows == untraced_rows, ""))
            rep["layers"], trace_checks = tracing.layer_metrics(tracer.spans, wall)
            found += trace_checks
        untraced_rows = rows
        results += [{"rep": len(reps) + 1, "name": n, "ok": ok, "detail": d} for n, ok, d in found]
        reps.append(rep)
    return reps, results


def summarize(job: Job, reps: list, found: list) -> tuple:
    """End-to-end metrics over the untraced repetitions; per-layer over the traced ones."""
    plain = [r for r in reps if not r["traced"]]
    med = statistics.median
    target = job.wl.target_hw
    e2e = {
        "wall_s": (med(r["wall_s"] for r in plain), "s"),
        "estimate_s": (med(r["estimate_s"] for r in plain), "s"),
        "oracle_s": (med(r["oracle_s"] for r in plain), "s"),
        "paths_per_s": (med(job.n_paths / r["estimate_s"] for r in plain), "1/s"),
        "s_to_target_hw": (med(r["estimate_s"] * (r["half_width"] / target) ** 2 for r in plain), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (sum(not c["ok"] for c in found) / len(found), "frac"),
    }
    traced = [r for r in reps if r["traced"]]
    if not traced:
        return e2e, None
    layers = {}
    for name, (_, unit) in traced[0]["layers"].items():
        value = med(r["layers"][name][0] for r in traced)
        layers[name] = (int(value) if unit == "count" else value, unit)
    traced_wall = med(r["wall_s"] for r in traced)
    layers["trace.wall_s"] = (traced_wall, "s")
    layers["trace.overhead_s"] = (traced_wall - e2e["wall_s"][0], "s")
    layers["trace.overhead_frac"] = ((traced_wall - e2e["wall_s"][0]) / e2e["wall_s"][0], "frac")
    return e2e, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    mods = import_package()
    outdir = args.result.parent
    job = Job(workloads.get(args.workload, args.tiny), mods, args.seed, outdir)
    setup_s = time.monotonic() - args.spawned_at
    result = {"workload": args.workload, "seed": job.seed, "setup_s": setup_s}
    if not args.setup_only:
        if job.cfg.workers != 1 or "VOLTERRA_GREEKS_WORKERS" in os.environ:
            raise SystemExit(f"{args.workload}: the benchmark needs workers=1 and VOLTERRA_GREEKS_WORKERS unset")
        reps, found = run_reps(job, args.seconds, bool(args.trace))
        e2e, layers = summarize(job, reps, found)
        env = envinfo.collect(ROOT, numpy, scipy, job.seed)
        env["workers"] = job.cfg.workers
        result.update(tiny=args.tiny, n_paths=job.n_paths, headline=job.wl.headline,
                      target_hw=job.wl.target_hw, reps=reps, checks=found, e2e=e2e,
                      layers=layers, env=env)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
