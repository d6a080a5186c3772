"""Benchmark of volterra-greeks: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--tiny]

Run it from anywhere inside a checkout; it benchmarks that checkout's
src/.  For each workload it times set-up in fresh processes, runs the
workload in its own process (perfbench/worker.py) with
VOLTERRA_GREEKS_WORKERS and the BLAS thread variables removed from the
environment, and prints a report followed by one JSON line with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones BENCHMARK.json lists, with --trace 1 its per-layer
ones from the traced run; the report and the result file under
.perfbench/results/ carry every metric.  Exit status: 0 when every check
passed, 1 when a check failed, 2 when a workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 2  # set-up-only processes; the workload process is one more sample
BUDGET_S = 170.0  # every process of one workload ends within this
STRIPPED_ENV = ("VOLTERRA_GREEKS_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkloadError(RuntimeError):
    """A workload process failed or timed out; no result exists."""


def _spawn(name: str, args: argparse.Namespace, result: Path, deadline: float, setup_only: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), name, "--result", str(result),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise WorkloadError(f"{name}: worker did not finish within the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise WorkloadError(f"{name}: worker exited with status {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args: argparse.Namespace) -> dict:
    """Set-up probes, then the workload process; the merged result."""
    deadline = time.monotonic() + BUDGET_S
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    setups = [_spawn(name, args, tmp / f"{name}-setup.json", deadline, True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = _spawn(name, args, tmp / f"{name}.json", deadline, False)
    setups.append(res["setup_s"])
    attempted = len(res["checks"])
    failed = sum(not c["ok"] for c in res["checks"])
    res["setup_samples_s"] = setups
    res["e2e"]["setup_s"] = (statistics.median(setups), "s")
    res.update(attempted=attempted, failed=failed, correct=failed == 0)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{name}{'-tiny' if args.tiny else ''}-seed{res['seed']}-trace{args.trace}"
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    return res


def _print_report(name: str, res: dict) -> None:
    plain = sum(not r["traced"] for r in res["reps"])
    print(f"== {name}  seed {res['seed']}  repetitions {len(res['reps'])} ({plain} untraced)  "
          f"checks passed {res['attempted'] - res['failed']}/{res['attempted']}")
    for c in res["checks"]:
        if not c["ok"]:
            print(f"  FAILED rep {c['rep']}: {c['name']}: {c['detail']}")
    print("  end-to-end (median over untraced repetitions; setup_s over "
          f"{len(res['setup_samples_s'])} processes)")
    for metric, (value, unit) in res["e2e"].items():
        print(f"    {metric:<28} {value:>14.6g} {unit}")
    if res["layers"]:
        print("  per-layer (median over traced repetitions; *_mb and gflop computed from array shapes)")
        for metric, (value, unit) in res["layers"].items():
            print(f"    {metric:<28} {value:>14.6g} {unit}")
    env = res["env"]
    print(f"  env: sha {env['git_sha']}  nproc {env['nproc']}  {env['cpu_model']}  caches {env['caches']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  blas {env['blas']}  workers {env['workers']}")


def _contract_line(res: dict, trace: int, spec: dict) -> str:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    source = res["layers"] if trace else res["e2e"]
    metrics = {n: {"value": source[n][0], "unit": source[n][1]} for n in names}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=None, help="default: the workload config's seed")
    p.add_argument("--seconds", type=float, default=25.0, help="measure at least this long (two repetitions minimum)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes (n=16, a few hundred paths)")
    args = p.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            res = run_workload(name, args)
        except WorkloadError as e:
            print(f"error: {e}", file=sys.stderr)
            status = 2
            continue
        _print_report(name, res)
        print(_contract_line(res, args.trace, spec), flush=True)
        if not res["correct"]:
            status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
