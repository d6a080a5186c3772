"""Smoke tests of the benchmark at tiny sizes (n=16, a few hundred paths).

They check that every metric appears with its unit on every workload,
that a wrong oracle reference is counted in fail_frac, and that the
tracing sanity checks catch bad spans.  They never assert timings.

    python3 -m pytest perfbench/tests -q
"""

import configparser
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the report carries, beyond those BENCHMARK.json bounds
E2E_ALL = {"wall_s", "estimate_s", "oracle_s", "paths_per_s", "s_to_target_hw", "setup_s",
           "peak_rss_mb", "fail_frac"}
LAYER_ALL = {
    "paths.rng_s", "paths.rng_calls", "paths.rng_mnormals_per_s", "paths.conv_s", "paths.conv_calls",
    "paths.conv_gflop", "paths.conv_gflops", "kernel.matrix_builds", "kernel.matrix_s", "kernel.matrix_mb",
    "models.vol_path_self_s", "models.price_path_s", "models.price_path_mb", "models.bundle_self_s",
    "weights.components_s", "weights.assemble_s", "weights.discarded", "weights.valid_frac",
    "greeks.estimate_s", "greeks.self_s", "greeks.chunks", "oracles.fd_s", "oracles.fd_self_s",
    "oracles.fd_reprices", "cli.load_config_s", "cli.write_csv_s", "trace.wall_s", "trace.overhead_s",
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit_on_every_workload(trace):
    proc = _run("--workload", "all", "--tiny", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(x) for x in proc.stdout.splitlines() if x.startswith('{"correct"')]
    assert len(lines) == len(workloads.WORKLOADS)
    assert json.loads(proc.stdout.splitlines()[-1]) == lines[-1]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert [m["name"] for m in spec] == list(line["metrics"])
        for m in spec:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    for name in workloads.WORKLOADS:
        res = json.loads((ROOT / ".perfbench" / "results" / f"{name}-tiny-seed{_seed(name)}-trace{trace}.json")
                         .read_text())
        assert E2E_ALL <= set(res["e2e"])
        assert (LAYER_ALL <= set(res["layers"])) if trace else res["layers"] is None
        assert {"git_sha", "nproc", "cpu_model", "caches", "numpy", "scipy", "blas", "seed", "workers"} <= set(
            res["env"])
        assert res["env"]["workers"] == 1


def _seed(name):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read(workloads.CONFIG_DIR / workloads.WORKLOADS[name].config, encoding="utf-8")
    return cp.getint("numerics", "seed")


def test_wrong_oracle_reference_is_counted_in_fail_frac(tmp_path):
    mods = worker.import_package()
    wl = replace(workloads.get("rough_converge", tiny=True), refs={"delta": (5.0, 1e-3)})
    job = worker.Job(wl, mods, None, tmp_path)
    reps, found = worker.run_reps(job, 0.0, trace=True)
    assert len(reps) == worker.MIN_REPS  # the failed check did not stop the run
    failed = [c for c in found if not c["ok"]]
    assert failed and all("pinned reference" in c["name"] for c in failed)
    e2e, layers = worker.summarize(job, reps, found)
    assert e2e["fail_frac"][0] == len(failed) / len(found) > 0
    assert layers is not None
    # the traced repetition put the package's own functions back
    assert mods["greeks"].gen_increments is mods["paths"].gen_increments


def test_wrong_closed_form_row_fails_its_z_check():
    wl = workloads.get("bs_battery")
    rows = [{"kind": k, "method": m, "value": 1.0, "stderr": 0.01 if m == "malliavin" else 0.0}
            for k in wl.oracles for m in ("malliavin", "fd", "bs")]
    assert all(ok for _, ok, _ in checks.check_rep(wl, None, 0, rows))
    rows[2]["value"] = 1.2  # delta's bs row, 20 standard errors away
    bad = [name for name, ok, _ in checks.check_rep(wl, None, 0, rows) if not ok]
    assert bad == ["delta: z against the bs oracle"]


def test_tracing_sanity_checks_catch_a_child_outside_its_parent():
    spans = [tracing.Span("greeks.estimate_many", 0.0, 1.0, -1), tracing.Span("paths.gen_increments", 0.2, 0.6, 0)]
    metrics, found = tracing.layer_metrics(spans, wall_s=1.0)
    assert all(ok for _, ok, _ in found)
    assert metrics["share.rng"][0] == pytest.approx(0.4)
    assert metrics["greeks.self_s"][0] == pytest.approx(0.6)
    spans[1] = tracing.Span("paths.gen_increments", 0.5, 1.5, 0)
    _, found = tracing.layer_metrics(spans, wall_s=1.0)
    assert not all(ok for _, ok, _ in found)


def test_fails_without_a_result_when_the_package_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "rough_converge", "--tiny", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
