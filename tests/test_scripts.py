"""The example scripts run end to end on tiny inputs and print one row per kind."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bs_consistency_prints_each_kind_per_payoff():
    lines = _run("bs_consistency.py", "--n-paths", "2000", "--n-steps", "8")
    blocks = [i for i, line in enumerate(lines) if line.startswith(("call ", "digital_call "))]
    assert len(blocks) == 2
    for start, stop in zip(blocks, blocks[1:] + [len(lines)]):
        kinds = [line.split()[0] for line in lines[start + 2:stop] if line.strip()]
        assert kinds == ["price", "delta", "gamma", "rho", "vega"]


def test_delta_convergence_prints_each_schedule_entry(tmp_path):
    out = tmp_path / "trace.csv"
    lines = _run("delta_convergence.py", "--ns", "500", "1000", "--n-steps", "16", "--out", str(out))
    rows = [line.split() for line in lines if line.split() and line.split()[0].isdigit()]
    assert [r[0] for r in rows] == ["500", "1000"]
    assert any(line.startswith("fd cross-check") for line in lines)
    assert out.read_text().splitlines()[0] == "n_paths,value,ci_low,ci_high"
