import csv
import io
import math
from pathlib import Path

import numpy as np
import pytest

from volterra_greeks.cli import ConfigError, load_config, main
from volterra_greeks.models import AlphaRFSV, SteinStein
from volterra_greeks.oracles import bs_price_greeks

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIRS = (ROOT / "configs", ROOT / "perfbench" / "configs")

BS_CFG = """\
[model]
kind = alpharfsv
v0 = 0.2
xi = 0.0
alpha = 1.0
rho = 0.0
h = 0.14

[market]
s0 = 100
r = 0.0

[option]
k = 100
t = 1.0
payoff = call

[numerics]
n_steps = 64
n_paths = 8000
seed = 7

[task]
kinds = delta
oracles = fd, bs
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return first, rows[0], rows[1:]


def _strip_wallclock(path):
    header, cols, rows = _read_csv(path)
    if "wallclock_ms" in cols:
        i = cols.index("wallclock_ms")
        rows = [r[:i] + r[i + 1:] for r in rows]
        cols = cols[:i] + cols[i + 1:]
    return header, cols, rows


def test_load_config_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, BS_CFG))
    assert isinstance(cfg.model, AlphaRFSV)
    assert cfg.model.v0 == 0.2 and cfg.model.xi == 0.0
    assert cfg.model.kernel.H == 0.14 and cfg.model.kernel.eps == 1e-6
    assert cfg.market.s0 == 100.0 and cfg.market.r == 0.0
    assert cfg.option.strike == 100.0 and cfg.option.payoff == "call"
    assert cfg.grid.n == 64 and cfg.grid.T == 1.0
    assert cfg.n_paths == 8000 and cfg.seed == 7
    assert cfg.confidence == 0.99 and cfg.workers == 1
    assert cfg.kinds == ("delta",) and cfg.oracles == ("fd", "bs")
    assert cfg.variant == "derived" and cfg.ns_schedule == ()


@pytest.mark.parametrize(
    "mangle,field",
    [
        (lambda s: s.replace("n_steps = 64\n", ""), "numerics.n_steps"),
        (lambda s: s.replace("v0 = 0.2", "v0 = abc"), "model.v0"),
        (lambda s: s.replace("kind = alpharfsv", "kind = garch"), "model.kind"),
        (lambda s: s.replace("v0 = 0.2", "v0 = -1"), "model"),
        (lambda s: s.replace("k = 100", "k = -100"), "option"),
        (lambda s: s.replace("seed = 7", "seed = 7\nconfidence = 1.7"), "numerics.confidence"),
        (lambda s: s.replace("kinds = delta", "kinds = delta, skew"), "task.kinds"),
        (lambda s: s.replace("oracles = fd, bs", "oracles = mc"), "task.oracles"),
        (lambda s: s + "variant = wild\n", "task.variant"),
        (lambda s: s + "ns_schedule = 100, 50\n", "task.ns_schedule"),
        (lambda s: s.replace("seed = 7", "seed = 7\nepsilon = -1e-6"), "numerics.epsilon"),
        (lambda s: s.replace("[market]\ns0 = 100\nr = 0.0\n", ""), "market"),
        (lambda s: s.replace("seed = 7", "seed = 7\nconfidance = 0.5"), "numerics.confidance"),
        (lambda s: s.replace("seed = 7", "seed = 7\ncell_integrated = true"), "numerics.cell_integrated"),
        (lambda s: s.replace("h = 0.14", "h = 0.14\nsigma = 0.2"), "model.sigma"),
        (lambda s: s + "\n[output]\nformat = csv\n", "output.format"),
        (lambda s: s.replace("seed = 7", "seed = -1"), "numerics.seed"),
    ],
)
def test_config_errors_carry_field_path(tmp_path, mangle, field):
    path = _write(tmp_path, mangle(BS_CFG))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert field in str(exc.value)


def test_unknown_key_exit_2(tmp_path, capsys):
    # a misspelt optional key must not fall back to its default silently
    cfg = BS_CFG.replace("seed = 7", "seed = 7\nconfidance = 0.5")
    assert main(["greek", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerics.confidance: unknown key" in captured.err


@pytest.mark.parametrize("path", sorted(CONFIG_DIRS[0].glob("*.cfg")) + sorted(CONFIG_DIRS[1].glob("*.cfg")),
                         ids=lambda p: f"{p.parent.parent.name}/{p.parent.name}/{p.name}")
def test_shipped_configs_load(path):
    load_config(str(path))


@pytest.mark.parametrize(
    "model_section,sigma",
    [
        ("kind = alphasv\nv0 = 0.04\nxi = 0.0\nalpha = 1.0\nrho = -0.3\n", 0.2),
        ("kind = stein_stein\nv0 = 0.2\nkappa = 1.5\ntheta = 0.2\nnu = 0.0\nrho = -0.3\n", 0.2),
        ("kind = rough_stein_stein\nv0 = 0.2\nkappa = 0.0\ntheta = 0.5\nnu = 0.0\nrho = -0.3\nh = 0.3\n", 0.2),
    ],
    ids=["alphasv", "stein_stein", "rough_stein_stein"],
)
def test_bs_oracle_row_for_degenerate_models(tmp_path, model_section, sigma):
    cfg = "[model]\n" + model_section + "\n[market]" + BS_CFG.split("[market]")[1]
    cfg = cfg.replace("kinds = delta", "kinds = delta, rho").replace("oracles = fd, bs", "oracles = bs")
    out = str(tmp_path / "bs.csv")
    assert main(["greek", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    recs = [dict(zip(cols, r)) for r in rows]
    assert [(r["kind"], r["method"]) for r in recs] == [
        ("delta", "malliavin"), ("delta", "bs"), ("rho", "malliavin"), ("rho", "bs"),
    ]
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, sigma)
    for r in recs[1::2]:
        assert float(r["value"]) == pytest.approx(getattr(ref, r["kind"]), rel=1e-12)
        assert float(r["agreement"]) <= 3.0


def test_missing_file_is_config_error(tmp_path, capsys):
    assert main(["price", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_price_command_matches_oracle(tmp_path):
    out = str(tmp_path / "price.csv")
    assert main(["price", "--config", _write(tmp_path, BS_CFG), "--out", out]) == 0
    header, cols, rows = _read_csv(out)
    assert header == "# volterra-greeks v1 schema; rng stream 2"
    assert cols == ["kind", "value", "stderr", "ci_low", "ci_high",
                    "n_paths", "n_discarded", "seed", "wallclock_ms"]
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    assert row["kind"] == "price" and row["n_paths"] == "8000" and row["seed"] == "7"
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2).price
    assert abs(float(row["value"]) - ref) < 3 * float(row["stderr"])
    assert float(row["ci_low"]) <= float(row["value"]) <= float(row["ci_high"])


def test_greek_command_with_oracles(tmp_path):
    out = str(tmp_path / "greek.csv")
    assert main(["greek", "--config", _write(tmp_path, BS_CFG), "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    assert cols == ["kind", "method", "variant", "value", "stderr", "ci_low", "ci_high",
                    "n_paths", "n_discarded", "seed", "wallclock_ms", "agreement"]
    methods = [dict(zip(cols, r)) for r in rows]
    assert [m["method"] for m in methods] == ["malliavin", "fd", "bs"]
    for m in methods:
        assert m["kind"] == "delta"
    assert methods[0]["agreement"] == ""
    assert float(methods[1]["agreement"]) <= 3.0
    assert float(methods[2]["agreement"]) <= 3.0
    assert float(methods[2]["stderr"]) == 0.0
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2).delta
    assert float(methods[2]["value"]) == pytest.approx(ref, rel=1e-12)


def test_greek_variant_column(tmp_path):
    cfg = BS_CFG.replace("kinds = delta", "kinds = gamma, vega").replace("oracles = fd, bs\n", "")
    out = str(tmp_path / "g.csv")
    assert main(["greek", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    byk = {r[0]: dict(zip(cols, r)) for r in rows}
    assert byk["gamma"]["variant"] == "derived"
    assert byk["vega"]["variant"] == ""


def test_greek_rejects_price_kind(tmp_path, capsys):
    cfg = BS_CFG.replace("kinds = delta", "kinds = price")
    assert main(["greek", "--config", _write(tmp_path, cfg)]) == 2
    assert "task.kinds" in capsys.readouterr().err


def test_unsupported_pair_exit_3(tmp_path, capsys):
    cfg = """\
[model]
kind = stein_stein
v0 = 0.3
kappa = 1.5
theta = 0.25
nu = 0.4
rho = -0.5

[market]
s0 = 100

[option]
k = 100
t = 1.0

[numerics]
n_steps = 16
n_paths = 500
seed = 1

[task]
kinds = vega
"""
    assert main(["greek", "--config", _write(tmp_path, cfg)]) == 3
    assert "unsupported" in capsys.readouterr().err


def test_numerical_failure_exit_4(tmp_path, capsys):
    cfg = BS_CFG.replace("v0 = 0.2", "v0 = 1e-13").replace("oracles = fd, bs\n", "")
    cfg = cfg.replace("n_paths = 8000", "n_paths = 100")
    assert main(["greek", "--config", _write(tmp_path, cfg)]) == 4
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_samples_exit_4(tmp_path, capsys):
    cfg = BS_CFG.replace("xi = 0.0", "xi = 300").replace("alpha = 1.0", "alpha = 0.0")
    cfg = cfg.replace("rho = 0.0", "rho = -0.7").replace("h = 0.14", "h = 0.1")
    cfg = cfg.replace("n_paths = 8000", "n_paths = 2000").replace("seed = 7", "seed = 1")
    with np.errstate(all="ignore"):
        assert main(["price", "--config", _write(tmp_path, cfg)]) == 4
        assert main(["greek", "--config", _write(tmp_path, cfg.replace("oracles = fd, bs\n", ""))]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "non-finite" in captured.err


def test_converge_command(tmp_path):
    cfg = BS_CFG.replace("oracles = fd, bs", "ns_schedule = 500, 2000, 8000")
    out = str(tmp_path / "conv.csv")
    assert main(["converge", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    header, cols, rows = _read_csv(out)
    assert header == "# volterra-greeks v1 schema; rng stream 2"
    assert cols == ["ns", "value", "ci_low", "ci_high"]
    assert [r[0] for r in rows] == ["500", "2000", "8000"]
    for r in rows:
        assert float(r[2]) <= float(r[1]) <= float(r[3])
    # half-width shrinks along the trace
    widths = [float(r[3]) - float(r[2]) for r in rows]
    assert widths[2] < widths[0]


def test_converge_single_entry_equals_greek_row(tmp_path):
    conv_cfg = BS_CFG.replace("oracles = fd, bs", "ns_schedule = 8000")
    greek_cfg = BS_CFG.replace("oracles = fd, bs\n", "")
    out1 = str(tmp_path / "c.csv")
    out2 = str(tmp_path / "g.csv")
    assert main(["converge", "--config", _write(tmp_path, conv_cfg, "c.cfg"), "--out", out1]) == 0
    assert main(["greek", "--config", _write(tmp_path, greek_cfg, "g.cfg"), "--out", out2]) == 0
    _, _, conv_rows = _read_csv(out1)
    _, gcols, grows = _read_csv(out2)
    greek = dict(zip(gcols, grows[0]))
    assert conv_rows[0][1] == greek["value"]
    assert conv_rows[0][2] == greek["ci_low"]
    assert conv_rows[0][3] == greek["ci_high"]


def test_converge_requires_schedule_and_one_kind(tmp_path, capsys):
    assert main(["converge", "--config", _write(tmp_path, BS_CFG.replace("oracles = fd, bs\n", ""))]) == 2
    assert "ns_schedule" in capsys.readouterr().err
    cfg = BS_CFG.replace("kinds = delta", "kinds = delta, vega").replace(
        "oracles = fd, bs", "ns_schedule = 500, 1000"
    )
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == 2
    assert "task.kinds" in capsys.readouterr().err


def test_same_seed_same_bytes(tmp_path):
    cfg = _write(tmp_path, BS_CFG)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        assert main(["greek", "--config", cfg, "--out", out]) == 0
        outs.append(_strip_wallclock(out))
    assert outs[0] == outs[1]
    # converge emits no wallclock column: full byte identity
    ccfg = _write(tmp_path, BS_CFG.replace("oracles = fd, bs", "ns_schedule = 500, 2000"), "c.cfg")
    blobs = []
    for name in ("c1.csv", "c2.csv"):
        out = str(tmp_path / name)
        assert main(["converge", "--config", ccfg, "--out", out]) == 0
        blobs.append(open(out, "rb").read())
    assert blobs[0] == blobs[1]


def test_seed_override_changes_values(tmp_path):
    cfg = _write(tmp_path, BS_CFG.replace("oracles = fd, bs\n", ""))
    vals = []
    for seed in ("7", "8"):
        out = str(tmp_path / f"s{seed}.csv")
        assert main(["greek", "--config", cfg, "--seed", seed, "--out", out]) == 0
        _, cols, rows = _read_csv(out)
        row = dict(zip(cols, rows[0]))
        assert row["seed"] == seed
        vals.append(row["value"])
    assert vals[0] != vals[1]
    # --seed 7 must reproduce the config-seed run
    out = str(tmp_path / "cfgseed.csv")
    assert main(["greek", "--config", cfg, "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    assert dict(zip(cols, rows[0]))["value"] == vals[0]


def test_workers_env_does_not_change_values(tmp_path, monkeypatch):
    cfg = _write(tmp_path, BS_CFG.replace("oracles = fd, bs\n", ""))
    out1 = str(tmp_path / "w1.csv")
    assert main(["greek", "--config", cfg, "--out", out1]) == 0
    monkeypatch.setenv("VOLTERRA_GREEKS_WORKERS", "3")
    out2 = str(tmp_path / "w3.csv")
    assert main(["greek", "--config", cfg, "--out", out2]) == 0
    assert _strip_wallclock(out1) == _strip_wallclock(out2)
    monkeypatch.setenv("VOLTERRA_GREEKS_WORKERS", "many")
    assert main(["greek", "--config", cfg]) == 2


@pytest.mark.parametrize("value", ["0", "-2"])
def test_workers_env_below_one_exit_2(tmp_path, monkeypatch, capsys, value):
    # the same rule as numerics.workers, not a silent clamp to 1
    monkeypatch.setenv("VOLTERRA_GREEKS_WORKERS", value)
    assert main(["greek", "--config", _write(tmp_path, BS_CFG)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"VOLTERRA_GREEKS_WORKERS: must be >= 1, got {value}" in captured.err


def test_negative_seed_override_exit_2(tmp_path, capsys):
    assert main(["price", "--config", _write(tmp_path, BS_CFG), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed: must be >= 0, got -1" in captured.err


def test_greek_fd_rows_come_from_one_fd_pass(tmp_path, monkeypatch):
    from volterra_greeks import cli
    from volterra_greeks.oracles import fd_greek

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return fd_greek(*args, **kwargs)

    monkeypatch.setattr(cli, "fd_greek", counting)
    kinds = ["delta", "gamma", "rho", "vega"]
    cfg = BS_CFG.replace("kinds = delta", "kinds = " + ", ".join(kinds)).replace("r = 0.0", "r = 0.05")
    out = str(tmp_path / "g.csv")
    assert main(["greek", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    assert calls == [kinds]
    c = load_config(_write(tmp_path, cfg, "again.cfg"))
    _, cols, rows = _read_csv(out)
    rows = [dict(zip(cols, r)) for r in rows]
    fd_rows = [r for r in rows if r["method"] == "fd"]
    assert [r["kind"] for r in fd_rows] == kinds
    for row in fd_rows:
        want = fd_greek(row["kind"], c.model, c.market, c.option, c.grid, c.n_paths, c.seed, confidence=c.confidence)
        got = [float(row[k]) for k in ("value", "stderr", "ci_low", "ci_high")]
        assert got == [want.value, want.stderr, want.ci_low, want.ci_high]
        assert (int(row["n_paths"]), int(row["n_discarded"])) == (want.n_paths, want.n_discarded)
    # malliavin rows are stamped after the Malliavin pass, fd rows after the FD pass
    stamps = [{int(r["wallclock_ms"]) for r in rows if r["method"] == m} for m in ("malliavin", "fd")]
    (malliavin_ms,), (fd_ms,) = stamps
    assert fd_ms >= malliavin_ms


def test_stdout_output(tmp_path, capsys):
    cfg = _write(tmp_path, BS_CFG.replace("oracles = fd, bs\n", ""))
    assert main(["greek", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    lines = captured.strip().split("\n")
    assert lines[0] == "# volterra-greeks v1 schema; rng stream 2"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0][0] == "kind"
    assert rows[1][0] == "delta"
