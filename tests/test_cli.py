import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volterra_greeks.cli import _MODELS, ConfigError, load_config, main
from volterra_greeks.kernel import KernelSpec
from volterra_greeks.models import AlphaRFSV, AlphaSV, BlackScholes, MixedAlphaRFSV, RoughSteinStein, SteinStein
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
    assert cfg.variant is None and cfg.ns_schedule == ()
    # workers loads only as 1, which changes nothing; any other value is a config error
    assert load_config(_write(tmp_path, BS_CFG.replace("seed = 7", "seed = 7\nworkers = 1"), "w1.cfg")) == cfg


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
        (lambda s: s.replace("kinds = delta", "kinds = delta, delta"), "task.kinds: duplicate kind 'delta'"),
        (lambda s: s.replace("oracles = fd, bs", "oracles = mc"), "task.oracles"),
        (lambda s: s + "variant = wild\n", "task.variant"),
        pytest.param(lambda s: s + "variant = literal\n", "task.variant", id="variant-literal-task.variant"),
        (lambda s: s + "ns_schedule = 100, 50\n", "task.ns_schedule"),
        (lambda s: s.replace("seed = 7", "seed = 7\nepsilon = -1e-6"), "numerics.epsilon"),
        (lambda s: s.replace("[market]\ns0 = 100\nr = 0.0\n", ""), "market"),
        (lambda s: s.replace("seed = 7", "seed = 7\nconfidance = 0.5"), "numerics.confidance"),
        (lambda s: s.replace("seed = 7", "seed = 7\ncell_integrated = true"), "numerics.cell_integrated"),
        (lambda s: s.replace("h = 0.14", "h = 0.14\nsigma = 0.2"), "model.sigma"),
        (lambda s: s + "\n[output]\nformat = csv\n", "output.format"),
        (lambda s: s.replace("seed = 7", "seed = -1"), "numerics.seed"),
        (lambda s: s.replace("seed = 7", "seed = 7\nworkers = 2"), "numerics.workers: must be 1"),
        pytest.param(lambda s: "[DEFAULT]\nseed = 7\n" + s.replace("seed = 7\n", ""), "DEFAULT.seed: unknown key",
                     id="default-section-DEFAULT.seed"),
        # malformed files: section.key where the parser knows it, else the line
        (lambda s: s.replace("kind = alpharfsv", "kind = alpharfsv\nkind = mixed"), "model.kind: duplicate key (line 3)"),
        (lambda s: s + "\n[model]\nxi = 0.1\n", "model: duplicate section (line 27)"),
        (lambda s: "v0 = 0.2\n" + s, "line 1: key outside any [section]"),
        (lambda s: s.replace("seed = 7", "seed = 7\njunk"), "line 22: expected key = value"),
        (lambda s: s.replace("k = 100", "k = 100%"), "option.k: expected a number"),
        # non-finite numbers
        (lambda s: s.replace("xi = 0.0", "xi = nan"), "model.xi: expected a finite number"),
        (lambda s: s.replace("s0 = 100", "s0 = inf"), "market.s0: expected a finite number"),
        (lambda s: s.replace("k = 100", "k = inf"), "option.k: expected a finite number"),
    ],
)
def test_config_errors_carry_field_path(tmp_path, mangle, field):
    path = _write(tmp_path, mangle(BS_CFG))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert field in str(exc.value)


@pytest.mark.parametrize(
    "text,field",
    [
        ("[model]\nkind = alpharfsv\nkind = mixed\n", "model.kind"),
        ("[model]\nkind = alpharfsv\n[model]\n", "line 3"),
        ("kind = alpharfsv\n", "line 1"),
        ("[model]\nkind alpharfsv\n", "line 2"),
        (BS_CFG.replace("xi = 0.0", "xi = nan"), "model.xi"),
        (BS_CFG.replace("r = 0.0", "r = nan"), "market.r"),
        (BS_CFG.replace("s0 = 100", "s0 = inf"), "market.s0"),
        (BS_CFG.replace("k = 100", "k = nan"), "option.k"),
        (BS_CFG.replace("k = 100", "k = inf"), "option.k"),
        (BS_CFG.replace("seed = 7", "seed = 7\nworkers = 2"), "numerics.workers"),
    ],
    ids=["duplicate-key", "duplicate-section", "no-section", "no-equals", "xi-nan", "r-nan", "s0-inf", "k-nan", "k-inf",
         "workers-2"],
)
def test_malformed_or_non_finite_config_exits_2(tmp_path, capsys, text, field):
    assert main(["greek", "--config", _write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and field in captured.err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(BS_CFG.replace("payoff = call", "payoff = caf\xe9").encode("latin-1"))
    assert main(["greek", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not UTF-8 text" in captured.err


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


# each model tag: its [model] keys and the instance they describe, given the file's epsilon
MODEL_FILES = {
    "alpharfsv": ("v0 = 0.62\nxi = 0.21\nalpha = 1.0\nrho = -0.05\nh = 0.14\n",
                  lambda eps: AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=eps))),
    "mixed": ("v0 = 0.2\nxi_h = 0.3\nxi_hp = 0.1\nalpha = 0.5\nrho = -0.4\nh = 0.1\nhp = 0.7\n",
              lambda eps: MixedAlphaRFSV(v0=0.2, xi_h=0.3, xi_hp=0.1, alpha=0.5, rho=-0.4,
                                         kernel_h=KernelSpec(H=0.1, eps=eps), kernel_hp=KernelSpec(H=0.7, eps=eps))),
    "rough_stein_stein": ("v0 = 0.2\nkappa = 1.0\ntheta = 0.25\nnu = 0.3\nrho = -0.6\nh = 0.3\n",
                          lambda eps: RoughSteinStein(v0=0.2, kappa=1.0, theta=0.25, nu=0.3, rho=-0.6,
                                                      kernel=KernelSpec(H=0.3, eps=eps))),
    "alphasv": ("v0 = 0.04\nxi = 0.5\nalpha = 1.0\nrho = -0.3\n",
                lambda eps: AlphaSV(v0=0.04, xi=0.5, alpha=1.0, rho=-0.3)),
    "stein_stein": ("v0 = 0.2\nkappa = 1.5\ntheta = 0.2\nnu = 0.3\nrho = -0.3\n",
                    lambda eps: SteinStein(v0=0.2, kappa=1.5, theta=0.2, nu=0.3, rho=-0.3)),
    "black_scholes": ("sigma = 0.2\n", lambda eps: BlackScholes(sigma=0.2)),
}
KERNEL_TAGS = ("alpharfsv", "mixed", "rough_stein_stein")


def _model_cfg(tag, epsilon=None):
    """BS_CFG with the [model] keys of tag, no [task] section and, if given, numerics.epsilon."""
    text = f"[model]\nkind = {tag}\n{MODEL_FILES[tag][0]}\n[market]" + BS_CFG.split("[market]")[1].split("[task]")[0]
    return text if epsilon is None else text.replace("seed = 7\n", f"seed = 7\nepsilon = {epsilon}\n")


@pytest.mark.parametrize("tag", list(_MODELS))
def test_every_model_kind_loads_its_fields(tmp_path, tag):
    # the mixed model's second kernel reads hp; both of its kernels carry the file's epsilon
    epsilon = 0.002 if tag in KERNEL_TAGS else None
    cfg = load_config(_write(tmp_path, _model_cfg(tag, epsilon)))
    assert cfg.model == MODEL_FILES[tag][1](epsilon)


@pytest.mark.parametrize("tag", list(_MODELS))
def test_epsilon_is_read_only_by_a_model_with_a_kernel(tmp_path, capsys, tag):
    # without a kernel nothing reads numerics.epsilon, so setting it is an unknown key, not a silent no-op
    path = _write(tmp_path, _model_cfg(tag, 0.7))
    if tag in KERNEL_TAGS:
        assert main(["price", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("# volterra-greeks v2 schema")
    else:
        assert main(["price", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: numerics.epsilon: unknown key")


def test_optional_keys_load_their_defaults(tmp_path):
    # r, payoff, confidence, workers and epsilon all left out
    text = BS_CFG.replace("r = 0.0\n", "").replace("payoff = call\n", "")
    assert all(f"\n{key} =" not in text for key in ("r", "payoff", "confidence", "workers", "epsilon"))
    cfg = load_config(_write(tmp_path, text))
    assert cfg.market.r == 0.0 and cfg.option.payoff == "call"
    assert cfg.confidence == 0.99 and cfg.workers == 1
    assert cfg.model.kernel == KernelSpec(H=0.14, eps=1e-6)


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


@pytest.mark.parametrize("payout", ["call", "digital_call"])
def test_price_command_matches_oracle(tmp_path, payout):
    out = str(tmp_path / "price.csv")
    cfg = BS_CFG.replace("kinds = delta\n", "").replace("oracles = fd, bs\n", "")
    cfg = cfg.replace("payoff = call\n", f"payoff = {payout}\n")
    assert main(["price", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    header, cols, rows = _read_csv(out)
    assert header == "# volterra-greeks v2 schema; rng stream 2; convolution 2; normal 2"
    assert cols == ["kind", "value", "stderr", "ci_low", "ci_high",
                    "n_paths", "n_discarded", "seed", "wallclock_ms"]
    assert len(rows) == 1
    row = dict(zip(cols, rows[0]))
    assert row["kind"] == "price" and row["n_paths"] == "8000" and row["seed"] == "7"
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2, payout).price
    assert abs(float(row["value"]) - ref) < 3 * float(row["stderr"])
    assert float(row["ci_low"]) <= float(row["value"]) <= float(row["ci_high"])


def test_greek_command_with_oracles(tmp_path):
    out = str(tmp_path / "greek.csv")
    assert main(["greek", "--config", _write(tmp_path, BS_CFG), "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    assert cols == ["kind", "method", "value", "stderr", "ci_low", "ci_high",
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


DEEP_OTM_DIGITAL_CFG = """\
[model]
kind = black_scholes
sigma = 0.2

[market]
s0 = 100
r = 0.05

[option]
k = 400
t = 1.0
payoff = digital_call

[numerics]
n_steps = 8
n_paths = 200
seed = 1

[task]
kinds = delta, rho
oracles = fd, bs
"""


def test_agreement_with_zero_stderr(tmp_path):
    # no path ends above K = 400, so every sample is 0 and each estimate reads 0 +- 0;
    # the equal fd value agrees (0.0), the nonzero closed form does not (inf)
    out = str(tmp_path / "otm.csv")
    assert main(["greek", "--config", _write(tmp_path, DEEP_OTM_DIGITAL_CFG), "--out", out]) == 0
    _, cols, rows = _read_csv(out)
    recs = {(r["kind"], r["method"]): r for r in (dict(zip(cols, row)) for row in rows)}
    assert list(recs) == [(k, m) for k in ("delta", "rho") for m in ("malliavin", "fd", "bs")]
    for kind in ("delta", "rho"):
        for method in ("malliavin", "fd"):
            assert (float(recs[kind, method]["value"]), float(recs[kind, method]["stderr"])) == (0.0, 0.0)
        assert float(recs[kind, "fd"]["agreement"]) == 0.0
        assert float(recs[kind, "bs"]["value"]) > 0.0
        assert float(recs[kind, "bs"]["agreement"]) == math.inf


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


RSS_NO_EPS_CFG = """\
[model]
kind = rough_stein_stein
v0 = 0.3
kappa = 1.0
theta = 0.25
nu = 0.4
rho = -0.6
h = 0.3

[market]
s0 = 100

[option]
k = 100
t = 1.0

[numerics]
n_steps = 16
n_paths = 500
seed = 1
epsilon = 0
"""


def test_rough_stein_stein_without_eps_prices_but_has_no_weights(tmp_path, capsys):
    # the price reads no Malliavin profile, so only the weighted kinds need eps > 0
    path = _write(tmp_path, RSS_NO_EPS_CFG)
    assert main(["price", "--config", path]) == 0
    assert capsys.readouterr().out.startswith("# volterra-greeks v2 schema")
    assert main(["greek", "--config", path]) == 3  # delta by default
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("unsupported: ") and "eps > 0" in captured.err


def test_task_section_may_be_left_out(tmp_path, capsys):
    # every [task] key is optional for price and greek; converge still needs ns_schedule
    path = _write(tmp_path, BS_CFG[: BS_CFG.index("[task]")])
    for command in ("price", "greek"):
        assert main([command, "--config", path]) == 0
        assert capsys.readouterr().out.startswith("# volterra-greeks v2 schema")
    assert main(["converge", "--config", path]) == 2
    assert "config error: task.ns_schedule: missing required key" in capsys.readouterr().err


def test_variant_derived_changes_nothing(tmp_path):
    cfg = BS_CFG.replace("kinds = delta", "kinds = gamma, rho, vega").replace("oracles = fd, bs\n", "")
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["greek", "--config", _write(tmp_path, cfg, "a.cfg"), "--out", a]) == 0
    assert main(["greek", "--config", _write(tmp_path, cfg + "variant = derived\n", "b.cfg"), "--out", b]) == 0
    assert _strip_wallclock(a) == _strip_wallclock(b)


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
        assert main(["price", "--config", _write(tmp_path, cfg.replace("kinds = delta\noracles = fd, bs\n", ""))]) == 4
        assert main(["greek", "--config", _write(tmp_path, cfg.replace("oracles = fd, bs\n", ""))]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in captured.err and "non-finite" in captured.err


def test_converge_command(tmp_path):
    cfg = BS_CFG.replace("oracles = fd, bs", "ns_schedule = 500, 2000, 8000")
    out = str(tmp_path / "conv.csv")
    assert main(["converge", "--config", _write(tmp_path, cfg), "--out", out]) == 0
    header, cols, rows = _read_csv(out)
    assert header == "# volterra-greeks v2 schema; rng stream 2; convolution 2; normal 2"
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


def test_converge_rejects_oracles(tmp_path, capsys):
    # oracle rows exist for greek only; converge used to drop them silently
    cfg = BS_CFG.replace("oracles = fd, bs", "oracles = fd\nns_schedule = 500, 1000")
    assert main(["converge", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "task.oracles" in captured.err


@pytest.mark.parametrize("line,key", [("oracles = fd, bs", "task.oracles"),
                                      ("ns_schedule = 500, 1000", "task.ns_schedule"),
                                      ("kinds = delta, gamma, rho, vega", "task.kinds"),
                                      ("variant = derived", "task.variant")])
def test_price_rejects_task_keys_it_does_not_use(tmp_path, monkeypatch, capsys, line, key):
    # price used to drop these keys silently and print its one row
    import volterra_greeks.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before rejecting the config")

    monkeypatch.setattr(cli, "estimate_many", no_run)
    cfg = BS_CFG.replace("kinds = delta\n", "").replace("oracles = fd, bs", line)
    assert main(["price", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert key in captured.err


def test_greek_rejects_schedule(tmp_path, monkeypatch, capsys):
    # greek used to drop ns_schedule silently and print its rows
    import volterra_greeks.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before rejecting the config")

    monkeypatch.setattr(cli, "estimate_many", no_run)
    monkeypatch.setattr(cli, "fd_greek", no_run)
    cfg = BS_CFG.replace("oracles = fd, bs", "ns_schedule = 500, 1000")
    assert main(["greek", "--config", _write(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "task.ns_schedule" in captured.err


@pytest.mark.parametrize("where", ["missing_dir", "is_dir"])
def test_bad_out_is_config_error_before_simulation(tmp_path, monkeypatch, capsys, where):
    import volterra_greeks.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "estimate_many", no_run)
    out = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
    assert main(["price", "--config", _write(tmp_path, BS_CFG), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert not (tmp_path / "missing").exists()


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
    # VOLTERRA_GREEKS_WORKERS is no longer read, whatever it holds
    cfg = _write(tmp_path, BS_CFG.replace("oracles = fd, bs\n", ""))
    out1 = str(tmp_path / "unset.csv")
    assert main(["greek", "--config", cfg, "--out", out1]) == 0
    for value in ("3", "many"):
        monkeypatch.setenv("VOLTERRA_GREEKS_WORKERS", value)
        out2 = str(tmp_path / f"{value}.csv")
        assert main(["greek", "--config", cfg, "--out", out2]) == 0
        assert _strip_wallclock(out1) == _strip_wallclock(out2)


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
    assert lines[0] == "# volterra-greeks v2 schema; rng stream 2; convolution 2; normal 2"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0][0] == "kind"
    assert rows[1][0] == "delta"


_NO_SCIPY_RUN = """\
import sys
import volterra_greeks, volterra_greeks.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
sys.modules["scipy"] = None  # from here on any scipy import raises
for argv in sys.argv[1:]:
    code = volterra_greeks.cli.main(argv.split())
    assert code == 0, (argv, code)
"""

FFT_CONVERGE_CFG = """\
[model]
kind = alpharfsv
v0 = 0.62
xi = 0.21
alpha = 1.0
rho = -0.05
h = 0.14

[market]
s0 = 100

[option]
k = 100
t = 1.0

[numerics]
n_steps = 1536
n_paths = 300
seed = 5

[task]
kinds = delta
ns_schedule = 100, 300
"""


def test_package_runs_without_scipy(tmp_path):
    """Importing the package loads no scipy module, and the CLI runs with scipy made unimportable."""
    greek = _write(tmp_path, BS_CFG.replace("n_paths = 8000", "n_paths = 1000"), "greek.cfg")
    fft = _write(tmp_path, FFT_CONVERGE_CFG, "converge.cfg")  # n_steps = 1536: the FFT convolution
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [f"greek --config {greek} --out {tmp_path / 'g.csv'}", f"converge --config {fft} --out {tmp_path / 'c.csv'}"]
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [r[1] for r in _read_csv(tmp_path / "g.csv")[2]] == ["malliavin", "fd", "bs"]
    assert [r[0] for r in _read_csv(tmp_path / "c.csv")[2]] == ["100", "300"]
