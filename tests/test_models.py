import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from brute_force import malliavin_ddv, malliavin_ddv_tensor, malliavin_dv, sigma_prime, sigma_second
from volterra_greeks import models
from volterra_greeks.greeks import OptionSpec, estimate
from volterra_greeks.kernel import KernelSpec, kernel_eval, kernel_variance
from volterra_greeks.models import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    MarketSpec,
    MixedAlphaRFSV,
    PathBundle,
    RoughSteinStein,
    SteinStein,
    UnsupportedError,
    make_bundle,
    price_path,
    vol_path,
)
from volterra_greeks.oracles import BumpSpec
from volterra_greeks.paths import DriverIncrements, TimeGrid, gen_increments
from volterra_greeks.weights import weight_components

K14 = KernelSpec(H=0.14, eps=1e-6)
K30 = KernelSpec(H=0.3, eps=1e-3)
KBM = KernelSpec(H=0.5, eps=0.0)
MKT = MarketSpec(s0=100.0, r=0.0)


def _single(inc: DriverIncrements, k: int = 0) -> DriverIncrements:
    return DriverIncrements(dW=inc.dW[k], dWt=inc.dWt[k], dZ=inc.dZ[k], rho=inc.rho)


def test_parameter_validation():
    with pytest.raises(ValueError):
        AlphaRFSV(v0=0.0, xi=0.1, alpha=1.0, rho=0.0, kernel=K14)
    with pytest.raises(ValueError):
        AlphaRFSV(v0=0.2, xi=-0.1, alpha=1.0, rho=0.0, kernel=K14)
    with pytest.raises(ValueError):
        AlphaRFSV(v0=0.2, xi=0.1, alpha=1.5, rho=0.0, kernel=K14)
    with pytest.raises(ValueError):
        AlphaRFSV(v0=0.2, xi=0.1, alpha=1.0, rho=-1.5, kernel=K14)
    with pytest.raises(ValueError):
        RoughSteinStein(v0=0.2, kappa=-1.0, theta=0.3, nu=0.1, rho=0.0, kernel=K30)
    with pytest.raises(ValueError):
        SteinStein(v0=0.2, kappa=1.0, theta=0.3, nu=-0.1, rho=0.0)
    with pytest.raises(ValueError):
        BlackScholes(sigma=0.0)
    with pytest.raises(ValueError):
        MarketSpec(s0=-5.0)
    with pytest.raises(ValueError):
        MarketSpec(s0=100.0, r=-0.01)


# one valid instance of every spec class; each float field is made non-finite in turn
SPECS = [
    TimeGrid(T=1.0, n=8),
    K14,
    MarketSpec(s0=100.0, r=0.05),
    OptionSpec(strike=100.0, maturity=1.0, payoff="digital_call"),
    BumpSpec(parameter="s0", size=0.01, absolute=False),
    AlphaRFSV(v0=0.2, xi=0.1, alpha=1.0, rho=-0.3, kernel=K14),
    MixedAlphaRFSV(v0=0.2, xi_h=0.1, xi_hp=0.2, alpha=1.0, rho=-0.3, kernel_h=K14, kernel_hp=KernelSpec(H=0.7)),
    RoughSteinStein(v0=0.2, kappa=1.0, theta=0.3, nu=0.1, rho=-0.3, kernel=K30),
    AlphaSV(v0=0.04, xi=0.5, alpha=1.0, rho=-0.3),
    SteinStein(v0=0.2, kappa=1.0, theta=0.3, nu=0.1, rho=-0.3),
    BlackScholes(sigma=0.2),
]
FLOAT_FIELDS = [(spec, f.name) for spec in SPECS for f in dataclasses.fields(spec) if f.type in ("float", float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("spec,name", FLOAT_FIELDS, ids=[f"{type(s).__name__}.{n}" for s, n in FLOAT_FIELDS])
def test_non_finite_spec_fields_are_rejected(spec, name, value):
    # nan <= 0.0 is False: every check must also turn away nan and +-inf, naming the field
    with pytest.raises(ValueError, match=rf"\b{name} must"):
        dataclasses.replace(spec, **{name: value})


def test_arfsv_xi_zero_is_constant():
    m = AlphaRFSV(v0=0.2, xi=0.0, alpha=1.0, rho=-0.3, kernel=K14)
    g = TimeGrid(T=1.0, n=16)
    v, _ = vol_path(m, g, gen_increments(g, m.rho, seed=0, n_paths=5))
    assert np.all(v == 0.2)


def test_arfsv_single_step_factor_value():
    # pick dZ_0 so that Y_1 = 0.5; the factor then evaluates in closed form
    m = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=0.0, kernel=K14)
    g = TimeGrid(T=1.0, n=1)
    dz = np.array([[0.5 / kernel_eval(K14, 1.0, 0.0)]])
    inc = DriverIncrements(dW=dz, dWt=dz, dZ=dz, rho=0.0)
    y, _ = models.volterra_path(K14, g, inc)  # the Y that AlphaRFSV.path turns into V
    assert y[0, 1] == pytest.approx(0.5, rel=1e-14)
    v, _ = vol_path(m, g, inc)
    r1 = kernel_variance(K14, 1.0)
    want = 0.62 * math.exp(0.21 * 0.5 - 0.5 * 0.21**2 * r1)
    assert v[0, 1] == pytest.approx(want, rel=1e-13)
    assert v[0, 1] == pytest.approx(0.6741, abs=4e-4)


def test_arfsv_alpha_relation_exact():
    g = TimeGrid(T=1.0, n=32)
    inc = gen_increments(g, rho=-0.3, seed=4, n_paths=3)
    kw = dict(v0=0.62, xi=0.21, rho=-0.3, kernel=K14)
    v1, _ = vol_path(AlphaRFSV(alpha=1.0, **kw), g, inc)
    v0, _ = vol_path(AlphaRFSV(alpha=0.0, **kw), g, inc)
    want = v0 * np.exp(-0.5 * 0.21**2 * kernel_variance(K14, g.times))
    assert np.allclose(v1, want, rtol=1e-14, atol=0.0)


def test_rss_nu_zero_tracks_ode():
    m = RoughSteinStein(v0=0.5, kappa=2.0, theta=0.3, nu=0.0, rho=0.0, kernel=K30)
    g = TimeGrid(T=1.0, n=512)
    v, _ = vol_path(m, g, gen_increments(g, 0.0, seed=0))
    ode = 0.5 * np.exp(-2.0 * g.times) + 0.3 * (1.0 - np.exp(-2.0 * g.times))
    assert np.max(np.abs(v[0] - ode)) < 2e-3  # explicit Euler, O(dt)
    # and the gap shrinks with the step
    g2 = TimeGrid(T=1.0, n=2048)
    v2, _ = vol_path(m, g2, gen_increments(g2, 0.0, seed=0))
    ode2 = 0.5 * np.exp(-2.0 * g2.times) + 0.3 * (1.0 - np.exp(-2.0 * g2.times))
    assert np.max(np.abs(v2[0] - ode2)) < 0.3 * np.max(np.abs(v[0] - ode))


def test_alphasv_closed_form():
    m = AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5)
    g = TimeGrid(T=2.0, n=16)
    inc = gen_increments(g, m.rho, seed=8, n_paths=2)
    v, aux = vol_path(m, g, inc)
    assert aux == {}  # the weights read V alone
    z = np.concatenate([np.zeros((2, 1)), np.cumsum(inc.dZ, axis=-1)], axis=-1)
    want = 0.04 * np.exp(0.3 * z - 0.5 * 0.09 * g.times)
    assert np.allclose(v, want, rtol=1e-14)


def test_price_path_zero_vol_is_forward():
    g = TimeGrid(T=2.0, n=8)
    mkt = MarketSpec(s0=100.0, r=0.03)
    dw = gen_increments(g, 0.0, seed=1, n_paths=3).dW
    st = price_path(mkt, BlackScholes(sigma=0.2), g, np.zeros((3, 9)), dw)
    assert np.allclose(st, 100.0 * math.exp(0.03 * 2.0), rtol=1e-14)


def test_price_path_one_step_cancellation():
    # r = 0, sigma = 0.2, dW = 0.1, dt = 1: the exponent cancels exactly
    g = TimeGrid(T=1.0, n=1)
    v = np.array([0.2, 0.2])
    st = price_path(MKT, BlackScholes(sigma=0.2), g, v, np.array([0.1]))
    assert st == pytest.approx(100.0, rel=1e-15)


@pytest.mark.parametrize(
    "model",
    [AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.3, kernel=K14), AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5)],
    ids=["sigma=V", "sigma=sqrt(V)"],
)
def test_price_path_matches_stepwise_log_euler(model):
    # S_T from the summed exponent equals the step-by-step product
    g = TimeGrid(T=1.0, n=16)
    mkt = MarketSpec(s0=100.0, r=0.03)
    inc = gen_increments(g, model.rho, seed=4, n_paths=5)
    v, _ = vol_path(model, g, inc)
    s = np.full(5, 100.0)
    for i in range(g.n):
        sig = np.sqrt(v[:, i]) if isinstance(model, AlphaSV) else v[:, i]
        s = s * np.exp((0.03 - 0.5 * sig * sig) * g.dt + sig * inc.dW[:, i])
    assert np.allclose(price_path(mkt, model, g, v, inc.dW), s, rtol=1e-13, atol=0.0)


def test_terminal_log_price_moments():
    g = TimeGrid(T=1.0, n=8)
    mkt = MarketSpec(s0=100.0, r=0.02)
    n_paths = 100_000
    inc = gen_increments(g, 0.0, seed=13, n_paths=n_paths)
    v = np.full((n_paths, 9), 0.2)
    x = np.log(price_path(mkt, BlackScholes(sigma=0.2), g, v, inc.dW))
    mean_want = math.log(100.0) + (0.02 - 0.02) * 1.0
    var_want = 0.04
    assert abs(x.mean() - mean_want) < 3 * math.sqrt(var_want / n_paths)
    assert abs(x.var() - var_want) < 3 * math.sqrt(2.0 / n_paths) * var_want


def test_mixed_collapses_to_plain():
    g = TimeGrid(T=1.0, n=32)
    inc = gen_increments(g, -0.3, seed=2, n_paths=4)
    mixed = MixedAlphaRFSV(
        v0=0.62, xi_h=0.21, xi_hp=0.21, alpha=1.0, rho=-0.3, kernel_h=K14, kernel_hp=K14
    )
    plain = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.3, kernel=K14)
    vm, _ = vol_path(mixed, g, inc)
    vp, _ = vol_path(plain, g, inc)
    assert np.allclose(vm, vp, rtol=1e-15, atol=0.0)


def test_stein_stein_equals_rough_at_h_half():
    g = TimeGrid(T=1.0, n=64)
    inc = gen_increments(g, -0.5, seed=6, n_paths=4)
    ss = SteinStein(v0=0.25, kappa=1.3, theta=0.35, nu=0.2, rho=-0.5)
    rss = RoughSteinStein(v0=0.25, kappa=1.3, theta=0.35, nu=0.2, rho=-0.5, kernel=KBM)
    vs, _ = vol_path(ss, g, inc)
    vr, _ = vol_path(rss, g, inc)
    assert np.allclose(vs, vr, rtol=1e-13, atol=1e-15)


def _bundle_for(model, grid, seed=0, rho=None, **kw):
    if rho is None:
        rho = getattr(model, "rho", 0.0)
    inc = gen_increments(grid, rho, seed=seed)
    return make_bundle(model, MKT, grid, _single(inc), **kw)


ALL_MODELS = [
    AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=K14),
    MixedAlphaRFSV(
        v0=0.4, xi_h=0.2, xi_hp=0.3, alpha=0.7, rho=-0.5,
        kernel_h=KernelSpec(H=0.2, eps=1e-4), kernel_hp=KernelSpec(H=0.7, eps=0.0),
    ),
    RoughSteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5, kernel=K30),
    AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5),
    SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5),
    BlackScholes(sigma=0.2),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_dv_zero_pattern(model):
    g = TimeGrid(T=1.0, n=8)
    b = _bundle_for(model, g)
    d = malliavin_dv(model, g, b)
    jj, ii = np.indices(d.shape)
    assert np.all(d[jj >= ii] == 0.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_rho_zero_kills_dv_and_ddv(model):
    import dataclasses

    if isinstance(model, BlackScholes):
        m0 = model
    else:
        m0 = dataclasses.replace(model, rho=0.0)
    g = TimeGrid(T=1.0, n=8)
    b = _bundle_for(m0, g)
    assert np.all(malliavin_dv(m0, g, b) == 0.0)
    assert np.all(malliavin_ddv(m0, g, b, 1, 3) == 0.0)
    _, g1, g2 = m0.profiles(g, b)
    assert np.all(g1 == 0.0)
    assert np.all(g2 == 0.0)


def test_dv_alpharfsv_entry_value():
    # D_{t_j} V_{t_i} = rho xi V_i K(t_i, t_j); with V_1 pinned to 0.62 the
    # (0, 1) entry is -0.05 * 0.21 * 0.62 * sqrt(0.28)
    m = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=0.0))
    g = TimeGrid(T=1.0, n=1)
    z = np.zeros(1)
    b = PathBundle(
        inc=DriverIncrements(dW=z, dWt=z, dZ=z, rho=-0.05),
        V=np.array([0.62, 0.62]), ST=np.array(100.0), aux={},
    )
    d = malliavin_dv(m, g, b)
    k = kernel_eval(m.kernel, 1.0, 0.0)
    assert d[0, 1] == pytest.approx(-0.05 * 0.21 * 0.62 * k, rel=1e-15)
    assert d[0, 1] == pytest.approx(-0.003445, abs=5e-7)
    assert d[1, 0] == 0.0 and d[0, 0] == 0.0 and d[1, 1] == 0.0


def test_dv_rss_kappa_zero_is_kernel_row():
    m = RoughSteinStein(v0=0.3, kappa=0.0, theta=0.25, nu=0.4, rho=-0.6, kernel=K30)
    g = TimeGrid(T=1.0, n=8)
    d = malliavin_dv(m, g, _bundle_for(m, g))
    t = g.times
    for j in range(9):
        for i in range(j + 1, 9):
            assert d[j, i] == pytest.approx(-0.6 * 0.4 * kernel_eval(K30, t[i], t[j]), rel=1e-13)


def test_dv_rss_matches_quadrature():
    # D_t V_s = rho nu [K(s,t) - kappa int_t^s K(u,t) e^{-kappa(s-u)} du]
    m = RoughSteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.6, kernel=K30)
    g = TimeGrid(T=1.0, n=256)
    d = malliavin_dv(m, g, _bundle_for(m, g))
    t = g.times
    for j, i in [(0, 256), (64, 192), (100, 101), (0, 1)]:
        integ, _ = quad(
            lambda u, tj=t[j], ti=t[i]: kernel_eval(K30, u, tj) * math.exp(-1.5 * (ti - u)),
            t[j], t[i], limit=200,
        )
        want = -0.6 * 0.4 * (kernel_eval(K30, t[i], t[j]) - 1.5 * integ)
        assert d[j, i] == pytest.approx(want, rel=2e-3)


def test_dv_rss_rough_needs_eps():
    m = RoughSteinStein(v0=0.3, kappa=1.0, theta=0.25, nu=0.4, rho=-0.6,
                        kernel=KernelSpec(H=0.3, eps=0.0))
    g = TimeGrid(T=1.0, n=8)
    inc = _single(gen_increments(g, m.rho, seed=0))
    b = make_bundle(m, MKT, g, inc)  # the path and the price need no D V
    with pytest.raises(UnsupportedError, match="eps > 0"):
        weight_components(m, g, b)
    opt = OptionSpec(strike=100.0, maturity=1.0)
    assert np.isfinite(estimate("price", m, MKT, opt, g, 300, seed=0).value)
    with pytest.raises(UnsupportedError, match="eps > 0"):
        estimate("delta", m, MKT, opt, g, 300, seed=0)


def test_ddv_stein_stein_zero():
    g = TimeGrid(T=1.0, n=8)
    for m in ALL_MODELS[2], ALL_MODELS[4]:  # rough and plain Stein-Stein
        b = _bundle_for(m, g)
        assert np.all(malliavin_ddv(m, g, b, 2, 5) == 0.0)


def test_ddv_arfsv_unit_factors():
    # constant kernel (H = 1/2), rho = 0.5, xi = 2: entry is exactly V_r
    m = AlphaRFSV(v0=0.62, xi=2.0, alpha=0.0, rho=0.5, kernel=KBM)
    g = TimeGrid(T=1.0, n=6)
    b = _bundle_for(m, g)
    out = malliavin_ddv(m, g, b, 1, 3)
    assert np.all(out[: 4] == 0.0)
    assert np.allclose(out[4:], b.V[4:], rtol=1e-15)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_ddv_symmetric(model):
    g = TimeGrid(T=1.0, n=8)
    b = _bundle_for(model, g)
    for s, t in [(0, 3), (2, 5), (4, 4)]:
        a = malliavin_ddv(model, g, b, s, t)
        c = malliavin_ddv(model, g, b, t, s)
        assert np.allclose(a, c, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_idv_and_iddv_match_grid_sums(model):
    # the profiles are the chain rule applied to IDV = dt sum_j D[j] and
    # IDDV = dt^2 sum_{s,t} DD[s, t] over the brute-force grids
    g = TimeGrid(T=1.0, n=6)
    b = _bundle_for(model, g)
    v = b.V[:-1]
    idv = (g.dt * malliavin_dv(model, g, b).sum(axis=0))[:-1]
    iddv = (g.dt * g.dt * malliavin_ddv_tensor(model, g, b).sum(axis=(0, 1)))[:-1]
    sig, g1, g2 = model.profiles(g, b)
    assert np.array_equal(sig, model.sigma_of(v))
    assert np.allclose(g1, sigma_prime(model, v) * idv, rtol=1e-12, atol=1e-16)
    want_g2 = sigma_second(model, v) * idv * idv + sigma_prime(model, v) * iddv
    assert np.allclose(g2, want_g2, rtol=1e-11, atol=1e-16)


def test_dtheta_v0():
    m = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.3, kernel=K14)
    g = TimeGrid(T=1.0, n=16)
    b = _bundle_for(m, g)
    assert np.allclose(m.dtheta(g, b, "v0")[0], b.V / 0.62, rtol=1e-15)
    m0 = AlphaRFSV(v0=0.62, xi=0.0, alpha=1.0, rho=-0.3, kernel=K14)
    b0 = _bundle_for(m0, g)
    assert np.all(m0.dtheta(g, b0, "v0")[0] == 1.0)
    bs = BlackScholes(sigma=0.2)
    bbs = _bundle_for(bs, g, rho=0.0)
    assert np.all(bs.dtheta(g, bbs, "v0")[0] == 1.0)


def test_dtheta_h_xi_zero_and_unsupported():
    g = TimeGrid(T=1.0, n=16)
    m0 = AlphaRFSV(v0=0.62, xi=0.0, alpha=1.0, rho=-0.3, kernel=K14)
    b0 = _bundle_for(m0, g)
    assert np.all(m0.dtheta(g, b0, "H")[0] == 0.0)
    with pytest.raises(UnsupportedError):
        BlackScholes(sigma=0.2).dtheta(g, _bundle_for(BlackScholes(sigma=0.2), g, rho=0.0), "H")
    rss = ALL_MODELS[2]
    with pytest.raises(UnsupportedError):
        rss.dtheta(g, _bundle_for(rss, g), "v0")


def test_dtheta_h_matches_finite_difference():
    import dataclasses

    m = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.3, kernel=K14)
    g = TimeGrid(T=1.0, n=32)
    inc = _single(gen_increments(g, m.rho, seed=9))
    b = make_bundle(m, MKT, g, inc)
    got = m.dtheta(g, b, "H")[0]
    h = 1e-5
    vps = []
    for dh in (h, -h):
        mb = dataclasses.replace(m, kernel=KernelSpec(H=0.14 + dh, eps=1e-6))
        vps.append(vol_path(mb, g, inc)[0])
    fd = (vps[0] - vps[1]) / (2 * h)
    assert np.allclose(got[1:], fd[1:], rtol=1e-3, atol=1e-9)


@pytest.mark.parametrize("model", ALL_MODELS[1:], ids=lambda m: type(m).__name__)
def test_dtheta_h_only_for_alpharfsv(model):
    g = TimeGrid(T=1.0, n=8)
    with pytest.raises(UnsupportedError):
        model.dtheta(g, _bundle_for(model, g), "H")


@pytest.mark.parametrize("kernel", [K14, KBM], ids=["rough", "h_half_eps_zero"])
def test_bundle_builds_each_kernel_matrix_once(monkeypatch, kernel):
    from volterra_greeks import kernel as kernel_mod
    from volterra_greeks import paths
    from volterra_greeks.paths import volterra_dh_path, volterra_path

    grid = TimeGrid(T=1.0, n=8)
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=kernel)
    inc = gen_increments(grid, model.rho, seed=13, n_paths=6)
    # the reference values, before any builder is counted
    want_v = models._exp_factor(model.v0, model.xi, model.alpha, kernel, grid, volterra_path(kernel, grid, inc)[0])
    want_dydh = volterra_dh_path(kernel, grid, inc)[0]
    want_kh = grid.dt * kernel_mod.kernel_matrix(kernel, grid.times).sum(axis=1)
    want_khdh = grid.dt * kernel_mod.kernel_dh_matrix(kernel, grid.times).sum(axis=1)

    builds = {"kernel_matrix": 0, "kernel_dh_matrix": 0}

    def counting(name):
        fn = getattr(kernel_mod, name)

        def wrapped(*args):
            builds[name] += 1
            return fn(*args)

        return wrapped

    for name in builds:
        monkeypatch.setattr(paths, name, counting(name))
    k = 0 if kernel == KBM else 1  # the running sum of H = 1/2, eps = 0 builds no matrix
    b = make_bundle(model, MKT, grid, inc)
    assert builds == {"kernel_matrix": k, "kernel_dh_matrix": 0}
    # the path and the row integrals share one matrix and keep their values bit for bit
    assert np.array_equal(b.V, want_v)
    assert np.array_equal(b.aux["kappa_hat"], want_kh)
    dydh, kappa_hat_dh = volterra_dh_path(kernel, grid, inc)  # as dtheta(H) does
    assert builds == {"kernel_matrix": k, "kernel_dh_matrix": 1}
    assert np.array_equal(dydh, want_dydh)
    assert np.array_equal(kappa_hat_dh, want_khdh)
    with paths.run_threads():  # dtheta(H) on several tiles of one call: one dK/dH build
        model.dtheta(grid, b, "H")
        model.dtheta(grid, b, "H")
    assert builds == {"kernel_matrix": k, "kernel_dh_matrix": 2}

    builds.update(kernel_matrix=0)
    mixed = MixedAlphaRFSV(v0=0.62, xi_h=0.21, xi_hp=0.3, alpha=1.0, rho=-0.5, kernel_h=kernel, kernel_hp=K30)
    make_bundle(mixed, MKT, grid, inc)
    assert builds["kernel_matrix"] == k + 1
    with pytest.raises(ValueError):  # increments of another grid
        model.path(TimeGrid(T=1.0, n=9), inc)
