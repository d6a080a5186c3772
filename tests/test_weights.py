import math

import numpy as np
import pytest

from brute_force import (
    compute_iintDsG_generic,
    compute_intG_generic,
    malliavin_ddv,
    malliavin_dv,
    sigma_prime,
    sigma_second,
)
from volterra_greeks.greeks import OptionSpec, estimate_many
from volterra_greeks.kernel import KernelSpec
from volterra_greeks.models import (
    AlphaRFSV,
    AlphaSV,
    BlackScholes,
    MarketSpec,
    MixedAlphaRFSV,
    RoughSteinStein,
    SteinStein,
    UnsupportedError,
    make_bundle,
)
from volterra_greeks.paths import DriverIncrements, TimeGrid, gen_increments
from volterra_greeks.weights import (
    DegenerateWeightError,
    WeightComponents,
    assemble_delta_weight,
    assemble_theta_weight,
    assemble_vega_numerator,
    triple_ddg_integral,
    weight_components,
)

MKT = MarketSpec(s0=100.0, r=0.0)
K14 = KernelSpec(H=0.14, eps=1e-6)


def _single(inc, k=0):
    return DriverIncrements(dW=inc.dW[k], dWt=inc.dWt[k], dZ=inc.dZ[k], rho=inc.rho)


def _single_bundle(model, grid, seed=0, rho=None):
    if rho is None:
        rho = getattr(model, "rho", 0.0)
    inc = gen_increments(grid, rho, seed=seed)
    return make_bundle(model, MKT, grid, _single(inc))


def brute_intG(model, grid, bundle, d):
    """O(n^2) literal double sum of int_0^T G(t, T) dt for one path."""
    n = grid.n
    dt = grid.dt
    v, dw = bundle.V, bundle.inc.dW
    sig, sp = model.sigma_of(v), sigma_prime(model, v)
    total = 0.0
    for i in range(n):
        g = sig[i]
        for u in range(i, n):
            g += sp[u] * d[i, u] * dw[u]
            g -= sig[u] * sp[u] * d[i, u] * dt
        total += g * dt
    return total


def brute_iintDsG(model, grid, bundle, d):
    """O(n^3) literal sum of iint D_s G(t, T) ds dt for one path.

    D_s of the stochastic integral in G contributes both the at-s value
    sigma'(V_s) D_t V_s 1_{[t,T]}(s) and the differentiated integrand.
    """
    n = grid.n
    dt = grid.dt
    v, dw = bundle.V, bundle.inc.dW
    sig, sp, spp = model.sigma_of(v), sigma_prime(model, v), sigma_second(model, v)
    dd = {}
    for a in range(n + 1):
        for b in range(a, n + 1):
            dd[a, b] = malliavin_ddv(model, grid, bundle, a, b)
            dd[b, a] = dd[a, b]
    total = 0.0
    for i in range(n):  # t index
        for j in range(n):  # s index
            term = sp[i] * d[j, i]
            if j >= i:
                term += sp[j] * d[i, j]
            for u in range(i, n):
                du = dd[j, i][u]
                term += (spp[u] * d[j, u] * d[i, u] + sp[u] * du) * dw[u]
                term -= ((sp[u] ** 2 + spp[u] * sig[u]) * d[j, u] * d[i, u] + sig[u] * sp[u] * du) * dt
            total += term * dt * dt
    return total


BRUTE_MODELS = [
    AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=K14),
    MixedAlphaRFSV(
        v0=0.4, xi_h=0.2, xi_hp=0.3, alpha=0.7, rho=-0.5,
        kernel_h=KernelSpec(H=0.2, eps=1e-4), kernel_hp=KernelSpec(H=0.7, eps=0.0),
    ),
    RoughSteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5,
                    kernel=KernelSpec(H=0.3, eps=1e-3)),
    AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5),
    SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5),
]


@pytest.mark.parametrize("model", BRUTE_MODELS, ids=lambda m: type(m).__name__)
def test_components_match_brute_force_sums(model):
    grid = TimeGrid(T=1.0, n=12)
    for seed in (0, 1):
        b = _single_bundle(model, grid, seed=seed)
        d = malliavin_dv(model, grid, b)
        w = weight_components(model, grid, b)
        assert float(w.intG) == pytest.approx(brute_intG(model, grid, b, d), rel=1e-10)
        assert float(w.iintDsG) == pytest.approx(brute_iintDsG(model, grid, b, d), rel=1e-10)
        assert float(w.WT) == pytest.approx(b.inc.dW.sum(), rel=1e-15)


def test_generic_entrypoints_match_batch():
    model = BRUTE_MODELS[0]
    grid = TimeGrid(T=1.0, n=16)
    b = _single_bundle(model, grid, seed=3)
    d = malliavin_dv(model, grid, b)
    w = weight_components(model, grid, b)
    assert compute_intG_generic(model, grid, b, d) == pytest.approx(float(w.intG), rel=1e-12)
    assert compute_iintDsG_generic(model, grid, b, d) == pytest.approx(float(w.iintDsG), rel=1e-12)


@pytest.mark.parametrize("model", BRUTE_MODELS, ids=lambda m: type(m).__name__)
def test_rho_zero_exactness(model):
    import dataclasses

    m0 = dataclasses.replace(model, rho=0.0)
    grid = TimeGrid(T=1.0, n=16)
    inc = gen_increments(grid, 0.0, seed=5, n_paths=4)
    b = make_bundle(m0, MKT, grid, inc)
    w = weight_components(m0, grid, b)
    assert np.all(np.asarray(w.iintDsG) == 0.0)
    want = grid.dt * m0.sigma_of(b.V[:, :-1]).sum(axis=-1)
    assert np.array_equal(np.asarray(w.intG), want)


def test_xi_zero_intg_is_v0T_bitwise():
    # V0 = 0.25, T = 1, n = 64: every float in dt * sum V_i is a power of two
    model = AlphaRFSV(v0=0.25, xi=0.0, alpha=1.0, rho=-0.5, kernel=K14)
    grid = TimeGrid(T=1.0, n=64)
    inc = gen_increments(grid, model.rho, seed=7, n_paths=8)
    b = make_bundle(model, MKT, grid, inc)
    w = weight_components(model, grid, b)
    assert np.all(np.asarray(w.intG) == 0.25)
    assert np.all(np.asarray(w.iintDsG) == 0.0)


def test_intg_single_step_unrolled():
    # kappa_hat_0 = dt * (empty sum) = 0, so the single-cell intG is V0 dt
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=K14)
    grid = TimeGrid(T=0.5, n=1)
    b = _single_bundle(model, grid, seed=1)
    assert b.aux["kappa_hat"][0] == 0.0
    w = weight_components(model, grid, b)
    assert float(w.intG) == 0.62 * 0.5
    assert float(w.iintDsG) == 0.0


def test_intg_two_step_unrolled():
    from volterra_greeks.kernel import kernel_eval

    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=K14)
    grid = TimeGrid(T=1.0, n=2)
    b = _single_bundle(model, grid, seed=2)
    dt = grid.dt
    v0, v1 = b.V[0], b.V[1]
    k1 = dt * kernel_eval(K14, grid.times[1], 0.0)
    dw = b.inc.dW
    want = dt * (v0 + v1) + model.rho * model.xi * (
        v1 * k1 * dw[1] - dt * (v1 * v1 * k1)
    )
    assert float(weight_components(model, grid, b).intG) == pytest.approx(want, rel=1e-14)


def test_delta_weight_arithmetic():
    assert assemble_delta_weight(WeightComponents(intG=1.0, iintDsG=0.0, WT=0.3)) == 0.3
    assert assemble_delta_weight(WeightComponents(intG=2.0, iintDsG=4.0, WT=0.0)) == 1.0


def test_delta_weight_degenerate_scalar_raises():
    with pytest.raises(DegenerateWeightError):
        assemble_delta_weight(WeightComponents(intG=1e-13, iintDsG=0.0, WT=0.3))
    with pytest.raises(DegenerateWeightError):
        assemble_theta_weight(1.0, 0.5, WeightComponents(intG=-1e-13, iintDsG=0.0, WT=0.3))


def test_delta_weight_degenerate_array_nan():
    w = WeightComponents(
        intG=np.array([1.0, 1e-13, 2.0]),
        iintDsG=np.array([0.0, 0.0, 4.0]),
        WT=np.array([0.3, 0.3, 0.0]),
    )
    out = assemble_delta_weight(w)
    assert out[0] == 0.3 and out[2] == 1.0
    assert np.isnan(out[1])
    out2 = assemble_theta_weight(np.ones(3), np.zeros(3), w)
    assert np.isnan(out2[1]) and not np.isnan(out2[0])


def test_bs_delta_weight_reduction():
    # xi = 0 collapses the weight to the classical W_T / (V0 T)
    model = AlphaRFSV(v0=0.25, xi=0.0, alpha=1.0, rho=0.0, kernel=K14)
    grid = TimeGrid(T=1.0, n=64)
    inc = gen_increments(grid, 0.0, seed=11, n_paths=16)
    w = weight_components(model, grid, make_bundle(model, MKT, grid, inc))
    out = assemble_delta_weight(w)
    assert np.array_equal(out, np.asarray(w.WT) / 0.25)


def test_vega_numerator_reductions():
    grid = TimeGrid(T=1.0, n=64)
    m0 = AlphaRFSV(v0=0.25, xi=0.0, alpha=1.0, rho=-0.3, kernel=K14)
    inc = gen_increments(grid, m0.rho, seed=4, n_paths=8)
    b = make_bundle(m0, MKT, grid, inc, with_dh=True)
    w0 = weight_components(m0, grid, b)
    n_num, int_dn = assemble_vega_numerator(m0, grid, b, "v0", w0)
    wt = inc.dW.sum(axis=-1)
    assert np.array_equal(n_num, wt - 0.25)
    assert np.all(int_dn == 1.0)
    n_h, dn_h = assemble_vega_numerator(m0, grid, b, "H", w0)
    assert np.all(n_h == 0.0) and np.all(dn_h == 0.0)
    # rho = 0: every Malliavin correction to intDN vanishes
    mr = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=0.0, kernel=K14)
    incr = gen_increments(grid, 0.0, seed=4, n_paths=8)
    br = make_bundle(mr, MKT, grid, incr)
    _, int_dn_r = assemble_vega_numerator(mr, grid, br, "v0", weight_components(mr, grid, br))
    assert np.allclose(int_dn_r, grid.dt * (br.V[:, :-1] / 0.62).sum(axis=-1), rtol=1e-14)


def test_theta_weight_arithmetic():
    w = WeightComponents(intG=1.0, iintDsG=0.0, WT=0.7)
    assert assemble_theta_weight(0.0, 0.0, w) == 0.0
    assert assemble_theta_weight(2.0, 0.5, w) == 2.0 * 0.7 - 0.5


def test_bs_theta_weight_identity():
    # xi = 0, V0 = 0.25, T = 1: weight is ((W_T - V0 T) W_T - T) / (V0 T) exactly
    model = AlphaRFSV(v0=0.25, xi=0.0, alpha=1.0, rho=0.0, kernel=K14)
    grid = TimeGrid(T=1.0, n=64)
    inc = gen_increments(grid, 0.0, seed=12, n_paths=16)
    b = make_bundle(model, MKT, grid, inc)
    w = weight_components(model, grid, b)
    n_num, int_dn = assemble_vega_numerator(model, grid, b, "v0", w)
    got = assemble_theta_weight(n_num, int_dn, w)
    wt = inc.dW.sum(axis=-1)
    assert np.array_equal(got, ((wt - 0.25) * wt - 1.0) / 0.25)


def test_stein_stein_iintdsg_matches_analytic_double_integral():
    # sigma(x) = x kills every stochastic term, so iintDsG is the
    # deterministic A - B with
    #   A = rho nu (2 / kappa^2)(kappa T - 1 + e^{-kappa T})
    #   B = (rho nu / kappa)^2 (T - 2(1 - e^{-kT})/k + (1 - e^{-2kT})/(2k))
    # The left-point discretization converges at O(dt): observed relative
    # gaps 4.3e-3 at n = 256 and 2.15e-3 at n = 512.
    model = SteinStein(v0=0.3, kappa=1.3, theta=0.25, nu=0.4, rho=-0.6)
    k, T = model.kappa, 1.0
    rn = model.rho * model.nu
    a = rn * 2.0 / k**2 * (k * T - 1.0 + math.exp(-k * T))
    bb = (rn / k) ** 2 * (T - 2.0 * (1.0 - math.exp(-k * T)) / k + (1.0 - math.exp(-2 * k * T)) / (2 * k))
    want = a - bb
    gaps = []
    for n in (256, 512):
        grid = TimeGrid(T=T, n=n)
        inc = gen_increments(grid, model.rho, seed=6, n_paths=3)
        w = weight_components(model, grid, make_bundle(model, MKT, grid, inc))
        dg = np.asarray(w.iintDsG)
        assert np.all(dg == dg[0])  # path independent
        gaps.append(abs(float(dg[0]) - want) / abs(want))
    assert gaps[0] < 6e-3
    assert gaps[1] < 3e-3
    assert gaps[1] < 0.7 * gaps[0]


def test_triple_integral_support():
    grid = TimeGrid(T=1.0, n=16)
    arfsv = BRUTE_MODELS[0]
    b = _single_bundle(arfsv, grid)
    assert np.isfinite(triple_ddg_integral(arfsv, grid, b))
    import dataclasses

    m0 = dataclasses.replace(arfsv, rho=0.0)
    b0 = _single_bundle(m0, grid)
    assert float(triple_ddg_integral(m0, grid, b0)) == 0.0
    for m in (BlackScholes(sigma=0.2), BRUTE_MODELS[2], BRUTE_MODELS[4]):
        bm = _single_bundle(m, grid)
        assert np.all(triple_ddg_integral(m, grid, bm) == 0.0)
    for m in (BRUTE_MODELS[1], BRUTE_MODELS[3]):
        bm = _single_bundle(m, grid)
        with pytest.raises(UnsupportedError):
            triple_ddg_integral(m, grid, bm)


@pytest.mark.parametrize(
    "model",
    [
        AlphaRFSV(v0=0.2, xi=0.0, alpha=1.0, rho=0.0, kernel=K14),
        AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6)),
    ],
    ids=["bs-degenerate", "rough"],
)
def test_delta_weight_unbiased_on_linear_payoff(model):
    # d/dS0 of e^{-rT} E[S_T] = 1; the weighted estimator must hit it
    grid = TimeGrid(T=1.0, n=32)
    mkt = MarketSpec(s0=100.0, r=0.05)
    n_paths = 100_000
    inc = gen_increments(grid, getattr(model, "rho", 0.0), seed=17, n_paths=n_paths)
    b = make_bundle(model, mkt, grid, inc)
    w = weight_components(model, grid, b)
    pi = assemble_delta_weight(w)
    x = math.exp(-0.05) * b.ST * pi / 100.0
    x = x[~np.isnan(x)]
    assert x.size > n_paths * 0.9999
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 1.0) < 3 * se


def test_theta_numerator_reuses_the_weight_profiles(monkeypatch):
    # assemble_vega_numerator reads sigma and g1 from the weight components
    # instead of building the model profiles a second time
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.5, kernel=K14)
    grid = TimeGrid(T=1.0, n=16)
    calls = []
    profiles = AlphaRFSV.profiles

    def counting(self, grid, b):
        calls.append(1)
        return profiles(self, grid, b)

    monkeypatch.setattr(AlphaRFSV, "profiles", counting)
    estimate_many(["delta", "vega", "hsens"], model, MKT, OptionSpec(100.0, 1.0), grid, 200, seed=3)
    assert len(calls) == 1
