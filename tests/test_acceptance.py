"""Acceptance gate: one test per release criterion, run with -v for a
one-line pass/fail verdict per criterion.  Every tolerance below is the
contract tolerance, not a tuned one; seeds are fixed so the suite is
reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from brute_force import compute_iintDsG_generic, compute_intG_generic, malliavin_dv
from volterra_greeks.greeks import OptionSpec, converge, estimate, estimate_many
from volterra_greeks.kernel import KernelSpec, kernel_eval, kernel_kappa, kernel_variance
from volterra_greeks.models import (
    AlphaRFSV,
    MarketSpec,
    MixedAlphaRFSV,
    RoughSteinStein,
    SteinStein,
    make_bundle,
    vol_path,
)
from volterra_greeks.oracles import bs_price_greeks, fd_greek
from volterra_greeks.paths import TimeGrid, gen_increments
from volterra_greeks.weights import weight_components

OPT = OptionSpec(strike=100.0, maturity=1.0)
G64 = TimeGrid(T=1.0, n=64)

BS_MODEL = AlphaRFSV(v0=0.2, xi=0.0, alpha=1.0, rho=0.0, kernel=KernelSpec(H=0.14, eps=1e-6))
BS_MKT = MarketSpec(s0=100.0, r=0.0)

FIG_MODEL = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6))
FIG_MKT = MarketSpec(s0=100.0, r=0.05)
G256 = TimeGrid(T=1.0, n=256)


def test_criterion_1_black_scholes_degenerate_consistency():
    # xi = 0, V0 = 0.2, S0 = K = 100, r = 0, T = 1, n = 64, 1e5 paths:
    # delta, vega, gamma and rho within 3 SE of the closed forms, in
    # under a minute
    t0 = time.perf_counter()
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2)
    ests = estimate_many(
        ["delta", "vega", "gamma", "rho"],
        BS_MODEL, BS_MKT, OPT, G64, 100_000, seed=2025,
    )
    targets = {"delta": norm.cdf(0.1), "vega": ref.vega, "gamma": ref.gamma, "rho": ref.rho}
    report = []
    for est in ests:
        z = abs(est.value - targets[est.kind]) / est.stderr
        report.append(f"{est.kind} z={z:.2f}")
        assert z < 3.0, (est.kind, est.value, targets[est.kind], est.stderr)
    assert abs(targets["delta"] - 0.5398) < 5e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 1 PASS: {', '.join(report)} in {elapsed:.1f}s")


def test_criterion_2_convergence_trace_and_fd_agreement():
    # H = 0.14, alpha = 1, V0 = 0.62, xi = 0.21, rho = -0.05, eps = 1e-6,
    # r = 0.05, n = 256: the trace tightens below 0.02 half-width at 1e5
    # paths, and the estimate agrees with the FD-CRN delta within 3
    # combined SE.  Overlap with the published interval 0.0272 +- 0.0110
    # is reported but not gated.
    t0 = time.perf_counter()
    trace = converge(
        "delta", FIG_MODEL, FIG_MKT, OPT, G256, [1_000, 4_000, 16_000, 64_000, 100_000], seed=314
    )
    final = trace[-1]
    half = 0.5 * (final.ci_high - final.ci_low)
    assert half < 0.02, half
    fd = fd_greek("delta", FIG_MODEL, FIG_MKT, OPT, G256, 100_000, seed=314)
    z = abs(final.value - fd.value) / math.hypot(final.stderr, fd.stderr)
    assert z < 3.0, (final.value, fd.value)
    lo, hi = 0.0272 - 0.0110, 0.0272 + 0.0110
    overlap = final.ci_low <= hi and lo <= final.ci_high
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(
        f"criterion 2 PASS: half-width {half:.4f}, malliavin {final.value:.4f} vs "
        f"fd {fd.value:.4f} (z={z:.2f}) in {elapsed:.1f}s; "
        f"published-interval overlap: {overlap} (reported, not gated)"
    )


def test_criterion_3_closed_form_generic_equivalence():
    # 100 random parameter draws on shared paths, relative 1e-8: the
    # profile quadrature of weight_components against the brute-force
    # left-point sums over the full Malliavin grids
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    grid = TimeGrid(T=1.0, n=32)
    worst = 0.0
    for _ in range(100):
        model = AlphaRFSV(
            v0=float(rng.uniform(0.05, 1.0)),
            xi=float(rng.uniform(1e-3, 0.5)),
            alpha=float(rng.uniform(0.0, 1.0)),
            rho=float(rng.uniform(-0.9, 0.9)),
            kernel=KernelSpec(H=float(rng.uniform(0.05, 0.45)), eps=1e-6),
        )
        from volterra_greeks.paths import DriverIncrements

        inc = gen_increments(grid, model.rho, seed=int(rng.integers(1 << 30)))
        one = DriverIncrements(dW=inc.dW[0], dWt=inc.dWt[0], dZ=inc.dZ[0], rho=inc.rho)
        b = make_bundle(model, BS_MKT, grid, one)
        d = malliavin_dv(model, grid, b)
        w = weight_components(model, grid, b)
        pairs = [
            (float(w.intG), compute_intG_generic(model, grid, b, d)),
            (float(w.iintDsG), compute_iintDsG_generic(model, grid, b, d)),
        ]
        for closed, generic in pairs:
            rel = abs(closed - generic) / max(abs(generic), 1e-300)
            worst = max(worst, rel)
            assert rel < 1e-8, (model, closed, generic)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 3 PASS: worst relative gap {worst:.2e} over 100 draws in {elapsed:.1f}s")


def test_criterion_4_degeneracy_suite():
    # rho = 0 kills iintDsG exactly; xi = 0 pins intG to V0 T (bitwise
    # when V0 and the grid are powers of two); H = 1/2, eps = 0 reduces
    # the kernel to Brownian motion bit-exactly; the mixed model and the
    # Stein-Stein pair collapse pathwise to machine precision.
    inc = gen_increments(G64, 0.0, seed=8, n_paths=16)
    m_rho0 = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=0.0, kernel=KernelSpec(H=0.14, eps=1e-6))
    w = weight_components(m_rho0, G64, make_bundle(m_rho0, BS_MKT, G64, inc))
    assert np.all(np.asarray(w.iintDsG) == 0.0)

    m_xi0 = AlphaRFSV(v0=0.25, xi=0.0, alpha=1.0, rho=-0.5, kernel=KernelSpec(H=0.14, eps=1e-6))
    inc2 = gen_increments(G64, -0.5, seed=8, n_paths=16)
    w2 = weight_components(m_xi0, G64, make_bundle(m_xi0, BS_MKT, G64, inc2))
    assert np.all(np.asarray(w2.intG) == 0.25)  # V0 T bitwise
    w3 = weight_components(BS_MODEL, G64, make_bundle(BS_MODEL, BS_MKT, G64, inc))
    assert np.allclose(np.asarray(w3.intG), 0.2, rtol=1e-15, atol=0.0)

    bm = KernelSpec(H=0.5, eps=0.0)
    t = np.array([0.25, 0.5, 1.0, 2.0])
    assert np.all(kernel_eval(bm, 1.0, np.array([0.0, 0.5])) == 1.0)
    assert np.array_equal(kernel_kappa(bm, t), t)
    assert np.array_equal(kernel_variance(bm, t), t)

    inc3 = gen_increments(G64, -0.3, seed=9, n_paths=8)
    mixed = MixedAlphaRFSV(
        v0=0.62, xi_h=0.21, xi_hp=0.21, alpha=1.0, rho=-0.3,
        kernel_h=KernelSpec(H=0.14, eps=1e-6), kernel_hp=KernelSpec(H=0.14, eps=1e-6),
    )
    plain = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.3, kernel=KernelSpec(H=0.14, eps=1e-6))
    vm, _ = vol_path(mixed, G64, inc3)
    vp, _ = vol_path(plain, G64, inc3)
    gap_mixed = np.max(np.abs(vm - vp) / vp)
    assert gap_mixed < 1e-14

    ss = SteinStein(v0=0.25, kappa=1.3, theta=0.35, nu=0.2, rho=-0.3)
    rss = RoughSteinStein(v0=0.25, kappa=1.3, theta=0.35, nu=0.2, rho=-0.3, kernel=bm)
    vs, _ = vol_path(ss, G64, inc3)
    vr, _ = vol_path(rss, G64, inc3)
    gap_ss = np.max(np.abs(vs - vr))
    assert gap_ss < 1e-13
    print(f"criterion 4 PASS: mixed collapse {gap_mixed:.1e}, Stein-Stein pair {gap_ss:.1e}")


def test_criterion_5_ci_half_width_scaling():
    # half-width ratio between N and 4N inside [1.6, 2.4] on both the
    # degenerate and the rough configuration
    ratios = {}
    for name, model, mkt in (("bs", BS_MODEL, BS_MKT), ("rough", FIG_MODEL, FIG_MKT)):
        tr = converge("delta", model, mkt, OPT, G64, [25_000, 100_000], seed=555)
        ratios[name] = (tr[0].ci_high - tr[0].ci_low) / (tr[1].ci_high - tr[1].ci_low)
        assert 1.6 <= ratios[name] <= 2.4, (name, ratios[name])
    print(f"criterion 5 PASS: ratios bs {ratios['bs']:.2f}, rough {ratios['rough']:.2f}")


def test_criterion_6_digital_delta():
    # the weight needs no payoff smoothing: digital delta within 3 SE of
    # the closed form at 1e5 paths
    dig = OptionSpec(100.0, 1.0, "digital_call")
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2, "digital_call").delta
    est = estimate("delta", BS_MODEL, BS_MKT, dig, G64, 100_000, seed=606)
    z = abs(est.value - ref) / est.stderr
    assert z < 3.0, (est.value, ref)
    print(f"criterion 6 PASS: digital delta z={z:.2f}")


def test_criterion_7_h_sensitivity_cross_check():
    # Malliavin H-sensitivity vs bump-and-reprice in H on identical dZ,
    # 3 combined SE at the Figure-1 parameter set and 1e5 paths
    est = estimate("hsens", FIG_MODEL, FIG_MKT, OPT, G256, 100_000, seed=707)
    fd = fd_greek("hsens", FIG_MODEL, FIG_MKT, OPT, G256, 100_000, seed=707)
    z = abs(est.value - fd.value) / math.hypot(est.stderr, fd.stderr)
    assert z < 3.0, (est.value, fd.value)
    print(f"criterion 7 PASS: hsens malliavin {est.value:.3f} vs fd {fd.value:.3f} (z={z:.2f})")
