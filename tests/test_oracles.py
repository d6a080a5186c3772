import math

import numpy as np
import pytest

from volterra_greeks.greeks import OptionSpec, estimate, estimate_many
from volterra_greeks.kernel import KernelSpec
from volterra_greeks.models import (
    AlphaRFSV,
    BlackScholes,
    MarketSpec,
    SteinStein,
    UnsupportedError,
)
from volterra_greeks.oracles import BumpSpec, bs_price_greeks, default_bump, fd_greek
from volterra_greeks.paths import TimeGrid

OPT = OptionSpec(strike=100.0, maturity=1.0)
GRID = TimeGrid(T=1.0, n=64)


def test_bs_examples():
    from scipy.stats import norm

    g = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2)
    assert g.delta == pytest.approx(norm.cdf(0.1), rel=1e-12)
    assert g.delta == pytest.approx(0.5398, abs=5e-5)
    assert g.price == pytest.approx(7.9656, abs=5e-5)
    assert bs_price_greeks(100.0, 1e-8, 1.0, 0.0, 0.2).delta == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2, "lookback")


def test_normal_cdf_and_pdf_match_scipy():
    from scipy.special import ndtr
    from scipy.stats import norm

    from volterra_greeks.oracles import _norm_cdf, _norm_pdf

    x = np.linspace(-37.0, 8.0, 45_001)
    cdf = np.array([_norm_cdf(v) for v in x])
    pdf = np.array([_norm_pdf(v) for v in x])
    np.testing.assert_allclose(cdf, ndtr(x), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(pdf, norm.pdf(x), rtol=1e-15, atol=0.0)


def _scipy_bs(s0, strike, maturity, r, sigma, payout):
    """Textbook closed forms on scipy's normal, each tail probability taken directly."""
    from scipy.stats import norm

    st = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * maturity) / st
    d2 = d1 - st
    disc = math.exp(-r * maturity)
    vega = s0 * norm.pdf(d1) * math.sqrt(maturity)
    if payout == "call":
        return (s0 * norm.cdf(d1) - strike * disc * norm.cdf(d2), norm.cdf(d1), norm.pdf(d1) / (s0 * st), vega,
                strike * maturity * disc * norm.cdf(d2))
    if payout == "put":
        return (strike * disc * norm.cdf(-d2) - s0 * norm.cdf(-d1), -norm.cdf(-d1), norm.pdf(d1) / (s0 * st), vega,
                -strike * maturity * disc * norm.cdf(-d2))
    pd2 = norm.pdf(d2)
    return (disc * norm.cdf(d2), disc * pd2 / (s0 * st), -disc * pd2 * d1 / (s0 * s0 * sigma * sigma * maturity),
            -disc * pd2 * d1 / sigma, disc * (-maturity * norm.cdf(d2) + pd2 * math.sqrt(maturity) / sigma))


@pytest.mark.parametrize("strike,payout", [(400.0, "call"), (25.0, "put"), (1000.0, "digital_call")])
def test_deep_out_of_the_money_closed_forms_match_scipy(strike, payout):
    # tail probabilities down to 1e-30, where 0.5 (1 + erf) has no correct digit left
    g = bs_price_greeks(100.0, strike, 1.0, 0.05, 0.2, payout)
    got = (g.price, g.delta, g.gamma, g.vega, g.rho)
    np.testing.assert_allclose(got, _scipy_bs(100.0, strike, 1.0, 0.05, 0.2, payout), rtol=1e-12, atol=0.0)
    assert 0.0 < abs(g.price) < 1e-10


def test_put_call_parity():
    for r in (0.0, 0.05):
        c = bs_price_greeks(100.0, 90.0, 2.0, r, 0.3, "call")
        p = bs_price_greeks(100.0, 90.0, 2.0, r, 0.3, "put")
        assert c.price - p.price == pytest.approx(100.0 - 90.0 * math.exp(-r * 2.0), abs=1e-12)
        assert c.delta - p.delta == pytest.approx(1.0, abs=1e-12)
        assert c.gamma == pytest.approx(p.gamma, rel=1e-12)
        assert c.vega == pytest.approx(p.vega, rel=1e-12)


@pytest.mark.parametrize("payout", ["call", "put", "digital_call"])
def test_bs_greeks_differentiate_bs_price(payout):
    # every published Greek must be the actual derivative of the price
    s0, k, t, r, sig = 105.0, 100.0, 1.5, 0.04, 0.25
    base = bs_price_greeks(s0, k, t, r, sig, payout)

    def price(s0=s0, r=r, sig=sig):
        return bs_price_greeks(s0, k, t, r, sig, payout).price

    hs = 1e-4 * s0
    assert base.delta == pytest.approx((price(s0=s0 + hs) - price(s0=s0 - hs)) / (2 * hs), rel=1e-6)
    assert base.gamma == pytest.approx(
        (price(s0=s0 + hs) - 2 * price() + price(s0=s0 - hs)) / hs**2, rel=1e-5
    )
    hr = 1e-6
    assert base.rho == pytest.approx((price(r=r + hr) - price(r=r - hr)) / (2 * hr), rel=1e-6)
    hv = 1e-6
    assert base.vega == pytest.approx((price(sig=sig + hv) - price(sig=sig - hv)) / (2 * hv), rel=1e-6)


def test_default_bumps():
    assert default_bump("s0") == BumpSpec("s0", 1e-2, False)
    assert default_bump("H") == BumpSpec("H", 1e-3, True)
    assert default_bump("r") == BumpSpec("r", 1e-3, True)
    with pytest.raises(ValueError):
        BumpSpec("s0", 0.0, False)
    with pytest.raises(ValueError):
        BumpSpec("s0", -1e-3, True)
    with pytest.raises(ValueError):
        BumpSpec("strike", 1e-2, False)


def test_fd_validation():
    bs = BlackScholes(sigma=0.2)
    mkt = MarketSpec(s0=100.0, r=0.0)
    with pytest.raises(ValueError):
        fd_greek("price", bs, mkt, OPT, GRID, 100, seed=0)
    with pytest.raises(ValueError):
        fd_greek("delta", bs, mkt, OptionSpec(100.0, 2.0), GRID, 100, seed=0)
    with pytest.raises(ValueError):
        fd_greek("delta", bs, mkt, OPT, GRID, 1, seed=0)
    with pytest.raises(ValueError, match="confidence"):
        fd_greek("delta", bs, mkt, OPT, GRID, 100, seed=0, confidence=1.5)
    with pytest.raises(ValueError):
        fd_greek("delta", bs, mkt, OPT, GRID, 100, seed=0, bump=BumpSpec("r", 1e-3, True))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        fd_greek(["delta", "rho"], bs, mkt, OPT, GRID, 100, seed=-1)
    with pytest.raises(ValueError, match="at least one"):
        fd_greek([], bs, mkt, OPT, GRID, 100, seed=0)
    with pytest.raises(ValueError, match="kind must be one of"):
        fd_greek(["delta", "price"], bs, mkt, OPT, GRID, 100, seed=0)
    with pytest.raises(ValueError, match="got a bump for 'H'"):
        fd_greek(["delta", "gamma", "rho"], bs, mkt, OPT, GRID, 100, seed=0, bump=BumpSpec("H", 1e-3, True))
    with pytest.raises(ValueError, match="workers must be 1: the chunk pool was removed"):
        fd_greek("delta", bs, mkt, OPT, GRID, 100, seed=0, workers=2)


@pytest.mark.parametrize("kind", ["delta", "gamma", "vega", "rho"])
def test_fd_matches_bs_closed_form(kind):
    bs = BlackScholes(sigma=0.2)
    mkt = MarketSpec(s0=100.0, r=0.03)
    ref = getattr(bs_price_greeks(100.0, 100.0, 1.0, 0.03, 0.2), kind)
    est = fd_greek(kind, bs, mkt, OPT, GRID, 20_000, seed=71)
    # central differences carry an O(h^2) bias on top of the MC noise
    bias = {"delta": 2e-4, "gamma": 2e-4, "vega": 2e-3, "rho": 1e-3}[kind]
    assert abs(est.value - ref) < 3 * est.stderr + bias * max(1.0, abs(ref))


def test_fd_rho_forward_fallback_at_zero_rate():
    bs = BlackScholes(sigma=0.2)
    mkt = MarketSpec(s0=100.0, r=0.0)
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2).rho
    est = fd_greek("rho", bs, mkt, OPT, GRID, 20_000, seed=73)
    # forward difference: O(h) bias, h = 1e-3
    assert abs(est.value - ref) < 3 * est.stderr + 5e-3 * abs(ref)


def test_fd_digital_delta_wide_bump():
    bs = BlackScholes(sigma=0.2)
    mkt = MarketSpec(s0=100.0, r=0.0)
    opt = OptionSpec(100.0, 1.0, "digital_call")
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2, "digital_call").delta
    est = fd_greek("delta", bs, mkt, opt, GRID, 40_000, seed=79)
    assert abs(est.value - ref) < 3 * est.stderr + 2e-4


def test_fd_deterministic():
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6))
    mkt = MarketSpec(s0=100.0, r=0.05)
    a = fd_greek("hsens", model, mkt, OPT, GRID, 2_000, seed=89)
    b = fd_greek("hsens", model, mkt, OPT, GRID, 2_000, seed=89)
    assert a == b


def test_fd_h_needs_a_kernel():
    ss = SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5)
    with pytest.raises(UnsupportedError):
        fd_greek("hsens", ss, MarketSpec(s0=100.0, r=0.0), OPT, GRID, 100, seed=0)


def test_malliavin_agrees_with_fd_on_rough_model():
    # the real cross-check: two independent estimators of the same Greek
    model = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6))
    mkt = MarketSpec(s0=100.0, r=0.05)
    n_paths = 20_000
    kinds = ["delta", "gamma", "rho", "vega", "hsens"]
    mall = estimate_many(kinds, model, mkt, OPT, GRID, n_paths, seed=97)
    for est in mall:
        fd = fd_greek(est.kind, model, mkt, OPT, GRID, n_paths, seed=97)
        se = math.hypot(est.stderr, fd.stderr)
        assert abs(est.value - fd.value) < 3 * se, (est.kind, est.value, fd.value, se)


def test_fd_delta_agrees_for_stein_stein():
    # FD is the only vega-family oracle for models without closed forms,
    # but delta has a Malliavin weight everywhere; cross-check one
    ss = SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5)
    mkt = MarketSpec(s0=100.0, r=0.0)
    mall = estimate("delta", ss, mkt, OPT, GRID, 20_000, seed=103)
    fd = fd_greek("delta", ss, mkt, OPT, GRID, 20_000, seed=103)
    assert abs(mall.value - fd.value) < 3 * math.hypot(mall.stderr, fd.stderr)


def test_fd_relative_bump_of_a_negative_base():
    # Stein-Stein accepts any finite v0: a relative bump is size * |v0|, the same as the matching absolute bump
    ss = SteinStein(v0=-0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5)
    mkt = MarketSpec(s0=100.0, r=0.0)
    rel = fd_greek("vega", ss, mkt, OPT, GRID, 2000, seed=7, bump=BumpSpec("v0", 1e-2, False))
    assert rel == fd_greek("vega", ss, mkt, OPT, GRID, 2000, seed=7, bump=BumpSpec("v0", 1e-2 * 0.3, True))
    assert rel == fd_greek("vega", ss, mkt, OPT, GRID, 2000, seed=7)  # the default bump is the relative one
    with pytest.raises(ValueError, match="relative bump of v0 needs a nonzero base value"):
        fd_greek("vega", SteinStein(v0=0.0, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5), mkt, OPT, GRID, 2000, seed=7)


ROUGH = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6))
GRID16 = TimeGrid(T=1.0, n=16)
TWO_CHUNKS = 8192 + 300  # greeks._CHUNK (two 4096-path draws) + a partial draw


def _per_kind(kinds, model, mkt, n_paths, seed, bump=None, **kw):
    from volterra_greeks.oracles import _FD_PARAM

    return [
        fd_greek(k, model, mkt, OPT, GRID16, n_paths, seed,
                 bump=bump if bump is not None and bump.parameter == _FD_PARAM[k] else None, **kw)
        for k in kinds
    ]


@pytest.mark.parametrize(
    "kinds,r,bump",
    [
        (["delta", "gamma", "rho", "vega", "hsens"], 0.05, None),
        (["delta", "gamma"], 0.05, None),  # both read the s0 +- h setups
        (["rho", "gamma", "delta"], 0.0, None),  # forward rho shares the unbumped setup with gamma
        (["delta", "gamma", "vega"], 0.05, BumpSpec("s0", 5e-2, False)),  # bump applies to delta and gamma only
        (["vega", "delta"], 0.05, BumpSpec("v0", 0.02, True)),
    ],
)
@pytest.mark.parametrize("workers", [1])  # the one value the keyword still accepts; it goes with the keyword
def test_fd_sequence_equals_per_kind_calls(kinds, r, bump, workers):
    mkt = MarketSpec(s0=100.0, r=r)
    got = fd_greek(kinds, ROUGH, mkt, OPT, GRID16, TWO_CHUNKS, seed=5, bump=bump, workers=workers)
    assert isinstance(got, list) and [e.kind for e in got] == kinds
    assert got == _per_kind(kinds, ROUGH, mkt, TWO_CHUNKS, 5, bump=bump, workers=workers)


def test_fd_sequence_draws_once_and_prices_each_setup_once(monkeypatch):
    from volterra_greeks import oracles

    calls = {"gen_increments": 0, "vol_path": 0, "price_path": 0}

    def counting(name):
        fn = getattr(oracles, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(oracles, name, counting(name))
    mkt = MarketSpec(s0=100.0, r=0.05)
    fd_greek(["delta", "gamma", "rho", "vega"], ROUGH, mkt, OPT, TimeGrid(T=1.0, n=4), TWO_CHUNKS, seed=3)
    # three draws (4096, 4096 and 300 paths); per tile (8 of 1024 paths, then
    # one of 300): vol paths for the unbumped, v0 + h and v0 - h models; the
    # setups s0 +- h, s0, r +- h and v0 +- h priced once each
    assert calls == {"gen_increments": 3, "vol_path": 3 * 9, "price_path": 7 * 9}

