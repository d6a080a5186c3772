import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from volterra_greeks import greeks, weights
from volterra_greeks.greeks import (
    GREEK_KINDS,
    GreekEstimate,
    NumericalFailureError,
    OptionSpec,
    converge,
    estimate,
    estimate_many,
    payoff,
)
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
from volterra_greeks.oracles import bs_price_greeks
from volterra_greeks.paths import TimeGrid, gen_increments
from volterra_greeks.weights import weight_components

# degenerate constant-vol setting: the weights are exact, so the only
# error is Monte-Carlo noise
BS_MODEL = AlphaRFSV(v0=0.2, xi=0.0, alpha=1.0, rho=0.0, kernel=KernelSpec(H=0.14, eps=1e-6))
BS_MKT = MarketSpec(s0=100.0, r=0.0)
OPT = OptionSpec(strike=100.0, maturity=1.0)
GRID = TimeGrid(T=1.0, n=64)

FIG_MODEL = AlphaRFSV(v0=0.62, xi=0.21, alpha=1.0, rho=-0.05, kernel=KernelSpec(H=0.14, eps=1e-6))
FIG_MKT = MarketSpec(s0=100.0, r=0.05)


def _z(est: GreekEstimate, target: float) -> float:
    return abs(est.value - target) / est.stderr


def test_payoff_values():
    assert payoff(OptionSpec(100.0, 1.0, "call"), 110.0) == 10.0
    assert payoff(OptionSpec(100.0, 1.0, "put"), 110.0) == 0.0
    assert payoff(OptionSpec(100.0, 1.0, "put"), 90.0) == 10.0
    assert payoff(OptionSpec(100.0, 1.0, "digital_call"), 100.0) == 0.0
    assert payoff(OptionSpec(100.0, 1.0, "digital_call"), 100.0000001) == 1.0
    out = payoff(OptionSpec(100.0, 1.0, "call"), np.array([90.0, 150.0]))
    assert np.array_equal(out, [0.0, 50.0])


def test_option_validation():
    with pytest.raises(ValueError):
        OptionSpec(strike=0.0, maturity=1.0)
    with pytest.raises(ValueError):
        OptionSpec(strike=100.0, maturity=-1.0)
    with pytest.raises(ValueError):
        OptionSpec(strike=100.0, maturity=1.0, payoff="lookback")


def test_run_validation():
    with pytest.raises(ValueError):
        estimate("delta", BS_MODEL, BS_MKT, OptionSpec(100.0, 2.0), GRID, 100, seed=0)
    with pytest.raises(ValueError):
        estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 1, seed=0)
    with pytest.raises(ValueError):
        estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0, confidence=1.0)
    with pytest.raises(ValueError):
        estimate("skew", BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0)
    # an empty kinds list is refused before anything is simulated, as fd_greek refuses it
    with pytest.raises(ValueError, match="kinds must name at least one kind"):
        estimate_many([], BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0)
    # tasks are plain kinds; a (kind, variant) pair is an unknown kind
    with pytest.raises(ValueError, match="unknown greek kind"):
        estimate_many([("gamma", "derived")], BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0)
    # the substream key needs a non-negative seed: say so instead of failing inside numpy
    with pytest.raises(ValueError, match="seed must be >= 0"):
        estimate_many(["price", "delta"], BS_MODEL, BS_MKT, OPT, GRID, 100, seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        converge("delta", BS_MODEL, BS_MKT, OPT, GRID, [10, 100], seed=-1)
    # workers loads only as 1: a second worker is refused, not silently run serially
    removed = "workers must be 1: the chunk pool was removed"
    with pytest.raises(ValueError, match=removed):
        estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0, workers=2)
    with pytest.raises(ValueError, match=removed):
        estimate_many(["price", "delta"], BS_MODEL, BS_MKT, OPT, GRID, 100, seed=0, workers=2)
    with pytest.raises(ValueError, match=removed):
        converge("delta", BS_MODEL, BS_MKT, OPT, GRID, [10, 100], seed=0, workers=2)
    # run sizes are integers: a float, even a whole one, is refused by name and never truncated
    with pytest.raises(ValueError, match="n_paths must be an integer"):
        estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 1000.0, seed=1)
    for seed in (1.5, 1.0):
        with pytest.raises(ValueError, match="seed must be an integer"):
            estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 1000, seed=seed)
    with pytest.raises(ValueError, match="ns_schedule entry must be an integer"):
        converge("delta", BS_MODEL, BS_MKT, OPT, GRID, [1000.7, 2000.2], seed=1)


def test_numpy_integer_run_sizes_keep_their_values():
    assert estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, np.int64(300), seed=np.uint32(1)) == estimate(
        "delta", BS_MODEL, BS_MKT, OPT, GRID, 300, seed=1
    )
    trace = converge("delta", BS_MODEL, BS_MKT, OPT, GRID, [np.int32(100), np.int64(300)], seed=1)
    assert trace == converge("delta", BS_MODEL, BS_MKT, OPT, GRID, [100, 300], seed=1)
    assert [e.n_paths for e in trace] == [100, 300]


def test_estimate_interval_shape():
    est = estimate("price", BS_MODEL, BS_MKT, OPT, GRID, 5_000, seed=3, confidence=0.95)
    assert est.kind == "price"
    assert est.n_paths == 5_000 and est.n_discarded == 0
    assert est.ci_low <= est.value <= est.ci_high
    half = norm.ppf(0.975) * est.stderr
    assert est.ci_high - est.value == pytest.approx(half, rel=1e-12)
    assert est.value - est.ci_low == pytest.approx(half, rel=1e-12)


def test_ci_quantile_is_within_8_ulp_of_scipy():
    # samples +-1: mean 0 and stderr 1 exactly, so ci_high is z itself (normal version 2)
    named = [0.9, 0.95, 0.99, 0.995, 0.999]
    for confidence in named + list(np.linspace(0.001, 0.9999, 2000)):
        est = greeks._reduce("price", np.array([1.0, -1.0]), np.ones(2, dtype=bool), float(confidence))
        assert est.value == 0.0 and est.stderr == 1.0
        want = norm.ppf(0.5 * (1.0 + confidence))
        assert abs(est.ci_high - want) <= 8 * np.spacing(want), confidence
        assert est.ci_low == -est.ci_high


def test_bs_degenerate_battery():
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2)
    tasks = ["price", "delta", "vega", "gamma", "rho"]
    ests = estimate_many(tasks, BS_MODEL, BS_MKT, OPT, GRID, 30_000, seed=101)
    targets = {"price": ref.price, "delta": ref.delta, "vega": ref.vega,
               "gamma": ref.gamma, "rho": ref.rho}
    for est in ests:
        assert _z(est, targets[est.kind]) < 3.0, est
        assert est.n_discarded == 0


def test_delta_matches_standard_normal_cdf():
    est = estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, 30_000, seed=5)
    assert _z(est, norm.cdf(0.1)) < 3.0
    assert est.value == pytest.approx(0.5398, abs=3.5 * est.stderr + 1e-4)


def test_gamma_and_rho_match_bs_at_positive_rate():
    # r > 0 is where a misplaced discount or rate term in the gamma and
    # rho weights shows
    mkt = MarketSpec(s0=100.0, r=0.05)
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.05, 0.2)
    gamma, rho = estimate_many(["gamma", "rho"], BS_MODEL, mkt, OPT, GRID, 50_000, seed=23)
    assert _z(gamma, ref.gamma) < 3.0
    assert _z(rho, ref.rho) < 3.0


def test_digital_delta():
    opt = OptionSpec(100.0, 1.0, "digital_call")
    ref = bs_price_greeks(100.0, 100.0, 1.0, 0.0, 0.2, "digital_call")
    est = estimate("delta", BS_MODEL, BS_MKT, opt, GRID, 30_000, seed=31)
    assert _z(est, ref.delta) < 3.0


def test_put_call_delta_difference():
    # common paths: Delta_call - Delta_put estimates d/dS0 of the forward = 1
    c, p = estimate_many(
        ["delta"], BS_MODEL, BS_MKT, OPT, GRID, 30_000, seed=41
    )[0], None
    ests = estimate_many(["delta"], BS_MODEL, BS_MKT, OptionSpec(100.0, 1.0, "put"), GRID, 30_000, seed=41)
    p = ests[0]
    diff = c.value - p.value
    se = math.hypot(c.stderr, p.stderr)
    assert abs(diff - 1.0) < 3 * se


def test_deterministic_and_shared_paths():
    a = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 4_000, seed=7)
    b = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 4_000, seed=7)
    assert a == b
    many = estimate_many(["price", "delta", "vega"], FIG_MODEL, FIG_MKT, OPT, GRID, 4_000, seed=7)
    assert many[1] == a
    c = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 4_000, seed=8)
    assert c.value != a.value


def test_converge_nested_and_consistent():
    trace = converge("delta", FIG_MODEL, FIG_MKT, OPT, GRID, [2_000, 8_000], seed=19)
    assert [e.n_paths for e in trace] == [2_000, 8_000]
    head = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 2_000, seed=19)
    tail = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 8_000, seed=19)
    assert trace[0] == head
    assert trace[1] == tail
    single = converge("delta", FIG_MODEL, FIG_MKT, OPT, GRID, [2_000], seed=19)
    assert single == [head]
    with pytest.raises(ValueError):
        converge("delta", FIG_MODEL, FIG_MKT, OPT, GRID, [4_000, 4_000], seed=19)
    with pytest.raises(ValueError):
        converge("delta", FIG_MODEL, FIG_MKT, OPT, GRID, [], seed=19)


def test_ci_halves_from_n_to_4n():
    for model, mkt in ((BS_MODEL, BS_MKT), (FIG_MODEL, FIG_MKT)):
        tr = converge("delta", model, mkt, OPT, GRID, [5_000, 20_000], seed=29)
        ratio = (tr[0].ci_high - tr[0].ci_low) / (tr[1].ci_high - tr[1].ci_low)
        assert 1.6 <= ratio <= 2.4


def test_stderr_scaling_stable():
    vals = []
    for n in (10_000, 40_000, 160_000):
        est = estimate("delta", BS_MODEL, BS_MKT, OPT, GRID, n, seed=37)
        vals.append(est.stderr * math.sqrt(n))
    mid = sorted(vals)[1]
    assert max(vals) <= 1.2 * mid and min(vals) >= 0.8 * mid


def test_no_paths_discarded_at_standard_parameters():
    est = estimate("delta", FIG_MODEL, FIG_MKT, OPT, GRID, 20_000, seed=43)
    assert est.n_discarded == 0


def test_discarded_paths_are_the_same_for_every_weighted_kind(monkeypatch):
    # a threshold inside the intG distribution discards some paths; the
    # estimator's mask (greeks) and the weights' NaNs (weights) must agree
    threshold = 0.55
    monkeypatch.setattr(greeks, "DEGENERATE_INTG", threshold)
    monkeypatch.setattr(weights, "DEGENERATE_INTG", threshold)
    monkeypatch.setattr(greeks, "_CHUNK", 512)
    monkeypatch.setattr(greeks, "_TILE", 256)
    n_paths = 512 + 356  # four 256-path draws (two alive at once), the last a 100-path tile
    grid, kinds = TimeGrid(T=1.0, n=16), ["price", "delta", "hsens"]
    price, delta, hsens = estimate_many(kinds, FIG_MODEL, FIG_MKT, OPT, grid, n_paths, seed=3)
    inc = gen_increments(grid, FIG_MODEL.rho, seed=3, n_paths=n_paths)
    kept = np.abs(weight_components(FIG_MODEL, grid, make_bundle(FIG_MODEL, FIG_MKT, grid, inc)).intG) >= threshold
    dropped = n_paths - int(np.count_nonzero(kept))
    assert 0 < dropped < n_paths // 2
    assert (price.n_paths, price.n_discarded) == (n_paths, 0)
    for est in (delta, hsens):
        assert (est.n_paths, est.n_discarded) == (n_paths - dropped, dropped)
    samples = greeks._all_task_samples(kinds, FIG_MODEL, FIG_MKT, OPT, grid, n_paths, 3)
    assert samples["price"][1].all()
    assert np.array_equal(samples["delta"][1], kept) and np.array_equal(samples["hsens"][1], kept)


def test_degenerate_model_raises_numerical_failure():
    broken = AlphaRFSV(v0=1e-13, xi=0.0, alpha=1.0, rho=0.0, kernel=KernelSpec(H=0.14, eps=1e-6))
    with pytest.raises(NumericalFailureError):
        estimate("delta", broken, BS_MKT, OPT, GRID, 100, seed=0)


def test_non_finite_samples_raise_numerical_failure():
    # V overflows on some paths; price and delta samples there are NaN and
    # must not be averaged into a NaN estimate
    exploding = AlphaRFSV(v0=0.2, xi=300.0, alpha=0.0, rho=-0.7, kernel=KernelSpec(H=0.1))
    with np.errstate(all="ignore"):
        for kind in ("price", "delta"):
            with pytest.raises(NumericalFailureError, match=f"for {kind}, [1-9][0-9]* of them with non-finite"):
                estimate(kind, exploding, BS_MKT, OPT, GRID, 2_000, seed=1)


def test_unsupported_kind_model_pairs():
    ss = SteinStein(v0=0.3, kappa=1.5, theta=0.25, nu=0.4, rho=-0.5)
    with pytest.raises(UnsupportedError):
        estimate("vega", ss, BS_MKT, OPT, GRID, 100, seed=0)
    with pytest.raises(UnsupportedError):
        estimate("hsens", ss, BS_MKT, OPT, GRID, 100, seed=0)
    mixed = MixedAlphaRFSV(
        v0=0.4, xi_h=0.2, xi_hp=0.3, alpha=0.7, rho=-0.5,
        kernel_h=KernelSpec(H=0.2, eps=1e-4), kernel_hp=KernelSpec(H=0.7, eps=0.0),
    )
    alphasv = AlphaSV(v0=0.04, xi=0.3, alpha=1.0, rho=-0.5)
    # gamma needs the triple D_sG integral, which neither model provides
    for model in (mixed, alphasv):
        with pytest.raises(UnsupportedError):
            estimate("gamma", model, BS_MKT, OPT, GRID, 100, seed=0)


def test_all_kinds_run_on_rough_model():
    ests = estimate_many(
        ["price", "delta", "gamma", "rho", "vega", "hsens"],
        FIG_MODEL, FIG_MKT, OPT, GRID, 2_000, seed=53,
    )
    assert [e.kind for e in ests] == list(GREEK_KINDS)
    for e in ests:
        assert math.isfinite(e.value) and e.stderr > 0.0


_KERNELS = st.builds(KernelSpec, H=st.floats(0.02, 0.98), eps=st.floats(1e-6, 1e-2))
_V0, _XI, _UNIT, _RHO = st.floats(1e-3, 3.0), st.floats(0.0, 50.0), st.floats(0.0, 1.0), st.floats(-1.0, 1.0)
_ANY_MODEL = st.one_of(
    st.builds(AlphaRFSV, v0=_V0, xi=_XI, alpha=_UNIT, rho=_RHO, kernel=_KERNELS),
    st.builds(MixedAlphaRFSV, v0=_V0, xi_h=_XI, xi_hp=_XI, alpha=_UNIT, rho=_RHO,
              kernel_h=_KERNELS, kernel_hp=_KERNELS),
    st.builds(RoughSteinStein, v0=st.floats(-1.0, 3.0), kappa=st.floats(0.0, 10.0), theta=st.floats(-1.0, 3.0),
              nu=st.floats(0.0, 5.0), rho=_RHO, kernel=_KERNELS),
    st.builds(AlphaSV, v0=_V0, xi=_XI, alpha=_UNIT, rho=_RHO),
    st.builds(SteinStein, v0=st.floats(-1.0, 3.0), kappa=st.floats(0.0, 10.0), theta=st.floats(-1.0, 3.0),
              nu=st.floats(0.0, 5.0), rho=_RHO),
    st.builds(BlackScholes, sigma=_V0),
)
_ANY_KIND = st.sampled_from(GREEK_KINDS)


@settings(max_examples=150, deadline=None)
@given(model=_ANY_MODEL, kind=_ANY_KIND, n=st.integers(1, 8), n_paths=st.integers(2, 200),
       seed=st.integers(0, 2**32 - 1), payout=st.sampled_from(["call", "put", "digital_call"]),
       strike=st.floats(50.0, 150.0), maturity=st.floats(0.1, 2.0), r=st.floats(0.0, 0.1))
def test_estimates_are_finite_or_fail_loudly(model, kind, n, n_paths, seed, payout, strike, maturity, r):
    # grid and path counts are small for runtime; parameters span each model's domain
    with np.errstate(all="ignore"):
        try:
            est = estimate_many([kind], model, MarketSpec(s0=100.0, r=r), OptionSpec(strike, maturity, payout),
                                TimeGrid(T=maturity, n=n), n_paths, seed)[0]
        except (NumericalFailureError, UnsupportedError):
            return
    assert all(math.isfinite(x) for x in (est.value, est.stderr, est.ci_low, est.ci_high)), est
