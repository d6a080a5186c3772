import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_greeks.kernel import (
    KernelSpec,
    cell_variance_by_lag,
    cell_variance_matrix,
    kernel_by_lag,
    kernel_dh,
    kernel_dh_by_lag,
    kernel_dh_matrix,
    kernel_eval,
    kernel_kappa,
    kernel_matrix,
    kernel_variance,
    kernel_variance_dh,
    toeplitz_row_sums,
)

SQRT_028 = math.sqrt(0.28)


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(H=0.0, eps=0.0)
    with pytest.raises(ValueError):
        KernelSpec(H=1.0, eps=0.0)
    with pytest.raises(ValueError):
        KernelSpec(H=0.3, eps=-1e-9)
    KernelSpec(H=0.3, eps=0.0)  # eps = 0 itself is legal


def test_eval_values():
    assert kernel_eval(KernelSpec(H=0.5, eps=0.0), 0.7, 0.2) == 1.0
    v = kernel_eval(KernelSpec(H=0.14, eps=0.0), 1.0, 0.0)
    assert v == pytest.approx(SQRT_028, rel=1e-12)
    assert v == pytest.approx(0.52915, abs=5e-6)
    d = kernel_eval(KernelSpec(H=0.14, eps=1e-6), 1.0, 1.0)
    assert d == pytest.approx(SQRT_028 * 1e-6 ** (-0.36), rel=1e-12)
    assert d == pytest.approx(76.5, rel=1e-3)


def test_eval_domain_errors():
    spec = KernelSpec(H=0.3, eps=0.0)
    with pytest.raises(ValueError):
        kernel_eval(spec, 0.5, 0.7)
    with pytest.raises(ValueError):
        kernel_eval(spec, 1.0, 1.0)  # diagonal diverges for H < 1/2 at eps = 0
    with pytest.raises(ValueError):
        kernel_eval(spec, 1.0, -0.1)
    assert kernel_eval(KernelSpec(H=0.3, eps=1e-4), 1.0, 1.0) > 0.0
    assert kernel_eval(KernelSpec(H=0.7, eps=0.0), 1.0, 1.0) == 0.0


def test_kappa_values():
    assert kernel_kappa(KernelSpec(H=0.5, eps=0.0), 2.0) == 2.0
    v = kernel_kappa(KernelSpec(H=0.14, eps=0.0), 1.0)
    assert v == pytest.approx(SQRT_028 / 0.64, rel=1e-12)
    assert v == pytest.approx(0.82680, abs=5e-6)
    assert kernel_kappa(KernelSpec(H=0.3, eps=1e-3), 0.0) == 0.0
    with pytest.raises(ValueError):
        kernel_kappa(KernelSpec(H=0.3, eps=0.0), -1.0)


def test_variance_values():
    assert kernel_variance(KernelSpec(H=0.3, eps=0.0), 1.0) == 1.0
    v = kernel_variance(KernelSpec(H=0.14, eps=1e-6), 1.0)
    assert v == pytest.approx((1 + 1e-6) ** 0.28 - 1e-6 ** 0.28, rel=1e-12)
    assert v == pytest.approx(0.9791, abs=5e-5)
    assert kernel_variance(KernelSpec(H=0.14, eps=1e-6), 0.0) == 0.0
    with pytest.raises(ValueError):
        kernel_variance(KernelSpec(H=0.3, eps=0.0), -0.5)


def test_dh_values():
    assert kernel_dh(KernelSpec(H=0.5, eps=0.0), 1.7, 0.7) == pytest.approx(1.0, rel=1e-15)
    v = kernel_dh(KernelSpec(H=0.14, eps=0.0), 1.0, 0.0)
    assert v == pytest.approx(SQRT_028 / 0.28, rel=1e-12)
    assert v == pytest.approx(1.8898, abs=5e-5)


@pytest.mark.parametrize("H", [0.14, 0.3, 0.5, 0.75])
@pytest.mark.parametrize("t,s", [(1.0, 0.0), (0.8, 0.3), (2.0, 1.9)])
def test_dh_matches_finite_difference(H, t, s):
    h = 1e-5
    fd = (
        kernel_eval(KernelSpec(H=H + h, eps=0.0), t, s)
        - kernel_eval(KernelSpec(H=H - h, eps=0.0), t, s)
    ) / (2 * h)
    assert kernel_dh(KernelSpec(H=H, eps=0.0), t, s) == pytest.approx(fd, rel=1e-4)


@pytest.mark.parametrize("H,eps", [(0.14, 1e-3), (0.3, 1e-3), (0.5, 1e-2), (0.8, 1e-2)])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_kappa_and_variance_match_quadrature(H, eps, t):
    # closed forms vs 1e4-cell trapezoid of the kernel and its square
    spec = KernelSpec(H=H, eps=eps)
    s = np.linspace(0.0, t, 10_001)
    k = kernel_eval(spec, t, s)
    assert kernel_kappa(spec, t) == pytest.approx(np.trapezoid(k, s), rel=1e-4)
    assert kernel_variance(spec, t) == pytest.approx(np.trapezoid(k * k, s), rel=1e-4)


def test_h_half_reductions_bit_exact():
    spec = KernelSpec(H=0.5, eps=0.0)
    t = np.array([0.1, 0.25, 0.5, 1.0, 2.0])
    assert np.all(kernel_eval(spec, 1.0, np.array([0.0, 0.3, 1.0])) == 1.0)
    assert np.array_equal(kernel_kappa(spec, t), t)
    assert np.array_equal(kernel_variance(spec, t), t)


@pytest.mark.parametrize("H,eps", [(0.14, 1e-6), (0.3, 0.0), (0.6, 1e-3)])
def test_variance_dh_matches_finite_difference(H, eps):
    t = np.array([0.1, 0.4, 0.9])  # avoid t = 1 where d/dH r vanishes at eps = 0
    h = 1e-6
    fd = (
        kernel_variance(KernelSpec(H=H + h, eps=eps), t)
        - kernel_variance(KernelSpec(H=H - h, eps=eps), t)
    ) / (2 * h)
    got = kernel_variance_dh(KernelSpec(H=H, eps=eps), t)
    assert np.allclose(got, fd, rtol=1e-4, atol=1e-9)
    assert kernel_variance_dh(KernelSpec(H=H, eps=0.0), 0.0) == 0.0


def test_kernel_matrix_strictly_lower_triangular():
    spec = KernelSpec(H=0.2, eps=0.0)  # diagonal never evaluated even at eps = 0
    times = np.linspace(0.0, 1.0, 9)
    kmat = kernel_matrix(spec, times)
    assert kmat.shape == (9, 8)
    for i in range(9):
        assert np.all(kmat[i, i:] == 0.0)
        for j in range(i):
            assert kmat[i, j] == kernel_eval(spec, times[i], times[j])
    dmat = kernel_dh_matrix(spec, times)
    for i in range(9):
        assert np.all(dmat[i, i:] == 0.0)
        for j in range(i):
            assert dmat[i, j] == kernel_dh(spec, times[i], times[j])


@pytest.mark.parametrize("T,n", [(0.7, 100), (2.5, 1500)])
@pytest.mark.parametrize("H", [0.07, 0.3, 0.8])
@pytest.mark.parametrize("eps", [0.0, 1e-4])
def test_kernel_matrices_are_toeplitz_and_match_pointwise(T, n, H, eps):
    # the matrices are gathered from one kernel value per lag; t_i - t_j and
    # t_{i-j} round differently, so the match is close, not bit for bit
    spec = KernelSpec(H=H, eps=eps)
    times = np.arange(n + 1) * (T / n)
    i, j = np.tril_indices(n + 1, -1, n)  # every j < i
    kmat = kernel_matrix(spec, times)
    dmat = kernel_dh_matrix(spec, times)
    for m in (kmat, dmat):
        assert m.shape == (n + 1, n) and m.flags.c_contiguous
        assert np.array_equal(m[i, j], m[i - j, 0])  # depends on the lag only
        assert np.count_nonzero(m[np.triu_indices(n + 1, 0, n)]) == 0
    k_ref = kernel_eval(spec, times[i], times[j])
    assert np.allclose(kmat[i, j], k_ref, rtol=1e-13, atol=0.0)
    # dK/dH = K (1/(2H) + log x) changes sign at x = exp(-1/(2H)), where an
    # elementwise relative gap is unbounded; measure it against the size of
    # the two terms instead
    x = times[i] - times[j] + eps
    scale = k_ref * (0.5 / H + np.abs(np.log(x)))
    assert np.all(np.abs(dmat[i, j] - kernel_dh(spec, times[i], times[j])) <= 1e-13 * scale)


@pytest.mark.parametrize("build", [kernel_matrix, kernel_dh_matrix, cell_variance_matrix])
def test_kernel_matrices_reject_non_uniform_times(build):
    spec = KernelSpec(H=0.3, eps=1e-4)
    for times in ([0.0, 0.1, 0.5, 0.6, 1.0], [0.0, 0.5, 0.25, 0.75], [1.0, 0.75, 0.5, 0.25, 0.0]):
        with pytest.raises(ValueError, match="uniformly spaced"):
            build(spec, np.array(times))


@pytest.mark.parametrize("n", [1, 7, 256, 257, 600, 2048])
@pytest.mark.parametrize(
    "build,by_lag",
    [
        (kernel_matrix, kernel_by_lag),
        (kernel_dh_matrix, kernel_dh_by_lag),
        (cell_variance_matrix, cell_variance_by_lag),
    ],
    ids=["K", "dK/dH", "cell"],
)
def test_row_sums_from_the_lag_vector_equal_the_dense_ones(build, by_lag, n):
    # the FFT grids take the row integrals from the per-lag vector, with no
    # dense matrix; they must equal the matrix's own row sums bit for bit
    spec, times = KernelSpec(H=0.14, eps=1e-6), np.arange(n + 1) * (1.0 / n)
    w, v = build(spec, times), by_lag(spec, times)
    assert np.array_equal(w[1:, 0], v)  # column 0 holds the lags 1..n
    assert np.array_equal(toeplitz_row_sums(v), w.sum(axis=1))


@pytest.mark.parametrize("H,eps", [(0.14, 1e-6), (0.3, 0.0), (0.5, 0.0), (0.8, 1e-3)])
def test_cell_variance_weights_telescope(H, eps):
    # dt * sum_j w_ij^2 telescopes to r(t_i) by construction
    spec = KernelSpec(H=H, eps=eps)
    times = np.linspace(0.0, 1.0, 17)
    dt = times[1] - times[0]
    w = cell_variance_matrix(spec, times)
    got = dt * (w * w).sum(axis=1)
    want = kernel_variance(spec, times)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


@given(
    H=st.floats(0.05, 0.95),
    eps=st.floats(1e-8, 1.0),
    t=st.floats(0.01, 10.0),
    frac=st.floats(0.0, 0.999),
)
@settings(max_examples=200, deadline=None)
def test_kernel_positive_and_kappa_monotone(H, eps, t, frac):
    spec = KernelSpec(H=H, eps=eps)
    s = frac * t
    assert kernel_eval(spec, t, s) > 0.0
    assert kernel_kappa(spec, t) > kernel_kappa(spec, 0.9 * t)
    assert kernel_variance(spec, t) > kernel_variance(spec, 0.9 * t) >= 0.0
