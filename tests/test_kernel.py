import math

import mpmath
import numpy as np
import pytest

from slconv import errors, families, kernel, slmodel
from slconv.expr import CoeffExpr


def _whittaker0():
    return families.make_family("whittaker", {"alpha": 0.0}).problem


def _unit_problem():
    # p = r = 1 on a finite interval: w = cos(sqrt(lam) x)
    return slmodel.SLProblem(a=0.0, b=3.14159, p=CoeffExpr("1"),
                             r=CoeffExpr("1"), c=1.0)


def test_cosine_kernel_closed_form():
    prob = families.make_family("cosine").problem
    xs = np.linspace(0.2, 3.0, 15)
    for lam in (0.5, 4.0, 25.0):
        w, w1, err = kernel.eval_kernel_many_full(prob, lam, xs)
        want = np.cos(math.sqrt(lam) * xs)
        np.testing.assert_allclose(w, want, atol=1e-10)
        np.testing.assert_allclose(w1, -math.sqrt(lam)
                                   * np.sin(math.sqrt(lam) * xs),
                                   atol=1e-9)
        assert np.all(err < 1e-8)


def test_kernel_value_at_left_endpoint():
    prob = families.make_family("cosine").problem
    kv = kernel.eval_kernel(prob, 7.0, prob.a)
    assert kv.w == 1.0
    assert kv.w1 == 0.0


def test_kernel_lambda_zero_is_one():
    for name, params in (("hankel", {"alpha": 0.5}),
                         ("squared_weight", {})):
        prob = families.make_family(name, params).problem
        w = kernel.eval_kernel_many(prob, 0.0, np.linspace(0.3, 2.0, 7))
        np.testing.assert_allclose(w, 1.0, atol=1e-10)


def test_kernel_rejects_negative_lambda():
    prob = families.make_family("cosine").problem
    with pytest.raises(errors.ValidationError):
        kernel.eval_kernel(prob, -1.0, 1.0)


def test_kernel_rejects_x_outside_interval():
    prob = families.make_family("cosine").problem
    with pytest.raises(errors.ValidationError):
        kernel.eval_kernel(prob, 1.0, -0.5)


def test_truncated_kernel_requires_interior_cut():
    prob = families.make_family("hankel", {"alpha": 0.0}).problem
    with pytest.raises(errors.ValidationError):
        kernel.eval_kernel_truncated(prob, 1.0, 1.0, 2.0)


def test_eta_sequence_cosine():
    # cosine: eta_j(x) = x^(2j) / (2j)!
    prob = families.make_family("cosine").problem
    xs = np.linspace(0.2, 2.0, 8)
    tab = kernel.eta_sequence(prob, xs, 3)
    for j in (1, 2, 3):
        want = xs ** (2 * j) / math.factorial(2 * j)
        np.testing.assert_allclose(tab.values[j], want, rtol=1e-9)


def test_moment_functions_cosine():
    prob = families.make_family("cosine").problem
    mf = kernel.moment_functions(prob)
    assert mf.kappa == pytest.approx(0.0, abs=1e-6)
    # phi2 = 2 eta_1 = x^2
    for x in (0.5, 1.0, 2.0):
        assert mf.phi2(x) == pytest.approx(x * x, rel=1e-6)
        assert mf.phi1(x) == pytest.approx(0.0, abs=1e-6)


def test_moment_functions_hankel():
    # hankel alpha: phi2(x) = x^2 / (2 alpha + 2)
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    mf = kernel.moment_functions(prob)
    for x in (0.5, 1.5):
        assert mf.phi2(x) == pytest.approx(x * x / 3.0, rel=1e-5)


def test_kernel_derivative_consistent_with_fd():
    prob = families.make_family("squared_weight").problem
    lam = 3.0
    x = 1.2
    eps = 1e-5
    w, w1, _ = kernel.eval_kernel_many_full(
        prob, lam, np.array([x - eps, x, x + eps]))
    fd = (w[2] - w[0]) / (2 * eps)
    # w1 is the p-weighted derivative p w'; here p = (1+x)^2
    assert w1[1] / prob.p_val(x) == pytest.approx(fd, rel=1e-6)


def test_one_engine_per_problem():
    whit, unit = _whittaker0(), _unit_problem()
    kernel.clear_engine_cache()
    assert kernel.get_engine(whit, 0.8) is kernel.get_engine(whit, 91.0)
    assert kernel.get_engine(unit, 0.8) is kernel.get_engine(unit, 3.1)
    with pytest.raises(errors.ValidationError):
        kernel.get_engine(unit, 3.14159)
    kernel.clear_engine_cache()
    for x_top in np.linspace(0.5, 3.0, 20):
        xs = np.linspace(0.1, x_top, 5)
        np.testing.assert_allclose(kernel.kernel_row(unit, 2.0, xs),
                                   np.cos(math.sqrt(2.0) * xs), atol=1e-10)
    assert len(kernel._ENGINE_CACHE) == 1


def test_grown_engine_matches_straight_build():
    prob = _whittaker0()
    xs = np.array([0.05, 0.3, 0.5, 0.8])
    lams = (0.3, 5.0, 25.0)
    kernel.clear_engine_cache()
    grown = kernel.get_engine(prob, 0.8)
    before = [grown.eval_many(lam, xs) for lam in lams]
    kernel.get_engine(prob, 91.0)
    after = [grown.eval_many(lam, xs) for lam in lams]
    kernel.clear_engine_cache()
    straight = kernel.get_engine(prob, 91.0)
    assert straight is not grown
    for b, a, lam in zip(before, after, lams):
        s = straight.eval_many(lam, xs)
        for k in (0, 1):        # w and w1
            assert np.array_equal(b[k], a[k])
            assert np.array_equal(a[k], s[k])


def test_kernel_row_independent_of_other_points():
    prob = _whittaker0()
    xs = np.array([0.05, 0.3, 0.5, 0.8])
    kernel.clear_engine_cache()
    for lam in (5.0, 25.0):
        alone = kernel.kernel_row(prob, lam, xs)
        with_far = kernel.kernel_row(prob, lam, np.append(xs, 91.0))[:4]
        np.testing.assert_allclose(alone, with_far, rtol=0, atol=1e-13)


def test_whittaker_kernel_against_mpmath_with_far_point():
    # w = e^{1/(2x)} W_{0, i tau}(1/x), lam = tau^2 + 1/4
    prob = _whittaker0()
    xs = np.array([1e-3, 0.05, 0.12, 0.5])
    for lam in (5.0, 25.0):
        got = kernel.kernel_row(prob, lam, np.append(xs, 91.0))[:4]
        tau = mpmath.sqrt(mpmath.mpf(lam) - 0.25)
        z = [1 / mpmath.mpf(x) for x in xs]
        want = [float(mpmath.re(mpmath.exp(zk / 2)
                                * mpmath.whitw(0, 1j * tau, zk)))
                for zk in z]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_engine_cache_is_bounded():
    prob = families.make_family("hankel", {"alpha": 0.0}).problem
    kernel.clear_engine_cache()
    first = kernel.eval_kernel_truncated(prob, 1.0, 1.0, 0.5)
    for m in range(2, 13):
        kernel.eval_kernel_truncated(prob, 1.0, 1.0, 2.0 ** -m)
    assert len(kernel._ENGINE_CACHE) <= 8
    # the first cut's engine was evicted; a rebuild gives the same value
    assert kernel.eval_kernel_truncated(prob, 1.0, 1.0, 0.5) == first


def _whittaker0_mp(lam, x):
    # w = e^{1/(2x)} W_{0, mu}(1/x), mu = sqrt(1/4 - lam)
    t2 = lam - 0.25
    mu = mpmath.mpc(0, mpmath.sqrt(t2)) if t2 >= 0 else mpmath.sqrt(-t2)
    with mpmath.workdps(30):
        z = 1 / mpmath.mpf(x)
        return float(mpmath.re(mpmath.exp(z / 2) * mpmath.whitw(0, mu, z)))


def test_kernel_table_whittaker_against_mpmath():
    prob = _whittaker0()
    lams = np.array([0.0, 0.3, 5.0, 25.0, 144.0])
    xs = np.array([1e-3, 0.05, 0.5, 3.5, 91.0])
    got = kernel.kernel_table(prob, lams, xs)
    assert got.shape == (5, 5)
    want = [[_whittaker0_mp(lam, x) for x in xs] for lam in lams]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_kernel_table_rows_match_one_lambda():
    prob = _whittaker0()
    lams = np.linspace(0.3, 144.0, 48)
    xs = np.array([1e-3, 0.05, 0.5, 0.8, 3.5])
    table = kernel.kernel_table(prob, lams, xs)
    alone = np.array([kernel.kernel_row(prob, lam, xs) for lam in lams])
    np.testing.assert_allclose(table, alone, rtol=0, atol=1e-11)


def test_kernel_table_ode_tolerance_covers_every_lambda():
    # one RK solve for 48 lam: scipy's error norm is the RMS over its 96
    # components, so tolerances not scaled to the batch let single
    # components drift (6.8e-11 here, against 9e-12 with the scaling)
    prob = families.make_family("cosine").problem
    lams = np.linspace(0.5, 60.0, 48)
    xs = np.linspace(0.1, 10.0, 40)
    got = kernel.kernel_table(prob, lams, xs)
    want = np.cos(np.sqrt(lams)[:, None] * xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-11)


def test_kernel_row_is_table_row():
    prob = _whittaker0()
    xs = np.array([0.0, 0.05, 0.5, 0.8, 91.0])
    for lam in (0.0, 5.0, 25.0):
        assert np.array_equal(kernel.kernel_row(prob, lam, xs),
                              kernel.kernel_table(prob, [lam], xs)[0])
    fam = families.make_family("hankel", {"alpha": 1.0})
    assert np.array_equal(
        kernel.kernel_row(fam.problem, 5.0, xs, fam.closed_kernel),
        kernel.kernel_table(fam.problem, [5.0], xs, fam.closed_kernel)[0])


def test_whittaker_closed_kernel_one_point_is_array():
    fam = families.make_family("whittaker", {"alpha": 0.0})
    row = kernel.kernel_row(fam.problem, 2.0, np.array([0.5]),
                            fam.closed_kernel)
    assert row.shape == (1,)
    assert row[0] == pytest.approx(_whittaker0_mp(2.0, 0.5), abs=1e-9)
    assert kernel.kernel_table(fam.problem, [1.0, 2.0], np.array([0.5]),
                               fam.closed_kernel).shape == (2, 1)
