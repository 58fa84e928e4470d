import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.special import j1, jv

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
    eng = kernel.get_engine(prob, float(xs[-1]))
    for lam in (0.5, 4.0, 25.0):
        w, w1, err = eng.eval_many(lam, xs)
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
        w = kernel.kernel_table(prob, [0.0], np.linspace(0.3, 2.0, 7))[0]
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
    eng = kernel.get_engine(prob, float(xs[-1]))
    for j in (1, 2, 3):
        want = xs ** (2 * j) / math.factorial(2 * j)
        np.testing.assert_allclose(eng.eta_at(j, xs), want, rtol=1e-9)


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
    w, w1, _ = kernel.get_engine(prob, x + eps).eval_many(
        lam, np.array([x - eps, x, x + eps]))
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
        np.testing.assert_allclose(kernel.kernel_table(unit, [2.0], xs)[0],
                                   np.cos(math.sqrt(2.0) * xs), atol=1e-10)
    assert len(kernel._ENGINE_CACHE) == 1


def test_grown_engine_matches_straight_build():
    # panels laid on from where the last cover stopped, and series levels
    # carried on over them, give the tables of one build to the last bit
    lams = (0.3, 5.0, 25.0)
    xs = np.array([0.05, 0.3, 0.5, 0.8])
    for prob, steps in ((_cubic(), 2.0 ** np.arange(7)),
                        (_whittaker0(), (0.8, 3.5, 91.0))):
        grown = kernel.KernelEngine(prob, steps[0])
        before = [grown.eval_many(lam, xs) for lam in lams]
        for x_need in steps[1:]:
            grown.cover(x_need)
            # build the levels the new panels call for, to be carried on
            grown.eval_many(1.0, np.array([grown.switch_x(1.0)]))
        straight = kernel.KernelEngine(prob, steps[-1])
        assert np.array_equal(grown.bp, straight.bp)
        far = np.append(xs, 0.9 * steps[-1])
        for b, lam in zip(before, lams):
            a = grown.eval_many(lam, xs)
            g, s = grown.eval_many(lam, far), straight.eval_many(lam, far)
            for k in range(3):      # w, w1 and err
                assert np.array_equal(b[k], a[k])
                assert np.array_equal(g[k], s[k])


def test_cover_carries_levels_over_new_panels(monkeypatch):
    eng = kernel.KernelEngine(_whittaker0(), 0.8)
    eng.eval_many(1.0, np.array([eng.switch_x(1.0)]))
    n_levels, n_panels = len(eng.levels), len(eng.widths)
    before = [(lev.g, lev.eta, lev.logF_bounds) for lev in eng.levels[1:]]
    starts = []
    grow = kernel.KernelEngine._grow_level

    def counted(self, j, n0):
        starts.append(n0)
        return grow(self, j, n0)

    monkeypatch.setattr(kernel.KernelEngine, "_grow_level", counted)
    eng.cover(91.0)
    n_new = len(eng.widths)
    assert n_new > n_panels
    assert len(eng.levels) == n_levels
    # every level carried on from the old panels, none started over
    assert starts == [n_panels] * (n_levels - 1)
    for lev, (g, eta, logf) in zip(eng.levels[1:], before):
        assert lev.g.shape == (n_new, kernel._M)
        assert len(lev.eta) == n_new + 1
        assert len(lev.logF_bounds) == n_new - eng.n_deep + 1
        assert np.array_equal(lev.g[:n_panels], g)
        assert np.array_equal(lev.eta[:n_panels + 1], eta)
        assert np.array_equal(lev.logF_bounds[:len(logf)], logf)


def test_kernel_row_independent_of_other_points():
    prob = _whittaker0()
    xs = np.array([0.05, 0.3, 0.5, 0.8])
    kernel.clear_engine_cache()
    for lam in (5.0, 25.0):
        alone = kernel.kernel_table(prob, [lam], xs)[0]
        with_far = kernel.kernel_table(prob, [lam], np.append(xs, 91.0))[0, :4]
        np.testing.assert_allclose(alone, with_far, rtol=0, atol=1e-13)


def test_whittaker_kernel_against_mpmath_with_far_point():
    # w = e^{1/(2x)} W_{0, i tau}(1/x), lam = tau^2 + 1/4
    prob = _whittaker0()
    xs = np.array([1e-3, 0.05, 0.12, 0.5])
    for lam in (5.0, 25.0):
        got = kernel.kernel_table(prob, [lam], np.append(xs, 91.0))[0, :4]
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
    alone = np.array([kernel.kernel_table(prob, [lam], xs)[0]
                      for lam in lams])
    np.testing.assert_allclose(table, alone, rtol=0, atol=1e-11)


def test_kernel_table_ode_tolerance_covers_every_lambda():
    # one continuation for 48 lam: the shared step grid is sized at the
    # largest lam, and each lam's own components must meet the bound, not
    # just an average over the batch
    prob = families.make_family("cosine").problem
    lams = np.linspace(0.5, 60.0, 48)
    xs = np.linspace(0.1, 10.0, 40)
    got = kernel.kernel_table(prob, lams, xs)
    want = np.cos(np.sqrt(lams)[:, None] * xs)
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-11)


def test_whittaker_closed_kernel_one_point_is_array():
    fam = dataclasses.replace(families.make_family("whittaker",
                                                   {"alpha": 0.0}),
                              prefer_closed_kernel=True)
    row = fam.kernel([2.0], np.array([0.5]))[0]
    assert row.shape == (1,)
    assert row[0] == pytest.approx(_whittaker0_mp(2.0, 0.5), abs=1e-9)
    assert fam.kernel([1.0, 2.0], np.array([0.5])).shape == (2, 1)


def test_kernel_rejects_negative_or_non_finite_lambda():
    prob = families.make_family("hankel", {"alpha": 1.0}).problem
    xs = np.array([0.5, 1.0])
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(errors.ParamOutOfRange):
            kernel.kernel_table(prob, [2.0, lam], xs)
        with pytest.raises(errors.ParamOutOfRange):
            kernel.eval_kernel(prob, lam, 1.0)


def _hankel1(lams, xs):
    z = np.sqrt(np.asarray(lams, dtype=float))[:, None] * xs
    return 2.0 * j1(z) / z


def test_kernel_table_high_lambda_hankel():
    prob = families.make_family("hankel", {"alpha": 1.0}).problem
    lams = np.array([400.0, 1e4])
    xs = np.linspace(1.0, 3.0, 41)
    got = kernel.kernel_table(prob, lams, xs)
    np.testing.assert_allclose(got, _hankel1(lams, xs), rtol=0, atol=1e-10)


def test_kernel_err_est_bounds_the_error():
    # the estimate holds the actual error and stays within 1e3 of it
    xs = np.linspace(0.3, 3.0, 10)
    cases = (("cosine", {},
              lambda lam: np.cos(math.sqrt(lam) * xs)),
             ("hankel", {"alpha": 1.0},
              lambda lam: _hankel1([lam], xs)[0]))
    for name, params, exact in cases:
        prob = families.make_family(name, params).problem
        for lam in (5.0, 144.0, 1e4):
            kv = [kernel.eval_kernel(prob, lam, x) for x in xs]
            est = np.array([v.err_est for v in kv])
            actual = np.abs(np.array([v.w for v in kv]) - exact(lam))
            assert np.all(est >= actual), (name, lam)
            assert np.max(est) <= 1e-8
            assert np.max(est) <= (1e3 * np.max(actual)
                                   if np.max(actual) > 0 else 1e-13)


def test_propagator_holds_bounded_step_blocks(monkeypatch):
    sizes = []
    products = kernel._running_products

    def counted(m):
        sizes.append(m[0].shape)
        return products(m)

    monkeypatch.setattr(kernel, "_running_products", counted)
    lams = np.linspace(5.0, 144.0, 64)      # each continued to x = 91
    kernel.kernel_table(_whittaker0(), lams, np.array([0.05, 3.5, 91.0]))
    assert all(rows == 64 for rows, _ in sizes)
    assert max(steps for _, steps in sizes) == kernel._STEP_BLOCK


def test_liouville_steps_are_pinned():
    # the steps resolve beta = sqrt(r/p) and gamma, not p and r: neither
    # whittaker's e^(-1/x) layer nor the cubic's x^3 slopes cost steps
    eng = kernel.get_engine(_whittaker0(), 3.5)
    assert len(eng._steps(144.0, eng.switch_x(144.0), 3.5)) - 1 <= 500
    eng = kernel.get_engine(_cubic(), 32.0)
    assert len(eng._steps(10.0, eng.switch_x(10.0), 32.0)) - 1 <= 700


def test_whittaker_kernel_at_lambda_1e4():
    # the switch point sits at x = 1e-3, where p = x^2 e^(-1/x)
    # underflows; the scaled Liouville state starts there all the same
    prob = _whittaker0()
    xs = np.array([0.05, 0.5, 3.5])
    eng = kernel.get_engine(prob, float(xs[-1]))
    assert math.exp(-1.0 / eng.switch_x(1e4)) == 0.0
    w, _, err = eng.eval_many(1e4, xs)
    want = np.array([_whittaker0_mp(1e4, x) for x in xs])
    assert np.all(err >= np.abs(w - want))
    assert np.max(err) <= 1e-9


def test_propagated_quasi_derivative_closed_forms():
    # w1 = p w' beyond the switch point, back from the Liouville state:
    # cosine -sqrt(lam) sin(sqrt(lam) x); hankel alpha = 1
    # -x^3 sqrt(lam) 2 J_2(z) / z, z = sqrt(lam) x
    def cosine_w1(lam, xs):
        return -math.sqrt(lam) * np.sin(math.sqrt(lam) * xs)

    def hankel1_w1(lam, xs):
        z = math.sqrt(lam) * xs
        return -xs ** 3 * math.sqrt(lam) * 2.0 * jv(2, z) / z

    xs = np.linspace(0.3, 4.0, 38)
    for name, params, exact in (("cosine", {}, cosine_w1),
                                ("hankel", {"alpha": 1.0}, hankel1_w1)):
        prob = families.make_family(name, params).problem
        eng = kernel.get_engine(prob, float(xs[-1]))
        for lam in (25.0, 144.0, 1e4):
            beyond = xs > eng.switch_x(lam)
            assert np.count_nonzero(beyond) >= 10
            _, w1, _ = eng.eval_many(lam, xs)
            want = exact(lam, xs)
            np.testing.assert_allclose(w1[beyond], want[beyond], rtol=0,
                                       atol=1e-11 * np.max(np.abs(want)))


def _cubic():
    return slmodel.custom_problem_from_dict(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1})


def _panels_with_both_widths(eng, x_need):
    """The main panels of eng rebuilt by the rule that evaluates W(x) and
    W(x + W(x)) for every panel."""
    x = float(eng.bp[eng.n_deep])
    edges = []
    while x < x_need or not edges:
        dx = eng._width(x)
        x += min(dx, eng._width(x + dx))
        edges.append(x)
    return np.concatenate([eng.bp[:eng.n_deep + 1], edges])


def test_cover_panels_fit_the_width_rule():
    # every main panel is no wider than W at either end, the last one
    # reaches x_need, and there are at most 1% more panels than the rule
    # that lays one panel at a time
    for prob, x_need in ((_cubic(), 64.0), (_whittaker0(), 128.0)):
        eng = kernel.KernelEngine(prob, x_need)
        main = eng.bp[eng.n_deep:]
        w = eng._width(main)
        assert np.all(np.diff(main) <= np.minimum(w[:-1], w[1:]))
        assert main[-2] < x_need <= main[-1]
        one_at_a_time = _panels_with_both_widths(eng, x_need)
        assert len(main) - 1 <= 1.01 * (len(one_at_a_time) - 1 - eng.n_deep)


def test_series_term_cap_raises(monkeypatch):
    # lam = 25 at x = 0.5 lies below the switch point and needs more
    # than three terms
    monkeypatch.setattr(kernel, "_J_CAP", 3)
    with pytest.raises(errors.QuadratureBudgetExceeded):
        kernel.kernel_table(_whittaker0(), [25.0], np.array([0.5]))


def test_deep_region_columns_sum_the_eta_rows():
    # x <= x_w ~ 1.4e-4 lies in the asymptotic region, 1e-3 on the main
    # panels; every point is below each lam's switch point
    prob = _whittaker0()
    xs = np.array([1e-6, 1e-5, 5e-5, 1e-3])
    lams = np.array([5.0, 25.0, 400.0])
    got = kernel.kernel_table(prob, lams, xs)
    eng = kernel.get_engine(prob, float(xs[-1]))
    assert xs[2] < eng.x_w < xs[3]
    assert np.all(xs[-1] <= eng.switch_x(lams))
    for i, lam in enumerate(lams):
        for k, x in enumerate(xs):
            total, acc, j = 1.0, 1.0, 0
            while True:
                j += 1
                term = (-lam) ** j * float(eng.eta_at(j, np.array([x]))[0])
                total += term
                acc += abs(term)
                if j >= 2 and abs(term) <= kernel._TERM_TOL * max(acc, 1.0):
                    break
            assert got[i, k] == pytest.approx(total, rel=0, abs=1e-15)


def test_series_quasi_derivative_cosine_closed_form():
    # p = r = 1: w1 = w' = -sqrt(lam) sin(sqrt(lam) x), here taken from
    # the series' F rows alone
    prob = families.make_family("cosine").problem
    for lam in (0.5, 5.0, 60.0):
        eng = kernel.get_engine(prob, 4.0)
        xs = np.linspace(0.05, eng.switch_x(lam), 9)
        _, w1, _ = eng.eval_many(lam, xs)
        want = -math.sqrt(lam) * np.sin(math.sqrt(lam) * xs)
        np.testing.assert_allclose(w1, want, rtol=0, atol=1e-12)
