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
    depth, n_panels, nd = eng.depth, len(eng.widths), eng.n_deep
    rows = slice(1, depth + 1)
    before = (eng.g[rows, :n_panels].copy(),
              eng.eta[rows, :n_panels + 1].copy(),
              eng.logF_bounds[rows, :n_panels - nd + 1].copy())
    starts = []
    grow = kernel.KernelEngine._grow_level

    def counted(self, j, n0):
        starts.append(n0)
        return grow(self, j, n0)

    monkeypatch.setattr(kernel.KernelEngine, "_grow_level", counted)
    eng.cover(91.0)
    n_new = len(eng.widths)
    assert n_new > n_panels
    assert eng.depth == depth
    # every level carried on from the old panels, none started over
    assert starts == [n_panels] * depth
    g, eta, logf = before
    assert np.array_equal(eng.g[rows, :n_panels], g)
    assert np.array_equal(eng.eta[rows, :n_panels + 1], eta)
    assert np.array_equal(eng.logF_bounds[rows, :n_panels - nd + 1], logf)
    # the rows span the new panels: eta_j and log F_j rise over each one
    new = slice(n_panels, n_new + 1)
    assert np.all(np.diff(eng.eta[rows, new], axis=1) > 0.0)
    assert np.all(np.diff(eng.logF_bounds[rows, n_panels - nd:n_new - nd + 1],
                          axis=1) > 0.0)
    assert np.all(np.isfinite(eng.g[rows, n_panels:n_new]))


def test_levels_built_on_demand():
    # a fresh engine builds a level only when the series' term rule asks
    # for it: the table at lam = 1's switch point takes 15 levels, its
    # w1 column included; one more is allowed, where levels built ahead
    # would cost set-up time and memory
    eng = kernel.KernelEngine(_whittaker0(), 0.8)
    eng.eval_many(1.0, np.array([eng.switch_x(1.0)]))
    assert eng.depth <= 16


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
    # no (lam, columns) table of the march exceeds one block: at most
    # _STEP_BLOCK fine steps, their coarse half and _STEP_BLOCK partial
    # steps in one _magnus_steps call, and the states at the edges of at
    # most _STEP_BLOCK steps at a time; a long march fills whole blocks
    magnus, edges = [], []
    magnus_steps = kernel.KernelEngine._magnus_steps
    edge_states = kernel._edge_states

    def counted_magnus(self, lams, starts, ends):
        m = magnus_steps(self, lams, starts, ends)
        magnus.append(m.shape[2:])
        return m

    def counted_edges(m, y):
        edges.append(m.shape[2:])
        return edge_states(m, y)

    monkeypatch.setattr(kernel.KernelEngine, "_magnus_steps", counted_magnus)
    monkeypatch.setattr(kernel, "_edge_states", counted_edges)
    lams = np.linspace(5.0, 144.0, 64)      # each continued to x = 91
    kernel.kernel_table(_whittaker0(), lams, np.array([0.05, 3.5, 91.0]))
    block = kernel._STEP_BLOCK
    march = [cols for rows, cols in magnus if rows == 64]
    assert max(march) <= 2 * block + block // 2
    assert max(march) >= block + block // 2
    assert all(rows == 64 for rows, _ in edges)
    assert max(steps for _, steps in edges) == block


def test_edge_states_match_a_step_by_step_march():
    # narrow tables take running products by doubling, wide ones the
    # chunked scan; both give the states of a march one step at a time
    rng = np.random.default_rng(3)
    for rows in (3, kernel._SCAN_ROWS + 5):
        for steps in (1, 17, kernel._STEP_BLOCK):
            th = rng.uniform(0.0, 0.3, (rows, steps))
            g = rng.uniform(0.5, 2.0, (rows, steps))
            m = np.array([[np.cos(th), g * np.sin(th)],
                          [-np.sin(th) / g, np.cos(th)]])
            y = rng.normal(size=(2, rows))
            want = [y]
            for k in range(steps):
                want.append(kernel._apply(m[..., k], want[-1]))
            got = kernel._edge_states(m, y)
            assert got.shape == (2, rows, steps + 1)
            np.testing.assert_allclose(got, np.stack(want, axis=2),
                                       rtol=0, atol=1e-13)


def test_kernel_err_est_bounds_the_cosine_error():
    # beyond the discretization, the estimate holds the rounding the
    # march accumulates: 18 lam over 60 points to x = 40
    prob = families.make_family("cosine").problem
    lams = np.geomspace(0.3, 400.0, 18)
    xs = np.linspace(1e-4, 40.0 - 1e-6, 60)
    w, _, err = kernel.get_engine(prob, float(xs[-1])).table(lams, xs)
    assert np.all(err >= np.abs(w - np.cos(np.sqrt(lams)[:, None] * xs)))


def _whittaker0_mp40(lam, x):
    with mpmath.workdps(40):
        mu = mpmath.mpc(0, mpmath.sqrt(mpmath.mpf(lam) - 0.25))
        z = 1 / mpmath.mpf(x)
        return float(mpmath.re(mpmath.exp(z / 2) * mpmath.whitw(0, mu, z)))


def test_whittaker_err_est_carries_the_start_state():
    # the series' error at the switch point reaches a point as the state
    # does: where w decays by 60 orders and more, so does the estimate
    prob = _whittaker0()
    xs = np.array([0.05, 0.5, 3.5])
    eng = kernel.get_engine(prob, float(xs[-1]))
    for lam in (144.0, 1e3, 1e4, 4e4, 1e5):
        w, _, err = eng.eval_many(lam, xs)
        actual = np.abs(w - [_whittaker0_mp40(lam, x) for x in xs])
        assert np.all(err >= actual), lam
        if lam == 1e4:
            assert np.all(err <= 1e3 * actual)


def test_points_inside_the_second_step_of_a_pair():
    # a point in the second step of its pair takes the difference of the
    # passes at the pair's first edge, carried by the fine step from there
    # and its own partial step
    prob = _whittaker0()
    eng = kernel.get_engine(prob, 3.5)
    for lam in (25.0, 144.0, 1e3):
        t = eng._steps(lam, eng.switch_x(lam), 3.5)
        odd = np.arange(1, len(t) - 1, 2)
        odd = odd[(t[odd] >= 0.05) & (t[odd + 1] <= 3.5)]
        ks = odd[np.linspace(0, len(odd) - 1, 6).astype(int)]
        xs = np.append(t[ks] + 0.4 * np.diff(t)[ks], 3.5)
        assert np.all((np.searchsorted(t, xs[:-1]) - 1) % 2 == 1)
        w, _, err = eng.eval_many(lam, xs)
        actual = np.abs(w - [_whittaker0_mp(lam, x) for x in xs])
        assert np.all(actual <= 1e-11), lam
        assert np.all(err >= actual), lam


def test_err_est_covers_the_first_step_pair(monkeypatch):
    # both passes start from one state, so the first pair's points carry
    # no difference of the passes; they take the pair's own, which covers
    # the error there also with steps 4e3 times coarser than the default
    monkeypatch.setattr(kernel, "_STEP_TOL", 1e-6)
    monkeypatch.setattr(kernel, "_STEP_COARSEN", 8.0)
    lam = 25.0
    eng = kernel.get_engine(_whittaker0(), 3.0)
    t = eng._steps(lam, eng.switch_x(lam), 3.0)
    xs = np.r_[np.linspace(t[0], t[2], 12)[1:-1],
               np.linspace(t[2], t[6], 9)[1:]]
    w, _, err = eng.eval_many(lam, xs)
    actual = np.abs(w - [_whittaker0_mp(lam, x) for x in xs])
    assert np.max(actual) > 1e-11
    assert np.all(err >= actual)


def test_march_carries_the_difference_by_the_fine_steps():
    # a pair's points: its first edge (a partial step of length 0), one in
    # its first step and one in its second; each takes one partial step
    # from the fine edge before it, and the difference of the passes at
    # the pair's first edge is carried by the fine step, then that step
    eng = kernel.get_engine(_whittaker0(), 3.5)
    lam = 144.0
    t = eng._steps(lam, eng.switch_x(lam), 3.5)
    k = 2 * (len(t) // 4)
    xs = np.array([t[k], t[k] + 0.3 * (t[k + 1] - t[k]),
                   t[k + 1] + 0.4 * (t[k + 2] - t[k + 1])])
    vals, exps = eng._march(np.array([lam]), t, np.array([[1.0], [0.0]]),
                            xs)
    assert np.all(exps == exps[0, 0])
    fine, part1, part2 = np.moveaxis(eng._magnus_steps(
        [lam], np.array([t[k], t[k], t[k + 1]]),
        np.array([t[k + 1], xs[1], xs[2]])), -1, 0)
    apply = kernel._apply
    for got in vals:                # the values, then the differences
        at_edge = got[..., 0]
        for want, x in ((apply(part1, at_edge), got[..., 1]),
                        (apply(part2, apply(fine, at_edge)), got[..., 2])):
            np.testing.assert_allclose(x, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
    assert np.max(np.abs(vals[1][..., 0])) > 0.0


def test_many_points_in_one_step_pair():
    # more points than a block holds, inside one pair of steps, go in
    # several partial-step calls
    prob = families.make_family("cosine").problem
    lams = np.array([30.0, 60.0])
    xs = np.append(np.linspace(5.0, 5.002, 2 * kernel._STEP_BLOCK + 50), 9.5)
    eng = kernel.get_engine(prob, float(xs[-1]))
    t = eng._steps(60.0, eng.switch_x(30.0), 9.5)
    assert len(np.unique(np.searchsorted(t, xs[:-1]) // 2)) == 1
    w, _, err = eng.table(lams, xs)
    actual = np.abs(w - np.cos(np.sqrt(lams)[:, None] * xs))
    assert np.all(actual <= 1e-13)
    assert np.all(err >= actual)


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


def test_whittaker_kernel_at_lambda_4e4_and_1e5():
    # the state carried from x0 ~ 1e-4 grows like sqrt(A(x) / A(x0)),
    # A(x0) ~ x0 e^(-1/x0), past the range of a double before x = 3.5;
    # it is scaled back by powers of two, carried into the frame's scale
    prob = _whittaker0()
    xs = np.array([0.05, 0.5, 3.5])
    eng = kernel.get_engine(prob, float(xs[-1]))
    for lam in (4e4, 1e5):
        w, _, err = eng.eval_many(lam, xs)
        with mpmath.workdps(40):
            mu = mpmath.mpc(0, mpmath.sqrt(mpmath.mpf(lam) - 0.25))
            want = np.array([float(mpmath.re(
                mpmath.exp(1 / (2 * mpmath.mpf(x)))
                * mpmath.whitw(0, mu, 1 / mpmath.mpf(x)))) for x in xs])
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(err))
        assert np.all(err >= np.abs(w - want))
        assert np.all(np.abs(w - want) <= 1e-5 * np.abs(want))


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
