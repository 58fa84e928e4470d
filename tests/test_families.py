import dataclasses

import mpmath as mp
import numpy as np
import pytest

from conftest import CONVOLUTION_FAMILIES
from slconv import convolution, errors, families, kernel, measures, spectral


def test_make_family_unknown_name():
    with pytest.raises(errors.ValidationError):
        families.make_family("nope")


def test_family_cache_returns_same_object():
    f1 = families.make_family("hankel", {"alpha": 0.5})
    f2 = families.make_family("hankel", alpha=0.5)
    assert f1 is f2


def test_cosine_closed_kernel():
    fam = families.make_family("cosine")
    xs = np.linspace(0.0, 3.0, 10)
    np.testing.assert_allclose(fam.closed_kernel([4.0], xs)[0],
                               np.cos(2.0 * xs), rtol=1e-13)


def test_hankel_half_closed_kernel_is_sinc():
    fam = families.make_family("hankel", {"alpha": 0.5})
    xs = np.linspace(0.1, 3.0, 10)
    np.testing.assert_allclose(fam.closed_kernel([9.0], xs)[0],
                               np.sin(3.0 * xs) / (3.0 * xs), rtol=1e-12)


def test_conv_sampled_is_probability_measure():
    cases = [("cosine", {}), ("squared_weight", {}),
             ("hankel", {"alpha": 0.5}), ("hankel", {"alpha": 0.0}),
             ("jacobi", {"alpha": 1.0, "beta": 0.0}),
             ("whittaker", {"alpha": 0.0})]
    for name, params in cases:
        fam = families.make_family(name, params)
        a = fam.problem.a
        nu = families.family_convolution_measure(fam, a + 0.8, a + 1.3)
        assert measures.total_mass(nu) == pytest.approx(1.0, abs=1e-8), name


def test_cosine_convolution_atoms():
    fam = families.make_family("cosine")
    nu = families.family_convolution_measure(fam, 1.0, 2.0)
    assert dict(nu.atoms) == {1.0: 0.5, 3.0: 0.5}


def test_hankel_convolution_support():
    # Kingman convolution is supported on [|x-y|, x+y]
    fam = families.make_family("hankel", {"alpha": 0.5})
    nu = families.family_convolution_measure(fam, 1.0, 2.0)
    lo = min(seg.l for seg in nu.segments)
    hi = max(seg.u for seg in nu.segments)
    assert lo >= 1.0 - 1e-12
    assert hi <= 3.0 + 1e-12


def test_convolution_with_identity_atom():
    # delta_a is the unit: nu_{a,y} = delta_y
    for name, params in (("hankel", {"alpha": 0.5}),
                         ("whittaker", {"alpha": 0.0})):
        fam = families.make_family(name, params)
        a = fam.problem.a
        nu = families.family_convolution_measure(fam, a, a + 1.2)
        assert dict(nu.atoms) == {a + 1.2: 1.0}
        assert not nu.segments


def test_spectral_density_positive():
    for name, params in (("jacobi", {"alpha": 1.0, "beta": 0.0}),
                         ("whittaker", {"alpha": 0.0})):
        fam = families.make_family(name, params)
        taus = np.linspace(0.1, 8.0, 25)
        dens = np.asarray(fam.spectral.tau_density(taus), dtype=float)
        assert np.all(dens > 0), name


def test_load_family_round_trip():
    fam = families.load_family({"family": "hankel",
                                "params": {"alpha": 0.5}})
    assert fam.id == "hankel"
    assert fam.param("alpha") == 0.5


_EVERY_FAMILY = [("cosine", {}), ("squared_weight", {}),
                 ("hankel", {"alpha": 1.0}),
                 ("jacobi", {"alpha": 1.0, "beta": 0.0}),
                 ("whittaker", {"alpha": 0.0}),
                 ("degenerate_custom", {"izeta": "log(x)"})]


def test_degenerate_custom_default_is_whittaker_zero():
    # the default izeta = log(x) is zeta = 1; with kappa = 1 the operator
    # is whittaker alpha = 0's
    fam = families.make_family("degenerate_custom")
    assert fam.param("izeta") == "log(x)"
    whit = families.make_family("whittaker", {"alpha": 0.0})
    lams = [0.0, 0.3, 2.5, 9.0]
    xs = np.array([0.05, 0.4, 1.3, 3.0])
    np.testing.assert_allclose(
        kernel.kernel_table(fam.problem, lams, xs),
        kernel.kernel_table(whit.problem, lams, xs), rtol=0.0, atol=1e-10)


def test_family_kernel_routing():
    lams = [0.0, 2.5, 9.0]
    xs = np.array([0.0, 0.4, 1.3])
    for name, params in _EVERY_FAMILY:
        fam = families.make_family(name, params)
        got = fam.kernel(lams, xs)
        assert got.shape == (3, 3), name
        if name in ("whittaker", "degenerate_custom"):
            want = kernel.kernel_table(fam.problem, lams, xs)
        else:
            want = fam.closed_kernel(lams, xs)
            # a copy with a wrapped closed form sends all lams through it
            # in one call
            calls = []

            def counting(lam, x, ck=fam.closed_kernel):
                calls.append(list(lam))
                return ck(lam, x)

            wrapped = dataclasses.replace(fam, closed_kernel=counting)
            assert np.array_equal(wrapped.kernel(lams, xs), want), name
            assert calls == [lams], name
        assert np.array_equal(got, want), name
        if fam.closed_kernel is not None:
            # a 2-D xs gives (L, *xs.shape), each row the 1-D call's on
            # the flattened points
            xs2 = np.array([[0.0, 0.4, 1.3], [0.7, 2.0, 0.05]])
            got2 = fam.closed_kernel(lams, xs2)
            assert got2.shape == (3, 2, 3), name
            assert np.array_equal(got2.reshape(3, -1),
                                  fam.closed_kernel(lams, xs2.ravel())), name
    # the last case's problem (degenerate_custom) as a custom family
    custom = families.from_problem(fam.problem)
    assert custom.id == "custom"
    assert np.array_equal(custom.kernel(lams, xs), want)


def test_family_kernel_refuses_points_outside_the_interval():
    # closed and numeric paths alike: x = a gives 1, a point below a or a
    # NaN raises instead of returning an even extension or 1
    cases = [families.make_family(name, params)
             for name, params in _EVERY_FAMILY]
    cases.append(families.from_problem(cases[-1].problem))
    cases += [dataclasses.replace(fam, prefer_closed_kernel=False)
              for fam in cases if fam.closed_kernel is not None]
    for fam in cases:
        a = fam.problem.a
        assert np.all(fam.kernel([0.0, 4.0], [a]) == 1.0), fam.id
        for bad in (a - 0.5, np.nan):
            with pytest.raises(errors.ParamOutOfRange):
                fam.kernel([4.0], [a + 1.0, bad])


def test_family_kernel_refuses_bad_lambda():
    # closed and numeric paths alike: a negative or non-finite lam raises
    # instead of giving w = 1, an analytic continuation or NaN rows
    for name in families.FAMILY_NAMES:
        fam = families.make_family(name)
        for f in (fam, dataclasses.replace(fam, prefer_closed_kernel=False)):
            for bad in (-1.0, np.nan, np.inf):
                with pytest.raises(errors.ParamOutOfRange):
                    f.kernel([4.0, bad], [fam.problem.a + 0.5])


def _bit_equal(got, want):
    """Nested tuples of arrays (or None) equal entry for entry."""
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(map(_bit_equal, got, want)))
    if want is None:
        return got is None
    return np.array_equal(got, want)


def test_cosine_is_hankel_minus_half():
    # p = r = 1 either way: kernel table, both convolution representations
    # and the exact draw are hankel(-1/2)'s, bit for bit
    cos = families.make_family("cosine")
    hank = families.make_family("hankel", {"alpha": -0.5})
    assert (cos.id, cos.params) == ("cosine", ())
    lams = [0.0, 0.3, 4.0, 144.0]
    xs = np.array([0.0, 1e-6, 0.4, 1.3, 7.5])
    assert np.array_equal(cos.kernel(lams, xs), hank.kernel(lams, xs))
    x, y = np.array([0.0, 0.3, 1.0, 2.5]), np.array([0.4, 1.0, 1.0, 0.9])
    for conv in ("conv_quad", "conv_sampled"):
        got, want = getattr(cos, conv)(x, y), getattr(hank, conv)(x, y)
        assert _bit_equal(got, want), conv
    u = np.array([0.1, 0.5, 0.5, 0.9])
    assert np.array_equal(cos.conv_draw(x, y, u), hank.conv_draw(x, y, u))


def test_product_check_closed_kernel_override_counts_calls():
    # whittaker prefers the numeric kernel; use_closed_kernel=True still
    # reaches its closed form, one call for all lams, through a wrapped copy
    fam = families.make_family("whittaker", {"alpha": 0.0})
    calls = []

    def counting(lam, x):
        calls.append(list(lam))
        return fam.closed_kernel(lam, x)

    wrapped = dataclasses.replace(fam, closed_kernel=counting)
    convolution.verify_product_formula(wrapped, 0.9, 1.1, [1.0, 2.0],
                                       use_closed_kernel=True)
    assert calls == [[1.0, 2.0]]
    convolution.verify_product_formula(wrapped, 0.9, 1.1, [1.0, 2.0])
    assert calls == [[1.0, 2.0]]


def _jacobi_rule_mp(n, alpha, beta, nodes):
    """Gauss-Jacobi nodes and weights in 30 digits: two Newton steps from
    each given node on the monic three-term recurrence, then the weight
    ||pi_{n-1}||^2 / (pi_{n-1}(s) pi_n'(s))."""
    mp.mp.dps = 30
    al, be = mp.mpf(alpha), mp.mpf(beta)
    ab = al + be
    diag = [(be - al) / (ab + 2)] + [
        (be * be - al * al) / ((2 * k + ab) * (2 * k + ab + 2))
        for k in range(1, n)]
    b = [0, 4 * (1 + al) * (1 + be) / ((2 + ab) ** 2 * (3 + ab))] + [
        4 * k * (k + al) * (k + be) * (k + ab)
        / ((2 * k + ab) ** 2 * (2 * k + ab + 1) * (2 * k + ab - 1))
        for k in range(2, n)]
    norm = 2 ** (ab + 1) * mp.gamma(al + 1) * mp.gamma(be + 1) \
        / mp.gamma(ab + 2)
    for bk in b[1:]:
        norm *= bk
    out = []
    for s in nodes:
        s = mp.mpf(s)
        for _ in range(2):
            p_prev, p, d_prev, d = 0, mp.mpf(1), 0, 0
            for k in range(n):
                p_prev, p, d_prev, d = (p, (s - diag[k]) * p - b[k] * p_prev,
                                        d, (s - diag[k]) * d + p
                                        - b[k] * d_prev)
            step = p / d
            s -= step
        out.append((float(s), float(norm / (p_prev * d))))
    return np.array(out).T


@pytest.mark.parametrize("n,alpha,beta", [
    (200, 0.0, 0.0), (200, 0.5, 0.5), (200, -0.5, -0.5), (200, 1.3, 1.3),
    (12, 0.0, 0.5), (12, 0.5, 0.0)])
def test_jacobi_rule_against_mpmath(n, alpha, beta):
    # the numpy Golub-Welsch rule: nodes to 2 ulp of 1, weights to 1e-12
    # relative; the alpha = beta rules are symmetric, so their mirrored
    # lower half is checked against the upper half's reference
    s, v = families._jacobi_rule(n, alpha, beta)
    assert np.all(np.diff(s) > 0.0)
    half = n // 2 if alpha == beta else 0
    want_s, want_v = _jacobi_rule_mp(n, alpha, beta, s[half:])
    got = [(s[half:], v[half:])]
    if half:
        got.append((-s[:half][::-1], v[:half][::-1]))
    for gs, gv in got:
        assert np.max(np.abs(gs - want_s)) <= 2.3e-16
        assert np.max(np.abs(gv / want_v - 1.0)) <= 1e-12


def test_jacobi_last_cells_match_one_pair():
    # the last cell edge t = l + (u - l) * 1 may round past u, where the
    # edge power is NaN; clamped to [l, u], each pair's last cells from a
    # pair-array call match its own call's
    fam = families.make_family("jacobi", {"alpha": 1.0, "beta": 0.0})
    x, y = np.full(60, 0.787), np.linspace(1.0, 1.2, 60)
    _, (edges, masses, dens) = fam.conv_sampled(x, y)
    assert np.all(np.isfinite(dens))
    for i in range(len(x)):
        _, (e1, m1, d1) = fam.conv_sampled(float(x[i]), float(y[i]))
        for got, want in ((edges[i, -2:], e1[-2:]), (masses[i, -1:], m1[-1:]),
                          (dens[i, -2:], d1[-2:])):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale, (i, got, want)


def test_jacobi_kernel_table_against_mpmath():
    # w_lam(x) = 2F1((2 - mu)/2, (2 + mu)/2; 2; -sinh^2 x), mu^2 = 4 - lam:
    # lam = 0 terminates (w = 1), lam = 3 and 4 reach the logarithmic
    # connection (m = 1, 0), lam = 10 the general one; x on both sides of
    # tanh^2 x = 0.75 (x ~ 1.317) runs both branches after the Pfaff step
    fam = families.make_family("jacobi", {"alpha": 1.0, "beta": 0.0})
    lams = [0.0, 3.0, 4.0, 10.0]
    xs = np.array([[0.0, 0.4, 1.2], [1.4, 2.5, 4.0]])
    got = fam.closed_kernel(lams, xs)
    assert got.shape == (4, 2, 3)
    mp.mp.dps = 30
    for lam, row in zip(lams, got):
        mu = mp.sqrt(mp.mpc(4.0 - lam))
        for x, val in zip(xs.ravel(), row.ravel()):
            want = float(mp.re(mp.hyp2f1((2 - mu) / 2, (2 + mu) / 2, 2,
                                         -mp.sinh(x) ** 2)))
            assert abs(val - want) <= 1e-9 * max(1.0, abs(want)), (lam, x)


def test_jacobi_kernel_far_out_against_mpmath():
    # the Pfaff step's 2F1 argument z/(z-1) = tanh^2 x nears 1, so its
    # 1 - z must be formed as 1/cosh^2 x: 1 - tanh^2 x has lost every
    # digit by x ~ 18 and rounds to 0 (Gauss's sum) from x ~ 18.7 on
    fam = families.make_family("jacobi", {"alpha": 1.0, "beta": 0.0})
    lams = [1.0, 4.0, 25.0]
    xs = np.array([10.0, 15.0, 18.0, 25.0])
    got = fam.closed_kernel(lams, xs)
    mp.mp.dps = 40
    for lam, row in zip(lams, got):
        mu = mp.sqrt(mp.mpc(4.0 - lam))
        for x, val in zip(xs, row):
            want = float(mp.re(mp.hyp2f1((2 - mu) / 2, (2 + mu) / 2, 2,
                                         -mp.sinh(x) ** 2)))
            assert abs(val - want) <= 1e-11 * abs(want), (lam, x)


def test_whittaker_kernel_table_against_mpmath():
    # one call per alpha: the lams need different Laplace node counts
    # (|Im mu| from 0 to ~5), and x = 0 gives exactly 1
    lams = [0.1, 1.0, 6.0, 25.0]
    xs = np.array([0.0, 0.05, 0.3, 1.0, 3.3, 20.0])
    mp.mp.dps = 30
    for alpha in (0.0, -0.5):
        fam = families.make_family("whittaker", {"alpha": alpha})
        got = fam.closed_kernel(lams, xs)
        assert got.shape == (4, 6)
        assert np.all(got[:, 0] == 1.0)
        for lam, row in zip(lams, got):
            mu = mp.sqrt(mp.mpc((0.5 - alpha) ** 2 - lam))
            for x, val in zip(xs[1:], row[1:]):
                z = 1 / mp.mpf(x)
                want = float(mp.re(mp.mpf(x) ** alpha * mp.exp(z / 2)
                                   * mp.whitw(alpha, mu, z)))
                assert abs(val - want) <= 1e-9 * max(1.0, abs(want)), \
                    (alpha, lam, x)
        with pytest.raises(errors.RangeNotValidated):
            fam.closed_kernel(lams, np.array([1.0, 5e-4]))


def test_conv_rule_and_sampled_measure_are_one_law():
    # conv_quad and conv_sampled both derive from the family's one law:
    # the same mass and the same transform, and the sampled cells join into
    # a few long segments
    lams = [1.0, 4.0, 9.0]
    for name, params in CONVOLUTION_FAMILIES:
        fam = families.make_family(name, params)
        for x, y in ((0.8, 1.3), (1.0, 1.0), (0.3, 2.1)):
            nodes, wts, atoms = fam.conv_quad(x, y)
            nu = families.family_convolution_measure(fam, x, y)
            case = (name, params, x, y)
            rule_mass = float(np.sum(wts)) + sum(m for _, m in atoms)
            assert rule_mass == pytest.approx(measures.total_mass(nu),
                                              abs=1e-12), case
            locs = np.asarray([loc for loc, _ in atoms])
            masses = np.asarray([m for _, m in atoms])
            rule_hat = (fam.kernel(lams, nodes) @ wts
                        + fam.kernel(lams, locs) @ masses)
            for lam, want in zip(lams, rule_hat):
                got = spectral.measure_transform(fam, nu, lam)
                assert got == pytest.approx(want, abs=1e-6), (case, lam)
            assert len(nu.segments) <= 3, case


def test_conv_quad_on_pair_arrays_matches_each_pair():
    # one call on pair arrays (mixed with unit pairs, units only, and no
    # units) gives every pair the rule that a call with its floats gives;
    # zero weights (padding, unit rows) aside
    def points(rule, i=()):
        got = np.column_stack([c[i] for c in families.rule_table(*rule)])
        return got[got[:, 1] != 0.0]

    for name, params in CONVOLUTION_FAMILIES:
        fam = families.make_family(name, params)
        a = fam.problem.a
        for x, y in (([[0.8, 1.0, 0.3], [0.0, 0.7, 2.5]],
                      [[1.3, 1.0, 2.1], [1.2, 0.0, 0.4]]),
                     ([0.0, 0.9], [1.1, 0.0]),
                     ([0.05, 3.0], [0.07, 3.0])):
            x, y = a + np.array(x), a + np.array(y)
            rule = fam.conv_quad(x, y)
            assert rule[0].shape == rule[1].shape
            assert rule[0].shape[:-1] == x.shape
            for i in np.ndindex(x.shape):
                want = points(fam.conv_quad(float(x[i]), float(y[i])))
                np.testing.assert_allclose(points(rule, i), want, rtol=1e-13,
                                           atol=0.0,
                                           err_msg=str((name, params, i)))


def test_conv_sampled_on_pair_arrays_matches_each_pair():
    # one call on pair arrays (2-D, mixed with unit pairs, units only, and
    # no units) gives every pair the atoms a call with its floats gives,
    # exactly, and its cells of positive mass to 1e-12 of their scale
    def cells_of(cells, i=()):
        edges, masses, dens = (c[i] for c in cells)
        keep = masses > 0.0
        return (masses[keep], edges[:-1][keep], edges[1:][keep],
                dens[:-1][keep], dens[1:][keep])

    for name, params in CONVOLUTION_FAMILIES:
        fam = families.make_family(name, params)
        a = fam.problem.a
        for x, y in (([[0.8, 1.0, 0.3], [0.0, 0.7, 2.5]],
                      [[1.3, 1.0, 2.1], [1.2, 0.0, 0.4]]),
                     ([0.0, 0.9], [1.1, 0.0]),
                     ([0.05, 3.0], [0.07, 3.0])):
            x, y = a + np.array(x), a + np.array(y)
            atoms, cells = fam.conv_sampled(x, y)
            for i in np.ndindex(x.shape):
                case = (name, params, i)
                want_atoms, want_cells = fam.conv_sampled(float(x[i]),
                                                          float(y[i]))
                assert [(float(loc[i]), float(m[i])) for loc, m in atoms] \
                    == [(float(loc), float(m)) for loc, m in want_atoms], case
                assert (cells is None) == (want_cells is None), case
                if cells is None:
                    continue
                for got, want in zip(cells_of(cells, i),
                                     cells_of(want_cells)):
                    scale = np.max(np.abs(want[np.isfinite(want)]),
                                   initial=0.0)
                    np.testing.assert_allclose(got, want, rtol=0.0,
                                               atol=1e-12 * scale,
                                               err_msg=str(case))


@pytest.mark.parametrize("alpha", [0.0, -0.5, 0.25])
def test_whittaker_window_rule_mass_and_product_formula(alpha):
    # the law is a window in s = log(xi) cut at _WINDOW_CUT of the
    # density's peak: its 200-node Gauss-Legendre rule loses under 1e-12
    # of the mass, and the product formula holds to 1e-12
    fam = families.make_family("whittaker", {"alpha": alpha})
    lams = np.arange(0.0, 26.0, 5.0)
    for x, y in ((1.1, 0.9), (0.3, 2.0), (2.5, 0.4), (0.05, 0.07)):
        nodes, wts, _ = fam.conv_quad(x, y)
        assert nodes.shape == wts.shape == (200,)
        assert abs(np.sum(wts) - 1.0) <= 1e-12, (alpha, x, y)
        rep = convolution.verify_product_formula(fam, x, y, lams)
        assert rep.max_abs_err <= 1e-12, (alpha, x, y, rep.max_abs_err)
