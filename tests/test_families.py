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
    # the last case's problem (degenerate_custom) as a custom family
    custom = families.from_problem(fam.problem)
    assert custom.id == "custom"
    assert np.array_equal(custom.kernel(lams, xs), want)


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
