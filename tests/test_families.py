import dataclasses
import math

import numpy as np
import pytest

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
    np.testing.assert_allclose(np.real(fam.closed_kernel(4.0, xs)),
                               np.cos(2.0 * xs), rtol=1e-13)


def test_hankel_half_closed_kernel_is_sinc():
    fam = families.make_family("hankel", {"alpha": 0.5})
    xs = np.linspace(0.1, 3.0, 10)
    np.testing.assert_allclose(np.real(fam.closed_kernel(9.0, xs)),
                               np.sin(3.0 * xs) / (3.0 * xs), rtol=1e-12)


def test_conv_sampled_is_probability_measure():
    cases = [("cosine", {}), ("squared_weight", {}),
             ("hankel", {"alpha": 0.5}), ("hankel", {"alpha": 0.0}),
             ("jacobi", {"alpha": 1.0, "beta": 0.0}),
             ("whittaker", {"alpha": 0.0})]
    for name, params in cases:
        fam = families.make_family(name, params)
        a = fam.problem.a
        nu = fam.conv_sampled(a + 0.8, a + 1.3)
        assert measures.total_mass(nu) == pytest.approx(1.0, abs=1e-8), name


def test_cosine_convolution_atoms():
    fam = families.make_family("cosine")
    nu = fam.conv_sampled(1.0, 2.0)
    assert dict(nu.atoms) == {1.0: 0.5, 3.0: 0.5}


def test_hankel_convolution_support():
    # Kingman convolution is supported on [|x-y|, x+y]
    fam = families.make_family("hankel", {"alpha": 0.5})
    nu = fam.conv_sampled(1.0, 2.0)
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


def test_eval_special_dispatch():
    val = families.eval_special("bessel_j_normalized", [0.5], 1.0)
    assert val == pytest.approx(math.sin(1.0), rel=1e-12)
    with pytest.raises(errors.ValidationError):
        families.eval_special("nope", [], 1.0)


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
            want = np.array([np.real(np.asarray(fam.closed_kernel(lam, xs)))
                             for lam in lams])
            # a copy with a wrapped closed form sends every lam through it
            calls = []

            def counting(lam, x, ck=fam.closed_kernel):
                calls.append(lam)
                return ck(lam, x)

            wrapped = dataclasses.replace(fam, closed_kernel=counting)
            assert np.array_equal(wrapped.kernel(lams, xs), want), name
            assert calls == lams, name
        assert np.array_equal(got, want), name
    # the last case's problem (degenerate_custom) as a custom family
    custom = families.from_problem(fam.problem)
    assert custom.id == "custom"
    assert np.array_equal(custom.kernel(lams, xs), want)


def test_product_check_closed_kernel_override_counts_calls():
    # whittaker prefers the numeric kernel; use_closed_kernel=True still
    # reaches its closed form, once per lam, through a wrapped copy
    fam = families.make_family("whittaker", {"alpha": 0.0})
    calls = []

    def counting(lam, x):
        calls.append(lam)
        return fam.closed_kernel(lam, x)

    wrapped = dataclasses.replace(fam, closed_kernel=counting)
    convolution.verify_product_formula(wrapped, 0.9, 1.1, [1.0],
                                       use_closed_kernel=True)
    assert calls == [1.0]
    convolution.verify_product_formula(wrapped, 0.9, 1.1, [1.0])
    assert calls == [1.0]



_CONVOLUTION_FAMILIES = [("cosine", {}), ("squared_weight", {})] + [
    ("hankel", {"alpha": alpha}) for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0)] + [
    ("jacobi", {"alpha": 1.0, "beta": 0.0}), ("whittaker", {"alpha": 0.0})]


def test_conv_rule_and_sampled_measure_are_one_law():
    # conv_quad and conv_sampled both derive from the family's one law:
    # the same mass and the same transform, and the sampled cells join into
    # a few long segments
    lams = [1.0, 4.0, 9.0]
    for name, params in _CONVOLUTION_FAMILIES:
        fam = families.make_family(name, params)
        for x, y in ((0.8, 1.3), (1.0, 1.0), (0.3, 2.1)):
            nodes, wts, atoms = fam.conv_quad(x, y)
            nu = fam.conv_sampled(x, y)
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
