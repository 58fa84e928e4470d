import math
import warnings

import numpy as np
import pytest
from scipy.special import erfc

from slconv import errors, families, measures, prob, spectral


@pytest.fixture(scope="module")
def cosine():
    return families.make_family("cosine")


def _hat(fam, mu, lam):
    return spectral.measure_transform(fam, mu, lam)


def test_compound_poisson_zero_measure_is_unit(cosine):
    out = prob.compound_poisson(cosine, measures.MeasureRepr())
    assert dict(out.atoms) == {0.0: 1.0}


def test_compound_poisson_transform_identity(cosine):
    mu = measures.MeasureRepr(atoms=((0.7, 0.5), (1.9, 0.3)))
    e_mu = prob.compound_poisson(cosine, mu)
    assert measures.total_mass(e_mu) == pytest.approx(1.0, abs=1e-9)
    for lam in (0.5, 3.0, 8.0):
        want = math.exp(_hat(cosine, mu, lam) - measures.total_mass(mu))
        assert _hat(cosine, e_mu, lam) == pytest.approx(want, abs=1e-10)


def test_compound_poisson_tail_guard(cosine):
    # the tail still holds nearly all the mass after the 400 jumps allowed
    mu = measures.MeasureRepr(atoms=((1.0, 500.0),))
    with pytest.raises(errors.TailTooLarge):
        prob.compound_poisson(cosine, mu)


def test_levy_khintchine_exponent(cosine):
    nu = measures.MeasureRepr(atoms=((1.0, 0.4),))
    triple = prob.LevyTriple(gaussian_scale=0.5, levy_measure=nu)
    for lam in (0.0, 1.0, 4.0):
        want = 0.5 * lam + 0.4 * (1.0 - math.cos(math.sqrt(lam)))
        got = prob.levy_khintchine_exponent(cosine, triple, lam)
        assert got == pytest.approx(want, abs=1e-10)
    assert prob.levy_khintchine_exponent(cosine, triple, 0.0) \
        == pytest.approx(0.0, abs=1e-12)


def test_levy_triple_rejects_negative_scale():
    with pytest.raises(errors.ValidationError):
        prob.LevyTriple(gaussian_scale=-1.0,
                        levy_measure=measures.MeasureRepr())


def test_semigroup_measure_is_markov_kernel(cosine):
    xg = np.linspace(0.0, 10.0, 4001)
    mu = prob.semigroup_measure(cosine, lambda lam: lam, 0.5, xg)
    assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu.segments[0].density >= 0.0)


def test_semigroup_measure_rejects_negative_density(cosine):
    # exp(-t lam^2) is not the transform of a positive measure: the
    # synthesized density dips to about -0.07
    xg = np.linspace(0.0, 10.0, 2001)
    with pytest.raises(errors.MassDeficit):
        prob.semigroup_measure(cosine, lambda lam: lam ** 2, 0.5, xg)


def test_semigroup_property_via_transforms(cosine):
    # mu_s * mu_t = mu_{s+t} checked on the transform side
    xg = np.linspace(0.0, 10.0, 4001)
    mu_s = prob.semigroup_measure(cosine, lambda lam: lam, 0.2, xg)
    mu_t = prob.semigroup_measure(cosine, lambda lam: lam, 0.3, xg)
    mu_st = prob.semigroup_measure(cosine, lambda lam: lam, 0.5, xg)
    for lam in (1.0, 4.0):
        lhs = _hat(cosine, mu_s, lam) * _hat(cosine, mu_t, lam)
        rhs = _hat(cosine, mu_st, lam)
        assert lhs == pytest.approx(rhs, abs=1e-6)


def test_semigroup_contraction(cosine):
    # transform of a probability semigroup stays in [0, 1] for psi >= 0
    xg = np.linspace(0.0, 10.0, 2001)
    mu = prob.semigroup_measure(cosine, lambda lam: lam, 0.4, xg)
    for lam in (0.5, 2.0, 9.0):
        v = _hat(cosine, mu, lam)
        assert -1e-8 <= v <= 1.0 + 1e-8


def test_infinite_divisibility_nth_root(cosine):
    # the n-th convolution root of mu_t is mu_{t/n}: reconvolving n times
    # recovers mu_t on the transform side
    xg = np.linspace(0.0, 10.0, 2001)
    n = 4
    root = prob.semigroup_measure(cosine, lambda lam: lam, 0.6 / n, xg)
    mu_t = prob.semigroup_measure(cosine, lambda lam: lam, 0.6, xg)
    for lam in (0.7, 3.0):
        assert _hat(cosine, root, lam) ** n \
            == pytest.approx(_hat(cosine, mu_t, lam), abs=1e-5)


def test_diffusion_density_folded_gaussian(cosine):
    t, x0 = 0.25, 0.8
    yg = np.linspace(0.0, 8.0, 801)
    p, stop = prob.diffusion_density(cosine, t, x0, yg)
    assert stop.reason == "tol"
    want = ((np.exp(-(yg - x0) ** 2 / (4 * t))
             + np.exp(-(yg + x0) ** 2 / (4 * t)))
            / math.sqrt(4 * math.pi * t))
    np.testing.assert_allclose(p, want, atol=1e-10)


def test_transition_measure_reports_stop(cosine):
    yg = np.linspace(0.0, 8.0, 401)
    mu = prob._transition_measure(cosine, 0.25, 0.8, yg)
    assert "stop=tol" in mu.meta
    assert "clipped_mass=" in mu.meta and "renorm=" in mu.meta
    tail = float(mu.meta.split("tail=")[1])
    assert tail < 1e-9
    assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(errors.ParamOutOfRange):
        prob._transition_measure(cosine, 0.0, 0.8, yg)
    with pytest.raises(errors.ParamOutOfRange):
        prob.diffusion_ensemble(cosine, 0.8, -0.25, 5,
                                np.random.default_rng(0))


def test_walk_two_step_exact(cosine):
    rng = np.random.default_rng(3)
    term = prob.walk_ensemble(cosine, measures.dirac(1.0), 2, 4000, rng)
    vals, counts = np.unique(term, return_counts=True)
    assert set(vals.tolist()) == {0.0, 2.0}
    assert abs(counts[0] / 4000 - 0.5) < 0.05


def test_walk_needs_convolution_measure(cosine):
    custom = families.from_problem(cosine.problem)
    rng = np.random.default_rng(0)
    with pytest.raises(errors.ParamOutOfRange):
        prob.walk_ensemble(custom, measures.dirac(1.0), 2, 5, rng)
    with pytest.raises(errors.ParamOutOfRange):
        prob.sample_walk(custom, [measures.dirac(1.0)], 2, rng)


def test_sample_walk_path_shape(cosine):
    rng = np.random.default_rng(4)
    path = prob.sample_walk(cosine, [measures.dirac(1.0)], 5, rng)
    assert path.states.shape == (6,)
    assert path.states[0] == 0.0


def test_walk_hankel_half_fast_path_matches_quantile():
    # every exact draw (an atom picked by cumulative mass, or for hankel
    # xi^2 = l^2 + (hi^2 - l^2) B with B ~ Beta(alpha + 1/2, alpha + 1/2))
    # must agree with the generic inverse-CDF of the sampled measure
    s, x = 1.0, 0.7
    us = np.array([0.1, 0.5, 0.9])
    cases = [("cosine", {})] + [("hankel", {"alpha": alpha})
                                for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0)]
    for name, params in cases:
        fam = families.make_family(name, params)
        assert fam.conv_draw is not None
        fast = families.family_step(fam, np.full(3, s), np.full(3, x), us)
        cdf = measures.build_cdf(
            families.family_convolution_measure(fam, s, x), floor=0.0)
        generic = measures.quantile(cdf, us)
        np.testing.assert_allclose(fast, generic, rtol=0.0, atol=2e-3)
        if params.get("alpha") == 0.5:
            # Beta(1, 1) is uniform: xi^2 = l^2 + u (hi^2 - l^2) exactly
            assert np.array_equal(fast, np.sqrt(
                (s - x) ** 2 + us * ((s + x) ** 2 - (s - x) ** 2)))


def test_family_step_at_the_left_end_is_the_other_point():
    # nu_{a,x} = delta_x and nu_{s,a} = delta_s, with the law never
    # evaluated at a
    s = np.array([0.0, 0.0, 1.3])
    x = np.array([0.6, 1.1, 0.0])
    u = np.array([0.2, 0.7, 0.4])
    for name, params in (("cosine", {}), ("hankel", {"alpha": 1.0}),
                         ("jacobi", {"alpha": 1.0, "beta": 0.0})):
        fam = families.make_family(name, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = families.family_step(fam, s, x, u)
        np.testing.assert_array_equal(got, [0.6, 1.1, 1.3])


def test_diffusion_ensemble_cosine_from_origin_is_folded_gaussian(cosine):
    rng = np.random.default_rng(5)
    xs = prob.diffusion_ensemble(cosine, 0.0, 1.0, 50000, rng)
    # |N(0, 2t)|: E|X| = sqrt(2 sigma^2 / pi) with sigma^2 = 2
    assert np.mean(xs) == pytest.approx(math.sqrt(4.0 / math.pi),
                                        abs=0.02)


def test_sample_diffusion_markov_consistency(cosine):
    # two-step sampling at t=0.5 then 1.0 has the t=1.0 marginal
    rng = np.random.default_rng(6)
    n = 400
    term = np.array([prob.sample_diffusion(cosine, 0.0, [0.5, 1.0],
                                           rng).states[-1]
                     for _ in range(n)])
    direct = prob.diffusion_ensemble(cosine, 0.0, 1.0, 200000,
                                     np.random.default_rng(7))
    # compare a few quantiles (Monte Carlo tolerance at n = 400)
    for q in (0.25, 0.5, 0.75):
        assert np.quantile(term, q) == pytest.approx(
            np.quantile(direct, q), abs=0.15)


def test_gaussian_criterion_probe_diffusion_vanishes(cosine):
    # psi = lam is reflected Brownian motion |N(0, 2t)|: its mass beyond 1
    # is erfc(1 / (2 sqrt t))
    ts = [0.2, 0.1, 0.05]
    rep = prob.gaussian_criterion_probe(cosine, lambda lam: lam, 1.0, ts)
    assert rep["trend"] == "vanishing"
    got = [row["ratio"] for row in rep["rows"]]
    want = [erfc(0.5 / math.sqrt(t)) / t for t in ts]
    np.testing.assert_allclose(got, want, rtol=5e-3)


def test_lln_variant_guard(cosine):
    g = np.linspace(0.0, 1.0, 11)
    law = measures.MeasureRepr(segments=(measures.Segment(
        0.0, 1.0, g, np.ones(11)),))
    rng = np.random.default_rng(8)
    with pytest.raises(errors.ValidationError):
        prob.lln_experiment(cosine, law, "nope", {"n": 10}, rng)


def test_lln_iii_small(cosine):
    g = np.linspace(0.0, 2.0, 41)
    law = measures.MeasureRepr(segments=(measures.Segment(
        0.0, 2.0, g, np.full(41, 0.5)),))
    rng = np.random.default_rng(9)
    res = prob.lln_experiment(cosine, law, "III",
                              {"n": 2000, "n_paths": 200,
                               "rate_pow": 1.5}, rng)
    assert res["kappa"] == pytest.approx(0.0, abs=1e-6)
    assert res["p90"] < 0.5
