import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import betaincinv, erfc

from slconv import errors, families, measures, prob, spectral


@pytest.fixture(scope="module")
def cosine():
    return families.make_family("cosine")


def _hat(fam, mu, lam):
    return spectral.measure_transform(fam, mu, lam)


def test_compound_poisson_zero_measure_is_unit(cosine):
    out = prob.compound_poisson(cosine, measures.MeasureRepr())
    assert dict(out.atoms) == {0.0: 1.0}


# e(mu) of one 5-atom law on 0.5Z with total mass 3: its atoms are
# the lattice 0, 0.5, ..., 47.5 and these masses, bit for bit
_GOLDEN_CP_MASSES = """
0x1.bc56edede731ap-4 0x1.296dc7e1df223p-3 0x1.dbd3c54e6d20bp-4
0x1.ed88082110835p-4 0x1.efcb72c4e3c48p-4 0x1.8dc6197d36ed3p-4
0x1.0ee56d2f2c528p-4 0x1.bfa61caa63b0ap-5 0x1.827fc8757b053p-5
0x1.2a193b0b0a044p-5 0x1.9c999f8f5a94bp-6 0x1.234cd2c392b2dp-6
0x1.bcad40036fef7p-7 0x1.46e2230602c8ap-7 0x1.bd734ca769c40p-8
0x1.287c6e57ea41ep-8 0x1.9844c61b90799p-9 0x1.1b88e8dad331cp-9
0x1.79209a7ae91e7p-10 0x1.e4ea0e7d5e5dfp-11 0x1.3935c8f351075p-11
0x1.99d2e1c8fd07cp-12 0x1.081c6a16674a7p-12 0x1.4ac296d6de742p-13
0x1.99d9b509257a1p-14 0x1.fe9d68d61b41dp-15 0x1.3d3dcbe9b9e8cp-15
0x1.836e2bdb6837dp-16 0x1.d1fce5202d711p-17 0x1.177d726d9e135p-17
0x1.4f3b91a6d3ed5p-18 0x1.8ea7a1c799233p-19 0x1.d3ed3e0d6465dp-20
0x1.108d68714f1e9p-20 0x1.3ce5511d87c59p-21 0x1.6ee77d43ced57p-22
0x1.a4f9e9cb09442p-23 0x1.dedcfde6d6708p-24 0x1.0f26a28d80fc9p-24
0x1.321bb5fcea3d2p-25 0x1.578ecbe2a2f29p-26 0x1.7eb1139d826dep-27
0x1.a7d1f83c3030bp-28 0x1.d3a6c950ce782p-29 0x1.00ef36f22578ep-29
0x1.18acf1749071dp-30 0x1.30d03d7571ae6p-31 0x1.499483766c03ap-32
0x1.6309f4803e814p-33 0x1.7cbad11c2ad02p-34 0x1.9625dc7d61159p-35
0x1.af3d3857707cep-36 0x1.c8220d2836a30p-37 0x1.e09a6ac248926p-38
0x1.f820393e8fbe8p-39 0x1.0731cf9b7579bp-39 0x1.11b57cb9e4fa5p-40
0x1.1b956285a59f0p-41 0x1.24a3111782119p-42 0x1.2ca9f6e698b5dp-43
0x1.3396bedbfd5d1p-44 0x1.3966c666b28cap-45 0x1.3e006ca57c2d9p-46
0x1.4133297486e2ap-47 0x1.42d8bcc4bff8cp-48 0x1.42e037df3d822p-49
0x1.413605679b00dp-50 0x1.3db2f1b68ab26p-51 0x1.382b1bb4e5af3p-52
0x1.3082be4c9fbe7p-53 0x1.26abdfc5ebaa0p-54 0x1.1a98881e3f68ap-55
0x1.0c3cde7b76fb7p-56 0x1.f741a2def1de8p-58 0x1.d1d5c1cc0db0cp-59
0x1.a8b85eb0f6614p-60 0x1.7c981e2faec70p-61 0x1.4e59b5849a296p-62
0x1.1f21fbaa3101dp-63 0x1.e091491e43eb8p-65 0x1.867071e4f175dp-66
0x1.329db7ae47dd8p-67 0x1.cf12923509962p-69 0x1.4e39658fe9420p-70
0x1.c9e2587bbab09p-72 0x1.2720dae4612a2p-73 0x1.62246648877b4p-75
0x1.863cdd0e40e1ep-77 0x1.844f8727be538p-79 0x1.55de4f00fd972p-81
0x1.03b7824d740e9p-83 0x1.49d61b45b2e01p-86 0x1.4f35353122b91p-89
0x1.fe47bf736470ap-93 0x1.025ea83a6d2f6p-96 0x1.0516e54883e46p-101
""".split()


def test_compound_poisson_atoms_are_golden(cosine):
    law = measures.MeasureRepr(atoms=tuple(zip(
        0.5 * np.arange(1, 6), (0.9, 0.3, 0.6, 0.75, 0.45))))
    atoms = np.asarray(prob.compound_poisson(cosine, law).atoms).tolist()
    assert [loc for loc, _ in atoms] == [0.5 * k for k in range(96)]
    assert [m.hex() for _, m in atoms] == _GOLDEN_CP_MASSES


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


def test_levy_semigroup_takes_psi_per_lambda_block(cosine):
    # the Levy exponent takes the synthesis's lam blocks whole: one kernel
    # call and one row sum per block give the lam-by-lam values
    nu = measures.MeasureRepr(atoms=((0.7, 0.3), (1.6, 0.2)))
    triple = prob.LevyTriple(0.5, nu)
    lams = np.linspace(0.0, 40.0, 7)
    got = prob.levy_khintchine_exponent(cosine, triple, lams)
    want = [prob.levy_khintchine_exponent(cosine, triple, lam)
            for lam in lams]
    assert isinstance(want[0], float)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    xg = np.linspace(0.0, 12.0, 1201)
    mu = prob.semigroup_measure(
        cosine, lambda l: prob.levy_khintchine_exponent(cosine, triple, l),
        0.5, xg)
    ref = prob.semigroup_measure(
        cosine, lambda l: np.array([prob.levy_khintchine_exponent(
            cosine, triple, lam) for lam in l.tolist()]), 0.5, xg)
    np.testing.assert_allclose(mu.segments[0].density,
                               ref.segments[0].density, rtol=0, atol=1e-14)


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


def test_semigroup_measure_judges_the_sum_not_the_density():
    # jacobi(1, 0) on [0, 10]: r ~ e^(4x) / 16 blows the spectral sum's
    # rounding (about -1e-23) up to a density of -2e-9 near x = 10, which
    # is no failed inversion
    fam = families.make_family("jacobi", {"alpha": 1.0, "beta": 0.0})
    xg = np.linspace(0.0, 10.0, 501)
    mu = prob.semigroup_measure(fam, lambda lam: lam, 0.3, xg)
    assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu.segments[0].density >= 0.0)
    for lam in (0.0, 4.0, 10.0):
        assert _hat(fam, mu, lam) == pytest.approx(math.exp(-0.3 * lam),
                                                   abs=5e-5)


def test_semigroup_measure_reports_the_clipped_mass():
    # the meta's clipped_mass is the trapezoid integral of the clipped
    # part, so it does not scale with the number of grid points
    fam = families.make_family("jacobi", {"alpha": 1.0, "beta": 0.0})
    xg = np.linspace(0.0, 12.0, 601)
    mu = prob.semigroup_measure(fam, lambda lam: lam, 0.3, xg)
    got = float(re.search(r"clipped_mass=(\S+)", mu.meta).group(1))
    dens, _ = spectral.synthesize(fam, lambda lams: np.exp(-0.3 * lams),
                                  [0.0], xg, prob._SYNTH_TOL)
    clipped = np.minimum(dens[0] * fam.problem.r_val(xg), 0.0)
    assert got == pytest.approx(np.trapezoid(clipped, xg), rel=1e-3)
    assert got == pytest.approx(-1.24e-7, rel=0.02)


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


def test_heat_law_reports_stop(cosine):
    mu = prob._heat_law(cosine, 0.25)
    assert "stop=tol" in mu.meta
    assert "clipped_mass=" in mu.meta and "renorm=" in mu.meta
    tail = float(mu.meta.split("tail=")[1])
    assert tail < 1e-9
    assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(errors.ParamOutOfRange):
        prob._heat_law(cosine, 0.0)
    with pytest.raises(errors.ParamOutOfRange):
        prob.diffusion_ensemble(cosine, 0.8, -0.25, 5,
                                np.random.default_rng(0))


def test_semigroup_measure_on_a_short_grid_is_a_mass_deficit(cosine):
    # mu_0.5 = |N(0, 1)| has mass erf(2 / sqrt(2)) ~ 0.954 on [0, 2]
    with pytest.raises(errors.MassDeficit):
        prob.semigroup_measure(cosine, lambda lam: lam, 0.5,
                               np.linspace(0.0, 2.0, 801))


@pytest.mark.parametrize("n_grid", [800, 2400])
def test_semigroup_measure_with_a_sloped_edge_keeps_its_mass(n_grid):
    # squared_weight's mu_t has density r(x) p_t(0, x), sloped at a: the
    # trapezoid misses its mass by h^2 f'(a) / 12 (~6e-6 at 800 points),
    # the O(h^4) check does not, on uniform and on graded grids
    fam = families.make_family("squared_weight")
    for xg in (np.linspace(0.0, 10.0, n_grid),
               10.0 * np.linspace(0.0, 1.0, n_grid) ** 1.5):
        mu = prob.semigroup_measure(fam, lambda lam: lam, 0.5, xg)
        assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(mu.meta.split("renorm=")[1].split()[0])) < 1e-4


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
        # a flat density reads no rng
        fast = families.family_step(fam, np.full(3, s), np.full(3, x), us,
                                    None)
        cdf = measures.build_cdf(
            families.family_convolution_measure(fam, s, x), floor=0.0)
        generic = measures.quantile(cdf, us)
        np.testing.assert_allclose(fast, generic, rtol=0.0, atol=2e-3)
        if params.get("alpha") == 0.5:
            # Beta(1, 1) is uniform: xi^2 = l^2 + u (hi^2 - l^2) exactly
            assert np.array_equal(fast, np.sqrt(
                (s - x) ** 2 + us * ((s + x) ** 2 - (s - x) ** 2)))


_LAW_FAMILIES = [("cosine", {}), ("squared_weight", {}),
                 ("hankel", {"alpha": 1.0}),
                 ("jacobi", {"alpha": 1.0, "beta": 0.0}),
                 ("whittaker", {"alpha": 0.0})]


@pytest.mark.parametrize("name, params", _LAW_FAMILIES,
                         ids=[name for name, _ in _LAW_FAMILIES])
def test_family_step_at_the_left_end_is_the_other_point(name, params):
    # nu_{a,x} = delta_x and nu_{s,a} = delta_s, with the law never
    # evaluated at a
    s = np.array([0.0, 0.0, 1.3])
    x = np.array([0.6, 1.1, 0.0])
    u = np.array([0.2, 0.7, 0.4])
    fam = families.make_family(name, params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = families.family_step(fam, s, x, u, np.random.default_rng(0))
    np.testing.assert_array_equal(got, [0.6, 1.1, 1.3])


def test_family_step_in_blocks_is_one_draw():
    # hankel's flat density reads no rng: a step of 2,500 paths, drawn in
    # blocks of paths, is one conv_draw over them all, in the pairs' shape
    fam = families.make_family("hankel", {"alpha": 1.0})
    rng = np.random.default_rng(2)
    s, x = rng.uniform(0.05, 3.0, (2, 50, 50))
    u = rng.uniform(size=(50, 50))
    got = families.family_step(fam, s, x, u, None)
    assert got.shape == (50, 50)
    np.testing.assert_array_equal(
        got, fam.conv_draw(s.ravel(), x.ravel(), u.ravel()).reshape(50, 50))


def _density_cdf(fam, s, x):
    """The CDF of nu_{s,x}'s density part, from conv_sampled, normalized,
    as a function, with the atoms' (loc, mass) rows."""
    mu = families.family_convolution_measure(fam, s, x)
    cdf = measures.build_cdf(measures.MeasureRepr(segments=mu.segments))
    p = np.linspace(0.0, 1.0, 200001)
    q = measures.quantile(cdf, p)
    return (lambda z: np.interp(z, q, p)), mu.atoms


@pytest.mark.parametrize("name, params", _LAW_FAMILIES[1:],
                         ids=[name for name, _ in _LAW_FAMILIES[1:]])
def test_conv_draw_matches_the_sampled_measure(name, params):
    # 20,000 draws from nu_{1, 0.9}: the draws off the atoms have a KS
    # distance to the density part of the conv_sampled CDF below the 1%
    # critical value 1.63 / sqrt(m), and each atom's share is its mass
    # within 4 binomial standard deviations
    fam = families.make_family(name, params)
    s, x, m = 1.0, 0.9, 20000
    rng = np.random.default_rng(11)
    draws = np.concatenate([
        fam.conv_draw(np.full(2000, s), np.full(2000, x),
                      rng.uniform(size=2000), rng) for _ in range(m // 2000)])
    cdf, atoms = _density_cdf(fam, s, x)
    off = np.ones(m, dtype=bool)
    for loc, mass in atoms:
        at = draws == loc
        assert abs(at.mean() - mass) <= 4.0 * math.sqrt(mass * (1 - mass) / m)
        off &= ~at
    assert len(atoms) == (2 if name == "squared_weight" else 0)
    f = cdf(np.sort(draws[off]))
    k = len(f)
    ks = max(np.max(np.arange(1, k + 1) / k - f), np.max(f - np.arange(k) / k))
    assert ks < 1.63 / math.sqrt(k)


@pytest.mark.parametrize("name, params", _LAW_FAMILIES[1:],
                         ids=[name for name, _ in _LAW_FAMILIES[1:]])
def test_no_proposal_exceeds_the_draw_bound(name, params, monkeypatch):
    # M = max + margin (max - min) of the smooth factor on the rule's 200
    # nodes: over 2,000 random pairs and 20 proposals each, no smooth(t)
    # at a proposal t is above M (the draw itself raises NumericError
    # where one is)
    seen = []
    draw = families._EdgeDensity.draw

    def spy(dens, v, todo, rng):
        seen.append(dens)
        return draw(dens, v, todo, rng)

    monkeypatch.setattr(families._EdgeDensity, "draw", spy)
    fam = families.make_family(name, params)
    rng = np.random.default_rng(5)
    s, x = rng.uniform(0.05, 4.0, (2, 2000))
    fam.conv_draw(s, x, rng.uniform(size=2000), rng)
    (dens,) = seen
    c = dens.edge_pow + 1.0
    t = dens.l + (dens.u - dens.l) * betaincinv(c, c, rng.uniform(
        size=(20, 2000)))
    assert np.count_nonzero(dens.smooth(t) > dens.bound()) == 0


def test_diffusion_ensemble_cosine_from_origin_is_folded_gaussian(cosine):
    rng = np.random.default_rng(5)
    xs = prob.diffusion_ensemble(cosine, 0.0, 1.0, 50000, rng)
    # |N(0, 2t)|: E|X| = sqrt(2 sigma^2 / pi) with sigma^2 = 2
    assert np.mean(xs) == pytest.approx(math.sqrt(4.0 / math.pi),
                                        abs=0.02)


@pytest.mark.parametrize("name, params", _LAW_FAMILIES[1:3],
                         ids=[name for name, _ in _LAW_FAMILIES[1:3]])
def test_diffusion_from_an_inner_point_has_the_heat_transform(name, params):
    # P_t(x0, .) = delta_x0 * mu_t has the transform w_lam(x0) e^{-t lam}:
    # the mean of w_lam(X_t) is within 4 standard errors of it
    fam = families.make_family(name, params)
    x0, t, n = 1.0, 0.3, 20000
    xs = prob.diffusion_ensemble(fam, x0, t, n, np.random.default_rng(8))
    for lam in (1.0, 4.0):
        w = fam.kernel(np.array([lam]), np.r_[x0, xs])[0]
        want = w[0] * math.exp(-t * lam)
        assert abs(np.mean(w[1:]) - want) \
            <= 4.0 * np.std(w[1:]) / math.sqrt(n), lam


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
