import numpy as np
import pytest

from conftest import measure_integral
from slconv import convolution, errors, families, measures


def _uniform(lo, hi, mass=1.0, n=41):
    g = np.linspace(lo, hi, n)
    d = np.full(n, mass / (hi - lo))
    return measures.MeasureRepr(segments=(measures.Segment(lo, hi, g, d),))


def test_total_mass_atoms_and_segments():
    mu = measures.MeasureRepr(atoms=((0.5, 0.25),),
                              segments=_uniform(0.0, 2.0, 0.75).segments)
    assert measures.total_mass(mu) == pytest.approx(1.0, abs=1e-14)


def test_dirac_and_scale():
    mu = measures.scale(measures.dirac(1.5, 2.0), 0.25)
    assert mu.atoms == ((1.5, 0.5),)
    with pytest.raises(errors.ValidationError):
        measures.scale(mu, -1.0)


def test_segment_rejects_bad_grid():
    with pytest.raises(errors.ValidationError):
        measures.Segment(0.0, 1.0, np.array([0.0, 0.5, 0.4, 1.0]),
                         np.ones(4))


def test_quantile_pure_atoms():
    mu = measures.MeasureRepr(atoms=((1.0, 0.5), (3.0, 0.5)))
    cdf = measures.build_cdf(mu)
    assert measures.quantile(cdf, 0.25) == 1.0
    assert measures.quantile(cdf, 0.75) == 3.0
    assert measures.quantile(cdf, 0.0) == 0.0   # floor


def test_quantile_uniform_density():
    cdf = measures.build_cdf(_uniform(1.0, 3.0))
    for u in (0.1, 0.5, 0.9):
        assert measures.quantile(cdf, u) == pytest.approx(1.0 + 2.0 * u,
                                                          rel=1e-10)


def test_quantile_vectorized_monotone():
    mu = measures.MeasureRepr(atoms=((0.5, 0.3),),
                              segments=_uniform(1.0, 2.0, 0.7).segments)
    cdf = measures.build_cdf(mu)
    us = np.linspace(0.0, 1.0, 101)
    qs = measures.quantile(cdf, us)
    assert np.all(np.diff(qs) >= -1e-12)


@pytest.mark.parametrize("name,params,x,y", [
    ("hankel", {"alpha": 2.0}, 0.8, 1.3),
    ("jacobi", {"alpha": 1.0, "beta": 0.0}, 0.3, 2.1)],
    ids=["hankel", "jacobi"])
def test_quantile_one_is_the_support_end(name, params, x, y):
    # the density vanishes at x + y, where rounding in the last cell's
    # quadratic solve once landed about 1e-8 short
    fam = families.make_family(name, params)
    cdf = measures.build_cdf(fam.conv_sampled(x, y), floor=0.0)
    assert measures.quantile(cdf, 1.0) == x + y


def test_sample_requires_probability_measure():
    rng = np.random.default_rng(1)
    with pytest.raises(errors.MassDeficit):
        measures.sample(_uniform(0.0, 1.0, mass=0.8), 10, rng)


def test_sample_uniform_moments():
    rng = np.random.default_rng(2)
    xs = measures.sample(_uniform(0.0, 2.0), 20000, rng)
    assert np.mean(xs) == pytest.approx(1.0, abs=0.02)
    assert np.var(xs) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_merge_preserves_mass_exactly():
    mu = _uniform(0.0, 1.0, 0.4)
    nu = _uniform(0.5, 2.0, 0.6, n=17)
    out = measures.merge_measures([mu, nu])
    assert measures.total_mass(out) == pytest.approx(1.0, abs=1e-13)
    # touching segments with a density jump at the shared point
    jump = measures.MeasureRepr(segments=_uniform(0.0, 1.0, 1.0, n=3).segments
                                + _uniform(1.0, 2.0, 3.0, n=3).segments)
    out = measures.merge_measures([jump])
    assert measures.total_mass(out) == pytest.approx(4.0, abs=1e-13)
    assert measure_integral(out, np.exp) == pytest.approx(
        measure_integral(jump, np.exp), abs=1e-13)
    # hankel alpha = 0: a two-step convolution, whose measure has touching
    # segments, mixed with the unit
    fam = families.make_family("hankel", {"alpha": 0.0})
    mu = measures.MeasureRepr(atoms=((0.7, 0.5), (1.3, 0.5)))
    p2 = convolution.convolve_measures(fam, mu, mu)
    out = measures.merge_measures([measures.dirac(0.0), p2], [0.5, 0.5])
    for f in (np.ones_like, np.exp):
        assert measure_integral(out, f) == pytest.approx(
            0.5 * f(0.0) + 0.5 * measure_integral(p2, f), abs=1e-13)


def test_merge_adds_overlapping_densities_pointwise():
    mu = _uniform(0.0, 2.0)     # density 1/2
    nu = _uniform(1.0, 3.0)     # density 1/2
    out = measures.merge_measures([mu, nu], weights=[1.0, 1.0])
    # on (1, 2) the densities add to 1
    for seg in out.segments:
        mid = 0.5 * (seg.l + seg.u)
        want = (0.5 * (0.0 <= mid <= 2.0)) + (0.5 * (1.0 <= mid <= 3.0))
        got = float(np.interp(mid, seg.grid, seg.density))
        assert got == pytest.approx(want, abs=1e-12)


def test_merge_weights_scale():
    out = measures.merge_measures([_uniform(0.0, 1.0)], weights=[0.25])
    assert measures.total_mass(out) == pytest.approx(0.25, abs=1e-14)


def test_json_round_trip():
    mu = measures.MeasureRepr(atoms=((1.0, 0.5),),
                              segments=_uniform(0.0, 2.0, 0.5).segments,
                              meta="test")
    text = measures.measure_to_json(mu)
    back = measures.measure_from_json(text)
    assert back.atoms == mu.atoms
    assert len(back.segments) == len(mu.segments)
    np.testing.assert_array_equal(back.segments[0].grid,
                                  mu.segments[0].grid)
    np.testing.assert_array_equal(back.segments[0].density,
                                  mu.segments[0].density)
