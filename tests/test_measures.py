import json
import math

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
    assert mu.atoms.tolist() == [[1.5, 0.5]]
    with pytest.raises(errors.ValidationError):
        measures.scale(mu, -1.0)


def test_distinct_measures_compare_without_raising():
    atoms = measures.MeasureRepr(atoms=((0.5, 0.25), (1.0, 0.75)))
    same = measures.MeasureRepr(atoms=((0.5, 0.25), (1.0, 0.75)))
    dens = _uniform(0.0, 1.0)
    assert atoms == atoms and dens == dens
    assert atoms != same and atoms != dens and dens != _uniform(0.0, 1.0)
    assert dens.segments[0] != _uniform(0.0, 1.0).segments[0]


def test_segment_rejects_bad_grid():
    with pytest.raises(errors.ValidationError):
        measures.Segment(0.0, 1.0, np.array([0.0, 0.5, 0.4, 1.0]),
                         np.ones(4))
    # l and u must be the grid's ends, JSON input included
    with pytest.raises(errors.ParamOutOfRange):
        measures.Segment(0.0, 5.0, [1.0, 2.0], [1.0, 1.0])
    text = json.dumps({"segments": [{"l": -3.0, "u": 9.0, "grid": [0.0, 1.0],
                                     "density": [1.0, 1.0]}]})
    with pytest.raises(errors.ParamOutOfRange):
        measures.measure_from_json(text)
    seg = measures.Segment(1.0, 2.0, [1.0, 2.0], [1.0, 1.0])
    assert (seg.l, seg.u) == (1.0, 2.0)


def test_atoms_are_one_read_only_array_in_the_order_given():
    mu = measures.MeasureRepr(atoms=[(3.0, 0.5), (1, 0.25)])
    assert mu.atoms.dtype == float and mu.atoms.shape == (2, 2)
    assert mu.atoms.tolist() == [[3.0, 0.5], [1.0, 0.25]]
    assert not mu.atoms.flags.writeable
    assert measures.MeasureRepr().atoms.shape == (0, 2)
    for bad in ([(1.0, 0.5, 2.0)], [1.0, 0.5], [(1.0, 0.5), (2.0,)],
                [("x", 0.5)]):
        with pytest.raises(errors.ParamOutOfRange):
            measures.MeasureRepr(atoms=bad)


@pytest.mark.parametrize("atom", [(1.0, math.nan), (math.nan, 0.5),
                                  (math.inf, 0.5), (-math.inf, 0.5),
                                  (1.0, math.inf)])
def test_measure_rejects_non_finite_atoms(atom):
    with pytest.raises(errors.ParamOutOfRange):
        measures.MeasureRepr(atoms=((0.5, 0.5), atom))
    with pytest.raises(errors.ParamOutOfRange):
        measures.measure_from_json(json.dumps({"atoms": [[0.5, 0.5], atom]}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_segment_rejects_non_finite_values(bad):
    g, d = np.linspace(0.0, 1.0, 5), np.ones(5)
    for grid, dens in ((np.r_[g[:4], bad], d), (g, np.r_[d[:4], bad]),
                       (np.r_[bad, g[1:]], d)):
        with pytest.raises(errors.ParamOutOfRange):
            measures.Segment(0.0, 1.0, grid, dens)
        text = json.dumps({"segments": [{"l": 0.0, "u": 1.0,
                                         "grid": grid.tolist(),
                                         "density": dens.tolist()}]})
        with pytest.raises(errors.ParamOutOfRange):
            measures.measure_from_json(text)


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
    cdf = measures.build_cdf(families.family_convolution_measure(fam, x, y),
                             floor=0.0)
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


def _limits(parts, pts):
    """Left and right limits at pts of a sum of weighted segments, each
    zero outside [l, u]: sum w * np.interp over the parts."""
    left, right = np.zeros(len(pts)), np.zeros(len(pts))
    for seg, wgt in parts:
        v = wgt * np.interp(pts, seg.grid, seg.density)
        left += np.where((pts > seg.l) & (pts <= seg.u), v, 0.0)
        right += np.where((pts >= seg.l) & (pts < seg.u), v, 0.0)
    return left, right


def test_merge_is_the_exact_kink_sum():
    # weighted segments that overlap, touch with and without a jump and
    # leave a gap, and a steep part (slope 1e7) that ends inside a long
    # gently sloped one, whose knots fall inside the steep part: its
    # slope must leave the running sum exactly, or the error grows along
    # the long part
    rng = np.random.default_rng(22)

    def seg(grid, density):
        return measures.Segment(grid[0], grid[-1], grid, density)

    g = np.unique(np.concatenate([np.linspace(0.0, 2.0, 201),
                                  rng.uniform(0.0, 2.0, 40),
                                  0.9 + np.array([0.5e-7, 1.5e-7])]))
    long = seg(g, 1.0 + 0.5 * np.sin(3.0 * g + rng.uniform(0, 0.1, len(g))))
    steep = seg(0.9 + np.array([0.0, 1e-7, 2e-7]), np.array([0.0, 2.0, 1.0]))
    g = np.sort(np.concatenate([[1.5, 3.5], rng.uniform(1.5, 3.5, 50)]))
    over = seg(g, rng.uniform(0.5, 1.5, len(g)))
    # touching: a jump at 3.5 (over ends there), none at 4.0
    left = seg(np.linspace(3.5, 4.0, 7), np.linspace(2.0, 0.7, 7))
    right = seg(np.linspace(4.0, 4.5, 5), np.linspace(0.7, 0.2, 5))
    apart = seg(np.linspace(5.0, 6.0, 9), np.full(9, 0.4))    # a gap
    parts = [(long, 0.6), (steep, 1.0), (over, 1.3), (left, 0.9),
             (right, 0.9), (apart, 2.0)]
    out = measures.merge_measures(
        [measures.MeasureRepr(segments=segs) for segs in
         ((long,), (steep,), (over,), (left, right), (apart,))],
        [0.6, 1.0, 1.3, 0.9, 2.0])
    knots = np.unique(np.concatenate([s.grid for s, _ in parts]))
    got_knots = np.concatenate([s.grid for s in out.segments])
    np.testing.assert_array_equal(np.unique(got_knots), knots)
    got = [(s, 1.0) for s in out.segments]
    mids = 0.5 * (knots[1:] + knots[:-1])
    want_l, want_r = _limits(parts, knots)
    scale = np.max(want_r)
    for pts, want in ((knots, (want_l, want_r)),
                      (mids, _limits(parts, mids))):
        for g_lim, w_lim in zip(_limits(got, pts), want):
            np.testing.assert_allclose(g_lim, w_lim, rtol=0.0,
                                       atol=1e-14 * scale)
    # no output segment spans a gap; they follow one another
    for s in out.segments:
        inner = 0.5 * (s.grid[1:] + s.grid[:-1])
        assert all(np.any([(p.l < inner) & (inner < p.u) for p, _ in parts],
                          axis=0))
    ends = np.array([(s.l, s.u) for s in out.segments])
    assert np.all(ends[1:, 0] >= ends[:-1, 1])


def test_merge_weights_scale():
    out = measures.merge_measures([_uniform(0.0, 1.0)], weights=[0.25])
    assert measures.total_mass(out) == pytest.approx(0.25, abs=1e-14)


def test_merge_atoms_match_the_keyed_loop():
    # atoms sum under the key round(loc, 12) in the order given, as a loop
    # over a dict does: equal sums, bit for bit, and the same sorted
    # atoms; a zero weight drops its measure, a zero net mass its atom
    rng = np.random.default_rng(12)
    locs = np.round(rng.uniform(0.0, 3.0, 40), 2)
    locs[::7] += 1e-14                      # rounds onto a neighbour
    parts = [measures.MeasureRepr(atoms=tuple(zip(
        rng.choice(locs, 6), rng.uniform(0.0, 1.0, 6)))) for _ in range(30)]
    parts.append(measures.MeasureRepr(atoms=((9.0, 0.0),)))
    weights = list(rng.uniform(0.1, 1.0, len(parts)))
    weights[3] = 0.0
    sums = {}
    for mu, wgt in zip(parts, weights):
        for loc, m in mu.atoms if wgt != 0.0 else ():
            sums[round(loc, 12)] = sums.get(round(loc, 12), 0.0) + wgt * m
    want = sorted([loc, m] for loc, m in sums.items() if m > 0)
    assert measures.merge_measures(parts, weights).atoms.tolist() == want


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64).tolist()


def test_merge_key_is_round_12():
    # round(v, 12) bit for bit, signed zeros included, where fl(v * 1e12)
    # is a half-integer (plain rint misses about half of these), for
    # negative values, from 2^52 / 1e12 = 4503.6 up, and at random
    rng = np.random.default_rng(2024)
    v = (rng.integers(-2 ** 45, 2 ** 45, 20000) + 0.5) / 1e12
    t = v * 1e12
    half = v[t - np.floor(t) == 0.5]
    assert len(half) > 10000
    big = np.concatenate((rng.uniform(4503.5, 4503.7, 1000),
                          rng.uniform(-1e7, -4503.6, 1000),
                          [2.0 ** 52 / 1e12, 1e15 + 0.3, 1e300, -1e300]))
    ticks = np.round(rng.uniform(-3.0, 3.0, 50000), 11)
    random = np.concatenate((
        rng.uniform(-3.0, 3.0, 25000),
        ticks + rng.integers(-3, 4, 50000) * 1e-16,
        np.exp(rng.uniform(-40.0, 8.0, 25000)) * rng.choice([-1, 1], 25000),
        [0.0, -0.0, 5e-13, -5e-13, 1e-300]))
    assert len(random) > 10 ** 5
    for vals in (half, -half, big, random):
        keys = measures._merge_key(vals)
        assert _bits(keys) == _bits([round(x, 12) for x in vals.tolist()])


def test_json_round_trip():
    mu = measures.MeasureRepr(atoms=((1.0, 0.5),),
                              segments=_uniform(0.0, 2.0, 0.5).segments,
                              meta="test")
    text = measures.measure_to_json(mu)
    back = measures.measure_from_json(text)
    assert back.atoms.tolist() == mu.atoms.tolist()
    assert len(back.segments) == len(mu.segments)
    np.testing.assert_array_equal(back.segments[0].grid,
                                  mu.segments[0].grid)
    np.testing.assert_array_equal(back.segments[0].density,
                                  mu.segments[0].density)
