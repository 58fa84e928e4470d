import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import CONVOLUTION_FAMILIES, measure_integral, smooth_bump
from slconv import convolution, errors, families, measures, spectral


def test_convolve_atomic_measures_cosine():
    fam = families.make_family("cosine")
    mu = measures.dirac(1.0)
    nu = measures.dirac(2.0)
    out = convolution.convolve_measures(fam, mu, nu,
                                        convolution.ConvCfg())
    assert dict(out.atoms) == {1.0: 0.5, 3.0: 0.5}


def test_convolve_unit_element():
    for name, params in (("hankel", {"alpha": 0.5}),
                         ("cosine", {})):
        fam = families.make_family(name, params)
        a = fam.problem.a
        mu = measures.MeasureRepr(atoms=((a + 0.7, 0.4), (a + 1.4, 0.6)))
        out = convolution.convolve_measures(fam, measures.dirac(a), mu,
                                            convolution.ConvCfg())
        assert dict(out.atoms) == pytest.approx(dict(mu.atoms))
    # a density comes back as its point-mass reduction: the mass exact,
    # the transform to the reduction's quadrature error
    for name, params, tol in (("hankel", {"alpha": 0.0}, 1e-4),
                              ("hankel", {"alpha": 1.0}, 1e-8),
                              ("jacobi", {"alpha": 1.0, "beta": 0.0}, 1e-8),
                              ("whittaker", {"alpha": 0.0}, 1e-6)):
        fam = families.make_family(name, params)
        a = fam.problem.a
        nu = families.family_convolution_measure(fam, a + 0.8, a + 1.3)
        out = convolution.convolve_measures(fam, measures.dirac(a), nu,
                                            convolution.ConvCfg())
        assert measures.total_mass(out) == pytest.approx(
            measures.total_mass(nu), abs=1e-13)

        def w(x):
            return fam.kernel([1.0, 4.0, 9.0], x)
        np.testing.assert_allclose(measure_integral(out, w),
                                   measure_integral(nu, w), rtol=0, atol=tol)


def test_convolve_commutative():
    fam = families.make_family("hankel", {"alpha": 0.5})
    mu = measures.MeasureRepr(atoms=((0.5, 0.5), (1.5, 0.5)))
    nu = measures.MeasureRepr(atoms=((0.8, 1.0),))
    cfg = convolution.ConvCfg()
    ab = convolution.convolve_measures(fam, mu, nu, cfg)
    ba = convolution.convolve_measures(fam, nu, mu, cfg)
    for lam in (0.5, 2.0, 7.0):
        va = spectral.measure_transform(fam, ab, lam)
        vb = spectral.measure_transform(fam, ba, lam)
        assert va == pytest.approx(vb, abs=1e-10)


def test_convolve_pair_budget():
    fam = families.make_family("hankel", {"alpha": 0.5})
    locs = np.linspace(0.5, 2.0, 40)
    mu = measures.MeasureRepr(atoms=tuple((l, 1.0 / 40) for l in locs))
    with pytest.raises(errors.GridOverflow):
        convolution.convolve_measures(fam, mu, mu,
                                      convolution.ConvCfg(max_pairs=100))


def _atoms(rng, n, a=0.0):
    locs = a + 0.1 + 2.9 * rng.uniform(size=n)
    mass = rng.uniform(0.2, 1.0, n)
    return measures.MeasureRepr(atoms=tuple(zip(locs, mass / mass.sum())))


def test_convolve_measures_matches_per_pair_merge():
    # the blocked construction equals the per-pair one: merge_measures over
    # every support pair's family_convolution_measure (unit pairs included)
    rng = np.random.default_rng(16)
    cfg = convolution.ConvCfg(max_pairs=600, grid_points=600)
    for name in ("cosine", "squared_weight"):
        fam = families.make_family(name)
        mu = measures.MeasureRepr(atoms=((0.0, 0.2),)
                                  + measures.scale(_atoms(rng, 29), 0.8).atoms)
        nu = _atoms(rng, 20)
        got = convolution.convolve_measures(fam, mu, nu, cfg)
        want = measures.merge_measures(
            [families.family_convolution_measure(fam, x, y)
             for x, _ in mu.atoms for y, _ in nu.atoms],
            [wx * wy for _, wx in mu.atoms for _, wy in nu.atoms],
            grid_points=cfg.grid_points)
        assert got.atoms == want.atoms, name
        assert len(got.segments) == len(want.segments), name
        for g, w in zip(got.segments, want.segments):
            np.testing.assert_allclose(g.grid, w.grid, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(g.density, w.density, rtol=0.0,
                                       atol=1e-12 * np.max(w.density))


def test_convolve_measures_memory_is_bounded():
    # pairs go through the law in blocks, so the cells held at once stay
    # small: a hankel alpha = 1 convolution of 10 x 10 atoms may peak at
    # 1.25 times the 5,223,894 bytes traced when each pair's measure was
    # built on its own
    rng = np.random.default_rng(0)
    mu, nu = _atoms(rng, 10), _atoms(rng, 10)
    fam = families.make_family("hankel", {"alpha": 1.0})
    cfg = convolution.ConvCfg(max_pairs=20000, grid_points=600)
    convolution.convolve_measures(fam, mu, nu, cfg)     # warm the caches
    tracemalloc.start()
    try:
        convolution.convolve_measures(fam, mu, nu, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 5223894, peak


def test_convolution_pairs_are_checked():
    # no convolution measure, or a point below a or not finite: the same
    # ParamOutOfRange from every entry
    mu = measures.MeasureRepr(atoms=((0.5, 1.0),))
    custom = families.from_problem(families.make_family("cosine").problem)
    with pytest.raises(errors.ParamOutOfRange):
        convolution.convolve_measures(custom, mu, mu)
    fam = families.make_family("hankel", {"alpha": 1.0})
    with pytest.raises(errors.ParamOutOfRange):
        convolution.convolve_measures(fam, measures.dirac(-0.5), mu)
    for x, y in ((-0.5, 1.0), (1.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(errors.ParamOutOfRange):
            convolution.verify_product_formula(fam, x, y, [0.0, 1.0])
        with pytest.raises(errors.ParamOutOfRange):
            families.family_convolution_measure(fam, x, y)


def test_translate_cosine_is_symmetric_shift():
    # T^y h (x) = (h(x+y) + h(|x-y|)) / 2 for the cosine structure
    fam = families.make_family("cosine")
    xg = np.linspace(0.0, 3.0, 31)
    y = 0.8
    got = convolution.translate(fam, smooth_bump, y, xg)
    want = 0.5 * (smooth_bump(xg + y) + smooth_bump(np.abs(xg - y)))
    np.testing.assert_allclose(got, want, atol=1e-12)


def _translate_per_point(family, h, y, x_grid):
    """T^y h on x_grid one x at a time, each by exact summation: the
    reference for the batched translate."""
    out = np.empty(len(x_grid))
    for i, x in enumerate(x_grid):
        nodes, wts, atoms = families.family_convolution_quadrature(
            family, float(x), float(y))
        total = math.fsum((wts * np.asarray(h(nodes), dtype=float)).tolist()) \
            if len(nodes) else 0.0
        total += sum(m * float(h(np.asarray(loc))) for loc, m in atoms)
        out[i] = total
    return out


def test_translate_matches_per_point_reference():
    # one rule call for the whole x grid, equal to the per-point sums
    def h(x):
        return smooth_bump(x, center=1.2, width=1.0)

    for name, params in CONVOLUTION_FAMILIES:
        fam = families.make_family(name, params)
        calls = []

        def conv_quad(x, y, inner=fam.conv_quad):
            calls.append(np.shape(x))
            return inner(x, y)

        counted = dataclasses.replace(fam, conv_quad=conv_quad)
        a = fam.problem.a
        xg = a + np.array([0.0, 0.3, 0.8, 1.0, 1.7, 2.5])
        for y in (a + 1.0, a + 0.35, a):
            want = _translate_per_point(fam, h, y, xg)
            calls.clear()
            got = convolution.translate(counted, h, y, xg)
            assert calls == [xg.shape], (name, params, y)
            np.testing.assert_allclose(
                got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)),
                err_msg=str((name, params, y)))


def test_verify_product_formula_report_fields():
    fam = families.make_family("cosine")
    lam_grid = np.linspace(0.0, 10.0, 11)
    rep = convolution.verify_product_formula(fam, 0.7, 1.1, lam_grid,
                                             use_closed_kernel=True)
    assert rep.lambda_grid.shape == rep.lhs.shape == rep.rhs.shape
    assert rep.max_abs_err <= 1e-12
    assert rep.mass == pytest.approx(1.0, abs=1e-12)


def test_product_formula_numeric_kernel_consistent():
    fam = families.make_family("hankel", {"alpha": 0.5})
    lam_grid = np.linspace(0.0, 10.0, 6)
    rep = convolution.verify_product_formula(fam, 0.9, 1.3, lam_grid)
    assert rep.max_abs_err <= 1e-8


def test_young_exponent_validation():
    fam = families.make_family("cosine")
    with pytest.raises(errors.ExponentMismatch):
        convolution.young_check(fam, smooth_bump, smooth_bump, 3.0, 3.0)


def test_young_l1_contraction():
    # p1 = p2 = s = 1: ||h*g||_1 = ||h||_1 ||g||_1 (probability kernels)
    fam = families.make_family("cosine")
    rep = convolution.young_check(fam, smooth_bump, smooth_bump, 1.0, 1.0,
                                  support=(0.0, 4.0))
    assert rep["s"] == 1.0
    assert rep["norm_conv"] == pytest.approx(rep["bound"], rel=1e-6)
    assert rep["ok"]


def test_convolve_functions_against_direct_quadrature():
    fam = families.make_family("cosine")
    xg = np.array([0.3, 1.0, 2.0])
    got = convolution.convolve_functions(fam, smooth_bump, smooth_bump,
                                         xg, (0.0, 2.0))
    # direct: (h*g)(x) = int T^y h (x) g(y) r(y) dy, r = 1
    ys = np.linspace(0.0, 2.0, 4001)
    want = []
    for x in xg:
        ty = 0.5 * (smooth_bump(x + ys) + smooth_bump(np.abs(x - ys)))
        want.append(np.trapezoid(ty * smooth_bump(ys), ys))
    np.testing.assert_allclose(got, want, atol=1e-8)
