import math

import numpy as np
import pytest

from conftest import smooth_bump
from slconv import errors, families, kernel, measures, spectral


def test_forward_transform_cosine_gaussian():
    # integral of exp(-x^2) cos(sqrt(lam) x) dx = sqrt(pi)/2 exp(-lam/4)
    prob = families.make_family("cosine").problem
    for lam in (0.0, 1.0, 4.0, 10.0):
        got = spectral.forward_transform(
            prob, lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), lam)
        want = 0.5 * math.sqrt(math.pi) * math.exp(-lam / 4.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_forward_transform_x_support_window():
    prob = families.make_family("cosine").problem
    h = smooth_bump
    full = spectral.forward_transform(prob, h, 2.0)
    windowed = spectral.forward_transform(prob, h, 2.0,
                                          x_support=(0.0, 2.0))
    assert windowed == pytest.approx(full, rel=1e-10)


def test_forward_transform_closed_kernel_agrees():
    fam = families.make_family("hankel", {"alpha": 0.5})
    v1 = spectral.forward_transform(fam.problem, smooth_bump, 3.0,
                                    x_support=(0.0, 2.0))
    v2 = spectral.forward_transform(fam.problem, smooth_bump, 3.0,
                                    x_support=(0.0, 2.0),
                                    closed_kernel=fam.closed_kernel)
    assert v1 == pytest.approx(v2, rel=1e-8)


def test_forward_transform_tail_not_decaying():
    prob = families.make_family("cosine").problem
    with pytest.raises(errors.TailNotDecaying):
        spectral.forward_transform(prob, lambda x: np.ones_like(
            np.asarray(x, dtype=float)), 0.0)


def test_measure_transform_atoms():
    fam = families.make_family("cosine")
    mu = measures.MeasureRepr(atoms=((1.0, 0.5), (2.0, 0.5)))
    got = spectral.measure_transform(fam.problem, mu, 4.0,
                                     closed_kernel=fam.closed_kernel)
    want = 0.5 * math.cos(2.0) + 0.5 * math.cos(4.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_measure_transform_at_zero_is_mass():
    fam = families.make_family("hankel", {"alpha": 0.5})
    g = np.linspace(0.5, 1.5, 21)
    mu = measures.MeasureRepr(
        atoms=((0.3, 0.25),),
        segments=(measures.Segment(0.5, 1.5, g, np.full(21, 0.75)),))
    got = spectral.measure_transform(fam.problem, mu, 0.0)
    assert got == pytest.approx(measures.total_mass(mu), rel=1e-12)


def test_inverse_transform_round_trip_cosine():
    # phi(lam) = exp(-t lam) inverts to the heat kernel from x = a: the
    # folded Gaussian for cosine, exp(-x^2/4t) / (8 t^2) for hankel
    # alpha = 1 (0.78125 at x = 0, t = 0.4)
    t = 0.4
    cases = [(families.make_family("cosine"),
              lambda x: 2.0 * math.exp(-x * x / (4 * t))
              / math.sqrt(4 * math.pi * t)),
             (families.make_family("hankel", {"alpha": 1.0}),
              lambda x: math.exp(-x * x / (4 * t)) / (8 * t * t))]
    for fam, heat in cases:
        for x in (0.0, 0.7, 1.5):
            got = spectral.inverse_transform(
                fam, lambda lam: math.exp(-t * lam), x)
            assert got == pytest.approx(heat(x), rel=1e-7, abs=1e-10)


def test_synthesize_reports_stop_reason():
    fam = families.make_family("cosine")
    xs = np.array([0.0, 0.5])

    def rows(lams):
        return kernel.kernel_table(fam.problem, lams, xs, fam.closed_kernel)

    vals, stop = spectral.synthesize(
        fam, lambda lams: np.exp(-lams), rows, 1.0, 1e-9)
    assert stop.reason == "tol"
    assert stop.tail_ratio < 1e-9
    # folded heat kernel at t = 1
    want = np.exp(-xs ** 2 / 4.0) / math.sqrt(math.pi)
    assert np.allclose(vals, want, rtol=1e-9)
    # a constant 1e-9 floor: the tail stops decaying far above tol but
    # below the noise floor, and the stop says so
    vals, stop = spectral.synthesize(
        fam, lambda lams: np.exp(-lams) + 1e-9, rows, 1.0, 1e-9)
    assert stop.reason == "noise_floor"
    assert 1e-9 < stop.tail_ratio <= spectral.NOISE_FLOOR
    assert np.allclose(vals, want, rtol=1e-6)
    with pytest.raises(errors.SlowDecay):
        spectral.inverse_transform(fam, lambda lam: math.exp(-lam) + 1e-9,
                                   0.0)


def test_synthesize_passes_bounded_blocks():
    # x_max = 10 puts 1440 tau nodes in the first window alone
    fam = families.make_family("cosine")
    xs = np.array([0.0, 0.5, 3.0])
    coef_sizes, row_sizes = [], []

    def coef(lams):
        coef_sizes.append(len(lams))
        return np.exp(-lams)

    def rows(lams):
        row_sizes.append(len(lams))
        return kernel.kernel_table(fam.problem, lams, xs, fam.closed_kernel)

    vals, stop = spectral.synthesize(fam, coef, rows, 10.0, 1e-9)
    assert max(coef_sizes) == max(row_sizes) == spectral.LAMBDA_BLOCK
    assert sum(row_sizes) > 20 * spectral.LAMBDA_BLOCK
    assert stop.reason == "tol"
    want = np.exp(-xs ** 2 / 4.0) / math.sqrt(math.pi)
    np.testing.assert_allclose(vals, want, rtol=1e-9)


def test_forward_transform_lambda_array_matches_scalar():
    prob = families.make_family("cosine").problem

    def h(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    lams = np.array([0.0, 1.0, 4.0, 10.0])
    got = spectral.forward_transform(prob, h, lams)
    assert got.shape == (4,)
    want = 0.5 * math.sqrt(math.pi) * np.exp(-lams / 4.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    one = spectral.forward_transform(prob, h, 4.0)
    assert isinstance(one, float)
    assert one == pytest.approx(got[2], rel=1e-12)


def test_spectral_measure_density_conversion():
    fam = families.make_family("cosine")
    lam = 4.0
    tau = 2.0
    want = fam.spectral.tau_density(np.array([tau]))[0] / (2 * tau)
    got = fam.spectral.density(np.array([lam]))[0]
    assert got == pytest.approx(want, rel=1e-13)


def test_measure_transform_closed_kernel_atom_at_left_end():
    # whittaker's closed form is singular at x = a; w = 1 there on both paths
    fam = families.make_family("whittaker", {"alpha": 0.0})
    mu = measures.MeasureRepr(atoms=((0.0, 0.3), (1.0, 0.7)))
    closed = spectral.measure_transform(fam.problem, mu, 2.0,
                                        fam.closed_kernel)
    numeric = spectral.measure_transform(fam.problem, mu, 2.0)
    assert np.isfinite(closed)
    assert closed == pytest.approx(numeric, rel=0, abs=1e-8)
