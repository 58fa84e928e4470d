import math

import mpmath as mp
import numpy as np
import pytest

from slconv import errors, specfun


def test_jn_normalized_alpha_half_is_sinc():
    z = np.linspace(0.01, 20.0, 50)
    want = np.sin(z) / z
    np.testing.assert_allclose(specfun.jn_normalized(0.5, z), want,
                               rtol=1e-12, atol=1e-14)


def test_jn_normalized_at_origin_and_small_z():
    assert specfun.jn_normalized(0.0, 0.0) == 1.0
    # series branch continuous with the Bessel branch
    lo = specfun.jn_normalized(1.0, 9.99e-5)
    hi = specfun.jn_normalized(1.0, 1.01e-4)
    assert abs(lo - hi) < 1e-10


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.0, 1.3])
def test_jn_normalized_against_mpmath(alpha):
    # 2^alpha Gamma(alpha+1) z^-alpha J_alpha(z) on [0, 300]: the closed
    # forms (alpha in {-1/2, 0, 1/2, 1}), jv, and the series below 1e-4
    mp.mp.dps = 30
    z = np.concatenate([[0.0, 1e-7, 9.99e-5, 1e-4, 1.01e-4, 1e-3, 0.1],
                        np.linspace(0.5, 300.0, 600)])
    got = specfun.jn_normalized(alpha, z)
    want = np.array([1.0] + [
        float(mp.mpf(2) ** alpha * mp.gamma(alpha + 1) * mp.mpf(zi) ** -alpha
              * mp.besselj(alpha, zi)) for zi in z[1:]])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    # 0-d input gives a Python float, on the series branch and off it
    for k in (0, 2, 7):
        for zk in (z[k], np.float64(z[k]), np.array(z[k])):
            one = specfun.jn_normalized(alpha, zk)
            assert type(one) is float and one == got[k]


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0])
def test_jn_normalized_fast_forms_at_series_switch(alpha):
    # series branch continuous with each closed form: across z = 1e-4 the
    # values change by the function's own 1 - z^2 / (4 (alpha+1)) + ...
    lo = specfun.jn_normalized(alpha, 9.99e-5)
    hi = specfun.jn_normalized(alpha, 1.01e-4)
    step = (9.99e-5 ** 2 - 1.01e-4 ** 2) / (4.0 * (alpha + 1.0))
    assert abs((hi - lo) - step) < 1e-15


def test_jn_normalized_rejects_bad_alpha():
    with pytest.raises(errors.RangeNotValidated):
        specfun.jn_normalized(-0.75, 1.0)


def test_gauss_2f1_against_mpmath():
    mp.mp.dps = 30
    cases = [
        (0.5, 1.5, 2.0, 0.3), (0.5, 1.5, 2.0, -2.0),
        (1.0, 2.0, 3.5, 0.9), (0.25, 0.75, 1.5, 0.99),
        (-3.0, 2.2, 1.1, 4.0),                # terminating
        (complex(0.5, 2.0), complex(0.5, -2.0), 1.0, 0.4),
    ]
    for a, b, c, z in cases:
        got = specfun.gauss_2f1(a, b, c, z)
        want = complex(mp.hyp2f1(a, b, c, z))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (a, b, c, z)


def test_gauss_2f1_integer_balanced_case():
    # c - a - b a nonnegative integer triggers the logarithmic connection
    mp.mp.dps = 30
    for tau in (0.5, 2.0, 5.0):
        a = complex(0.5, tau)
        b = complex(0.5, -tau)
        c = 1.0           # c - a - b = 0
        for z in (0.8, 0.9, 0.97):
            got = specfun.gauss_2f1(a, b, c, z)
            want = complex(mp.hyp2f1(a, b, c, z))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_gauss_2f1_array_takes_each_branch():
    # array calls (one per c) whose elements take the terminating, Pfaff,
    # plain, general-connection and logarithmic (c - a - b = 0, 1, 2, -1)
    # branches; a 0-d call still gives a scalar
    mp.mp.dps = 30
    a = np.array([-2.0, 0.5 + 2.0j, 0.25, 0.25, 0.5 + 1.5j, 0.5 + 1.5j,
                  0.5 + 1.5j, 1.0])
    b = np.array([1.5, 0.5 - 2.0j, 0.75, 0.75, 0.5 - 1.5j, 0.5 - 1.5j,
                  0.5 - 1.5j, 1.0])
    c = np.array([1.0, 1.0, 1.5, 1.5, 1.0, 2.0, 3.0, 1.0])
    z = np.array([3.0, -4.0, 0.5, 0.9, 0.95, 0.8, 0.9, 0.85])
    for cv in np.unique(c):
        k = c == cv
        got = specfun.gauss_2f1(a[k, None], b[k, None], cv, z[k, None])
        assert got.shape == (int(k.sum()), 1)
        for ai, bi, zi, gi in zip(a[k], b[k], z[k], got[:, 0]):
            want = complex(mp.hyp2f1(ai, bi, cv, zi))
            assert abs(gi - want) <= 1e-10 * max(1.0, abs(want)), (ai, bi,
                                                                   cv, zi)
    assert isinstance(specfun.gauss_2f1(0.5, 1.5, 2.0, 0.3), complex)
    with pytest.raises(errors.RangeNotValidated):
        specfun.gauss_2f1(0.5, 1.5, 2.0, np.array([0.3, 1.5]))


def test_whittaker_w_against_mpmath():
    mp.mp.dps = 30
    for kappa in (0.0, -0.5):
        for tau in (0.5, 2.0, 6.0):
            for z in (0.3, 1.0, 5.0, 30.0):
                got = specfun.whittaker_w(kappa, complex(0, tau), z)
                want = complex(mp.whitw(kappa, complex(0, tau), z))
                assert abs(got - want.real) <= 1e-9 * max(1.0, abs(want)), \
                    (kappa, tau, z)


def test_parabolic_d_against_mpmath():
    mp.mp.dps = 30
    for nu in (-0.5, -1.5, 0.0, 0.5):
        for z in (-2.0, 0.0, 1.0, 4.0):
            got = specfun.parabolic_d(nu, z)
            want = float(mp.pcfd(nu, z))
            assert got == pytest.approx(want, rel=1e-8, abs=1e-12), (nu, z)


def test_parabolic_d_range_guard():
    with pytest.raises(errors.RangeNotValidated):
        specfun.parabolic_d(1.5, 1.0)


def test_parabolic_d_blocks_leave_values_unchanged():
    # D_nu is built in z-blocks; a long call equals short ones bit for bit,
    # on the Laplace integral (nu < 0) and the recurrence over it
    z = np.linspace(1.0, 60.0, 2000)
    for nu in (-1.0, -0.5, 0.5):
        parts = [specfun.parabolic_d(nu, z[i:i + 100])
                 for i in range(0, len(z), 100)]
        assert np.array_equal(specfun.parabolic_d(nu, z),
                              np.concatenate(parts)), nu
