"""Special functions backing the family closed forms, by series and
integral representations (no external special-function code except the
gamma, digamma and Bessel-J routines: Cephes j0/j1 and Amos jv).
gauss_2f1 and whittaker_w take arrays that broadcast together and loop
over no points; 0-d input gives a scalar.  Each raises RangeNotValidated
only where stated:

* ``jn_normalized`` -- J_alpha(z) normalized to 1 at z = 0; validated for
                       alpha >= -1/2 (RangeNotValidated below).
* ``gauss_2f1``     -- 2F1 by the Pfaff step, the power series and the 1-z
                       connection formula; z > 1 unless the series
                       terminates, z = 1 unless Re(c-a-b) > 0 (SlowDecay
                       when the series does not converge).
* ``whittaker_w``   -- W_{kappa,mu}(z) by the Laplace integral of the
                       Tricomi function; z <= 0 or Re(1/2-kappa+mu) <= 0
                       only, so it returns values outside the range its
                       docstring states as validated.
* ``parabolic_d``   -- D_nu(z) by its Laplace-type integral plus one
                       recurrence step; nu >= 1.
"""

import numpy as np
from scipy.special import gamma as gamma_fn          # noqa: F401 (re-export)
from scipy.special import j0, j1, jv, loggamma, psi, rgamma

from . import errors

__all__ = ["gamma_fn", "jn_normalized", "gauss_2f1", "whittaker_w",
           "parabolic_d"]

_F21_TOL = 1e-16         # last 2F1 series term, relative to the sum
_F21_TERMS = 500000      # most terms of the plain 2F1 series
_F21_LOG_TERMS = 400     # most terms of the logarithmic connection series
_LAPLACE_UMAX = 6.5      # Laplace integrals run over u in [-6.5, 6.5]
_D_NODES = 1200          # nodes of D_nu's Laplace integral


def jn_normalized(alpha, z):
    """J-Bessel normalized to 1 at the origin:
    2^alpha Gamma(alpha+1) z^(-alpha) J_alpha(z).  Valid for alpha >= -1/2,
    z >= 0 (vectorized).  Elementary and Cephes forms at alpha = -1/2
    (cos z), 0 (j0), 1/2 (sin z / z) and 1 (2 j1(z) / z); jv otherwise."""
    if alpha < -0.5:
        raise errors.RangeNotValidated("alpha must be >= -1/2")
    z = np.asarray(z, dtype=float)
    # in place, as (lambda, x) tables are large; the points near 0 after
    out = np.empty_like(z)
    with np.errstate(all="ignore"):
        if alpha == -0.5:
            np.cos(z, out=out)
        elif alpha == 0.0:
            j0(z, out=out)
        elif alpha == 0.5:
            np.sin(z, out=out)
            out /= z
        elif alpha == 1.0:
            j1(z, out=out)
            out /= z
            out *= 2.0
        else:
            np.power(z, -alpha, out=out)
            out *= 2.0 ** alpha * gamma_fn(alpha + 1.0)
            out *= jv(alpha, z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    # leading series terms; next term ~ (z/2)^6 / 6 < 1e-26 for |z| < 1e-4
    q = -0.25 * zs * zs
    out[small] = 1.0 + q / (alpha + 1.0) * (
        1.0 + q / (2.0 * (alpha + 2.0)) * (1.0 + q / (3.0 * (alpha + 3.0))))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Gauss 2F1, elementwise over flat arrays: each element takes its own branch
# and its own number of series terms

def _series(first, ratio, factor, n_max):
    """Elementwise sums of sum_n c_n factor(n, i) over 1-d arrays, with
    c_0 = first and c_n = c_{n-1} ratio(n, i), where i indexes the elements
    still summing; each stops at its first term at most _F21_TOL of its
    partial sum (or of 1).  Returns (sums, indices unfinished at n_max)."""
    i = np.arange(len(first))
    coef = np.asarray(first, dtype=complex)
    total = coef * factor(0, i)
    out = total.copy()
    for n in range(1, n_max):
        if not i.size:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            coef = coef * ratio(n, i)
            term = coef * factor(n, i)
            total = total + term
        out[i] = total
        # a NaN term keeps its element summing, to SlowDecay at n_max
        live = ~(np.abs(term) <= _F21_TOL * np.maximum(np.abs(total), 1.0))
        i, coef, total = i[live], coef[live], total[live]
    return out, i


def _f21_series(a, b, c, z):
    """Plain hypergeometric power series at 0 <= z < 1 (complex a, b, c)."""
    a, b, c, z = (v.ravel() for v in np.broadcast_arrays(a, b, c, z))
    out, slow = _series(
        np.ones(z.size), lambda k, i: ((a[i] + k - 1.0) * (b[i] + k - 1.0)
                                       / ((c[i] + k - 1.0) * k) * z[i]),
        lambda k, i: 1.0, _F21_TERMS)
    if slow.size:
        raise errors.SlowDecay("2F1 series did not converge "
                               "(z too close to 1)")
    return out


def _is_nonpos_int(v):
    return (np.abs(v.imag) < 1e-13) & (v.real <= 0.5) \
        & (np.abs(v.real - np.round(v.real)) < 1e-13)


def _f21_log_case(a, b, m, w):
    """2F1(a, b; a+b+m; 1-w) for integer m >= 0 (a float array) and small
    w > 0 by the logarithmic connection series."""
    c = a + b + m
    total = np.zeros(a.shape, dtype=complex)
    term = np.ones(a.shape, dtype=complex)
    s1 = term.copy()
    for n in range(1, int(m.max(initial=0))):
        k = n < m
        term[k] *= (a[k] + n - 1.0) * (b[k] + n - 1.0) / (n * (n - m[k])) \
            * w[k]
        s1[k] += term[k]
    k = m > 0
    total[k] = np.exp(loggamma(m[k]) + loggamma(c[k]) - loggamma(a[k] + m[k])
                      - loggamma(b[k] + m[k])) * s1[k]
    lw = np.log(w)
    pref = -((-1.0) ** m) * gamma_fn(c) * rgamma(a) * rgamma(b) * w ** m
    s2, _ = _series(
        rgamma(m + 1.0),
        lambda n, i: ((a[i] + m[i] + n - 1.0) * (b[i] + m[i] + n - 1.0)
                      / (n * (n + m[i])) * w[i]),
        lambda n, i: (lw[i] - psi(n + 1.0) - psi(m[i] + n + 1.0)
                      + psi(a[i] + m[i] + n) + psi(b[i] + m[i] + n)),
        _F21_LOG_TERMS)
    return total + pref * s2


def _f21_near_one(a, b, c, z):
    """2F1 at 0.75 < z < 1 by the connection formula in powers of 1-z, the
    logarithmic one where c-a-b is an integer."""
    s = c - a - b
    w = 1.0 - z
    m = np.round(s.real)
    near_int = (np.abs(s.imag) < 1e-10) & (np.abs(s.real - m) < 1e-10)
    out = np.empty(a.shape, dtype=complex)
    k = near_int & (m >= 0)
    out[k] = _f21_log_case(a[k], b[k], m[k], w[k])
    # Euler transformation flips the sign of c - a - b
    k = near_int & (m < 0)
    out[k] = w[k] ** s[k] * _f21_log_case(c - a[k], c - b[k], -m[k], w[k])
    k = ~near_int
    a, b, s, w = a[k], b[k], s[k], w[k]
    t1 = (gamma_fn(c) * gamma_fn(s) * rgamma(c - a) * rgamma(c - b)
          * _f21_series(a, b, 1.0 - s, w))
    t2 = (w ** s * gamma_fn(c) * gamma_fn(-s) * rgamma(a) * rgamma(b)
          * _f21_series(c - a, c - b, 1.0 + s, w))
    out[k] = t1 + t2
    return out


def _f21(a, b, c, z):
    """2F1 on flat arrays: complex a, b, real z, real scalar c."""
    out = np.empty(z.shape, dtype=complex)
    na = _is_nonpos_int(a)
    fin = na | _is_nonpos_int(b)
    # terminating series: the exact polynomial of degree n, any z
    n = -np.round(np.where(na, a, b).real[fin])[:, None]
    k = np.arange(1.0, n.max(initial=0.0) + 1.0)
    r = ((a[fin, None] + k - 1.0) * (b[fin, None] + k - 1.0)
         / ((c + k - 1.0) * k) * z[fin, None])
    out[fin] = 1.0 + np.cumprod(np.where(k <= n, r, 0.0), axis=1).sum(axis=1)
    rest = ~fin
    if np.any(z[rest] > 1.0):
        raise errors.RangeNotValidated("argument must satisfy z <= 1")
    neg = rest & (z < 0.0)
    if neg.any():
        # Pfaff transformation into [0, 1)
        zn = z[neg]
        out[neg] = (1.0 - zn) ** (-a[neg]) * _f21(a[neg], c - b[neg], c,
                                                  zn / (zn - 1.0))
    one = rest & (z == 1.0)
    a1, b1 = a[one], b[one]
    s = c - a1 - b1
    if np.any(s.real <= 0):
        raise errors.RangeNotValidated("2F1 at z=1 requires c-a-b > 0")
    out[one] = np.exp(loggamma(c) + loggamma(s)
                      - loggamma(c - a1) - loggamma(c - b1))
    ser = rest & (z >= 0.0) & (z <= 0.75)
    out[ser] = _f21_series(a[ser], b[ser], c, z[ser])
    # close to 1 (and NaN)
    k = rest & ~neg & ~one & ~ser
    out[k] = _f21_near_one(a[k], b[k], c, z[k])
    return out


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) for real z <= 1 (any real z when a or b is a
    nonpositive integer, since the series terminates), complex a, b,
    real c > 0.  Negative arguments go through the Pfaff transformation;
    arguments near 1 through the 1-z connection formula.  a, b and z
    broadcast together; returns complex values of their shape."""
    a, b, z = np.broadcast_arrays(np.asarray(a, dtype=complex),
                                  np.asarray(b, dtype=complex),
                                  np.asarray(z, dtype=float))
    out = _f21(a.ravel(), b.ravel(), float(c), z.ravel()).reshape(z.shape)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Tricomi confluent function / Whittaker W

def _tricomi_u(a, b, z):
    """Table U(a_i, b_i, z_j) of shape (len(a), len(z)), where
    U(a, b, z) = (1/Gamma(a)) int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt
    for complex a with Re a > 0, real z > 0, via a double-exponential
    substitution t = exp(sinh u) on one u grid for the whole table.  The
    integrand splits as e^{-zt} times a factor of (a, b) alone, so each
    z-block is one matrix product."""
    # the factor t^{Im a} oscillates with frequency |Im a| cosh(u) in the
    # transformed variable; resolve it across the live window
    n_nodes = 2000 + int(2500 * np.max(np.abs(np.imag(a)), initial=0.0))
    u = np.linspace(-_LAPLACE_UMAX, _LAPLACE_UMAX, n_nodes)
    h = u[1] - u[0]
    logt = np.sinh(u)
    t = np.exp(logt)
    # log integrand without e^{-zt}, plus log Jacobian dt = t cosh(u) du;
    # its largest real part per node moves into the e^{-zt} factor so that
    # neither factor overflows
    le = ((a - 1.0) * logt[:, None] + (b - a - 1.0) * np.log1p(t)[:, None]
          + (logt + np.log(np.cosh(u)))[:, None])
    lift = np.maximum(le.real.max(axis=1), 0.0)
    g = np.exp(le - lift[:, None])
    g = np.concatenate((g.real, g.imag), axis=1)
    out = np.empty((len(z), 2 * len(a)))
    # z-blocks of at most 2^16 integrand entries (512 kB), built in place
    step = max(1, (1 << 16) // n_nodes)
    for j in range(0, len(z), step):
        e = np.multiply.outer(-z[j:j + step], t)
        e += lift
        out[j:j + step] = np.exp(e, out=e) @ g
    return (h * (out[:, :len(a)] + 1j * out[:, len(a):])).T \
        * np.exp(-loggamma(a))[:, None]


def whittaker_w(kappa, mu, z):
    """Whittaker W_{kappa, mu}(z) for real z > 0; mu purely imaginary
    (mu = i*tau) or real with |mu| < 1/2 - kappa.  Validated for
    kappa < 1/2, |Im mu| <= 12, 0.05 <= z <= 700 (the kernel range of the
    index-Whittaker family).  mu and z broadcast together; each distinct
    (mu, z) is one cell of a _tricomi_u table.  Returns the real values."""
    mu = np.asarray(mu, dtype=complex)
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise errors.RangeNotValidated("z must be positive")
    mus, im = np.unique(mu, return_inverse=True)
    a = 0.5 - kappa + mus
    if np.any(a.real <= 0):
        raise errors.RangeNotValidated("requires Re(1/2 - kappa + mu) > 0")
    zs, iz = np.unique(z, return_inverse=True)
    uval = _tricomi_u(a, 1.0 + 2.0 * mus, zs)
    with np.errstate(all="ignore"):
        w = np.exp(-0.5 * zs + np.multiply.outer(mus + 0.5, np.log(zs))) \
            * uval
    out = w.real[im.reshape(mu.shape), iz.reshape(z.shape)]
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Parabolic cylinder D_nu

def _d_negative(nu, z):
    """D_nu(z) for nu < 0 via
    D_nu(z) = e^{-z^2/4} / Gamma(-nu) * int_0^inf e^{-zt - t^2/2} t^{-nu-1} dt
    (vectorized over z, in z-blocks of at most 2^16 integrand entries)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    u = np.linspace(-_LAPLACE_UMAX, _LAPLACE_UMAX, _D_NODES)
    h = u[1] - u[0]
    s = np.sinh(u)
    t = np.exp(s)
    half_t2, power, jac = 0.5 * t * t, (-nu) * s, np.log(np.cosh(u))
    integral = np.empty(len(z))
    step = max(1, (1 << 16) // _D_NODES)
    with np.errstate(all="ignore"):
        for j in range(0, len(z), step):
            le = np.multiply.outer(-z[j:j + step], t)
            le -= half_t2
            le += power
            le += jac
            vals = np.where(le < -745.0, 0.0, np.exp(le, out=le))
            integral[j:j + step] = h * vals.sum(axis=1)
    return np.exp(-0.25 * z * z) / gamma_fn(-nu) * integral


def parabolic_d(nu, z):
    """Parabolic cylinder D_nu(z) for nu < 1, z real (vectorized over z).
    nu < 0 by the Laplace integral; nu = 0 exactly; 0 < nu < 1 by one step
    of D_{nu}(z) = z D_{nu-1}(z) - (nu-1) D_{nu-2}(z)."""
    if nu >= 1.0:
        raise errors.RangeNotValidated("parabolic_d validated for nu < 1")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    if nu == 0.0:
        out = np.exp(-0.25 * zv * zv)
    elif nu < 0.0:
        out = _d_negative(nu, zv)
    else:
        out = zv * _d_negative(nu - 1.0, zv) \
            - (nu - 1.0) * _d_negative(nu - 2.0, zv)
    return float(out[0]) if scalar else out
