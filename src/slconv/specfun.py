"""Special functions backing the family closed forms.

Implemented here by series / integral representations (kept independent of
any external special-function code except the well-tested gamma and Bessel-J
routines):

* ``jn_normalized``  -- J_alpha(z) normalized to 1 at z = 0.
* ``gauss_2f1``      -- 2F1 with complex-conjugate upper parameters and real
                        argument z <= 0, via the Pfaff transformation.
* ``whittaker_w``    -- W_{kappa,mu}(z) for real z > 0, via the Laplace
                        integral of the Tricomi confluent function.
* ``parabolic_d``    -- D_nu(z) for nu < 1, via its Laplace-type integral
                        plus one recurrence step.

Validated ranges are documented per function; outside them the functions
raise RangeNotValidated.
"""

import numpy as np
from scipy.special import gamma as gamma_fn          # noqa: F401 (re-export)
from scipy.special import jv, loggamma, rgamma

from . import errors

__all__ = ["gamma_fn", "jn_normalized", "gauss_2f1", "whittaker_w",
           "parabolic_d", "whittaker_ode_residual"]

_F21_TOL = 1e-16         # last 2F1 series term, relative to the sum
_F21_TERMS = 500000      # most terms of the plain 2F1 series
_F21_LOG_TERMS = 400     # most terms of the logarithmic connection series
_LAPLACE_UMAX = 6.5      # Laplace integrals run over u in [-6.5, 6.5]
_D_NODES = 1200          # nodes of D_nu's Laplace integral


def jn_normalized(alpha, z):
    """J-Bessel normalized to 1 at the origin:
    2^alpha Gamma(alpha+1) z^(-alpha) J_alpha(z).  Valid for alpha >= -1/2,
    z >= 0 (vectorized)."""
    if alpha < -0.5:
        raise errors.RangeNotValidated("alpha must be >= -1/2")
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-4
    zs = z[small]
    # leading series terms; next term ~ (z/2)^6 / 6 < 1e-26 for |z| < 1e-4
    q = -0.25 * zs * zs
    out[small] = 1.0 + q / (alpha + 1.0) * (
        1.0 + q / (2.0 * (alpha + 2.0)) * (1.0 + q / (3.0 * (alpha + 3.0))))
    zb = z[~small]
    with np.errstate(all="ignore"):
        out[~small] = (2.0 ** alpha * gamma_fn(alpha + 1.0)
                       * zb ** (-alpha) * jv(alpha, zb))
    return out if out.ndim else float(out)


def _f21_series(a, b, c, z):
    """Plain hypergeometric power series at 0 <= z < 1 (complex a, b)."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    for k in range(1, _F21_TERMS):
        term = term * ((a + k - 1.0) * (b + k - 1.0)
                       / ((c + k - 1.0) * k)) * z
        total += term
        if abs(term) <= _F21_TOL * max(abs(total), 1.0):
            return total
    raise errors.SlowDecay("2F1 series did not converge (z too close to 1)")


def _is_nonpos_int(v):
    return abs(v.imag) < 1e-13 and v.real <= 0.5 \
        and abs(v.real - round(v.real)) < 1e-13


def _digamma_c(z):
    """Digamma for complex z (recurrence into the asymptotic region)."""
    z = complex(z)
    acc = 0.0 + 0j
    while z.real < 16.0:
        acc -= 1.0 / z
        z += 1.0
    zi2 = 1.0 / (z * z)
    # asymptotic series ln z - 1/(2z) - sum B_2n / (2n z^{2n})
    tail = zi2 * (1.0 / 12.0 - zi2 * (1.0 / 120.0 - zi2 * (
        1.0 / 252.0 - zi2 * (1.0 / 240.0 - zi2 / 132.0))))
    return acc + np.log(z) - 0.5 / z - tail


def _f21_log_case(a, b, m, w):
    """2F1(a, b; a+b+m; 1-w) for integer m >= 0 and small w > 0 by the
    logarithmic connection series."""
    c = a + b + m
    total = 0.0 + 0j
    if m > 0:
        term = 1.0 + 0j
        s1 = term
        for n in range(1, m):
            term = term * ((a + n - 1.0) * (b + n - 1.0)
                           / (n * (1.0 - m + n - 1.0))) * w
            s1 += term
        total += np.exp(loggamma(m) + loggamma(c)
                        - loggamma(a + m) - loggamma(b + m)) * s1
    lw = np.log(w)
    pref = -((-1.0) ** m) * gamma_fn(c) * rgamma(a) * rgamma(b) * w ** m
    psi_a = _digamma_c(a + m)
    psi_b = _digamma_c(b + m)
    psi1 = _digamma_c(1.0)
    psi2 = _digamma_c(m + 1.0)
    coef = 1.0 / gamma_fn(m + 1.0)
    s2 = coef * (lw - psi1 - psi2 + psi_a + psi_b)
    for n in range(1, _F21_LOG_TERMS):
        coef = coef * ((a + m + n - 1.0) * (b + m + n - 1.0)
                       / (n * (n + m))) * w
        psi1 += 1.0 / n
        psi2 += 1.0 / (m + n)
        psi_a += 1.0 / (a + m + n - 1.0)
        psi_b += 1.0 / (b + m + n - 1.0)
        term = coef * (lw - psi1 - psi2 + psi_a + psi_b)
        s2 += term
        if abs(term) <= _F21_TOL * max(abs(s2), 1.0):
            break
    return total + pref * s2


def _f21_scalar(a, b, c, z):
    a, b = complex(a), complex(b)
    c = float(c)
    if _is_nonpos_int(a) or _is_nonpos_int(b):
        # terminating series: exact polynomial, any z
        n = int(-round(a.real)) if _is_nonpos_int(a) else int(-round(b.real))
        term = 1.0 + 0j
        total = 1.0 + 0j
        for k in range(1, n + 1):
            term = term * ((a + k - 1.0) * (b + k - 1.0)
                           / ((c + k - 1.0) * k)) * z
            total += term
        return total
    if z > 1.0:
        raise errors.RangeNotValidated("argument must satisfy z <= 1")
    if z < 0.0:
        # Pfaff transformation into [0, 1)
        return (1.0 - z) ** (-a) * _f21_scalar(a, c - b, c, z / (z - 1.0))
    if z == 1.0:
        s = c - a - b
        if s.real <= 0:
            raise errors.RangeNotValidated("2F1 at z=1 requires c-a-b > 0")
        return np.exp(loggamma(c) + loggamma(s)
                      - loggamma(c - a) - loggamma(c - b))
    if z <= 0.75:
        return _f21_series(a, b, c, z)
    # close to 1: connection formula in powers of 1-z
    s = c - a - b
    near_int = abs(s.imag) < 1e-10 and abs(s.real - round(s.real)) < 1e-10
    if near_int:
        m = int(round(s.real))
        if m >= 0:
            return _f21_log_case(a, b, m, 1.0 - z)
        # Euler transformation flips the sign of c - a - b
        return (1.0 - z) ** s * _f21_log_case(c - a, c - b, -m, 1.0 - z)
    w = 1.0 - z
    t1 = (gamma_fn(c) * gamma_fn(s) * rgamma(c - a) * rgamma(c - b)
          * _f21_series(a, b, 1.0 - s, w))
    t2 = (w ** s * gamma_fn(c) * gamma_fn(-s) * rgamma(a) * rgamma(b)
          * _f21_series(c - a, c - b, 1.0 + s, w))
    return t1 + t2


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) for real z <= 1 (any real z when a or b is a
    nonpositive integer, since the series terminates), complex a, b,
    real c > 0.  Negative arguments go through the Pfaff transformation;
    arguments near 1 through the 1-z connection formula.  Vectorized
    over z; returns complex values."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        return _f21_scalar(a, b, c, float(z))
    flat = [_f21_scalar(a, b, c, float(v)) for v in z.ravel()]
    return np.asarray(flat, dtype=complex).reshape(z.shape)


# ---------------------------------------------------------------------------
# Tricomi confluent function / Whittaker W

def _tricomi_u(a, b, z):
    """U(a, b, z) = (1/Gamma(a)) int_0^inf e^{-zt} t^{a-1} (1+t)^{b-a-1} dt
    for complex a with Re a > 0, real z > 0, via a double-exponential
    substitution t = exp(sinh u) evaluated in log space."""
    # the factor t^{Im a} oscillates with frequency |Im a| cosh(u) in the
    # transformed variable; resolve it across the live window
    n_nodes = 2000 + int(2500 * abs(np.imag(a)))
    u = np.linspace(-_LAPLACE_UMAX, _LAPLACE_UMAX, n_nodes)
    h = u[1] - u[0]
    s = np.sinh(u)
    logt = s
    t = np.exp(s)
    # log integrand + log Jacobian dt = t cosh(u) du
    with np.errstate(all="ignore"):
        le = (-z * t + (a - 1.0) * logt + (b - a - 1.0) * np.log1p(t)
              + logt + np.log(np.cosh(u)))
        vals = np.where(np.real(-z * t + logt) < -745.0, 0.0, np.exp(le))
    integral = h * np.sum(vals)
    return integral * np.exp(-loggamma(a))


def whittaker_w(kappa, mu, z):
    """Whittaker W_{kappa, mu}(z) for real z > 0; mu purely imaginary
    (mu = i*tau) or real with |mu| < 1/2 - kappa.  Validated for
    kappa < 1/2, |Im mu| <= 12, 0.05 <= z <= 700 (the kernel range of the
    index-Whittaker family).  Returns the real value."""
    z = float(z)
    if not (z > 0.0):
        raise errors.RangeNotValidated("z must be positive")
    a = 0.5 - kappa + mu
    b = 1.0 + 2.0 * mu
    if np.real(a) <= 0:
        raise errors.RangeNotValidated("requires Re(1/2 - kappa + mu) > 0")
    uval = _tricomi_u(a, b, z)
    with np.errstate(all="ignore"):
        w = np.exp(-0.5 * z + (mu + 0.5) * np.log(z)) * uval
    return float(np.real(w))


def whittaker_ode_residual(kappa, mu, z, h=None):
    """Residual of the Whittaker equation
    W'' + (-1/4 + kappa/z + (1/4 - mu^2)/z^2) W = 0, by central
    differences; used as the self-test of whittaker_w."""
    z = float(z)
    if h is None:
        h = 1e-3 * max(z, 1.0)
    wm = whittaker_w(kappa, mu, z - h)
    w0 = whittaker_w(kappa, mu, z)
    wp = whittaker_w(kappa, mu, z + h)
    d2 = (wp - 2.0 * w0 + wm) / (h * h)
    coef = -0.25 + kappa / z + float(np.real(0.25 - mu * mu)) / (z * z)
    return d2 + coef * w0


# ---------------------------------------------------------------------------
# Parabolic cylinder D_nu

def _d_negative(nu, z):
    """D_nu(z) for nu < 0 via
    D_nu(z) = e^{-z^2/4} / Gamma(-nu) * int_0^inf e^{-zt - t^2/2} t^{-nu-1} dt
    (vectorized over z)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    u = np.linspace(-_LAPLACE_UMAX, _LAPLACE_UMAX, _D_NODES)
    h = u[1] - u[0]
    s = np.sinh(u)
    t = np.exp(s)
    with np.errstate(all="ignore"):
        le = (-np.outer(z, t) - 0.5 * t * t
              + (-nu) * s + np.log(np.cosh(u)))
        vals = np.where(le < -745.0, 0.0, np.exp(le))
    integral = h * vals.sum(axis=1)
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
