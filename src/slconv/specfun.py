"""Special functions backing the family closed forms, by series and
integral representations (no external special-function code except the
gamma, digamma, Bessel-J and scaled complementary error function
routines: Cephes j0/j1, Amos jv and the Faddeeva package's erfcx).
gauss_2f1 and whittaker_w return tables with no loop over points: their
row parameters (a and b, or mu) index the rows and z the columns, so the
result has shape a.shape + z.shape, and 0-d input gives a scalar.  Each
raises RangeNotValidated only where stated:

* ``jn_normalized`` -- J_alpha(z) normalized to 1 at z = 0; validated for
                       alpha >= -1/2 (RangeNotValidated below).
* ``gauss_2f1``     -- 2F1 on tables, each (a, b) a row and each distinct
                       z a column: the terminating polynomial, the
                       Pfaff step, Gauss's sum at z = 1, the power series
                       and the 1-z connection formula (logarithmic where
                       c-a-b is an integer), every series a coefficient
                       table (one cumprod) times a power table z^k in
                       blocks of at most 2^16 entries; z > 1 unless the
                       series terminates, z = 1 unless Re(c-a-b) > 0
                       (SlowDecay where a series needs more terms than
                       _F21_TERMS, the bound that keeps 16 columns in a
                       power-table block, or _F21_LOG_TERMS).
* ``whittaker_w``   -- W_{kappa,mu}(z) by the Laplace integral of the
                       Tricomi function; z <= 0, Re(1/2-kappa+mu) <= 0 or
                       |Im mu| > 10 (at |Im mu| = 12 the error reaches
                       2e-8), so it returns values outside the kappa and z
                       its docstring states as validated.
* ``parabolic_d``   -- D_nu(z) by its Laplace-type integral plus one
                       recurrence step, D_{-1} by erfcx; nu >= 1.
"""

import math

import numpy as np
from scipy.special import gamma as gamma_fn          # noqa: F401 (re-export)
from scipy.special import erfcx, j0, j1, jv, loggamma, psi, rgamma

from . import errors

__all__ = ["gamma_fn", "jn_normalized", "gauss_2f1", "whittaker_w",
           "parabolic_d"]

_F21_TOL = 1e-16         # last 2F1 series term, relative to the sum
_F21_TERMS = 4096        # most terms of a 2F1 series table (16 columns of a
                         # 2^16-entry power-table block)
_F21_LOG_TERMS = 400     # most terms of the logarithmic connection series
_LAPLACE_UMAX = 6.5      # Laplace integrals run over u in [-6.5, 6.5]
_D_NODES = 1200          # nodes of D_nu's Laplace integral
_W_TAU_MAX = 10.0        # largest |Im mu| whittaker_w is validated for


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
# Gauss 2F1 on tables: each (a, b) is a row, each distinct z a column, and
# every series is a coefficient table times a power table

def _series_coefs(first, ratio, zmax, cap, weight=None):
    """Coefficient rows c_k of sum_k c_k z^k, c_0 = first and c_k =
    c_{k-1} ratio(k) (one cumprod), for as many terms as _n_terms finds the
    rows need at |z| <= zmax, each term times weight(k) if given; ratio and
    weight take a row vector of term indices k.  SlowDecay when that is
    more than cap."""
    coef = first[:, None].astype(complex)
    n = 64
    while True:
        n = min(n, cap)
        k = np.arange(coef.shape[1], n, dtype=float)[None, :]
        with np.errstate(all="ignore"):
            # the cumprod carries on from the last coefficient so far
            coef = np.concatenate((coef[:, :-1], np.cumprod(np.concatenate(
                (coef[:, -1:], ratio(k)), axis=1), axis=1)), axis=1)
            wt = None if weight is None else weight(
                np.arange(n, dtype=float)[None, :])
        m = _n_terms(coef, zmax, wt)
        if m is not None:
            return coef[:, :m]
        if n == cap:
            raise errors.SlowDecay("2F1 series did not converge in %d terms"
                                   % cap)
        n *= 2


def _n_terms(coef, zmax, wt):
    """Terms the rows of a coefficient table (two or more columns) need at
    |z| = zmax: through the first after each row's last term (times wt, if
    not None) above _F21_TOL of its partial sum (or of 1).  None when the
    table's last terms are not yet below that and decaying, a NaN term
    included."""
    n = coef.shape[1]
    with np.errstate(all="ignore"):
        terms = coef * zmax ** np.arange(n)
        mag = np.abs(terms) if wt is None else np.abs(terms) * wt
        big = ~(mag <= _F21_TOL * np.maximum(
            np.abs(np.cumsum(terms, axis=1)), 1.0))
        grows = np.abs(coef[:, -1]) * zmax > np.abs(coef[:, -2])
    if np.any(big[:, -1] | grows):
        return None
    last = np.where(big.any(axis=1), n - 1 - np.argmax(big[:, ::-1], axis=1),
                    -1)
    return min(n, int(last.max(initial=-1)) + 2)


def _power_sums(coef, z):
    """The table sum_k coef[i, k] z_j^k, shape (rows, len(z)): the real and
    imaginary coefficient rows times power tables z^k, in column blocks of
    at most 2^16 entries."""
    rows, n = coef.shape
    g = np.concatenate((coef.real, coef.imag))
    out = np.empty((2 * rows, len(z)))
    step = max(1, (1 << 16) // n)
    with np.errstate(all="ignore"):
        for j in range(0, len(z), step):
            out[:, j:j + step] = g @ np.power(
                z[j:j + step], np.arange(n, dtype=float)[:, None])
    return out[:rows] + 1j * out[rows:]


def _f21_terminating(a, b, c, z):
    """Table of the exact polynomials where a or b is a nonpositive integer
    (any z)."""
    na = _is_nonpos_int(a)
    n = -np.round(np.where(na, a, b).real)[:, None]
    k = np.arange(1.0, n.max(initial=0.0) + 1.0)
    with np.errstate(all="ignore"):
        r = (a[:, None] + k - 1.0) * (b[:, None] + k - 1.0) \
            / ((c + k - 1.0) * k)
    coef = np.cumprod(np.concatenate(
        (np.ones((len(a), 1), complex), np.where(k <= n, r, 0.0)), axis=1),
        axis=1)
    return _power_sums(coef, z)


def _f21_series(a, b, c, z):
    """Table of the plain hypergeometric series at 0 <= z < 1 (complex a, b
    and c per row)."""
    a, b, c = (v[:, None] for v in np.broadcast_arrays(a, b, c))
    coef = _series_coefs(
        np.ones(len(a)), lambda k: (a + k - 1.0) * (b + k - 1.0)
        / ((c + k - 1.0) * k), np.fmax.reduce(z, initial=0.0), _F21_TERMS)
    return _power_sums(coef, z)


def _is_nonpos_int(v):
    return (np.abs(v.imag) < 1e-13) & (v.real <= 0.5) \
        & (np.abs(v.real - np.round(v.real)) < 1e-13)


def _f21_log_case(a, b, m, w):
    """Table 2F1(a, b; a+b+m; 1-w) for integer m >= 0 per row (floats) and
    small w > 0 by the logarithmic connection series: m finite terms, then
    log w (G @ W) - ((G o H) @ W) with G the series coefficients, H their
    digamma sums and W the power table of w."""
    c = a + b + m
    ar, br, mr = a[:, None], b[:, None], m[:, None]
    # the finite sum over n < m
    k = np.arange(1.0, max(m.max(initial=0.0), 1.0))
    with np.errstate(all="ignore"):
        r = np.where(k < mr, (ar + k - 1.0) * (br + k - 1.0)
                     / (k * (k - mr)), 0.0)
    fin = np.cumprod(np.concatenate((np.ones((len(a), 1)), r), axis=1),
                     axis=1)
    lw_min = abs(math.log(np.fmin.reduce(w, initial=1.0)))
    h = []      # the digamma sums of the window the terms were sized on

    def weight(n):
        h.append(psi(n + 1.0) + psi(mr + n + 1.0) - psi(ar + mr + n)
                 - psi(br + mr + n))
        return lw_min + np.abs(h[-1])

    coef = _series_coefs(
        rgamma(m + 1.0), lambda n: ((ar + mr + n - 1.0) * (br + mr + n - 1.0)
                                    / (n * (n + mr))),
        np.fmax.reduce(w, initial=0.0), _F21_LOG_TERMS, weight)
    h = h[-1][:, :coef.shape[1]]
    width = max(fin.shape[1], coef.shape[1])
    pad = [np.pad(t, ((0, 0), (0, width - t.shape[1])))
           for t in (fin, coef, coef * h)]
    s1, gw, ghw = np.split(_power_sums(np.concatenate(pad), w), 3)
    with np.errstate(all="ignore"):
        total = np.where(m > 0, np.exp(loggamma(m) + loggamma(c)
                                       - loggamma(a + m) - loggamma(b + m)),
                         0.0)
        pref = -((-1.0) ** m) * gamma_fn(c) * rgamma(a) * rgamma(b)
        return total[:, None] * s1 + pref[:, None] * w ** mr * (
            np.log(w) * gw - ghw)


def _f21_near_one(a, b, c, w):
    """Table of 2F1 at 0.75 < z < 1 by the connection formula in powers of
    w = 1-z (its columns), the logarithmic one for rows where c-a-b is an
    integer."""
    s = c - a - b
    m = np.round(s.real)
    near_int = (np.abs(s.imag) < 1e-10) & (np.abs(s.real - m) < 1e-10)
    out = np.empty((len(a), len(w)), dtype=complex)
    k = near_int & (m >= 0)
    if k.any():
        out[k] = _f21_log_case(a[k], b[k], m[k], w)
    # Euler transformation flips the sign of c - a - b
    k = near_int & (m < 0)
    if k.any():
        out[k] = np.exp(np.multiply.outer(s[k], np.log(w))) * _f21_log_case(
            c - a[k], c - b[k], -m[k], w)
    k = ~near_int
    if k.any():
        a, b, s = a[k], b[k], s[k]
        f = _f21_series(np.concatenate((a, c - a)), np.concatenate((b, c - b)),
                        np.concatenate((1.0 - s, 1.0 + s)), w)
        t1 = (gamma_fn(c) * gamma_fn(s) * rgamma(c - a) * rgamma(c - b))[
            :, None] * f[:len(a)]
        t2 = np.exp(np.multiply.outer(s, np.log(w))) * (
            gamma_fn(c) * gamma_fn(-s) * rgamma(a) * rgamma(b))[:, None] \
            * f[len(a):]
        out[k] = t1 + t2
    return out


def _f21_pfaff(a, b, c, z):
    """Table at z < 0 by the Pfaff transformation into [0, 1), at z/(z-1)
    with its 1 - z/(z-1) = 1/(1-z) exact."""
    w = 1.0 / (1.0 - z)
    return np.exp(np.multiply.outer(-a, np.log1p(-z))) * _f21(
        a, c - b, c, -z * w, w)


def _f21_at_one(a, b, c, z):
    """Table at z = 1 (Gauss's sum)."""
    s = c - a - b
    if np.any(s.real <= 0):
        raise errors.RangeNotValidated("2F1 at z=1 requires c-a-b > 0")
    return np.exp(loggamma(c) + loggamma(s) - loggamma(c - a)
                  - loggamma(c - b))[:, None] * np.ones(len(z))


def _f21(a, b, c, z, w):
    """Table 2F1(a_i, b_i; c; z_j) over rows of complex a, b and columns of
    real z, real scalar c: terminating rows take every column, and the
    other rows split by column into the Pfaff step (z < 0), Gauss's sum
    (w = 0), the series (z <= 0.75) and the 1-z connection (above, and
    NaN).  w is 1 - z, exact where the caller forms it so (Pfaff)."""
    out = np.empty((len(a), len(z)), dtype=complex)
    fin = _is_nonpos_int(a) | _is_nonpos_int(b)
    if fin.any():
        out[fin] = _f21_terminating(a[fin], b[fin], c, z)
    rest = ~fin
    if rest.any():
        if np.any(z > 1.0):
            raise errors.RangeNotValidated("argument must satisfy z <= 1")
        branch = np.select([z < 0.0, w == 0.0, z <= 0.75], [0, 1, 2], 3)
        for k, table in enumerate((_f21_pfaff, _f21_at_one, _f21_series,
                                   _f21_near_one)):
            cols = branch == k
            if cols.any():
                out[np.ix_(rest, cols)] = table(a[rest], b[rest], c,
                                                (w if k == 3 else z)[cols])
    return out


def gauss_2f1(a, b, c, z):
    """2F1(a, b; c; z) for real z <= 1 (any real z when a or b is a
    nonpositive integer, since the series terminates), complex a, b,
    real c > 0.  Negative arguments go through the Pfaff transformation;
    arguments near 1 through the 1-z connection formula.  A table: a and b
    broadcast together to index its rows and each distinct z is a column,
    so the complex result has shape a.shape + z.shape (a scalar for 0-d
    input)."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex),
                               np.asarray(b, dtype=complex))
    z = np.asarray(z, dtype=float)
    zs, iz = np.unique(z, return_inverse=True)
    out = _f21(a.ravel(), b.ravel(), float(c), zs, 1.0 - zs)[
        :, iz.reshape(z.shape)]
    out = out.reshape(a.shape + z.shape)
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
    (mu = i*tau) or real with |mu| < 1/2 - kappa.  Validated against
    mpmath, to 1e-9 of max(1, |W|), for kappa in {0, -1/2, 0.3},
    |Im mu| <= _W_TAU_MAX = 10 and 0.005 <= z <= 30 (whittaker's
    convolution nodes reach z ~ 0.008).  A table: each mu is a row and
    each distinct z a column of one _tricomi_u table, so the real result
    has shape mu.shape + z.shape (a float for 0-d input)."""
    mu = np.asarray(mu, dtype=complex)
    z = np.asarray(z, dtype=float)
    if not np.all(z > 0.0):
        raise errors.RangeNotValidated("z must be positive")
    if np.any(np.abs(mu.imag) > _W_TAU_MAX):
        raise errors.RangeNotValidated(
            "whittaker_w validated for |Im mu| <= %g" % _W_TAU_MAX)
    mus = mu.ravel()
    a = 0.5 - kappa + mus
    if np.any(a.real <= 0):
        raise errors.RangeNotValidated("requires Re(1/2 - kappa + mu) > 0")
    zs, iz = np.unique(z, return_inverse=True)
    uval = _tricomi_u(a, 1.0 + 2.0 * mus, zs)
    with np.errstate(all="ignore"):
        w = np.exp(-0.5 * zs + np.multiply.outer(mus + 0.5, np.log(zs))) \
            * uval
    out = w.real[:, iz.reshape(z.shape)].reshape(mu.shape + z.shape)
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
    nu < 0 by the Laplace integral; nu = 0 and nu = -1 exactly, D_{-1}(z) =
    sqrt(pi/2) erfcx(z/sqrt(2)) e^{-z^2/4}; 0 < nu < 1 by one step of
    D_{nu}(z) = z D_{nu-1}(z) - (nu-1) D_{nu-2}(z)."""
    if nu >= 1.0:
        raise errors.RangeNotValidated("parabolic_d validated for nu < 1")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zv = np.atleast_1d(z)
    if nu == 0.0:
        out = np.exp(-0.25 * zv * zv)
    elif nu == -1.0:
        out = (math.sqrt(0.5 * math.pi) * erfcx(zv / math.sqrt(2.0))
               * np.exp(-0.25 * zv * zv))
    elif nu < 0.0:
        out = _d_negative(nu, zv)
    else:
        out = zv * _d_negative(nu - 1.0, zv) \
            - (nu - 1.0) * _d_negative(nu - 2.0, zv)
    return float(out[0]) if scalar else out
