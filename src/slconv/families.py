"""Built-in coefficient families on (0, inf): closed-form kernels,
Plancherel (spectral) densities, and the associated convolution measures
(two-atom, atom+density, and pure-density forms, including the
full-support case with superexponentially decaying density)."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import loggamma, roots_jacobi

from . import errors, measures, specfun
from .expr import CoeffExpr
from .slmodel import SLProblem
from .spectral import SpectralMeasure

__all__ = ["Family", "make_family", "load_family", "FAMILY_NAMES",
           "family_convolution_measure", "eval_special"]

FAMILY_NAMES = ("cosine", "squared_weight", "hankel", "jacobi",
                "whittaker", "degenerate_custom")

_GL6_N, _GL6_W = leggauss(6)
_GL12_N, _GL12_W = leggauss(12)
_ATOL_BOUNDARY = 1e-14


@dataclass(frozen=True)
class Family:
    id: str
    params: tuple                 # sorted (key, value) pairs
    problem: SLProblem
    lam_shift: float              # lambda = tau^2 + lam_shift
    closed_kernel: object = None  # callable (lam, x-array) -> values
    spectral: object = None       # SpectralMeasure or None
    conv_quad: object = None      # callable (x, y) -> (nodes, wts, atoms)
    conv_sampled: object = None   # callable (x, y) -> MeasureRepr
    prefer_closed_kernel: bool = True

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def tau(self, lam):
        return math.sqrt(max(float(lam) - self.lam_shift, 0.0))


# ---------------------------------------------------------------------------
# quadrature helpers for convolution densities

@functools.lru_cache(maxsize=64)
def _jacobi_rule(n, alpha, beta):
    return roots_jacobi(n, alpha, beta)


def _edge_quad(l, u, edge_pow, smooth, n=200):
    """Nodes/weights integrating smooth(xi) * [(xi-l)(u-xi)]^edge_pow
    over [l, u] exactly for the edge powers (Gauss-Jacobi rule)."""
    s, v = _jacobi_rule(n, edge_pow, edge_pow)
    half = 0.5 * (u - l)
    xi = 0.5 * (u + l) + half * s
    w = v * half ** (2.0 * edge_pow + 1.0) * smooth(xi)
    return xi, w


def _cells_to_measure(edges, cell_mass, density_at):
    """Mass-exact piecewise-linear segments: each cell becomes a 3-point
    segment whose trapezoid mass equals the true cell mass (midpoint value
    adjusted), so cumulative operations are faithful."""
    segs = []
    for k in range(len(edges) - 1):
        x0, x1 = float(edges[k]), float(edges[k + 1])
        m = float(cell_mass[k])
        if m <= 0.0 or x1 <= x0:
            continue
        h = x1 - x0
        xm = 0.5 * (x0 + x1)
        f0, f1 = float(density_at(x0)), float(density_at(x1))
        flat = m / h
        if not (np.isfinite(f0) and f0 >= 0.0) or f0 > 50.0 * flat:
            f0 = flat
        if not (np.isfinite(f1) and f1 >= 0.0) or f1 > 50.0 * flat:
            f1 = flat
        fm = 2.0 * m / h - 0.5 * (f0 + f1)
        if fm < 0.0:
            f0 = f1 = fm = flat
        segs.append(measures.Segment(x0, x1,
                                     np.array([x0, xm, x1]),
                                     np.array([f0, fm, f1])))
    return tuple(segs)


def _edge_sampled_substituted(l, u, edge_pow, smooth, to_xi, density_xi,
                              n_cells=400):
    """Sampled measure for a density that is smooth(t)*[(t-l)(u-t)]^edge_pow
    in a substituted variable t, mapped back to the position variable
    xi = to_xi(t) (monotone increasing).  Cell masses are computed in t
    (where the quadrature is accurate); segment grids live in xi."""
    span = u - l
    theta = np.linspace(0.0, np.pi, n_cells + 1)
    half_t = np.sin(0.5 * theta)
    t_edges = l + span * half_t * half_t
    masses = np.empty(n_cells)
    for k in range(n_cells):
        t0, t1 = theta[k], theta[k + 1]
        tm, th = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
        tn = tm + th * _GL12_N
        sn, cn = np.sin(0.5 * tn), np.cos(0.5 * tn)
        t = l + span * sn * sn
        jac = span ** (2.0 * edge_pow + 1.0) * (sn * cn) ** (
            2.0 * edge_pow + 1.0)
        masses[k] = th * float(np.sum(_GL12_W * smooth(t) * jac))
    # edge cells carry the fractional powers: use one-sided Gauss-Jacobi
    # so the cell masses are exact there too
    s_lo, v_lo = _jacobi_rule(12, 0.0, edge_pow)
    h0 = t_edges[1] - t_edges[0]
    t0n = l + h0 * 0.5 * (1.0 + s_lo)
    masses[0] = float(np.sum(
        v_lo * smooth(t0n) * (u - t0n) ** edge_pow)) \
        * (0.5 * h0) ** (edge_pow + 1.0)
    s_hi, v_hi = _jacobi_rule(12, edge_pow, 0.0)
    h1 = t_edges[-1] - t_edges[-2]
    t1n = u - h1 * 0.5 * (1.0 - s_hi)
    masses[-1] = float(np.sum(
        v_hi * smooth(t1n) * (t1n - l) ** edge_pow)) \
        * (0.5 * h1) ** (edge_pow + 1.0)
    return measures.MeasureRepr(
        segments=_cells_to_measure(to_xi(t_edges), masses, density_xi))


# ---------------------------------------------------------------------------
# family constructions

def _boundary_shortcut(a, x, y):
    if abs(x - a) <= _ATOL_BOUNDARY:
        return measures.dirac(y)
    if abs(y - a) <= _ATOL_BOUNDARY:
        return measures.dirac(x)
    return None


def _make_cosine(params):
    problem = SLProblem(a=0.0, b=np.inf, p=CoeffExpr("1"), r=CoeffExpr("1"),
                        c=1.0, name="cosine")

    def ck(lam, x):
        return np.cos(math.sqrt(max(lam, 0.0)) * np.asarray(x, float))

    spectral = SpectralMeasure(
        tau_density=lambda t: np.full_like(np.asarray(t, float), 2.0 / np.pi),
        lam_shift=0.0, support_note="half-line, lambda = tau^2")

    def conv_atoms(x, y):
        return ((abs(x - y), 0.5), (x + y, 0.5))

    def conv_quad(x, y):
        return np.empty(0), np.empty(0), conv_atoms(x, y)

    def conv_sampled(x, y):
        short = _boundary_shortcut(0.0, x, y)
        return short if short is not None else \
            measures.MeasureRepr(atoms=conv_atoms(x, y))

    return Family("cosine", (), problem, 0.0, ck, spectral,
                  conv_quad, conv_sampled)


def _make_squared_weight(params):
    problem = SLProblem(a=0.0, b=np.inf, p=CoeffExpr("(1+x)^2"),
                        r=CoeffExpr("(1+x)^2"), c=1.0, name="squared_weight")

    def ck(lam, x):
        x = np.asarray(x, float)
        tau = math.sqrt(max(lam, 0.0))
        if tau == 0.0:
            return np.ones_like(x)
        return (np.cos(tau * x) + x * np.sinc(tau * x / np.pi)) / (1.0 + x)

    spectral = SpectralMeasure(
        tau_density=lambda t: (2.0 / np.pi) * t * t / (1.0 + t * t),
        lam_shift=0.0, support_note="half-line, lambda = tau^2")

    def _pieces(x, y):
        l, u = abs(x - y), x + y
        norm = 1.0 / (2.0 * (1.0 + x) * (1.0 + y))
        atoms = (((l, (1.0 + l) * norm),) if (1.0 + l) * norm > 0 else ()) \
            + ((u, (1.0 + u) * norm),)
        return l, u, norm, atoms

    def conv_quad(x, y):
        l, u, norm, atoms = _pieces(x, y)
        mid, half = 0.5 * (l + u), 0.5 * (u - l)
        xi = mid + half * _GL12_N
        w = half * _GL12_W * (1.0 + xi) * norm
        return xi, w, atoms

    def conv_sampled(x, y):
        short = _boundary_shortcut(0.0, x, y)
        if short is not None:
            return short
        l, u, norm, atoms = _pieces(x, y)
        grid = np.linspace(l, u, 101)
        seg = measures.Segment(l, u, grid, (1.0 + grid) * norm)
        return measures.MeasureRepr(atoms=atoms, segments=(seg,))

    return Family("squared_weight", (), problem, 0.0, ck, spectral,
                  conv_quad, conv_sampled)


def _make_hankel(params):
    alpha = float(params.get("alpha", 0.0))
    if alpha < -0.5:
        raise errors.ParamOutOfRange("hankel requires alpha >= -1/2")
    expo = 2.0 * alpha + 1.0
    coeff = CoeffExpr("x^%r" % expo) if expo != 0.0 else CoeffExpr("1")
    problem = SLProblem(a=0.0, b=np.inf, p=coeff, r=coeff, c=1.0,
                        name="hankel")

    def ck(lam, x):
        return specfun.jn_normalized(alpha,
                                     math.sqrt(max(lam, 0.0))
                                     * np.asarray(x, float))

    norm_c = (2.0 ** alpha * specfun.gamma_fn(alpha + 1.0)) ** 2

    spectral = SpectralMeasure(
        tau_density=lambda t: np.asarray(t, float) ** expo / norm_c,
        lam_shift=0.0, support_note="half-line, lambda = tau^2")

    if alpha == -0.5:
        # the density formula degenerates; the exact limit is atomic
        def conv_quad(x, y):
            return np.empty(0), np.empty(0), \
                ((abs(x - y), 0.5), (x + y, 0.5))

        def conv_sampled(x, y):
            short = _boundary_shortcut(0.0, x, y)
            return short if short is not None else measures.MeasureRepr(
                atoms=((abs(x - y), 0.5), (x + y, 0.5)))
    else:
        # in the variable t = xi^2 the density is exactly a constant times
        # the Jacobi weight [(t - l^2)(u^2 - t)]^(alpha - 1/2), so the
        # quadrature is exact and the x = y case needs no special care
        c_alpha = (2.0 ** (1.0 - 2.0 * alpha) * specfun.gamma_fn(alpha + 1.0)
                   / (math.sqrt(math.pi)
                      * specfun.gamma_fn(alpha + 0.5)))
        ep = alpha - 0.5

        def conv_quad(x, y):
            l2, u2 = (x - y) ** 2, (x + y) ** 2
            pref = 0.5 * c_alpha * (x * y) ** (-2.0 * alpha)
            t, w = _edge_quad(l2, u2, ep, lambda tt: np.full_like(tt, pref))
            return np.sqrt(t), w, ()

        def conv_sampled(x, y):
            short = _boundary_shortcut(0.0, x, y)
            if short is not None:
                return short
            l2, u2 = (x - y) ** 2, (x + y) ** 2
            pref = 0.5 * c_alpha * (x * y) ** (-2.0 * alpha)

            def density_xi(xi):
                xi = np.asarray(xi, dtype=float)
                with np.errstate(all="ignore"):
                    return (2.0 * pref * xi
                            * ((xi * xi - l2) * (u2 - xi * xi)) ** ep)
            return _edge_sampled_substituted(
                l2, u2, ep, lambda tt: np.full_like(tt, pref),
                np.sqrt, density_xi)

    return Family("hankel", (("alpha", alpha),), problem, 0.0, ck, spectral,
                  conv_quad, conv_sampled)


def _make_jacobi(params):
    alpha = float(params.get("alpha", 1.0))
    beta = float(params.get("beta", 0.0))
    # the printed parameter clause excludes a single alpha value; the
    # formulas themselves require alpha > -1/2 (Gamma(alpha+1/2) pole),
    # which is what we enforce
    if not (alpha >= beta >= -0.5) or alpha <= -0.5:
        raise errors.ParamOutOfRange(
            "jacobi requires alpha >= beta >= -1/2 with alpha > -1/2")
    sigma = alpha + beta + 1.0
    coeff = CoeffExpr("sinh(x)^%r*cosh(x)^%r"
                      % (2.0 * alpha + 1.0, 2.0 * beta + 1.0))
    problem = SLProblem(a=0.0, b=np.inf, p=coeff, r=coeff, c=1.0,
                        name="jacobi")
    shift = sigma * sigma

    def ck(lam, x):
        x = np.asarray(x, float)
        t2 = lam - shift
        mu = 1j * math.sqrt(t2) if t2 >= 0.0 else math.sqrt(-t2)
        vals = specfun.gauss_2f1(0.5 * (sigma - mu), 0.5 * (sigma + mu),
                                 alpha + 1.0, -np.sinh(x) ** 2)
        return np.real(vals)

    # Plancherel density via the Harish-Chandra c-function (validated by
    # the transform round-trip test, marked experimental)
    log_gam_a1 = float(loggamma(alpha + 1.0))

    def tau_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            it = 1j * t
            log_abs_c = (sigma * math.log(2.0) + log_gam_a1
                         + np.real(loggamma(it))
                         - np.real(loggamma(0.5 * (sigma + it)))
                         - np.real(loggamma(0.5 * (alpha - beta + 1.0 + it))))
            out = (2.0 ** (2.0 * sigma) / (2.0 * np.pi)
                   * np.exp(-2.0 * log_abs_c))
        return np.where(t > 0.0, out, 0.0)

    spectral = SpectralMeasure(tau_density=tau_density, lam_shift=shift,
                               support_note="lambda = tau^2 + sigma^2",
                               status="experimental")

    ep = alpha - 0.5
    # the prefactor 2^(-2 sigma) as printed integrates to total mass
    # 2^(-2 sigma); the corrected constant (validated by the mass-one and
    # tau-independence checks across parameter values) drops that power
    c_big = (specfun.gamma_fn(alpha + 1.0)
             / (math.sqrt(math.pi) * specfun.gamma_fn(alpha + 0.5)))

    def _t_form(x, y):
        """Density in the variable t = cosh(xi): the factor 1 - Z^2
        factors exactly as (t - t_l)(t_u - t) * Q(t) with Q smooth, so
        Gauss-Jacobi quadrature in t handles the edges (including x = y)."""
        chx, chy = math.cosh(x), math.cosh(y)
        t_l, t_u = math.cosh(abs(x - y)), math.cosh(x + y)
        pref = (c_big * (chx * chy) ** (alpha - beta - 1.0)
                * (math.sinh(x) * math.sinh(y)) ** (-2.0 * alpha))

        def smooth_t(t):
            t = np.asarray(t, dtype=float)
            denom = 2.0 * chx * chy * t
            Z = (chx * chx + chy * chy - 1.0 + t * t) / denom
            Q = (t * t + 2.0 * chx * chy * t
                 + chx * chx + chy * chy - 1.0) / (denom * denom)
            one_m = np.clip(1.0 - Z, 0.0, 2.0)
            hyp = np.array([np.real(specfun.gauss_2f1(
                alpha + beta, alpha - beta, alpha + 0.5, 0.5 * v))
                for v in np.atleast_1d(one_m)])
            return (pref * t ** (alpha + beta) * Q ** ep
                    * hyp.reshape(np.shape(t)))

        def density_xi(xi):
            xi = np.asarray(xi, dtype=float)
            t = np.cosh(xi)
            with np.errstate(all="ignore"):
                return (smooth_t(t) * ((t - t_l) * (t_u - t)) ** ep
                        * np.sinh(xi))
        return t_l, t_u, smooth_t, density_xi

    def conv_quad(x, y):
        t_l, t_u, smooth_t, _ = _t_form(x, y)
        t, w = _edge_quad(t_l, t_u, ep, smooth_t)
        return np.arccosh(t), w, ()

    def conv_sampled(x, y):
        short = _boundary_shortcut(0.0, x, y)
        if short is not None:
            return short
        t_l, t_u, smooth_t, density_xi = _t_form(x, y)
        return _edge_sampled_substituted(t_l, t_u, ep, smooth_t,
                                         np.arccosh, density_xi)

    return Family("jacobi", (("alpha", alpha), ("beta", beta)), problem,
                  shift, ck, spectral, conv_quad, conv_sampled)


def _make_whittaker(params):
    alpha = float(params.get("alpha", 0.0))
    if alpha >= 0.5:
        raise errors.ParamOutOfRange("whittaker requires alpha < 1/2")
    problem = SLProblem(a=0.0, b=np.inf,
                        p=CoeffExpr("x^%r*exp(-1/x)" % (2.0 - 2.0 * alpha)),
                        r=CoeffExpr("x^%r*exp(-1/x)" % (-2.0 * alpha)),
                        c=1.0, name="whittaker")
    shift = (0.5 - alpha) ** 2

    def ck(lam, x):
        x = np.atleast_1d(np.asarray(x, float))
        t2 = lam - shift
        mu = 1j * math.sqrt(t2) if t2 >= 0.0 else math.sqrt(-t2)
        # w = 1 at x = a = 0, the limit of the formula; a 1-D array even
        # for one point
        return np.array([x_ ** alpha * math.exp(0.5 / x_)
                         * specfun.whittaker_w(alpha, mu, 1.0 / x_)
                         if x_ > 0.0 else 1.0 for x_ in x])

    # Plancherel density (validated by the transform round-trip test,
    # marked experimental); the alpha = 0 case reduces to the classical
    # (2/pi) tau sinh(pi tau) density
    def tau_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            log_g = 2.0 * np.real(loggamma(0.5 - alpha + 1j * t))
            # log(sinh(2 pi t)) computed overflow-free
            log_sh = 2.0 * np.pi * t + np.log1p(
                -np.exp(-4.0 * np.pi * np.minimum(t, 60.0))) - math.log(2.0)
            out = (1.0 / np.pi ** 2) * np.exp(log_g + np.log(t) + log_sh)
        return np.where(t > 0.0, out, 0.0)

    spectral = SpectralMeasure(tau_density=tau_density, lam_shift=shift,
                               support_note="lambda = tau^2 + (1/2-alpha)^2",
                               status="experimental")

    log_pref_c = -(1.0 + alpha) * math.log(2.0) - 0.5 * math.log(math.pi)

    def _log_density(x, y):
        base = (log_pref_c + (alpha - 0.5) * math.log(x * y)
                + 1.0 / x + 1.0 / y)

        def logf(xi):
            xi = np.asarray(xi, dtype=float)
            arg = (x + y + xi) / np.sqrt(2.0 * x * y * xi)
            dval = specfun.parabolic_d(2.0 * alpha, arg)
            with np.errstate(all="ignore"):
                return (base - (0.5 + alpha) * np.log(xi)
                        - (x + y + xi) ** 2 / (8.0 * x * y * xi)
                        + np.log(np.maximum(dval, 1e-300)))
        return logf

    def _whittaker_cells(x, y, dt=0.05, tail_rel=1e-10, max_cells=6000):
        """log-spaced cells covering the full-support density, expanded
        outward from the mode until both tails are negligible."""
        logf = _log_density(x, y)
        t_probe = np.linspace(math.log(1e-3 * (x + y)),
                              math.log(1e3 * (x + y)), 400)
        lf = logf(np.exp(t_probe)) + t_probe     # include d(xi) = e^t dt
        t0 = float(t_probe[int(np.argmax(lf))])

        def cell_mass(tl, tr):
            tn = 0.5 * (tl + tr) + 0.5 * (tr - tl) * _GL6_N
            xi = np.exp(tn)
            return 0.5 * (tr - tl) * float(
                np.sum(_GL6_W * np.exp(logf(xi)) * xi))

        cells = [(t0, t0 + dt, cell_mass(t0, t0 + dt))]
        acc = cells[0][2]
        lo, hi = t0, t0 + dt
        grow_lo, grow_hi = True, True
        while grow_lo or grow_hi:
            if len(cells) > max_cells:
                raise errors.TruncationFailed(
                    "full-support density truncation did not converge")
            if grow_hi:
                m = cell_mass(hi, hi + dt)
                cells.append((hi, hi + dt, m))
                hi += dt
                acc += m
                if m < tail_rel * acc:
                    grow_hi = False
            if grow_lo:
                m = cell_mass(lo - dt, lo)
                cells.append((lo - dt, lo, m))
                lo -= dt
                acc += m
                if m < tail_rel * acc:
                    grow_lo = False
        cells.sort()
        return cells, logf

    def conv_quad(x, y):
        cells, logf = _whittaker_cells(x, y)
        nodes = []
        wts = []
        for tl, tr, _ in cells:
            tn = 0.5 * (tl + tr) + 0.5 * (tr - tl) * _GL6_N
            xi = np.exp(tn)
            nodes.append(xi)
            wts.append(0.5 * (tr - tl) * _GL6_W * np.exp(logf(xi)) * xi)
        return np.concatenate(nodes), np.concatenate(wts), ()

    def conv_sampled(x, y):
        short = _boundary_shortcut(0.0, x, y)
        if short is not None:
            return short
        cells, logf = _whittaker_cells(x, y)
        edges = np.array([c[0] for c in cells] + [cells[-1][1]])
        masses = np.array([c[2] for c in cells])

        def density_at(xi):
            return np.exp(logf(xi))
        return measures.MeasureRepr(
            segments=_cells_to_measure(np.exp(edges), masses, density_at))

    return Family("whittaker", (("alpha", alpha),), problem, shift, ck,
                  spectral, conv_quad, conv_sampled,
                  prefer_closed_kernel=False)


def _make_degenerate_custom(params):
    kappa = float(params.get("kappa", 1.0))
    if kappa <= 0.0:
        raise errors.ParamOutOfRange("degenerate_custom requires kappa > 0")
    izeta_src = params.get("izeta", "0")
    izeta = CoeffExpr(izeta_src)
    # zeta(x) = x * d izeta / dx must be nonnegative, decreasing, with a
    # divergent log-integral (probed numerically on a geometric grid)
    dz = izeta.diff()
    probe = np.geomspace(1e-3, 1e8, 120)
    with np.errstate(all="ignore"):
        zeta = probe * np.asarray(dz(probe, check=False), float) \
            * np.ones_like(probe)
    if np.any(~np.isfinite(zeta)) or np.any(zeta < -1e-10):
        raise errors.ParamOutOfRange("zeta must be finite and nonnegative")
    if np.any(np.diff(zeta) > 1e-10 * np.maximum(np.abs(zeta[:-1]), 1.0)):
        raise errors.ParamOutOfRange("zeta must be nonincreasing")
    i_far = float(izeta(np.array([1e10]), check=False)[0]
                  if np.ndim(izeta(1e10, check=False)) else
                  izeta(1e10, check=False))
    i_mid = float(np.asarray(izeta(1e5, check=False), float))
    if not (i_far > i_mid + 1e-8):
        raise errors.ParamOutOfRange(
            "log-integral of zeta must diverge (probe found saturation)")
    p = CoeffExpr("x*exp((%s)-(%r)/x)" % (izeta_src, kappa))
    r = CoeffExpr("exp((%s)-(%r)/x)/x" % (izeta_src, kappa))
    problem = SLProblem(a=0.0, b=np.inf, p=p, r=r, c=1.0,
                        name="degenerate_custom")
    return Family("degenerate_custom",
                  (("izeta", izeta_src), ("kappa", kappa)), problem, 0.0,
                  None, None, None, None, prefer_closed_kernel=False)


_BUILDERS = {
    "cosine": _make_cosine,
    "squared_weight": _make_squared_weight,
    "hankel": _make_hankel,
    "jacobi": _make_jacobi,
    "whittaker": _make_whittaker,
    "degenerate_custom": _make_degenerate_custom,
}


@functools.lru_cache(maxsize=64)
def _build_family(name, params):
    return _BUILDERS[name](dict(params))


def make_family(name, params=None, **kw):
    params = dict(params or {})
    params.update(kw)
    if name not in _BUILDERS:
        raise errors.ParamOutOfRange("unknown family %r (known: %s)"
                                     % (name, ", ".join(FAMILY_NAMES)))
    return _build_family(name, tuple(sorted(params.items())))


def load_family(d):
    """Family from a problem-JSON dictionary {"family": name, "params":
    {...}}."""
    return make_family(d["family"], d.get("params", {}))


# ---------------------------------------------------------------------------
# module-level operations

def family_convolution_measure(family, x, y):
    if family.conv_sampled is None:
        raise errors.ParamOutOfRange(
            "family %r has no closed convolution measure" % (family.id,))
    a = family.problem.a
    if not (x >= a and y >= a):
        raise errors.ParamOutOfRange("x, y must lie in [a, b)")
    return family.conv_sampled(float(x), float(y))


def family_convolution_quadrature(family, x, y):
    """Quadrature rule (nodes, weights, atoms) integrating the
    convolution measure of the pair (x, y) exactly up to the rule order;
    this is the accurate route used by the product-formula check."""
    if family.conv_quad is None:
        raise errors.ParamOutOfRange(
            "family %r has no closed convolution measure" % (family.id,))
    a = family.problem.a
    short = _boundary_shortcut(a, x, y)
    if short is not None:
        return np.empty(0), np.empty(0), tuple(short.atoms)
    return family.conv_quad(float(x), float(y))


_SPECIAL = {
    "gamma_fn": lambda params, z: float(specfun.gamma_fn(z)),
    "bessel_j_normalized":
        lambda params, z: float(specfun.jn_normalized(params[0], z)),
    "gauss_2f1":
        lambda params, z: specfun.gauss_2f1(params[0], params[1],
                                            params[2], z),
    "whittaker_w":
        lambda params, z: specfun.whittaker_w(
            params[0], params[1] * 1j if len(params) > 2 and params[2]
            else params[1], z),
    "parabolic_d":
        lambda params, z: float(specfun.parabolic_d(params[0], z)),
}


def eval_special(fn_id, params, z):
    if fn_id not in _SPECIAL:
        raise errors.ParamOutOfRange("unknown special function %r" % fn_id)
    return _SPECIAL[fn_id](list(params or ()), z)
