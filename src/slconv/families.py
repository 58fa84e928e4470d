"""Built-in coefficient families on (0, inf): closed-form kernels,
Plancherel (spectral) densities, and the convolution measures nu_{x,y} of
the product formula w_lam(x) w_lam(y) = integral of w_lam d(nu_{x,y}).
from_problem makes a custom problem a Family too.

Each family states nu_{x,y} once, as law(x, y) -> (atoms, density), with
density None (a purely atomic law), an _EdgeDensity (a smooth factor times
Jacobi edge powers in a substituted variable: squared_weight, hankel,
jacobi) or a _CellDensity (full support on log-spaced cells: whittaker).
_convolution derives the two representations a Family carries, and applies
nu_{a,y} = delta_y and nu_{x,a} = delta_x for both:

- conv_quad(x, y) -> (nodes, weights, atoms), a Gauss rule exact up to its
  order, for product checks and translation;
- conv_sampled(x, y) -> MeasureRepr, mass-exact cells with piecewise-linear
  density, for walks, measure convolution and `slconv convolve`;
- conv_draw(s, x, u) -> positions, an exact draw for all walk paths at
  once (cosine, hankel); family_step falls back to conv_sampled without it.

The rule's node cloud is not itself the measure: the CDF of an n-node
Gauss rule is pinned only to within about one Gauss weight
(Chebyshev-Markov-Stieltjes), so the sampled form gets its own cells."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv, loggamma, roots_jacobi

from . import errors, kernel, measures, quadrature, specfun
from .expr import CoeffExpr
from .slmodel import SLProblem
from .spectral import SpectralMeasure

__all__ = ["Family", "make_family", "load_family", "from_problem",
           "FAMILY_NAMES", "family_convolution_measure", "family_step",
           "eval_special"]

FAMILY_NAMES = ("cosine", "squared_weight", "hankel", "jacobi",
                "whittaker", "degenerate_custom")

_ATOL_BOUNDARY = 1e-14
_RULE_NODES = 200       # Gauss-Jacobi nodes of an edge density's rule
_SAMPLED_CELLS = 400    # cells of an edge density's sampled measure


@dataclass(frozen=True)
class Family:
    id: str
    params: tuple                 # sorted (key, value) pairs
    problem: SLProblem
    closed_kernel: object = None  # callable (lam, x-array) -> values
    spectral: object = None       # SpectralMeasure or None
    conv_quad: object = None      # callable (x, y) -> (nodes, wts, atoms)
    conv_sampled: object = None   # callable (x, y) -> MeasureRepr
    conv_draw: object = None      # callable (s, x, u) -> positions
    prefer_closed_kernel: bool = True

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def kernel(self, lams, xs):
        """w_lam(x) for every lam in lams (rows) and x in xs (columns),
        shape (L, *xs.shape): the closed form, one call per lam, when the
        family has one and prefers it (each returns w = 1 at x = a
        itself), otherwise kernel.kernel_table on the problem's engine."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        xs = np.asarray(xs, dtype=float)
        if self.prefer_closed_kernel and self.closed_kernel is not None:
            return np.array([np.real(np.asarray(self.closed_kernel(lam, xs)))
                             for lam in lams.tolist()])
        return kernel.kernel_table(self.problem, lams, xs)


# ---------------------------------------------------------------------------
# convolution measures: one law per family, two derived representations

@functools.lru_cache(maxsize=64)
def _jacobi_rule(n, alpha, beta):
    return roots_jacobi(n, alpha, beta)


@dataclass(frozen=True)
class _EdgeDensity:
    """The density smooth(t) * [(t - l)(u - t)]^edge_pow on [l, u] in a
    variable t; the position is xi = to_xi(t), increasing in t, and
    dt/dxi = dt_dxi(xi)."""
    l: float
    u: float
    edge_pow: float
    smooth: object
    to_xi: object
    dt_dxi: object

    def rule(self):
        """Gauss-Jacobi nodes (in xi) and weights, exact for the edge
        powers."""
        s, v = _jacobi_rule(_RULE_NODES, self.edge_pow, self.edge_pow)
        half = 0.5 * (self.u - self.l)
        t = 0.5 * (self.u + self.l) + half * s
        return self.to_xi(t), \
            v * half ** (2.0 * self.edge_pow + 1.0) * self.smooth(t)

    def cells(self):
        """(edges in xi, cell masses, density in xi at the edges) on the
        cells t = l + (u - l) sin^2(theta / 2), theta uniform.  The masses
        are 12-point Gauss-Legendre in theta, where the edge powers are
        smooth, and one-sided Gauss-Jacobi on the two edge cells."""
        l, u, ep = self.l, self.u, self.edge_pow
        span = u - l
        theta = np.linspace(0.0, np.pi, _SAMPLED_CELLS + 1)
        t_edges = l + span * np.sin(0.5 * theta) ** 2
        tn, wn = quadrature.gl_panels(theta, 12)
        sn, cn = np.sin(0.5 * tn), np.cos(0.5 * tn)
        jac = span ** (2.0 * ep + 1.0) * (sn * cn) ** (2.0 * ep + 1.0)
        masses = np.sum(wn * self.smooth(l + span * sn * sn) * jac, axis=1)
        s, v = _jacobi_rule(12, 0.0, ep)
        h = t_edges[1] - t_edges[0]
        t = l + h * 0.5 * (1.0 + s)
        masses[0] = np.sum(v * self.smooth(t) * (u - t) ** ep) \
            * (0.5 * h) ** (ep + 1.0)
        s, v = _jacobi_rule(12, ep, 0.0)
        h = t_edges[-1] - t_edges[-2]
        t = u - h * 0.5 * (1.0 - s)
        masses[-1] = np.sum(v * self.smooth(t) * (t - l) ** ep) \
            * (0.5 * h) ** (ep + 1.0)
        xi = self.to_xi(t_edges)
        with np.errstate(all="ignore"):
            dens = (self.smooth(t_edges) * ((t_edges - l) * (u - t_edges))
                    ** ep * self.dt_dxi(xi))
        return xi, masses, dens


@dataclass(frozen=True)
class _CellDensity:
    """A density on contiguous cells in xi: the cell edges, a quadrature
    rule per cell (nodes and weights of shape (cells, n)), and the density
    itself, read at the edges."""
    edges: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    density: object

    def rule(self):
        return self.nodes.ravel(), self.weights.ravel()

    def cells(self):
        return self.edges, self.weights.sum(axis=1), self.density(self.edges)


def _cells_to_measure(edges, masses, dens):
    """Mass-exact piecewise-linear segments: each cell gets the points
    (x0, mid, x1), the density at its edges (mass/width where that is not
    finite or over 50 times it) and the midpoint value that makes its
    trapezoid mass exact (flat if negative).  One Segment per run of
    adjoining cells whose shared edge values agree."""
    x0, x1 = edges[:-1], edges[1:]
    keep = (masses > 0.0) & (x1 > x0)
    if not np.any(keep):
        return ()
    x0, x1, m = x0[keep], x1[keep], masses[keep]
    h = x1 - x0
    flat = m / h

    def edge_value(f):
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(f) & (f >= 0.0) & ~(f > 50.0 * flat)
        return np.where(ok, f, flat)

    f0, f1 = edge_value(dens[:-1][keep]), edge_value(dens[1:][keep])
    fm = 2.0 * m / h - 0.5 * (f0 + f1)
    neg = fm < 0.0
    f0, f1, fm = (np.where(neg, flat, f) for f in (f0, f1, fm))
    xm = 0.5 * (x0 + x1)
    starts = np.flatnonzero((x1[:-1] != x0[1:]) | (f1[:-1] != f0[1:])) + 1
    segs = []
    for i, j in zip(np.r_[0, starts], np.r_[starts, len(x0)]):
        grid = np.append(np.column_stack((x0[i:j], xm[i:j])).ravel(),
                         x1[j - 1])
        vals = np.append(np.column_stack((f0[i:j], fm[i:j])).ravel(),
                         f1[j - 1])
        segs.append(measures.Segment(x0[i], x1[j - 1], grid, vals))
    return tuple(segs)


def _convolution(law, a):
    """(conv_quad, conv_sampled) of law(x, y) -> (atoms, density or
    None), with nu_{a,y} = delta_y and nu_{x,a} = delta_x."""
    def unit(x, y):
        if abs(x - a) <= _ATOL_BOUNDARY:
            return ((y, 1.0),)
        if abs(y - a) <= _ATOL_BOUNDARY:
            return ((x, 1.0),)
        return None

    def conv_quad(x, y):
        atoms = unit(x, y)
        if atoms is None:
            atoms, dens = law(x, y)
            if dens is not None:
                return (*dens.rule(), atoms)
        return np.empty(0), np.empty(0), atoms

    def conv_sampled(x, y):
        atoms = unit(x, y)
        if atoms is not None:
            return measures.MeasureRepr(atoms=atoms, meta="dirac")
        atoms, dens = law(x, y)
        segs = () if dens is None else _cells_to_measure(*dens.cells())
        return measures.MeasureRepr(atoms=atoms, segments=segs)

    return conv_quad, conv_sampled


def _exact_convolution(law, a):
    """(conv_quad, conv_sampled, conv_draw) of a law that takes arrays of
    (x, y) and states each nu as atoms alone or as an _EdgeDensity with a
    constant smooth factor."""
    def conv_draw(s, x, u):
        """Positions drawn from nu_{s,x} at the uniforms u, for arrays of
        one shape: an atom picked by cumulative mass, or in t the Beta
        inverse l + (u - l) B with B ~ Beta(edge_pow + 1, edge_pow + 1)."""
        at_a = np.abs(s - a) <= _ATOL_BOUNDARY
        out = np.where(at_a, x, s)
        inner = ~at_a & (np.abs(x - a) > _ATOL_BOUNDARY)
        if not np.any(inner):
            return out
        atoms, dens = law(s[inner], x[inner])
        u = u[inner]
        if dens is None:
            locs, masses = (np.broadcast_arrays(u, *col)[1:]
                            for col in zip(*atoms))
            cum = np.cumsum(masses, axis=0)
            k = np.sum(u * cum[-1] > cum[:-1], axis=0)
            out[inner] = np.take_along_axis(np.array(locs), k[None], 0)[0]
        else:
            c = dens.edge_pow + 1.0
            out[inner] = dens.to_xi(
                dens.l + (dens.u - dens.l) * betaincinv(c, c, u))
        return out

    return (*_convolution(law, a), conv_draw)


def _two_atom_law(x, y):
    """Half at |x - y|, half at x + y: cosine, and hankel alpha = -1/2."""
    return ((np.abs(x - y), 0.5), (x + y, 0.5)), None


# ---------------------------------------------------------------------------
# family constructions

def _make_cosine(params):
    problem = SLProblem(a=0.0, b=np.inf, p=CoeffExpr("1"), r=CoeffExpr("1"),
                        c=1.0, name="cosine")

    def ck(lam, x):
        return np.cos(math.sqrt(max(lam, 0.0)) * np.asarray(x, float))

    spectral = SpectralMeasure(
        tau_density=lambda t: np.full_like(np.asarray(t, float), 2.0 / np.pi))
    return Family("cosine", (), problem, ck, spectral,
                  *_exact_convolution(_two_atom_law, problem.a))


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
        tau_density=lambda t: (2.0 / np.pi) * t * t / (1.0 + t * t))

    def law(x, y):
        # atoms at both ends and the linear density (1 + xi) norm between
        l, u = abs(x - y), x + y
        norm = 1.0 / (2.0 * (1.0 + x) * (1.0 + y))
        return (((l, (1.0 + l) * norm), (u, (1.0 + u) * norm)),
                _EdgeDensity(l, u, 0.0, lambda t: (1.0 + t) * norm,
                             lambda t: t, np.ones_like))

    return Family("squared_weight", (), problem, ck, spectral,
                  *_convolution(law, problem.a))


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
        tau_density=lambda t: np.asarray(t, float) ** expo / norm_c)

    if alpha == -0.5:
        # the density formula degenerates; the exact limit is atomic
        law = _two_atom_law
    else:
        # in t = xi^2 the density is a constant times the Jacobi weight
        # [(t - l^2)(u^2 - t)]^(alpha - 1/2): the rule is exact, x = y too
        c_alpha = (2.0 ** (1.0 - 2.0 * alpha) * specfun.gamma_fn(alpha + 1.0)
                   / (math.sqrt(math.pi) * specfun.gamma_fn(alpha + 0.5)))

        def law(x, y):
            pref = 0.5 * c_alpha * (x * y) ** (-2.0 * alpha)
            return (), _EdgeDensity((x - y) ** 2, (x + y) ** 2, alpha - 0.5,
                                    lambda t: np.full_like(t, pref),
                                    np.sqrt, lambda xi: 2.0 * xi)

    return Family("hankel", (("alpha", alpha),), problem, ck, spectral,
                  *_exact_convolution(law, problem.a))


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
    # the transform round-trip test)
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

    spectral = SpectralMeasure(tau_density=tau_density, lam_shift=shift)

    ep = alpha - 0.5
    # the prefactor 2^(-2 sigma) as printed integrates to total mass
    # 2^(-2 sigma); the corrected constant (validated by the mass-one and
    # tau-independence checks across parameter values) drops that power
    c_big = (specfun.gamma_fn(alpha + 1.0)
             / (math.sqrt(math.pi) * specfun.gamma_fn(alpha + 0.5)))

    def law(x, y):
        """Density in the variable t = cosh(xi): the factor 1 - Z^2
        factors exactly as (t - t_l)(t_u - t) * Q(t) with Q smooth, so
        Gauss-Jacobi quadrature in t handles the edges (including x = y)."""
        chx, chy = math.cosh(x), math.cosh(y)
        pref = (c_big * (chx * chy) ** (alpha - beta - 1.0)
                * (math.sinh(x) * math.sinh(y)) ** (-2.0 * alpha))

        def smooth(t):
            denom = 2.0 * chx * chy * t
            Z = (chx * chx + chy * chy - 1.0 + t * t) / denom
            Q = (t * t + 2.0 * chx * chy * t
                 + chx * chx + chy * chy - 1.0) / (denom * denom)
            hyp = np.real(specfun.gauss_2f1(
                alpha + beta, alpha - beta, alpha + 0.5,
                0.5 * np.clip(1.0 - Z, 0.0, 2.0)))
            return pref * t ** (alpha + beta) * Q ** ep * hyp

        return (), _EdgeDensity(math.cosh(abs(x - y)), math.cosh(x + y), ep,
                                smooth, np.arccosh, np.sinh)

    return Family("jacobi", (("alpha", alpha), ("beta", beta)), problem,
                  ck, spectral, *_convolution(law, problem.a))


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

    # Plancherel density (validated by the transform round-trip test); the
    # alpha = 0 case reduces to the classical (2/pi) tau sinh(pi tau) density
    def tau_density(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            log_g = 2.0 * np.real(loggamma(0.5 - alpha + 1j * t))
            # log(sinh(2 pi t)) computed overflow-free
            log_sh = 2.0 * np.pi * t + np.log1p(
                -np.exp(-4.0 * np.pi * np.minimum(t, 60.0))) - math.log(2.0)
            out = (1.0 / np.pi ** 2) * np.exp(log_g + np.log(t) + log_sh)
        return np.where(t > 0.0, out, 0.0)

    spectral = SpectralMeasure(tau_density=tau_density, lam_shift=shift)

    log_pref_c = -(1.0 + alpha) * math.log(2.0) - 0.5 * math.log(math.pi)

    def law(x, y):
        """Full support: 6-point Gauss-Legendre cells of width 0.05 in
        s = log(xi), grown outward from the mode until a new cell on each
        side holds below 1e-10 of the mass so far."""
        base = (log_pref_c + (alpha - 0.5) * math.log(x * y)
                + 1.0 / x + 1.0 / y)

        def logf(xi):
            arg = (x + y + xi) / np.sqrt(2.0 * x * y * xi)
            dval = specfun.parabolic_d(2.0 * alpha,
                                       arg.ravel()).reshape(arg.shape)
            with np.errstate(all="ignore"):
                return (base - (0.5 + alpha) * np.log(xi)
                        - (x + y + xi) ** 2 / (8.0 * x * y * xi)
                        + np.log(np.maximum(dval, 1e-300)))

        def cell_rule(edges):
            sn, wn = quadrature.gl_panels(edges, 6)
            xi = np.exp(sn)
            return xi, wn * np.exp(logf(xi)) * xi

        s_probe = np.linspace(math.log(1e-3 * (x + y)),
                              math.log(1e3 * (x + y)), 400)
        # the density in s carries d(xi) = e^s ds
        s0 = float(s_probe[int(np.argmax(logf(np.exp(s_probe)) + s_probe))])
        ds = 0.05
        grown = {1: [s0 + ds], -1: [s0]}      # side -> its outer edges
        growing = [1, -1]
        acc = float(np.sum(cell_rule([s0, s0 + ds])[1]))
        while growing:
            if len(grown[1]) + len(grown[-1]) - 1 > 6000:
                raise errors.TruncationFailed(
                    "full-support density truncation did not converge")
            for side in tuple(growing):
                grown[side].append(grown[side][-1] + side * ds)
                m = float(np.sum(cell_rule(sorted(grown[side][-2:]))[1]))
                acc += m
                if m < 1e-10 * acc:
                    growing.remove(side)
        edges = np.array(grown[-1][::-1] + grown[1])
        xi, wts = cell_rule(edges)
        return (), _CellDensity(np.exp(edges), xi, wts,
                                lambda z: np.exp(logf(z)))

    return Family("whittaker", (("alpha", alpha),), problem, ck, spectral,
                  *_convolution(law, problem.a),
                  prefer_closed_kernel=False)


def _make_degenerate_custom(params):
    kappa = float(params.get("kappa", 1.0))
    if kappa <= 0.0:
        raise errors.ParamOutOfRange("degenerate_custom requires kappa > 0")
    izeta_src = params.get("izeta", "log(x)")
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
                  (("izeta", izeta_src), ("kappa", kappa)), problem)


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


def from_problem(problem):
    """A custom problem as a family: id "custom", the numeric kernel, and
    no spectral or convolution measure."""
    return Family("custom", (), problem)


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


def family_step(family, s, x, u):
    """One walk step for every path: positions drawn from nu_{s,x} at the
    uniforms u (arrays of one shape), by the family's exact draw if it has
    one, else by the inverse CDF of its sampled measure, pair by pair."""
    if family.conv_draw is not None:
        return family.conv_draw(s, x, u)
    out = np.empty(np.shape(s))
    for i, (si, xi, ui) in enumerate(zip(s, x, u)):
        cdf = measures.build_cdf(family_convolution_measure(family, si, xi),
                                 floor=family.problem.a)
        out[i] = measures.quantile(cdf, float(ui))
    return out


def family_convolution_quadrature(family, x, y):
    """nu_{x,y} as a quadrature rule (nodes, weights, atoms), exact up to
    the rule's order: the accurate route of the product-formula check."""
    if family.conv_quad is None:
        raise errors.ParamOutOfRange(
            "family %r has no closed convolution measure" % (family.id,))
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
