"""Built-in coefficient families on (0, inf): closed-form kernels,
Plancherel (spectral) densities, and the convolution measures nu_{x,y} of
the product formula w_lam(x) w_lam(y) = integral of w_lam d(nu_{x,y}).
A closed kernel is one table call, shape (L, *xs.shape): jacobi's and
whittaker's pass the index mu of each lam as the rows of a gauss_2f1 or
whittaker_w table.  cosine is hankel alpha = -1/2 under its own id, and
from_problem makes a custom problem a Family too.

Each family states nu_{x,y} once, as law(x, y) -> (atoms, density) on
pair arrays x, y of one shape (or two floats): atoms are (loc, mass)
pairs, and density is None (a purely atomic law) or an _EdgeDensity, the
one density class: a smooth factor times Jacobi edge powers on [l, u] in
a substituted variable, its fields broadcasting over the pairs.
squared_weight, hankel and jacobi state their exact support; whittaker's
full support is a window in s = log(xi), cut where its density in s falls
below _WINDOW_CUT of its peak, with edge power 0.
A Family derives three representations on pair arrays (or two floats),
each under the unit rule nu_{a,y} = delta_y, nu_{x,a} = delta_x:

- conv_quad(x, y) -> (nodes, weights, atoms), a Gauss rule exact up to its
  order, for product checks and translation;
- conv_sampled(x, y) -> (atoms, cells), mass-exact cells, for measure
  convolution, walks and `slconv convolve` (family_convolution_measure);
- conv_draw(s, x, u, rng) -> positions, an exact draw for all walk paths
  at once: u picks an atom or the density by cumulative mass, and the
  density is drawn by rejection from its edge powers' Beta law, which
  takes uniforms from rng only where the smooth factor is not constant.

The Gauss-Jacobi rules behind an _EdgeDensity (its 200-node rule and the
12-node rules of its edge cells) are numpy's Golub-Welsch: eigvalsh of the
Jacobi matrix, one Newton step on the three-term recurrence and
Christoffel weights, so no convolution work imports scipy.linalg.

The rule's node cloud is not itself the measure: the CDF of an n-node
Gauss rule is pinned only to within about one Gauss weight
(Chebyshev-Markov-Stieltjes), so the sampled form gets its own cells."""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import betaincinv, loggamma

from . import errors, kernel, measures, quadrature, specfun
from .expr import CoeffExpr
from .slmodel import SLProblem
from .spectral import SpectralMeasure

__all__ = ["Family", "make_family", "load_family", "from_problem",
           "FAMILY_NAMES", "convolution_pairs", "family_convolution_measure",
           "family_step", "family_convolution_quadrature", "rule_table"]

_ATOL_BOUNDARY = 1e-14
_RULE_NODES = 200       # Gauss-Jacobi nodes of an edge density's rule
_SAMPLED_CELLS = 400    # cells of an edge density's sampled measure
_DRAW_MARGIN = 0.05     # draw bound: max + margin (max - min) on the rule
_DRAW_ROUNDS = 1000     # most proposal rounds of one draw
_STEP_BLOCK = 512       # most paths of one draw call in a walk step
_WINDOW_CUT = 1e-12     # whittaker's window: density in log(xi) / its peak


@dataclass(frozen=True)
class Family:
    id: str
    params: tuple                 # sorted (key, value) pairs
    problem: SLProblem
    closed_kernel: object = None  # callable (lams, xs) -> (L, *xs.shape)
    spectral: object = None       # SpectralMeasure or None
    conv_quad: object = None      # callable (x, y) -> (nodes, wts, atoms)
    conv_sampled: object = None   # callable (x, y) -> (atoms, cells)
    conv_draw: object = None      # callable (s, x, u, rng) -> positions
    prefer_closed_kernel: bool = True

    def param(self, key, default=None):
        return dict(self.params).get(key, default)

    def kernel(self, lams, xs):
        """The table w_lam(x) for every lam in lams (rows) and x in xs,
        shape (L, *xs.shape): the closed form when the family has one and
        prefers it (w = 1 at x = a itself), otherwise kernel.kernel_table.
        Every lam must be finite and >= 0 and every x lie in [a, b)
        (ParamOutOfRange)."""
        lams = kernel._checked_lams(lams)
        xs = np.asarray(xs, dtype=float)
        lo, hi = xs.min(initial=np.inf), xs.max(initial=-np.inf)
        if not (lo >= self.problem.a and hi < self.problem.b):  # or NaN
            raise errors.ParamOutOfRange("kernel point outside [a, b)")
        if self.prefer_closed_kernel and self.closed_kernel is not None:
            return self.closed_kernel(lams, xs)
        return kernel.kernel_table(self.problem, lams, xs)


def _index(lams, shift):
    """The index mu = sqrt(shift - lam) of each lam, imaginary above the
    shift."""
    return np.sqrt((shift - np.asarray(lams, dtype=float)) + 0j)


# ---------------------------------------------------------------------------
# convolution measures: one law per family, two derived representations

def _jacobi_recurrence(x, diag, off, p0):
    """The orthonormal polynomials of the recurrence x p_k = off[k] p_{k+1}
    + diag[k] p_k + off[k-1] p_{k-1}, p_0 = p0, at the points x: the Newton
    step -p_n / p_n' and the Christoffel function 1 / sum_{k<n} p_k^2
    with its logarithmic derivative."""
    p_prev, p = np.zeros_like(x), np.full_like(x, p0)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    sq, cross = np.zeros_like(x), np.zeros_like(x)
    for k in range(len(diag)):
        sq += p * p
        cross += p * d
        b_k = off[k - 1] if k else 0.0
        p_prev, p = p, ((x - diag[k]) * p - b_k * p_prev) / off[k]
        d_prev, d = d, ((x - diag[k]) * d + p_prev - b_k * d_prev) / off[k]
    return -p / d, 1.0 / sq, -2.0 * cross / sq


@functools.lru_cache(maxsize=64)
def _jacobi_rule(n, alpha, beta):
    """n-point Gauss-Jacobi rule for (1 - s)^alpha (1 + s)^beta on [-1, 1],
    nodes ascending (Golub-Welsch): the eigenvalues of the symmetric Jacobi
    matrix, one Newton step on the three-term recurrence, and the
    Christoffel weights 1 / sum_{k<n} p_k(s)^2 of the orthonormal
    polynomials p_k, carried to first order from the float node to the
    node itself (near +-1 that is most of their error)."""
    ab = alpha + beta
    k = np.arange(1.0, n + 1.0)
    t = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (t[:-1] * (t[:-1] + 2.0))
    # off[k - 1]^2 = b_k; the factor k + alpha + beta cancels at k = 1
    b = 4.0 * k * (k + alpha) * (k + beta) / (t * t * (t + 1.0))
    b[1:] *= (k[1:] + ab) / (t[1:] - 1.0)
    off = np.sqrt(b)
    p0 = math.exp(-0.5 * ((ab + 1.0) * math.log(2.0) + math.lgamma(alpha + 1.0)
                          + math.lgamma(beta + 1.0) - math.lgamma(ab + 2.0)))
    s = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1)
                           + np.diag(off[:-1], -1))
    s += _jacobi_recurrence(s, diag, off, p0)[0]
    step, lam, dlog = _jacobi_recurrence(s, diag, off, p0)
    return s, lam * (1.0 + dlog * step)


@dataclass(frozen=True)
class _EdgeDensity:
    """The density smooth(t) * [(t - l)(u - t)]^edge_pow on [l, u] in a
    variable t, per pair (smooth takes t with a first axis of nodes); the
    position is xi = to_xi(t), increasing in t, and dt/dxi = dt_dxi(xi).
    Every non-atomic law is one: t = xi (squared_weight), xi^2 (hankel),
    cosh(xi) (jacobi), or log(xi) on a window with edge power 0
    (whittaker, whose rule is then Gauss-Legendre)."""
    l: object
    u: object
    edge_pow: float
    smooth: object
    to_xi: object
    dt_dxi: object

    def _nodes(self):
        """The rule's nodes in t, leading, and weights for the edge powers."""
        s, v = (c.reshape(c.shape + (1,) * np.ndim(self.l)) for c in
                _jacobi_rule(_RULE_NODES, self.edge_pow, self.edge_pow))
        half = 0.5 * (self.u - self.l)
        return (0.5 * (self.u + self.l) + half * s,
                v * half ** (2.0 * self.edge_pow + 1.0))

    def rule(self):
        """Gauss-Jacobi nodes (in xi) and weights, exact for the edge
        powers, of shape pairs + (n,)."""
        t, v = self._nodes()
        return np.moveaxis(self.to_xi(t), 0, -1), np.moveaxis(
            v * self.smooth(t), 0, -1)

    def bound(self):
        """M = max + _DRAW_MARGIN (max - min) of smooth on the rule's
        nodes, per pair: the draw's bound on the smooth factor."""
        f = self.smooth(self._nodes()[0])
        hi, lo = f.max(axis=0), f.min(axis=0)
        return hi + _DRAW_MARGIN * (hi - lo)

    def draw(self, v, todo, rng):
        """Positions drawn where todo holds, from the first proposal t = l
        + (u - l) B, B = betaincinv(c, c, v) with c = edge_pow + 1, kept
        with probability smooth(t) / bound().  A ratio of 1 takes no
        uniform; below 1 it takes an acceptance uniform from rng, and each
        rejected pair proposes again from rng.  NumericError on a ratio
        above 1 (no bound there) or after _DRAW_ROUNDS rounds."""
        bound = self.bound()
        c = self.edge_pow + 1.0
        t = self.l + (self.u - self.l) * betaincinv(c, c, v)
        for _ in range(_DRAW_ROUNDS):
            ratio = self.smooth(t) / bound
            if not np.all(ratio <= 1.0, where=todo):      # or NaN
                raise errors.NumericError(
                    "convolution density above its draw bound")
            todo = todo & (ratio < 1.0)
            if not np.any(todo):
                return self.to_xi(t)
            w = np.zeros(np.shape(todo))
            w[todo] = rng.uniform(size=np.count_nonzero(todo))
            todo = todo & (w >= ratio)
            v = np.zeros(np.shape(todo))
            v[todo] = rng.uniform(size=np.count_nonzero(todo))
            t = np.where(todo, self.l + (self.u - self.l)
                         * betaincinv(c, c, v), t)
        raise errors.NumericError("convolution draw: no proposal accepted "
                                  "in %d rounds" % _DRAW_ROUNDS)

    def cells(self):
        """(edges in xi, cell masses, density in xi at the edges), pairs
        leading, on the cells t = l + (u - l) sin^2(theta / 2), theta
        uniform: 12-point Gauss-Legendre masses in theta, where the edge
        powers are smooth, and one-sided Gauss-Jacobi on the edge cells."""
        l, u, ep = self.l, self.u, self.edge_pow
        span = u - l
        pairs = (1,) * np.ndim(l)
        theta = np.linspace(0.0, np.pi, _SAMPLED_CELLS + 1)
        theta, tn, wn = (c.reshape(c.shape + pairs) for c in
                         (theta, *quadrature.gl_panels(theta, 12)))
        # l + span * 1 can round past u, where (u - t)^ep is NaN
        t_edges = np.clip(l + span * np.sin(0.5 * theta) ** 2, l, u)
        sn, cn = np.sin(0.5 * tn), np.cos(0.5 * tn)
        masses = wn * self.smooth(l + span * sn * sn)
        masses *= span ** (2.0 * ep + 1.0) * (sn * cn) ** (2.0 * ep + 1.0)
        masses = masses.sum(axis=1)
        s, v = (c.reshape(c.shape + pairs) for c in _jacobi_rule(12, 0.0, ep))
        h = t_edges[1] - t_edges[0]
        t = l + h * 0.5 * (1.0 + s)
        masses[0] = np.sum(v * self.smooth(t) * (u - t) ** ep, axis=0) \
            * (0.5 * h) ** (ep + 1.0)
        s, v = (c.reshape(c.shape + pairs) for c in _jacobi_rule(12, ep, 0.0))
        h = t_edges[-1] - t_edges[-2]
        t = u - h * 0.5 * (1.0 - s)
        masses[-1] = np.sum(v * self.smooth(t) * (t - l) ** ep, axis=0) \
            * (0.5 * h) ** (ep + 1.0)
        xi = self.to_xi(t_edges)
        with np.errstate(all="ignore"):
            dens = (self.smooth(t_edges) * ((t_edges - l) * (u - t_edges))
                    ** ep * self.dt_dxi(xi))
        return tuple(np.moveaxis(c, 0, -1) for c in (xi, masses, dens))


def _unit_law(law, a, x, y):
    """(atoms, density, unit) of law(x, y) with nu_{a,y} = delta_y and
    nu_{x,a} = delta_x, in one law call.  Each pair's unit mass is its
    first atom; the law sees unit pairs as (a + 1, a + 1), their law atoms
    move onto it with zero mass, and their density is the caller's to
    zero.  Every atom's loc and mass have the pairs' shape."""
    at_x = np.abs(x - a) <= _ATOL_BOUNDARY
    unit = at_x | (np.abs(y - a) <= _ATOL_BOUNDARY)
    at = np.where(at_x, y, x)
    atoms, dens = law(*(np.where(unit, a + 1.0, v)[()] for v in (x, y)))
    atoms = [(np.where(unit, at, loc), np.where(unit, 0.0, m))
             for loc, m in atoms]
    return ((at, unit.astype(float)), *atoms), dens, unit


def _convolution(law, a):
    """(conv_quad, conv_sampled, conv_draw) of law(x, y) -> (atoms,
    density or None), under the unit rule."""
    def conv_quad(x, y):
        atoms, dens, unit = _unit_law(law, a, x, y)
        empty = np.empty(np.shape(unit) + (0,))
        nodes, wts = dens.rule() if dens else (empty, empty)
        return nodes, np.where(unit[..., None], 0.0, wts), atoms

    def conv_sampled(x, y):
        atoms, dens, unit = _unit_law(law, a, x, y)
        if dens is None:
            return atoms, None
        edges, masses, values = dens.cells()
        return atoms, (edges, np.where(unit[..., None], 0.0, masses), values)

    def conv_draw(s, x, u, rng=None):
        """Positions drawn from nu_{s,x} at the uniforms u, for arrays of
        one shape: u picks an atom (never a massless one) or the density,
        whose mass is what the atoms leave of 1, by cumulative mass; u's
        place in the density's share is its first proposal
        (_EdgeDensity.draw, which reads rng only where it rejects)."""
        atoms, dens, unit = _unit_law(law, a, s, x)
        locs, masses = np.swapaxes(atoms, 0, 1)
        n = len(locs)
        if dens is not None:
            masses = np.concatenate([masses, [1.0 - masses.sum(axis=0)]])
        cum = np.cumsum(masses, axis=0)
        w = u * cum[-1]
        k = np.maximum(np.sum(w > cum[:-1], axis=0), ~unit)
        at = np.take_along_axis(locs, np.minimum(k, n - 1)[None], 0)[0]
        if dens is None:
            return at
        todo = k == n
        v = (w - cum[n - 1]) / np.where(todo, masses[n], 1.0)
        return np.where(todo, dens.draw(np.clip(v, 0.0, 1.0), todo, rng), at)

    return conv_quad, conv_sampled, conv_draw


def _two_atom_law(x, y):
    """Half at |x - y|, half at x + y: hankel alpha = -1/2 (cosine)."""
    return ((np.abs(x - y), 0.5), (x + y, 0.5)), None


# ---------------------------------------------------------------------------
# family constructions

def _make_cosine(params):
    # p = r = 1: the hankel family at alpha = -1/2
    return replace(_make_hankel({"alpha": -0.5}), id="cosine", params=())


def _make_squared_weight(params):
    problem = SLProblem(a=0.0, b=np.inf, p=CoeffExpr("(1+x)^2"),
                        r=CoeffExpr("(1+x)^2"), c=1.0, name="squared_weight")

    def ck(lams, xs):
        tx = np.multiply.outer(np.sqrt(np.maximum(lams, 0.0)), xs)
        return (np.cos(tx) + xs * np.sinc(tx / np.pi)) / (1.0 + xs)

    spectral = SpectralMeasure(
        tau_density=lambda t: (2.0 / np.pi) * t * t / (1.0 + t * t))

    def law(x, y):
        # atoms at both ends and the linear density (1 + xi) norm between
        l, u = np.abs(x - y), x + y
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

    def ck(lams, xs):
        return specfun.jn_normalized(
            alpha, np.multiply.outer(np.sqrt(np.maximum(lams, 0.0)), xs))

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
                                    lambda t: np.broadcast_to(pref, t.shape),
                                    np.sqrt, lambda xi: 2.0 * xi)

    return Family("hankel", (("alpha", alpha),), problem, ck, spectral,
                  *_convolution(law, problem.a))


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

    def ck(lams, xs):
        mu = _index(lams, shift)
        return np.real(specfun.gauss_2f1(0.5 * (sigma - mu),
                                         0.5 * (sigma + mu), alpha + 1.0,
                                         -np.sinh(xs) ** 2))

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
        chx, chy = np.cosh(x), np.cosh(y)
        pref = (c_big * (chx * chy) ** (alpha - beta - 1.0)
                * (np.sinh(x) * np.sinh(y)) ** (-2.0 * alpha))

        def smooth(t):
            denom = 2.0 * chx * chy * t
            Z = (chx * chx + chy * chy - 1.0 + t * t) / denom
            Q = (t * t + 2.0 * chx * chy * t
                 + chx * chx + chy * chy - 1.0) / (denom * denom)
            hyp = np.real(specfun.gauss_2f1(
                alpha + beta, alpha - beta, alpha + 0.5,
                0.5 * np.clip(1.0 - Z, 0.0, 2.0)))
            return pref * t ** (alpha + beta) * Q ** ep * hyp

        return (), _EdgeDensity(np.cosh(np.abs(x - y)), np.cosh(x + y), ep,
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

    def ck(lams, xs):
        # w = 1 at x = a = 0, the limit of the formula
        pos = xs > 0.0
        x = np.where(pos, xs, 1.0)
        if np.any(0.5 / x > 709.0):
            raise errors.RangeNotValidated("x below 1/1418 (exp overflow)")
        w = x ** alpha * np.exp(0.5 / x) * specfun.whittaker_w(
            alpha, _index(lams, shift), 1.0 / x)
        return np.where(pos, w, 1.0)

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
        """Full support as a window [s_lo, s_hi] in s = log(xi), edge power
        0 and smooth(s) = f(e^s) e^s: the points of a 400-point probe of
        [log(1e-3 (x + y)), log(1e3 (x + y))] just before smooth first
        exceeds _WINDOW_CUT of its peak and just after it last does
        (TruncationFailed if either lies off the probe)."""
        base = log_pref_c + (alpha - 0.5) * np.log(x * y) + 1.0 / x + 1.0 / y

        def log_smooth(s):
            xi = np.exp(s)
            arg = (x + y + xi) / np.sqrt(2.0 * x * y * xi)
            dval = specfun.parabolic_d(2.0 * alpha,
                                       arg.ravel()).reshape(arg.shape)
            with np.errstate(all="ignore"):
                return (base + (0.5 - alpha) * s
                        - (x + y + xi) ** 2 / (8.0 * x * y * xi)
                        + np.log(np.maximum(dval, 1e-300)))

        s_probe = np.linspace(np.log(1e-3 * (x + y)), np.log(1e3 * (x + y)),
                              400)
        g = log_smooth(s_probe)
        above = g > np.max(g, axis=0) + math.log(_WINDOW_CUT)
        lo = np.argmax(above, axis=0) - 1
        hi = len(s_probe) - np.argmax(above[::-1], axis=0)
        if np.any(lo < 0) or np.any(hi >= len(s_probe)):
            raise errors.TruncationFailed(
                "full-support density reaches the probe window's edge")
        s_lo, s_hi = (np.take_along_axis(s_probe, i[None], 0)[0]
                      for i in (lo, hi))
        return (), _EdgeDensity(s_lo, s_hi, 0.0,
                                lambda s: np.exp(log_smooth(s)), np.exp,
                                lambda xi: 1.0 / xi)

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
        zeta = probe * dz(probe, check=False)
    if np.any(~np.isfinite(zeta)) or np.any(zeta < -1e-10):
        raise errors.ParamOutOfRange("zeta must be finite and nonnegative")
    if np.any(np.diff(zeta) > 1e-10 * np.maximum(np.abs(zeta[:-1]), 1.0)):
        raise errors.ParamOutOfRange("zeta must be nonincreasing")
    i_far = izeta(1e10, check=False)
    i_mid = izeta(1e5, check=False)
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
FAMILY_NAMES = tuple(_BUILDERS)


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

def convolution_pairs(family, x, y):
    """x and y broadcast together as float arrays; ParamOutOfRange unless
    the family has a convolution measure and every x, y lies in [a, b)."""
    if family.conv_quad is None:
        raise errors.ParamOutOfRange(
            "family %r has no closed convolution measure" % (family.id,))
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    p = family.problem
    if not np.all((np.minimum(x, y) >= p.a) & (np.maximum(x, y) < p.b)):
        raise errors.ParamOutOfRange("x, y must lie in [a, b)")
    return x, y


def family_convolution_measure(family, x, y):
    """nu_{x,y} of one pair as a MeasureRepr, from conv_sampled: its atoms
    of positive mass and the segments of its cells."""
    x, y = convolution_pairs(family, x, y)
    atoms, cells = family.conv_sampled(x[()], y[()])
    rows = np.array(atoms, dtype=float)
    return measures.MeasureRepr(
        atoms=rows[rows[:, 1] > 0.0],
        segments=() if cells is None else measures.cells_to_segments(*cells))


def family_step(family, s, x, u, rng):
    """One walk step for every path: positions drawn from nu_{s,x} at the
    uniforms u (arrays of one shape) by the family's exact draw, on at
    most _STEP_BLOCK paths a call, which takes further uniforms from rng
    where its density is not flat."""
    s, x, u = np.broadcast_arrays(*convolution_pairs(family, s, x), u)
    out = np.empty(s.shape)
    flat = [v.ravel() for v in (out, s, x, u)]
    for i in range(0, s.size, _STEP_BLOCK):
        o, *args = (v[i:i + _STEP_BLOCK] for v in flat)
        o[...] = family.conv_draw(*args, rng)
    return out


def family_convolution_quadrature(family, x, y):
    """nu_{x,y} as a quadrature rule (nodes, weights, atoms), exact up to
    the rule's order, for floats or for arrays (each pair of x and y
    broadcast together): the accurate route of the product-formula check."""
    x, y = convolution_pairs(family, x, y)
    return family.conv_quad(x[()], y[()])    # one pair: two floats


def rule_table(nodes, weights, atoms):
    """A (nodes, weights, atoms) rule as one (nodes, weights) table, the
    atoms as further columns."""
    shape = np.shape(weights)[:-1]
    return tuple(np.concatenate([col] + [
        np.broadcast_to(atom[i], shape)[..., None] for atom in atoms], axis=-1)
        for i, col in enumerate((nodes, weights)))
