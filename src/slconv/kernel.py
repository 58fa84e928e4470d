"""Kernel engine: the eigenfunction w_lam(x) of l = -(p d/dx)' / r with
w(a) = 1, w^[1](a) = 0, its quasi-derivative w^[1] = p w', truncated
kernels, and the moment functions phi1, phi2.

Numeric kernel values come from one routine, KernelEngine.table: the
kernel of a lam set at a point set, with w^[1] and an error estimate.
kernel_table, eval_kernel and KernelEngine.eval_many are its cases, and
families.Family.kernel chooses between it and a family's closed form.

Series.  Up to its switch point, where |lam| eta_1 reaches _SWITCH_BOUND,
w is the alternating series sum_j (-lam)^j eta_j with

    eta_j(x) = int_a^x F_j / p,    F_j(y) = int_a^y eta_{j-1} r,   eta_0 = 1,

and w^[1] = -lam sum_j (-lam)^j F_{j+1}.  Level j is tabulated once on
the engine's panel grid by cumulative 12-point Gauss-Legendre rules: F_j
in log space with per-panel rescaling, so r may under- or overflow, and
below the resolvable layer of r (the deep region, r ~ exp(-1/x)) by a
Watson-type expansion in the symbolic derivatives of log r.  A table
gathers each level's rows at its points once, for every lam.

Propagation.  Beyond the smallest switch point x0, sixth-order Magnus
steps carry every lam at once in the Liouville frame: xi with d(xi)/dx =
beta = sqrt(r / p), A = sqrt(p r) and the state (u, u_xi) = sqrt(A) (w,
phi_xi w + w^[1] / A), phi = log(A) / 2, scaled by 1 / sqrt(A(x0)).  It
solves y' = [[0, beta], [gamma - lam beta, 0]] y with gamma = Q beta, Q
the Liouville potential, so the steps resolve beta and gamma instead of
p and r, and each step's exponent is affine in lam.  The start state
takes w^[1] / A from the series' log F rows, and the state goes back to
(w, w^[1]) through log A, so no p, r or A is formed where it under- or
overflows.  A coarse pass over every other step edge gives the error
estimate.

Engine.  Each problem has one engine (get_engine, an LRU cache keyed by
the problem).  Its deep region is decided once; its main panels start
there and grow forward, whole panels at a time, when a caller needs a
larger x, and every series level built so far is carried on over the new
panels.  Panels laid never change and every table is a left-to-right
prefix sum, so w_lam(x) does not depend on the engine's history.  The
other points and lam of a table reach a value only through the series'
term count and the step grid, which is sized at the largest lam.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import errors
from .expr import CoeffExpr, diff
from .quadrature import gl_nodes
from .slmodel import SLProblem

__all__ = [
    "KernelValue", "MomentFns", "eval_kernel", "kernel_table",
    "eval_kernel_truncated",
    "moment_functions", "get_engine", "clear_engine_cache",
]


def __getattr__(name):
    # nothing here calls solve_ivp, but perfbench/tracer.py wraps
    # kernel.solve_ivp by name; resolving it on demand keeps scipy.integrate
    # out of the start-up imports
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery (12 nodes per panel, Legendre partials)

_M = 12
_U, _W = gl_nodes(_M)          # nodes on [0,1]
# coefficients of the degree-11 interpolant in the shifted Legendre basis
_LVINV = np.linalg.inv(npleg.legvander(2.0 * _U - 1.0, _M - 1))
# their integrals from the left end, in the Legendre basis of degree 12
_PART = npleg.legint(_LVINV, lbnd=-1.0)


def _partial_weights(t):
    """Weights (m, 12) taking node values to the partial integrals int_0^t
    of their degree-11 interpolants on [0, 1], at the points t (m,)."""
    return 0.5 * npleg.legvander(2.0 * np.asarray(t) - 1.0, _M) @ _PART


# node_partials = vals @ _NODE_PART.T
_NODE_PART = _partial_weights(_U)
# the partials at the nodes, then the integral over the whole panel
_CUM = np.column_stack([_NODE_PART.T, _W])


def _rowdot(a, m):
    """a @ m with every row summed in one fixed order, whatever the number
    of rows (BLAS takes a single row by another kernel), so that a table
    extended by rows equals one built at once."""
    return np.einsum("ik,k...->i...", a, m)


def _split(edges, n):
    """The edges of n[i] equal cells on each cell [edges[i], edges[i+1]]."""
    cell = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(cell)) - np.repeat(np.cumsum(n) - n, n)
    width = np.diff(edges)[cell]
    return np.append(edges[cell] + width * (j / n[cell]), edges[-1])


def _check_grid(ok, x):
    """SingularCoefficient at the first point x where ok is False."""
    if not np.all(ok):
        raise errors.SingularCoefficient(
            "cannot construct kernel grid near x=%g" % x[np.argmin(ok)])


def _too_many_panels():
    return errors.SingularCoefficient(
        "kernel grid exceeded %d panels; coefficient layer too steep and "
        "outside the asymptotic regime" % _MAX_MAIN_PANELS)


def _log1p_ratio(z):
    """log(1 + z) / z, 1 at z = 0."""
    small = np.abs(z) < 1e-8
    with np.errstate(all="ignore"):
        return np.where(small, 1.0 - 0.5 * z,
                        np.log1p(z) / np.where(small, 1.0, z))


def _logaddexp(x, y):
    """np.logaddexp(x, y) as max(x, y) + log1p(exp(-|x - y|)) in place,
    which runs whole-array passes where np.logaddexp goes element by
    element.  Equal infinities give their own value (their difference is
    NaN), and a NaN gives NaN."""
    with np.errstate(invalid="ignore"):
        d = np.subtract(x, y)
    np.abs(d, out=d)
    np.fmin(d, np.inf, out=d)
    np.negative(d, out=d)
    np.exp(d, out=d)
    np.log1p(d, out=d)
    d += np.maximum(x, y)
    return d


def _expm1_ratio(y):
    """(e^y - 1) / y, 1 at y = 0."""
    small = np.abs(y) < 1e-8
    with np.errstate(all="ignore"):
        return np.where(small, 1.0 + 0.5 * y,
                        np.expm1(y) / np.where(small, 1.0, y))


# ---------------------------------------------------------------------------
# one fixed setting for every problem

_SWITCH_BOUND = 10.0    # switch series -> ODE where |lam| * eta_1 exceeds it
_J_CAP = 80             # hard cap on series terms
_TERM_TOL = 1e-18       # series truncation threshold
_STEP_PHASE = 0.25      # max phase sqrt(lam r/p) h of a propagator step
_STEP_DLOG = 0.1        # max variation of log p, log r over a step
_STEP_TOL = 1e-12       # local error of a propagator step pair
_STEP_COARSEN = 2.0     # max step growth over the pilot grid
_STEP_BLOCK = 256       # propagator steps whose (L, steps) tables are held
_X_MIN_REL = 1e-13      # grid start offset relative to the reference span
_DPHI_CAP = 1.2         # max |d log coeff| variation per panel
_STEP_FRAC = 0.2        # max panel width / distance to an endpoint
_LADDER = math.log1p(_STEP_FRAC)    # layout ladder step in log distance
_LATTICE = 2            # layout lattice cells per panel width
_LAYOUT_SLACK = 1e-5    # relative margin of the layout coordinate
_MAX_MAIN_PANELS = 9000
_DEEP_PANELS = 240      # asymptotic-region panels
_WATSON_CHI = 3e-4      # asymptotic validity threshold
_PROBE_POINTS = 256     # geometric probe deciding the asymptotic region
_ENGINE_CACHE_SIZE = 8  # engines kept, least recently used evicted first
_KAPPA_PROBES = 60      # probe points of the A'/A limit toward b
_KAPPA_TOL = 1e-4       # relative spread accepted as converged


# ---------------------------------------------------------------------------
# sixth-order Magnus steps for the Liouville state y' = A(x) y,
# A = [[0, beta], [gamma - lam beta, 0]] (KernelEngine.table)

# the three Gauss-Legendre points of a step, on [0, 1]
_MAGNUS_U = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


def _magnus(lams, h, beta, gamma):
    """exp(Omega) of one sixth-order Magnus step (Blanes, Casas & Ros
    2000) for every lam (rows) and step (columns), from the step lengths
    h (S,) and beta and gamma at the points _MAGNUS_U of each step (S, 3).

    With A_k = A at the k-th point, alpha1 = h A_2, alpha2 = sqrt(15) h
    (A_3 - A_1) / 3, alpha3 = 10 h (A_3 - 2 A_2 + A_1) / 3, C1 = [alpha1,
    alpha2] and C2 = -[alpha1, 2 alpha3 + C1] / 60,

        Omega = alpha1 + alpha3 / 12
                + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.

    The lam part of A's lower entry is -lam times its upper entry, so the
    commutators of two alphas, C1 and [alpha1, alpha3], are free of lam,
    and Omega = [[a, b], [c, -a]] has b free of lam and a, c affine in it,
    their coefficients depending on the step alone.  exp(Omega) = cosh(s)
    I + sinh(s) / s Omega with s^2 = a^2 + b c (cos/sin where s^2 < 0).
    Returns the entries (m00, m01, m10, m11) of exp(Omega), each (L, S)."""
    b1, b2, b3 = beta.T
    g1, g2, g3 = gamma.T
    # alpha_k = [[0, B_k], [G_k - lam B_k, 0]], k = a, b, c
    h15 = math.sqrt(15.0) / 3.0 * h
    h10 = 10.0 / 3.0 * h
    ba, ga = h * b2, h * g2
    bb, gb = h15 * (b3 - b1), h15 * (g3 - g1)
    bc, gc = h10 * (b3 - 2.0 * b2 + b1), h10 * (g3 - 2.0 * g2 + g1)
    c1 = ba * gb - ga * bb                  # C1 = c1 diag(1, -1)
    k = (ba * gc - ga * bc) / 30.0          # [alpha1, alpha3] / 30
    bu, gu = 20.0 * ba + bc, 20.0 * ga + gc
    c1sq = c1 * c1 / 30.0
    a0 = (gu * bb - bu * gb) / 240.0 + c1 * (bu * ga + gu * ba) / 7200.0
    a1 = -c1 * bu * ba / 3600.0
    b = ba + bc / 12.0 + (c1 * bb + c1sq * ba - bu * k) / 120.0
    c0 = ga + gc / 12.0 + (gu * k - c1 * gb + c1sq * ga) / 120.0
    cl = -(ba + bc / 12.0 + (bu * k - c1 * bb + c1sq * ba) / 120.0)
    lam = np.asarray(lams, dtype=float)[:, None]
    a = a0 + lam * a1
    c = c0 + lam * cl
    s2 = a * a + b * c
    th = np.sqrt(np.abs(s2))
    ch = np.cos(th)
    sh = np.sinc(th / np.pi)
    grow = s2 > 0.0
    if np.any(grow):
        ch[grow] = np.cosh(th[grow])
        sh[grow] = np.sinh(th[grow]) / th[grow]
    return ch + sh * a, sh * b, sh * c, ch - sh * a


def _apply(m, y):
    """The 2x2 matrices with entry arrays m to the vectors y = (w, v)."""
    return np.array([m[0] * y[0] + m[1] * y[1], m[2] * y[0] + m[3] * y[1]])


def _mul(a, b):
    """Products a b of 2x2 matrices given by their entry arrays."""
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _running_products(m):
    """Running products M_j ... M_1 M_0 along the last axis of the entry
    arrays m = (m00, m01, m10, m11), by recursive doubling (log2 S passes
    of whole-array products)."""
    m = [x.copy() for x in m]
    d = 1
    while d < m[0].shape[-1]:
        new = _mul([x[..., d:] for x in m], [x[..., :-d] for x in m])
        for x, v in zip(m, new):
            x[..., d:] = v
        d *= 2
    return m


@dataclass(frozen=True)
class KernelValue:
    w: float
    w1: float
    err_est: float


@dataclass(frozen=True)
class MomentFns:
    kappa: float
    phi1: object            # callable x -> kappa * eta1(x)
    phi2: object            # callable x -> 2*(kappa*eta2(x) + eta1(x))


@dataclass(frozen=True, slots=True)
class _Level:
    """Series level j on the engine's panels: g = F_j / p at the nodes
    (panels, 12), eta_j = int_a^x g at the panel bounds and log F_j at the
    main panels' bounds."""
    g: np.ndarray
    eta: np.ndarray
    logF_bounds: np.ndarray


class KernelEngine:
    """Shared eta/F tabulation for one problem on (a, x_max], x_max being
    the right end of a panel grid that cover() grows forward on demand."""

    def __init__(self, problem, x_need):
        self.problem = problem
        self.phi_p, self.phi_r, self.dphi_p, self.dphi_r = problem.logs
        self.d2phi_r = self.dphi_r.diff()
        self.d3phi_r = self.d2phi_r.diff()
        self._build_deep()
        # panel tables, extended by cover(): widths and log p, log r at the
        # nodes of every panel; the main panels' reference log r (the
        # largest at their nodes) and exp(log r - ref) at their nodes
        self.widths = np.empty(0)
        self._phir_nodes = self._phip_nodes = np.empty((0, _M))
        self._refs = np.empty(0)
        self._rscale = np.empty((0, _M))
        self.levels = [None]        # levels[j] for j >= 1
        self._frame = None          # (beta, gamma), built by _liouville
        # where the layout stands (_lay_panels): a ladder index whose base
        # point is at or before bp[-1], the layout coordinate there, the
        # slope of W on the lattice cell ending there (None at the start)
        # and the integer of the coordinate at bp[-1]
        self._lay = (0, 0.0, None, 0)
        self.cover(x_need)

    # -- helpers ----------------------------------------------------------
    def _watson(self, x):
        """The factors at x of the asymptotic expansion of log F_j below
        (_watson_logF): (log r, t0, (d log r)^2)."""
        x = np.asarray(x, float)
        s1 = self.dphi_r(x, check=False)
        s2 = self.d2phi_r(x, check=False)
        s3 = self.d3phi_r(x, check=False)
        t0 = 1.0 / s1 + s2 / s1 ** 3 - s3 / s1 ** 4 + 3.0 * s2 ** 2 / s1 ** 5
        return self.phi_r(x, check=False), t0, s1 ** 2

    @staticmethod
    def _watson_logF(wat, eta, etap):
        """log F_j = log int_a^x eta_{j-1} r by the asymptotic expansion
        around the right limit (valid on the deep region), from the factors
        wat = _watson(x), eta_{j-1}(x) and etap = eta_{j-1}'(x)."""
        phir, t0, s1sq = wat
        return phir + np.log(np.maximum(eta * t0 - etap / s1sq, 1e-300))

    # -- grid construction -------------------------------------------------
    def _build_deep(self):
        """Decide the deep region (x_min, x_w] once: x_w ends the leading
        run of a geometric probe where the Watson ratios hold and the layer
        of r is steeper than the panel-width rule can follow.  Hyperbolic
        coefficients pass the ratio test at large x only, so they get no
        deep region."""
        a, c = self.problem.a, self.problem.c
        ref = c - a if c > a else 1.0
        x_min = a + _X_MIN_REL * ref
        probe = a + np.geomspace(x_min - a, ref, _PROBE_POINTS + 1)[1:]
        s1 = self.dphi_r(probe, check=False)
        s2 = self.d2phi_r(probe, check=False)
        s3 = self.d3phi_r(probe, check=False)
        with np.errstate(all="ignore"):
            ok = ((s1 > 0.0) & np.isfinite(s1)
                  & (np.abs(s2) <= _WATSON_CHI * s1 * s1)
                  & (np.abs(s3) <= _WATSON_CHI * s1 ** 3)
                  & (_DPHI_CAP / s1 < _STEP_FRAC * (probe - a)))
        run = len(ok) if ok.all() else int(np.argmin(ok))
        if run:
            self.x_w = probe[run - 1]
            self.n_deep = _DEEP_PANELS
            self.bp = a + np.geomspace(x_min - a, self.x_w - a,
                                       _DEEP_PANELS + 1)
            # the Watson factors at the deep nodes and at x_w, which every
            # level uses
            with np.errstate(all="ignore"):
                self._wat_deep = self._watson(
                    self.bp[:-1, None] + np.diff(self.bp)[:, None] * _U)
                self._wat_xw = self._watson(self.x_w)
        else:
            self.x_w = x_min
            self.n_deep = 0
            self.bp = np.array([x_min])

    def _width(self, x):
        """Main-panel width rule W at the points x: 0.2 times the distance
        to the nearer endpoint, capped by 1.2 / |(log r)'| and 1.2 /
        |(log p)'| where those are finite and nonzero."""
        a, b = self.problem.a, self.problem.b
        x = np.asarray(x, dtype=float)
        w = _STEP_FRAC * np.minimum(x - a, b - x)
        with np.errstate(all="ignore"):
            for dphi in (self.dphi_r, self.dphi_p):
                d = np.abs(dphi(x, check=False))
                w = np.where(np.isfinite(d) & (d > 0.0),
                             np.minimum(w, _DPHI_CAP / d), w)
        return w

    def _ladder(self, i):
        """Base points i = 0, 1, ... of the layout lattice: the first main
        edge bp[n_deep], then steps of _LADDER in u = log(x - a) (in u =
        log((x - a) / (b - x)) when b is finite), so that a ladder cell is
        about as wide as the distance rule allows."""
        a, b = self.problem.a, self.problem.b
        x0 = float(self.bp[self.n_deep])
        u0 = math.log(x0 - a) - (0.0 if np.isinf(b) else math.log(b - x0))
        u = u0 + _LADDER * np.asarray(i, dtype=float)
        with np.errstate(over="ignore"):
            x = (a + np.exp(u) if np.isinf(b)
                 else a + (b - a) / (1.0 + np.exp(-u)))
        return np.where(u == u0, x0, x)

    def _ladder_index(self, x):
        """The ladder index (a float) of the point x > a."""
        a, b = self.problem.a, self.problem.b
        x0 = float(self.bp[self.n_deep])
        u = math.log((x - a) / (x0 - a))
        if not np.isinf(b):
            u -= math.log((b - x) / (b - x0))
        return u / _LADDER

    def _lay_panels(self, x_need):
        """The main panel edges after bp[-1], up to the first at or past
        x_need (at least one main panel in all), each panel no wider than W
        at either end, laid by whole-array passes.

        The edges are where the layout coordinate s, the integral of rho
        from the first main edge, crosses the integers.  rho = g(|W'|) / W
        with g(beta) = beta / log(1 + beta): where W is linear, one unit of
        s spans a panel exactly as wide as W at its narrower end, the widest
        the rule allows, and rho is raised by _LAYOUT_SLACK so that rounding
        leaves no panel a hair too wide.  Where W bends down those panels
        would overshoot, so s also takes up each drop of W' over 12, the
        second-order term of the Abel function of x -> x + W(x); where W
        bends up, the first-order s errs on the narrow side already.  s is
        summed over a lattice that cuts each cell of the ladder (_ladder)
        into equal cells at most W / _LATTICE wide, W linear on each, and is
        carried on from where the last call stopped (self._lay), so the
        edges do not depend on how the grid grew.  A panel still wider than
        W at an end, by more than the rounding of its right edge, is cut
        into equal parts until none is."""
        i, s, slope0, k = self._lay
        if k and x_need <= self.bp[-1]:
            return np.empty(0)
        x_top = max(x_need, float(self.bp[-1]))
        found = []
        while True:
            nb = max(math.ceil(self._ladder_index(x_top)) - i, 1)
            base = self._ladder(np.arange(i, i + nb + 1))
            wb = self._width(base)
            with np.errstate(all="ignore"):
                n = np.ceil(_LATTICE * np.diff(base)
                            / np.minimum(wb[:-1], wb[1:]))
            _check_grid(np.isfinite(n) & (n >= 1.0), base)
            if n.sum() > 4 * _LATTICE * _MAX_MAIN_PANELS:
                raise _too_many_panels()
            n = n.astype(int)
            x = _split(base, n)
            w = self._width(x)
            dx, dw, lo = np.diff(x), np.diff(w), w[:-1]
            with np.errstate(all="ignore"):
                slope = dw / dx
                lin = (dx / lo * _log1p_ratio(dw / lo)
                       / _log1p_ratio(np.abs(slope)))
                bend = np.maximum(-np.diff(
                    slope, prepend=slope[0] if slope0 is None else slope0),
                    0.0) / 12.0
                ds = (1.0 + _LAYOUT_SLACK) * lin + bend
            _check_grid(np.isfinite(ds) & (ds > 0.0), x)
            sl = np.cumsum(np.concatenate([[s], ds]))
            ks = np.arange(k + 1, math.floor(sl[-1]) + 1)
            c = np.searchsorted(sl, ks) - 1
            # the crossings, by the inverse of s on their cells
            t = (ks - sl[c]) / ds[c] * lin[c]
            sc = np.abs(slope[c])
            e = np.minimum(x[c] + lo[c] * t * _log1p_ratio(sc) * _expm1_ratio(
                np.sign(slope[c]) * t * np.log1p(sc)), x[c + 1])
            end = np.flatnonzero(e >= x_top)
            if len(end):
                m = end[0] + 1
                found.append(e[:m])
                # carry on from the ladder cell holding the last edge
                cell = np.repeat(np.arange(nb), n)[c[m - 1]]
                at = int(np.sum(n[:cell]))
                self._lay = (i + cell, float(sl[at]),
                             slope0 if at == 0 else float(slope[at - 1]),
                             int(ks[m - 1]))
                break
            found.append(e)
            i, s, slope0 = i + nb, float(sl[-1]), float(slope[-1])
            k = int(ks[-1]) if len(ks) else k
        edges = np.concatenate([self.bp[-1:]] + found)
        n_main = len(self.bp) - 1 - self.n_deep
        while True:
            if n_main + len(edges) - 1 > _MAX_MAIN_PANELS:
                raise _too_many_panels()
            w = self._width(edges)
            with np.errstate(all="ignore"):
                # a width is known to the rounding of its right edge, which
                # near a != 0 is a large part of it
                n = np.ceil((np.diff(edges) - np.spacing(edges[1:]))
                            / np.minimum(w[:-1], w[1:]))
            _check_grid(np.isfinite(n), edges)
            if np.all(n <= 1.0):
                return edges[1:]
            edges = _split(edges, np.maximum(n, 1.0).astype(int))

    def cover(self, x_need):
        """Append whole main panels until the grid reaches x_need
        (_lay_panels), then extend the panel tables and every series level
        built so far over the new panels alone: the rows of the panels
        already laid do not change."""
        if not x_need < self.problem.b:
            raise errors.ParamOutOfRange(
                "x=%g is not below the right endpoint" % x_need)
        edges = self._lay_panels(x_need)
        if not len(edges):
            return
        n0 = len(self.widths)       # 0 at construction: the deep panels too
        self.bp = np.concatenate([self.bp, edges])
        widths = np.diff(self.bp[n0:])
        node_x = self.bp[n0:-1, None] + widths[:, None] * _U[None, :]
        phir = self.phi_r(node_x, check=False)
        main = phir[max(self.n_deep - n0, 0):]
        refs = np.max(main, axis=1)
        with np.errstate(all="ignore"):
            rscale = np.exp(main - refs[:, None])
        self.widths = np.concatenate([self.widths, widths])
        self._phir_nodes = np.vstack([self._phir_nodes, phir])
        self._phip_nodes = np.vstack([self._phip_nodes,
                                      self.phi_p(node_x, check=False)])
        self._refs = np.concatenate([self._refs, refs])
        self._rscale = np.vstack([self._rscale, rscale])
        for j in range(1, len(self.levels)):
            self.levels[j] = self._grow_level(j, n0)

    # -- level construction -------------------------------------------------
    def _ensure_levels(self, j_need):
        while len(self.levels) <= j_need:
            self.levels.append(self._grow_level(len(self.levels), 0))

    def _grow_level(self, j, n0):
        """Series level j with its rows on the panels n0 onward computed
        from level j - 1 there: from a when n0 = 0, else carried on from
        the level's last bound, log F_j through np.logaddexp.accumulate and
        eta_j through cumsum, its rows on the first n0 panels kept."""
        nd = self.n_deep
        m0 = max(n0, nd)            # the first main panel to compute
        if j == 1:
            eta_prev = np.ones((len(self.widths) - n0, _M))
        else:
            prev = self.levels[j - 1]
            eta_prev = (prev.eta[n0:-1, None] + self.widths[n0:, None]
                        * _rowdot(prev.g[n0:], _NODE_PART.T))
        old = self.levels[j] if n0 else None
        g_deep = np.zeros((0, _M))
        with np.errstate(all="ignore"):
            if n0:
                logF0 = old.logF_bounds[-1]
            elif nd:
                gprev_deep = prev.g[:nd] if j > 1 else 0.0
                logF_deep = self._watson_logF(
                    self._wat_deep, eta_prev[:nd], gprev_deep)
                g_deep = np.exp(logF_deep - self._phip_nodes[:nd])
                logF0 = float(self._watson_logF(
                    self._wat_xw, prev.eta[nd] if j > 1 else 1.0,
                    prev.g[nd - 1, -1] if j > 1 else 0.0))
            else:
                # F_1 on the cut (a, x_min] is (x_min - a) r to first
                # order; higher levels vanish there to working precision
                x_min = self.bp[0]
                logF0 = (math.log(x_min - self.problem.a)
                         + self.phi_r(x_min, check=False)
                         if j == 1 else -np.inf)
            refs = self._refs[m0 - nd:]
            # partial integrals at the nodes, then over the whole panel
            raw = self.widths[m0:, None] * _rowdot(
                eta_prev[m0 - n0:] * self._rscale[m0 - nd:], _CUM)
            logF_bounds = np.logaddexp.accumulate(np.concatenate(
                [[logF0], refs + np.log(np.maximum(raw[:, -1], 1e-300))]))
            logF_nodes = _logaddexp(
                logF_bounds[:-1, None],
                refs[:, None] + np.log(np.maximum(raw[:, :-1], 1e-300)))
            g_main = np.exp(logF_nodes - self._phip_nodes[m0:])
        g = np.vstack([g_deep, g_main])
        if not np.all(np.isfinite(g)):
            raise errors.SingularCoefficient(
                "non-finite eta integrand at level %d" % j)
        eta = np.cumsum(np.concatenate(
            [[old.eta[-1] if n0 else 0.0], self.widths[n0:] * _rowdot(g, _W)]))
        if not n0:
            return _Level(g, eta, logF_bounds)
        return _Level(np.vstack([old.g, g]),
                      np.concatenate([old.eta, eta[1:]]),
                      np.concatenate([old.logF_bounds, logF_bounds[1:]]))

    # -- evaluation ---------------------------------------------------------
    def _locate(self, x):
        """Panel index of each point x (m,), its panel's width and the
        weights (_partial_weights) of its partial integral over it."""
        idx = np.clip(np.searchsorted(self.bp, x, side="right") - 1,
                      0, len(self.widths) - 1)
        width = self.widths[idx]
        t = np.clip((x - self.bp[idx]) / width, 0.0, 1.0)
        return idx, width, _partial_weights(t)

    def _eta_nodes(self, lev, panels):
        """eta_j of the level lev at the nodes of the panels (an index or
        slice), shape (panels, 12)."""
        return (lev.eta[:-1][panels, None] + self.widths[panels, None]
                * (lev.g[panels] @ _NODE_PART.T))

    @staticmethod
    def _eta_points(lev, idx, width, wts):
        """eta_j of the level lev at the points located as _locate gives
        them."""
        return lev.eta[idx] + width * np.einsum("mk,mk->m", wts, lev.g[idx])

    def eta_at(self, j, x):
        x = np.asarray(x, dtype=float)
        if j == 0:
            return np.ones_like(x)
        self._ensure_levels(j)
        out = self._eta_points(self.levels[j], *self._locate(np.atleast_1d(x)))
        return float(out[0]) if x.ndim == 0 else out

    def switch_x(self, lam):
        """Largest grid point where |lam| * eta_1 <= _SWITCH_BOUND (one per
        lam when lam is an array)."""
        self._ensure_levels(1)
        cb = self.levels[1].eta
        with np.errstate(divide="ignore"):
            thr = _SWITCH_BOUND / np.abs(np.asarray(lam, dtype=float))
        idx = np.clip(np.searchsorted(cb, thr, side="right") - 1,
                      1, len(self.bp) - 1)
        out = self.bp[idx]
        return out if out.ndim else float(out)

    def _series_rows(self, xs, fc):
        """The rows of the series at the points xs, each level built when
        its row is first asked for: first log F_1(xs[fc]), then (eta_j(xs),
        log F_{j+1}(xs[fc])) for j = 1 .. _J_CAP, the F rows None when fc
        (an index array) is None.  Each point's panel and partial weights
        and, for the F rows, the factors exp(log r - ref) at its panel's
        nodes are gathered once, so a level's rows take one gather of its
        panel values and cumulative bounds.  Below x_w the F rows come from
        the Watson expansion, carried forward from level to level."""
        nd = self.n_deep
        idx, width, wts = self._locate(xs)
        f_next = None
        if fc is not None:
            fx = xs[fc]
            deep = fx <= self.x_w if nd else np.zeros(fx.shape, bool)
            n_deep = int(np.count_nonzero(deep))
            main = ~deep
            im, wm, width_m = idx[fc][main], wts[fc][main], width[fc][main]
            ref = self._refs[im - nd]
            rscale = self._rscale[im - nd]
            with np.errstate(all="ignore"):
                if n_deep:
                    wat = self._watson(fx[deep])
                    phip = self.phi_p(fx[deep], check=False)

            def f_row(j, eta_nodes, eta_deep, f_prev):
                """log F_j(xs[fc]) from eta_{j-1} at the main points' panel
                nodes and at the deep points, and log F_{j-1}(xs[fc]) (None
                for j = 1); level j is built by now."""
                raw = width_m * np.einsum("mk,mk->m", wm, eta_nodes * rscale)
                f_main = np.logaddexp(self.levels[j].logF_bounds[im - nd],
                                      ref + np.log(np.maximum(raw, 1e-300)))
                if not n_deep:
                    return f_main
                out = np.empty(fx.shape)
                out[main] = f_main
                etap = 0.0 if f_prev is None else np.exp(f_prev[deep] - phip)
                out[deep] = self._watson_logF(wat, eta_deep, etap)
                return out

            self._ensure_levels(1)
            with np.errstate(all="ignore"):
                f_next = f_row(1, 1.0, 1.0, None)
        yield f_next
        for j in range(1, _J_CAP + 1):
            self._ensure_levels(j if fc is None else j + 1)
            lev = self.levels[j]
            with np.errstate(all="ignore"):
                eta = self._eta_points(lev, idx, width, wts)
                if fc is not None:
                    f_next = f_row(j + 1, self._eta_nodes(lev, im),
                                   eta[fc][deep], f_next)
            yield eta, f_next

    def series_eval(self, lams, xs, with_w1=True, w1_log_div=0.0):
        """Alternating series for every lam at once, taken only at its own
        points x <= switch_x(lam): one row table over xs (_series_rows)
        gives eta_j(xs) and, when with_w1, F_{j+1}(xs), level by level, and
        the term loop adds (-lam)^j eta_j to w and -lam (-lam)^j F_{j+1} to
        w1, term by term in j, until every lam has met _TERM_TOL at its
        points.  with_w1 may also be a boolean mask over xs, the columns
        whose w1 is wanted.  w1_log_div (0, or an array over xs) divides
        w1 by its exp, taken off log F_{j+1} before the exp, so that w1 / A
        comes without forming A.  Returns (w, w1, err), each (L, N);
        entries beyond a lam's switch point, and w1 outside the wanted
        columns, are left at w = 1, w1 = 0, err = 0, and w1 is None unless
        with_w1."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        held = xs[None, :] <= self.switch_x(lams)[:, None]
        fc = np.flatnonzero(np.broadcast_to(with_w1, xs.shape))
        div = np.broadcast_to(w1_log_div, xs.shape)[fc]
        fc = fc if len(fc) else None
        rows = self._series_rows(xs, fc)
        w = np.ones(held.shape)
        acc = np.ones(held.shape)
        # w1 = -lam * sum_j (-lam)^j F_{j+1}
        f1 = next(rows)
        if fc is not None:
            held_f = held[:, fc]
            w1sum = np.where(held_f, np.exp(f1 - div), 0.0)
        neg = -lams[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (eta, f_next) in enumerate(rows, 1):
                power = neg ** j
                term = np.where(held, power * eta, 0.0)
                w += term
                tail = np.abs(term)
                acc += tail
                if fc is not None:
                    w1sum += np.where(held_f, power * np.exp(f_next - div),
                                      0.0)
                if j >= 2 and (tail <= _TERM_TOL
                               * np.maximum(acc, 1.0)).all():
                    break
            else:
                raise errors.QuadratureBudgetExceeded(
                    "kernel series did not converge within %d terms"
                    % _J_CAP)
        w1 = None
        if fc is not None:
            w1 = np.zeros(held.shape)
            w1[:, fc] = -lams[:, None] * w1sum
        # rounding of the terms, plus the accuracy of the asymptotic
        # region where the engine has one
        floor = 5e-12 if self.n_deep else 0.0
        err = np.where(held, tail + 1e-14 * acc + floor, 0.0)
        return w, w1, err

    def _liouville(self):
        """beta = sqrt(r / p) and gamma = Q beta of the Liouville frame (see
        table) as two CoeffExprs, built from the problem's logs on the
        first propagation: with phi = (log p + log r) / 4,

            Q beta^2 = phi'' + ((log p)' - (log r)') phi' / 2 + phi'^2
                     = phi'' + phi' (3 (log p)' - (log r)') / 4."""
        if self._frame is None:
            lp, lr, dp, dr = (e.ast for e in self.problem.logs)
            log_beta = ("mul", ("num", 0.5), ("sub", lr, lp))
            dphi = ("mul", ("num", 0.25), ("add", dp, dr))
            dp3_dr = ("sub", ("mul", ("num", 3.0), dp), dr)
            qb2 = ("add", diff(dphi),
                   ("mul", dphi, ("mul", ("num", 0.25), dp3_dr)))
            self._frame = (CoeffExpr(("call", "exp", log_beta)),
                           CoeffExpr(("mul", ("call", "exp",
                                              ("neg", log_beta)), qb2)))
        return self._frame

    def _frame_change(self, x):
        """log A = (log p + log r) / 2 and phi_xi = phi' / beta, the
        Liouville frame's change of state at the points x."""
        with np.errstate(all="ignore"):
            lp = self.phi_p(x, check=False)
            lr = self.phi_r(x, check=False)
            dphi = 0.25 * (self.dphi_p(x, check=False)
                           + self.dphi_r(x, check=False))
            return 0.5 * (lp + lr), dphi * np.exp(0.5 * (lp - lr))

    def _steps(self, lam_max, x0, x_end):
        """Fine step edges from the panel edge x0 to the right end of the
        panel holding x_end, each panel cut into an even number of equal
        steps.  A pilot grid keeps a step's phase sqrt(lam_max) beta h
        within _STEP_PHASE and the variation of log beta on it within
        _STEP_DLOG; each panel's count is then scaled so that the doubling
        estimate of its worst step pair at lam_max, taken on the pilot grid
        and scaled as h^7, meets _STEP_TOL, the steps growing at most
        _STEP_COARSEN times over the pilot's."""
        i0 = int(np.searchsorted(self.bp, x0))
        i1 = max(int(np.searchsorted(self.bp, x_end)), i0 + 1)
        log_beta = 0.5 * (self._phir_nodes[i0:i1] - self._phip_nodes[i0:i1])
        with np.errstate(all="ignore"):
            phase = math.sqrt(lam_max) * self.widths[i0:i1] * (
                np.exp(log_beta) @ _W)
            n0 = 2 * np.ceil(0.5 * np.maximum(np.maximum(
                phase / _STEP_PHASE, np.ptp(log_beta, axis=1) / _STEP_DLOG),
                1.0))
        if not np.all(np.isfinite(n0)):
            raise errors.SingularCoefficient(
                "cannot size propagator steps on [%g, %g]" % (x0, x_end))
        n0 = n0.astype(int)
        pilot = _split(self.bp[i0:i1 + 1], n0)
        err = self._pair_errors(lam_max, pilot)
        worst = np.maximum.reduceat(err, (np.cumsum(n0) - n0) // 2)
        with np.errstate(all="ignore"):
            scale = np.maximum((worst / _STEP_TOL) ** (1.0 / 7.0),
                               1.0 / _STEP_COARSEN)
        if not np.all(np.isfinite(scale)):
            raise errors.SingularCoefficient(
                "non-finite propagator step on [%g, %g]" % (x0, x_end))
        n = 2 * np.ceil(0.5 * n0 * scale).astype(int)
        return _split(self.bp[i0:i1 + 1], n)

    def _magnus_steps(self, lams, starts, ends):
        """_magnus for the steps [starts, ends], beta and gamma sampled in
        one call each."""
        beta, gamma = self._liouville()
        h = ends - starts
        nodes = starts[:, None] + h[:, None] * _MAGNUS_U
        with np.errstate(all="ignore"):
            return _magnus(lams, h, beta(nodes, check=False),
                           gamma(nodes, check=False))

    def _pair_errors(self, lam, t):
        """Doubling estimate of the local error of each pair of steps of the
        grid t (an even number of steps) at the one value lam: the largest
        entry of (M_1 M_0 - M_01) / 63 in the amplitude scaling diag(1,
        1/sqrt(lam)), M_01 being one step over the pair."""
        n = len(t) - 1
        m = self._magnus_steps(
            [lam], np.append(t[:-1], t[:-1:2]), np.append(t[1:], t[2::2]))
        m = [x[0] for x in m]
        pair = _mul([x[1:n:2] for x in m], [x[0:n:2] for x in m])
        d = [x - y[n:] for x, y in zip(pair, m)]
        kap = math.sqrt(lam)
        return np.maximum.reduce([np.abs(d[0]), np.abs(d[1]) * kap,
                                  np.abs(d[2]) / kap, np.abs(d[3])]) / 63.0

    def _march(self, lams, t, start, xs):
        """Carry the start state of every lam (2, L) from t[0] over the
        step grid t by sixth-order Magnus steps, twice: the fine pass over
        every step, the coarse pass over every other fine edge.  Values are
        taken at the sorted points xs >= t[0], each a step end or a partial
        step from the edge before it.  Returns vals[pass, component, lam,
        x].  The (L, steps) tables are held for at most _STEP_BLOCK fine
        steps, or partial steps, at a time."""
        n_steps = len(t) - 1
        k_of = np.minimum(np.searchsorted(t, xs, side="right") - 1,
                          n_steps - 1)
        # the even edge after the last point's step (n_steps is even)
        k_last = int(k_of[-1])
        k_end = k_last + 2 - k_last % 2
        states = [start, start]
        vals = np.empty((2, 2, len(lams), len(xs)))
        for k0 in range(0, k_end, _STEP_BLOCK):
            k1 = min(k0 + _STEP_BLOCK, k_end)
            nf = k1 - k0
            # the block's fine steps, then its coarse steps
            m = self._magnus_steps(
                lams, np.append(t[k0:k1], t[k0:k1:2]),
                np.append(t[k0 + 1:k1 + 1], t[k0 + 2:k1 + 1:2]))
            edges = []                  # states at every edge of the block
            for i, cols in enumerate((slice(0, nf), slice(nf, None))):
                steps = _running_products([x[:, cols] for x in m])
                e = states[i][:, :, None]
                edges.append(np.concatenate([e, _apply(steps, e)], axis=2))
                states[i] = edges[i][:, :, -1]
            # partial steps to the block's points, _STEP_BLOCK at a time
            pts = np.arange(*np.searchsorted(k_of, [k0, k1]))
            for c in range(0, len(pts), _STEP_BLOCK):
                sub = pts[c:c + _STEP_BLOCK]
                kf = k_of[sub]
                kc = kf - kf % 2
                m = self._magnus_steps(
                    lams, np.append(t[kf], t[kc]), np.append(xs[sub], xs[sub]))
                n = len(sub)
                vals[0][:, :, sub] = _apply([x[:, :n] for x in m],
                                            edges[0][:, :, kf - k0])
                vals[1][:, :, sub] = _apply([x[:, n:] for x in m],
                                            edges[1][:, :, (kc - k0) // 2])
        return vals

    def table(self, lams, xs, with_w1=True):
        """Kernel w, w1, err for every lam (rows) at points xs in (a, b)
        (columns), the grid grown to cover them.  The series serves each
        lam up to its switch point; beyond it, one Magnus propagation
        carries every lam that needs it, from the smallest switch point
        x0, its start state one more column of the series table.

        The propagation is in the Liouville frame: with A = sqrt(p r),
        phi = log(A) / 2 and d(xi)/dx = beta = sqrt(r / p), the state
        (u, u_xi) = (sqrt(A) w, sqrt(A) (phi_xi w + w1 / A)) solves -u_xi_xi
        + Q u = lam u, so it is carried scaled by 1 / sqrt(A(x0)) through
        y' = [[0, beta], [gamma - lam beta, 0]] y, gamma = Q beta
        (_liouville).  The start state takes w1 / A from the series' log F
        rows, and the state goes back to (w, w1) at the points through
        log A alone, so no p, r or A is formed where it under- or
        overflows.  err adds the series estimate at x0 to the doubling
        estimate of the propagation, the distance of its fine and coarse
        passes in the amplitude norm sqrt(dw^2 + (dw1 / sqrt(lam p r))^2).
        w1 is None unless with_w1."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        self.cover(float(np.max(xs)))
        w = np.ones((len(lams), len(xs)))
        w1 = np.zeros_like(w) if with_w1 else None
        err = np.full_like(w, 1e-15)
        live = np.flatnonzero(lams != 0.0)     # w = 1 for lam = 0
        if not len(live):
            return w, w1, err
        lv = lams[live]
        sw = self.switch_x(lv)
        cols = xs <= np.max(sw)
        beyond = xs[None, :] > sw[:, None]
        need = np.flatnonzero(np.any(beyond, axis=1))
        sx, want, div = xs[cols], with_w1, 0.0
        if len(need):
            x0 = float(np.min(sw))
            log_a0, phi_xi0 = self._frame_change(x0)
            sx = np.append(sx, x0)
            want = np.append(np.full(len(sx) - 1, with_w1), True)
            div = np.append(np.zeros(len(sx) - 1), log_a0)
        if len(sx):
            ws, w1s, es = self.series_eval(lv, sx, want, div)
            n = np.count_nonzero(cols)
            w[np.ix_(live, cols)] = ws[:, :n]
            err[np.ix_(live, cols)] = es[:, :n]
            if with_w1:
                w1[np.ix_(live, cols)] = w1s[:, :n]
        if not len(need):
            return w, w1, err
        on = np.flatnonzero(xs > x0)
        t_eval, inv = np.unique(xs[on], return_inverse=True)
        w0 = ws[need, -1]
        t = self._steps(float(np.max(lv)), x0, float(t_eval[-1]))
        with np.errstate(all="ignore"):
            vals = self._march(lv[need], t, np.array(
                [w0, phi_xi0 * w0 + w1s[need, -1]]), t_eval)
        if not np.all(np.isfinite(vals[0])):
            raise errors.SingularCoefficient(
                "non-finite kernel continuation on [%g, %g]"
                % (x0, t_eval[-1]))
        log_a, phi_xi = self._frame_change(t_eval)
        with np.errstate(all="ignore"):
            scale = np.exp(0.5 * (log_a0 - log_a))
            wp = vals[:, 0] * scale                 # w of both passes
            dw = wp[0] - wp[1]
            # (w1 / A) of the fine pass less the coarse one's
            dv = scale * (vals[0, 1] - vals[1, 1]) - phi_xi * dw
            dv /= np.sqrt(lv[need])[:, None]
            perr = np.sqrt(dw * dw + dv * dv)
        # only a lam's own points beyond its switch take propagated values
        take = beyond[np.ix_(need, on)]
        blk = np.ix_(live[need], on)
        w[blk] = np.where(take, wp[0][:, inv], w[blk])
        if with_w1:
            with np.errstate(all="ignore"):
                v1 = np.exp(log_a) * (scale * vals[0, 1] - phi_xi * wp[0])
            w1[blk] = np.where(take, v1[:, inv], w1[blk])
        err[blk] = np.where(take, es[need, -1][:, None] + perr[:, inv],
                            err[blk])
        return w, w1, err

    def eval_many(self, lam, xs):
        """(w, w1, err) over xs for the one value lam: table's one-lam
        case."""
        return tuple(v[0] for v in self.table([lam], xs))


# ---------------------------------------------------------------------------
# engine cache and module-level operations

_ENGINE_CACHE = OrderedDict()   # fingerprint -> engine, least recent first


def clear_engine_cache():
    _ENGINE_CACHE.clear()


def get_engine(problem, x_need):
    """The problem's one engine, its grid grown to cover x_need."""
    key = problem.fingerprint()
    eng = _ENGINE_CACHE.get(key)
    if eng is None:
        eng = KernelEngine(problem, x_need)
        _ENGINE_CACHE[key] = eng
        if len(_ENGINE_CACHE) > _ENGINE_CACHE_SIZE:
            _ENGINE_CACHE.popitem(last=False)
    else:
        _ENGINE_CACHE.move_to_end(key)
        eng.cover(x_need)
    return eng


def _checked_lams(lams):
    """lams as a 1-d float array, ParamOutOfRange unless every value is
    finite and >= 0."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all(np.isfinite(lams) & (lams >= 0.0)):
        raise errors.ParamOutOfRange("lambda must be finite and >= 0")
    return lams


def eval_kernel(problem, lam, x):
    """w_lambda(x) with w(a) = 1, w^[1](a) = 0 (KernelValue)."""
    lam = float(_checked_lams(lam)[0])
    x = float(x)
    if x == problem.a:
        return KernelValue(1.0, 0.0, 0.0)
    if not (problem.a < x < problem.b):
        raise errors.ParamOutOfRange("x=%g outside (a, b)" % x)
    eng = get_engine(problem, x)
    w, w1, err = eng.eval_many(lam, np.asarray([x]))
    return KernelValue(float(w[0]), float(w1[0]), float(err[0]))


def kernel_table(problem, lams, xs):
    """Numeric w_lam(x) for every lam in lams (rows) and every point of xs,
    an array of any shape, shape (L, *xs.shape): one KernelEngine.table
    call on the problem's engine, w = 1 at x <= a.  Each lam must be
    finite and >= 0."""
    lams = _checked_lams(lams)
    xs = np.asarray(xs, dtype=float)
    out = np.ones((len(lams),) + xs.shape)
    pos = xs > problem.a
    if np.any(pos):
        eng = get_engine(problem, float(np.max(xs[pos])))
        out[:, pos] = eng.table(lams, xs[pos], with_w1=False)[0]
    return out


def eval_kernel_truncated(problem, lam, x, a_m):
    """Kernel of the truncated problem on (a_m, b) with w(a_m) = 1,
    w^[1](a_m) = 0 (the a_m -> a limit recovers eval_kernel)."""
    if not (problem.a < a_m < x):
        raise errors.ParamOutOfRange("need a < a_m < x")
    c_new = problem.c if problem.c > a_m else a_m
    sub = SLProblem(a=float(a_m), b=problem.b, p=problem.p, r=problem.r,
                    c=c_new, name=problem.name + "_trunc")
    return eval_kernel(sub, lam, x)


def moment_functions(problem):
    """kappa = lim A'(xi)/A(xi) at the right end plus the moment functions
    phi1 = kappa*eta1, phi2 = 2*(kappa*eta2 + eta1)."""
    a, b, c = problem.a, problem.b, problem.c
    x0 = c if c > a else a + 1.0
    vals = []
    kappa = None
    for k in range(_KAPPA_PROBES):
        if np.isinf(b):
            xk = a + (x0 - a) * 2.0 ** k
        else:
            xk = b - (b - x0) * 0.5 ** k
        v = float(problem.aprime_over_a(xk))
        if not np.isfinite(v):
            break
        vals.append(v)
        if len(vals) >= 3:
            f1, f2, f3 = vals[-3], vals[-2], vals[-1]
            sc = max(abs(f3), 1.0)
            if abs(f1 - f2) <= _KAPPA_TOL * sc \
                    and abs(f2 - f3) <= _KAPPA_TOL * sc:
                kappa = f3
                d1, d2 = f2 - f1, f3 - f2
                if abs(d1) > 0 and abs(d2) < abs(d1):
                    # geometric-tail extrapolation of the probe sequence
                    rho = d2 / d1
                    kappa = f3 + d2 * rho / (1.0 - rho)
                break
    if kappa is None:
        raise errors.KappaNotConverged(
            "A'/A quotient did not stabilize toward the right endpoint")
    if abs(kappa) < 1e-10:
        kappa = 0.0

    def phi1(x):
        x = np.asarray(x, dtype=float)
        if kappa == 0.0:
            return np.zeros_like(x)
        eng = get_engine(problem, float(np.max(x)))
        return kappa * eng.eta_at(1, x)

    def phi2(x):
        x = np.asarray(x, dtype=float)
        eng = get_engine(problem, float(np.max(x)))
        e1 = eng.eta_at(1, x)
        e2 = eng.eta_at(2, x) if kappa != 0.0 else 0.0
        return 2.0 * (kappa * e2 + e1)

    return MomentFns(kappa=float(kappa), phi1=phi1, phi2=phi2)
