"""Kernel engine: the eigenfunction w_lambda(x) with w(a)=1, w^[1](a)=0,
its quasi-derivative w^[1] = p w', truncated kernels, and the moment
functions phi1, phi2.

Construction: the alternating series w = sum (-lam)^j eta_j with

    eta_j(x)  = int_a^x q(y) F_j(y) dy,      q = 1/p,
    F_j(y)    = int_a^y eta_{j-1}(xi) r(xi) dxi,   eta_0 = 1,

computed on a shared panel grid by cumulative Gauss-Legendre rules, then
continuation of (w, w^[1]) by sixth-order Magnus steps once |lam| * eta_1
exceeds the switch bound (alternating-series cancellation would otherwise
eat precision).

Two features make this robust for entrance boundaries with steep
coefficient layers (r ~ exp(-1/x) type):

* inner integrals F_j are accumulated in log space with per-panel
  rescaling by exp(log r - ref), so r may under/overflow freely;
* below the resolvable layer the F_j are evaluated by a Watson-type
  asymptotic expansion driven by the symbolic logarithmic derivatives of
  r, accurate where |d2(log r)| / (d(log r))^2 is tiny.

kernel_table(problem, lams, xs) and the engine routine behind it,
KernelEngine.eval_table, are the one way to get numeric kernel values;
eval_kernel and KernelEngine.eval_many are their one-lam case, and
families.Family.kernel chooses between kernel_table and a family's closed
form.  A table evaluates all lam of a call together: the rows eta_j(xs)
are computed once and each lam's series is a Vandermonde product with
them, sum_j (-lam)^j eta_j, masked to its own x below the switch point;
beyond it, one Magnus propagation carries (w, w^[1]) of every lam over a
step grid cut from the engine's panels, and a coarse pass over every other
step edge gives the error estimate.

Each problem has one engine (get_engine, an LRU cache keyed by the
problem).  Its deep region (x_min, x_w] is decided once, by one vectorized
probe of those ratios; its main panels start at x_w and grow forward, whole
panels at a time, when a caller needs a larger x.  Panels already laid
never change and every table is a left-to-right prefix sum, so w_lam(x)
does not depend on the call history; the other points and lam of a call
reach it only through the propagator's step grid (sized at the largest lam
and ending with the panel of the largest x) and the series' term count, at
the level of the step tolerance.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import errors
from .quadrature import gl_nodes
from .slmodel import SLProblem

__all__ = [
    "KernelValue", "MomentFns", "eval_kernel", "kernel_table",
    "eval_kernel_truncated", "moment_functions", "get_engine",
    "clear_engine_cache",
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


class CumField:
    """Cumulative integral of a panelized integrand sampled at GL nodes."""

    __slots__ = ("bp", "widths", "node_x", "vals", "cum_bounds", "cum_nodes")

    def __init__(self, bp, node_x, vals):
        self.bp = bp
        self.widths = np.diff(bp)
        self.node_x = node_x
        self.vals = vals
        fulls = self.widths * (vals @ _W)
        self.cum_bounds = np.concatenate([[0.0], np.cumsum(fulls)])
        self.cum_nodes = (self.cum_bounds[:-1, None]
                          + self.widths[:, None] * (vals @ _NODE_PART.T))

    def at(self, x, loc=None):
        """The integral at the points x; loc is _locate(bp, widths, x) when
        the caller has it."""
        x = np.asarray(x, dtype=float)
        idx, wts = loc or _locate(self.bp, self.widths, np.atleast_1d(x))
        part = np.einsum("mk,mk->m", wts, self.vals[idx])
        out = self.cum_bounds[idx] + self.widths[idx] * part
        return float(out[0]) if x.ndim == 0 else out


def _locate(bp, widths, x):
    """Panel index of each point x (m,) on the grid bp and the weights
    (_partial_weights) of its partial integral over that panel."""
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1,
                  0, len(widths) - 1)
    t = np.clip((x - bp[idx]) / widths[idx], 0.0, 1.0)
    return idx, _partial_weights(t)


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
_MAX_MAIN_PANELS = 9000
_DEEP_PANELS = 240      # asymptotic-region panels
_WATSON_CHI = 3e-4      # asymptotic validity threshold
_PROBE_POINTS = 256     # geometric probe deciding the asymptotic region
_ENGINE_CACHE_SIZE = 8  # engines kept, least recently used evicted first
_KAPPA_PROBES = 60      # probe points of the A'/A limit toward b
_KAPPA_TOL = 1e-4       # relative spread accepted as converged


# ---------------------------------------------------------------------------
# sixth-order Magnus steps for y' = A(x) y, A = [[0, 1/p], [-lam r, 0]]

# the three Gauss-Legendre points of a step, on [0, 1]
_MAGNUS_U = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0


def _magnus(lams, h, q, r):
    """exp(Omega) of one sixth-order Magnus step (Blanes, Casas & Ros
    2000) for every lam (rows) and step (columns), from the step lengths
    h (S,) and q = 1/p and r at the points _MAGNUS_U of each step (S, 3).

    With A_k = A at the k-th point, alpha1 = h A_2, alpha2 = sqrt(15) h
    (A_3 - A_1) / 3, alpha3 = 10 h (A_3 - 2 A_2 + A_1) / 3, C1 = [alpha1,
    alpha2] and C2 = -[alpha1, 2 alpha3 + C1] / 60,

        Omega = alpha1 + alpha3 / 12
                + [-20 alpha1 - alpha3 + C1, alpha2 + C2] / 240.

    Omega = [[a, b], [c, -a]] is traceless, its entries polynomials in lam
    whose coefficients depend on the step alone, and exp(Omega) = cosh(s) I
    + sinh(s) / s Omega with s^2 = a^2 + b c (cos/sin where s^2 < 0).
    Returns the entries (m00, m01, m10, m11) of exp(Omega), each (L, S)."""
    q1, q2, q3 = q.T
    r1, r2, r3 = r.T
    # alpha_k = [[0, Q_k], [-lam R_k, 0]]
    qa, ra = h * q2, h * r2
    h15 = math.sqrt(15.0) / 3.0 * h
    qb, rb = h15 * (q3 - q1), h15 * (r3 - r1)
    qc, rc = 10.0 / 3.0 * h * (q3 - 2.0 * q2 + q1), \
        10.0 / 3.0 * h * (r3 - 2.0 * r2 + r1)
    g = ra * qb - qa * rb                   # C1 = lam g diag(1, -1)
    k = (ra * qc - qa * rc) / 30.0
    qu, ru = 20.0 * qa + qc, 20.0 * ra + rc
    a1 = (qu * rb - ru * qb) / 240.0
    a2 = -g * (40.0 * qa * ra + qc * ra + rc * qa) / 7200.0
    b0 = qa + qc / 12.0
    b1 = (g * qb - qu * k) / 120.0
    b2 = g * g * qa / 3600.0
    c1 = -(ra + rc / 12.0)
    c2 = (g * rb - ru * k) / 120.0
    c3 = -g * g * ra / 3600.0
    lam = np.asarray(lams, dtype=float)[:, None]
    a = lam * (a1 + lam * a2)
    b = b0 + lam * (b1 + lam * b2)
    c = lam * (c1 + lam * (c2 + lam * c3))
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


class _Level:
    __slots__ = ("cf", "logF_bounds")

    def __init__(self, cf, logF_bounds):
        self.cf = cf
        self.logF_bounds = logF_bounds


class KernelEngine:
    """Shared eta/F tabulation for one problem on (a, x_max], x_max being
    the right end of a panel grid that cover() grows forward on demand."""

    def __init__(self, problem, x_need):
        self.problem = problem
        self.phi_p, self.phi_r, self.dphi_p, self.dphi_r = problem.logs
        self.d2phi_r = self.dphi_r.diff()
        self.d3phi_r = self.d2phi_r.diff()
        self._build_deep()
        self.cover(x_need)

    # -- helpers ----------------------------------------------------------
    def _watson_logF(self, x, eta, etap):
        """log F_j(x) = log int_a^x eta_{j-1} r by the asymptotic expansion
        around the right limit (valid on the deep region)."""
        x = np.asarray(x, float)
        s1 = self.dphi_r(x, check=False)
        s2 = self.d2phi_r(x, check=False)
        s3 = self.d3phi_r(x, check=False)
        t0 = 1.0 / s1 + s2 / s1 ** 3 - s3 / s1 ** 4 + 3.0 * s2 ** 2 / s1 ** 5
        val = np.maximum(eta * t0 - etap / s1 ** 2, 1e-300)
        return self.phi_r(x, check=False) + np.log(val)

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
        else:
            self.x_w = x_min
            self.n_deep = 0
            self.bp = np.array([x_min])

    def _width(self, x):
        """Main-panel width rule at x."""
        a, b = self.problem.a, self.problem.b
        dx = _STEP_FRAC * min(x - a, b - x)
        with np.errstate(all="ignore"):
            for dphi in (self.dphi_r, self.dphi_p):
                d = abs(dphi(x, check=False))
                if np.isfinite(d) and d > 0:
                    dx = min(dx, _DPHI_CAP / d)
        return dx

    def cover(self, x_need):
        """Append whole main panels until the grid reaches x_need, then
        rebuild the node tables; the series levels are rebuilt lazily."""
        if not x_need < self.problem.b:
            raise errors.ParamOutOfRange(
                "x=%g is not below the right endpoint" % x_need)
        x = float(self.bp[-1])
        n_main = len(self.bp) - 1 - self.n_deep
        edges = []
        while x < x_need or n_main + len(edges) == 0:
            dx = self._width(x)
            dx = min(dx, self._width(x + dx))
            if not np.isfinite(dx) or dx <= 0:
                raise errors.SingularCoefficient(
                    "cannot construct kernel grid near x=%g" % x)
            x += dx
            edges.append(x)
            if n_main + len(edges) > _MAX_MAIN_PANELS:
                raise errors.SingularCoefficient(
                    "kernel grid exceeded %d panels; coefficient layer too "
                    "steep and outside the asymptotic regime"
                    % _MAX_MAIN_PANELS)
        if not edges:
            return
        self.bp = np.concatenate([self.bp, edges])
        self.widths = np.diff(self.bp)
        self.node_x = self.bp[:-1, None] + self.widths[:, None] * _U[None, :]
        self._phir_nodes = self.phi_r(self.node_x, check=False)
        self._phip_nodes = self.phi_p(self.node_x, check=False)
        # main panels only
        self._refs = np.max(self._phir_nodes[self.n_deep:], axis=1)
        self.levels = [None]        # levels[j] for j >= 1

    # -- level construction -------------------------------------------------
    def _ensure_levels(self, j_need):
        while len(self.levels) <= j_need:
            self._build_level(len(self.levels))

    def _build_level(self, j):
        nd = self.n_deep
        if j == 1:
            eta_prev = np.ones_like(self.node_x)
            gprev_deep = np.zeros((nd, _M))
            eta_prev_xw = 1.0
            gprev_xw = 0.0
        else:
            prev = self.levels[j - 1]
            eta_prev = prev.cf.cum_nodes
            gprev_deep = prev.cf.vals[:nd]
            eta_prev_xw = prev.cf.cum_bounds[nd]
            gprev_xw = prev.cf.vals[nd - 1, -1] if nd else 0.0
        with np.errstate(all="ignore"):
            if nd:
                logF_deep = self._watson_logF(
                    self.node_x[:nd], eta_prev[:nd], gprev_deep)
                g_deep = np.exp(logF_deep - self._phip_nodes[:nd])
                logF0 = float(self._watson_logF(
                    np.asarray(self.x_w), eta_prev_xw, gprev_xw))
            else:
                g_deep = np.zeros((0, _M))
                # F_1 on the cut (a, x_min] is (x_min - a) r to first
                # order; higher levels vanish there to working precision
                x_min = self.bp[0]
                logF0 = (math.log(x_min - self.problem.a)
                         + self.phi_r(x_min, check=False)
                         if j == 1 else -np.inf)
            sv = eta_prev[nd:] * np.exp(
                self._phir_nodes[nd:] - self._refs[:, None])
            raw_full = self.widths[nd:] * (sv @ _W)
            raw_node = self.widths[nd:, None] * (sv @ _NODE_PART.T)
            logc = self._refs + np.log(np.maximum(raw_full, 1e-300))
            logF_bounds = np.logaddexp.accumulate(
                np.concatenate([[logF0], logc]))
            logF_nodes = np.logaddexp(
                logF_bounds[:-1, None],
                self._refs[:, None] + np.log(np.maximum(raw_node, 1e-300)))
            g_main = np.exp(logF_nodes - self._phip_nodes[nd:])
        vals = np.vstack([g_deep, g_main])
        if not np.all(np.isfinite(vals)):
            raise errors.SingularCoefficient(
                "non-finite eta integrand at level %d" % j)
        cf = CumField(self.bp, self.node_x, vals)
        self.levels.append(_Level(cf, logF_bounds))

    # -- evaluation ---------------------------------------------------------
    def eta_at(self, j, x, loc=None):
        if j == 0:
            return np.ones_like(np.asarray(x, dtype=float))
        self._ensure_levels(j)
        return self.levels[j].cf.at(x, loc)

    def F_log_at(self, j, x, loc=None):
        """log F_j at points x (array), vectorized over the main region;
        loc as for CumField.at."""
        self._ensure_levels(max(j, 1))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx, wts = loc or _locate(self.bp, self.widths, x)
        out = np.full(x.shape, -np.inf)
        nd = self.n_deep
        deep = x <= self.x_w if nd else np.zeros(x.shape, bool)
        if np.any(deep):
            xd = x[deep]
            eta = self.eta_at(j - 1, xd)
            if j >= 2:
                with np.errstate(all="ignore"):
                    gp = np.exp(self.F_log_at(j - 1, xd)
                                - self.phi_p(xd, check=False))
            else:
                gp = np.zeros_like(xd)
            out[deep] = self._watson_logF(xd, eta, gp)
        main = ~deep
        if np.any(main):
            idx = idx[main]
            if j == 1:
                eta_prev = np.ones((len(idx), _M))
            else:
                eta_prev = self.levels[j - 1].cf.cum_nodes[idx]
            ref = self._refs[idx - nd]
            with np.errstate(all="ignore"):
                sv = eta_prev * np.exp(self._phir_nodes[idx] - ref[:, None])
                raw = self.widths[idx] * np.einsum("mk,mk->m", wts[main], sv)
                lf = self.levels[j].logF_bounds[idx - nd]
                out[main] = np.logaddexp(
                    lf, ref + np.log(np.maximum(raw, 1e-300)))
        return out

    def switch_x(self, lam):
        """Largest grid point where |lam| * eta_1 <= _SWITCH_BOUND (one per
        lam when lam is an array)."""
        self._ensure_levels(1)
        cb = self.levels[1].cf.cum_bounds
        with np.errstate(divide="ignore"):
            thr = _SWITCH_BOUND / np.abs(np.asarray(lam, dtype=float))
        idx = np.clip(np.searchsorted(cb, thr, side="right") - 1,
                      1, len(self.bp) - 1)
        out = self.bp[idx]
        return out if out.ndim else float(out)

    def series_eval(self, lams, xs, with_w1=True):
        """Alternating series for every lam at once: the rows eta_j(xs)
        (and F_{j+1}(xs) when with_w1) are computed once, and each lam's
        values are sum_j (-lam)^j eta_j, taken only at its own points
        x <= switch_x(lam).  Terms are added until every lam has met
        _TERM_TOL there.  Returns (w, w1, err), each (L, N); entries
        beyond a lam's switch point are left at w = 1, w1 = 0, err = 0,
        and w1 is None unless with_w1."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        held = xs[None, :] <= self.switch_x(lams)[:, None]
        loc = _locate(self.bp, self.widths, xs)
        w = np.ones(held.shape)
        acc = np.ones(held.shape)
        # w1 = -lam * sum_j (-lam)^j F_{j+1}
        w1sum = (np.where(held, np.exp(self.F_log_at(1, xs, loc)), 0.0)
                 if with_w1 else None)
        j = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                j += 1
                if j > _J_CAP:
                    raise errors.QuadratureBudgetExceeded(
                        "kernel series did not converge within %d terms"
                        % _J_CAP)
                power = ((-lams) ** j)[:, None]
                term = np.where(held, power * self.eta_at(j, xs, loc), 0.0)
                w += term
                tail = np.abs(term)
                acc += tail
                if with_w1:
                    w1sum += np.where(
                        held, power * np.exp(self.F_log_at(j + 1, xs, loc)),
                        0.0)
                if j >= 2 and np.all(tail <= _TERM_TOL
                                     * np.maximum(acc, 1.0)):
                    break
        w1 = -lams[:, None] * w1sum if with_w1 else None
        # rounding of the terms, plus the accuracy of the asymptotic
        # region where the engine has one
        floor = 5e-12 if self.n_deep else 0.0
        err = np.where(held, tail + 1e-14 * acc + floor, 0.0)
        return w, w1, err

    def eval_table(self, lams, xs, with_w1=True):
        """Kernel w, w1, err for every lam (rows) at points xs in
        (a, bp[-1]] (columns): the series up to each lam's switch point,
        then one Magnus continuation of (w, w1) for all lam that need it
        (_propagate), started at the smallest of their switch points; err
        adds the series estimate there and the propagator's doubling
        estimate.  w1 is None unless with_w1."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        w = np.ones((len(lams), len(xs)))
        w1 = np.zeros_like(w) if with_w1 else None
        err = np.full_like(w, 1e-15)
        live = np.flatnonzero(lams != 0.0)     # w = 1 for lam = 0
        if not len(live):
            return w, w1, err
        lv = lams[live]
        sw = self.switch_x(lv)
        cols = xs <= np.max(sw)
        if np.any(cols):
            ws, w1s, es = self.series_eval(lv, xs[cols], with_w1)
            w[np.ix_(live, cols)] = ws
            err[np.ix_(live, cols)] = es
            if with_w1:
                w1[np.ix_(live, cols)] = w1s
        beyond = xs[None, :] > sw[:, None]
        ode = np.flatnonzero(np.any(beyond, axis=1))
        if len(ode):
            lo = lv[ode]
            x0 = float(np.min(sw[ode]))
            ws, w1s, es = self.series_eval(lo, np.asarray([x0]))
            on = np.flatnonzero(xs > x0)
            t_eval, inv = np.unique(xs[on], return_inverse=True)
            pw, pw1, perr = self._propagate(lo, ws[:, 0], w1s[:, 0],
                                            x0, t_eval)
            # only a lam's own points beyond its switch take ODE values
            take = beyond[np.ix_(ode, on)]
            blk = np.ix_(live[ode], on)
            w[blk] = np.where(take, pw[:, inv], w[blk])
            if with_w1:
                w1[blk] = np.where(take, pw1[:, inv], w1[blk])
            err[blk] = np.where(take, es[:, :1] + perr[:, inv], err[blk])
        return w, w1, err

    def _steps(self, lam_max, x0, x_end):
        """Fine step edges from the panel edge x0 to the right end of the
        panel holding x_end, each panel cut into an even number of equal
        steps.  A pilot grid keeps a step's phase sqrt(lam_max r/p) h
        within _STEP_PHASE and the variation of log p and log r on it within
        _STEP_DLOG; each panel's count is then scaled so that the doubling
        estimate of its worst step pair at lam_max, taken on the pilot grid
        and scaled as h^7, meets _STEP_TOL, the steps growing at most
        _STEP_COARSEN times over the pilot's."""
        i0 = int(np.searchsorted(self.bp, x0))
        i1 = max(int(np.searchsorted(self.bp, x_end)), i0 + 1)
        phir, phip = self._phir_nodes[i0:i1], self._phip_nodes[i0:i1]
        with np.errstate(all="ignore"):
            phase = math.sqrt(lam_max) * self.widths[i0:i1] * (
                np.exp(0.5 * (phir - phip)) @ _W)
            var = np.maximum(np.ptp(phir, axis=1), np.ptp(phip, axis=1))
            n0 = 2 * np.ceil(0.5 * np.maximum(
                np.maximum(phase / _STEP_PHASE, var / _STEP_DLOG), 1.0))
        if not np.all(np.isfinite(n0)):
            raise errors.SingularCoefficient(
                "cannot size propagator steps on [%g, %g]" % (x0, x_end))
        n0 = n0.astype(int)
        pilot = self._edges(i0, i1, n0)
        err = self._pair_errors(lam_max, pilot)
        worst = np.maximum.reduceat(err, (np.cumsum(n0) - n0) // 2)
        with np.errstate(all="ignore"):
            scale = np.maximum((worst / _STEP_TOL) ** (1.0 / 7.0),
                               1.0 / _STEP_COARSEN)
        if not np.all(np.isfinite(scale)):
            raise errors.SingularCoefficient(
                "non-finite propagator step on [%g, %g]" % (x0, x_end))
        n = 2 * np.ceil(0.5 * n0 * scale).astype(int)
        return self._edges(i0, i1, n)

    def _edges(self, i0, i1, n):
        """Edges of n[i] equal steps on each panel i0 <= i < i1."""
        panel = np.repeat(np.arange(len(n)), n)
        j = np.arange(len(panel)) - np.repeat(np.cumsum(n) - n, n)
        width = self.widths[i0 + panel]
        return np.append(self.bp[i0 + panel] + width * (j / n[panel]),
                         self.bp[i1])

    def _magnus_steps(self, lams, starts, ends):
        """_magnus for the steps [starts, ends] (p and r sampled in one
        call each) and sqrt(p r) at the steps' middle points."""
        h = ends - starts
        nodes = starts[:, None] + h[:, None] * _MAGNUS_U
        p = self.problem.p(nodes, check=False)
        r = self.problem.r(nodes, check=False)
        with np.errstate(all="ignore"):
            return (_magnus(lams, h, 1.0 / p, r),
                    np.sqrt(p[:, 1]) * np.sqrt(r[:, 1]))

    def _pair_errors(self, lam, t):
        """Doubling estimate of the local error of each pair of steps of the
        grid t (an even number of steps) at the one value lam: the largest
        entry of (M_1 M_0 - M_01) / 63 in the amplitude scaling diag(1,
        1/sqrt(lam p r)), M_01 being one step over the pair."""
        n = len(t) - 1
        m, amp = self._magnus_steps(
            [lam], np.append(t[:-1], t[:-1:2]), np.append(t[1:], t[2::2]))
        m = [x[0] for x in m]
        pair = _mul([x[1:n:2] for x in m], [x[0:n:2] for x in m])
        d = [x - y[n:] for x, y in zip(pair, m)]
        with np.errstate(all="ignore"):
            kap = math.sqrt(lam) * amp[n:]
            return np.maximum.reduce([np.abs(d[0]), np.abs(d[1]) * kap,
                                      np.abs(d[2]) / kap, np.abs(d[3])]) / 63.0

    def _propagate(self, lams, w0, v0, x0, xs):
        """(w, w1, err) at the sorted points xs in (x0, bp[-1]] for every
        lam (rows), continuing the state (w0, v0) at x0 by sixth-order
        Magnus steps on the grid of _steps.  A point is a step end or a
        partial step from the fine edge before it.  A coarse pass steps
        over every other fine edge; err bounds the error of w by the
        distance of the two passes in the amplitude norm
        sqrt(dw^2 + (dw1 / sqrt(lam p r))^2).  The (L, steps) tables are
        held for at most _STEP_BLOCK fine steps, or partial steps, at a
        time."""
        t = self._steps(float(np.max(lams)), x0, float(xs[-1]))
        n_steps = len(t) - 1
        k_of = np.minimum(np.searchsorted(t, xs, side="right") - 1,
                          n_steps - 1)
        states = [np.array([w0, v0], dtype=float) for _ in range(2)]
        vals = np.empty((2, 2, len(lams), len(xs)))  # pass, (w, w1), lam, x
        amp = np.empty(len(xs))     # sqrt(p r) halfway to xs from the edge
        for k0 in range(0, n_steps, _STEP_BLOCK):
            k1 = min(k0 + _STEP_BLOCK, n_steps)
            nf = k1 - k0
            # the block's fine steps, then its coarse steps
            m, _ = self._magnus_steps(
                lams, np.append(t[k0:k1], t[k0:k1:2]),
                np.append(t[k0 + 1:k1 + 1], t[k0 + 2:k1 + 1:2]))
            edges = []                  # states at every edge of the block
            for i, cols in enumerate((slice(0, nf), slice(nf, None))):
                steps = _running_products([x[:, cols] for x in m])
                e = states[i][:, :, None]
                edges.append(np.concatenate([e, _apply(steps, e)], axis=2))
                states[i] = edges[i][:, :, -1]
            # partial steps to the block's points, _STEP_BLOCK at a time
            pts = np.flatnonzero((k_of >= k0) & (k_of < k1))
            for c in range(0, len(pts), _STEP_BLOCK):
                sub = pts[c:c + _STEP_BLOCK]
                kf = k_of[sub]
                kc = kf - kf % 2
                m, amp_mid = self._magnus_steps(
                    lams, np.append(t[kf], t[kc]), np.append(xs[sub], xs[sub]))
                n = len(sub)
                amp[sub] = amp_mid[:n]
                vals[0][:, :, sub] = _apply([x[:, :n] for x in m],
                                            edges[0][:, :, kf - k0])
                vals[1][:, :, sub] = _apply([x[:, n:] for x in m],
                                            edges[1][:, :, (kc - k0) // 2])
        if not np.all(np.isfinite(vals[0])):
            raise errors.SingularCoefficient(
                "non-finite kernel continuation on [%g, %g]" % (x0, xs[-1]))
        dw, dv = vals[0] - vals[1]
        with np.errstate(all="ignore"):
            dv /= np.sqrt(lams)[:, None] * amp
            err = np.sqrt(dw * dw + dv * dv)
        return vals[0][0], vals[0][1], err

    def eval_many(self, lam, xs):
        """eval_table for the one value lam: (w, w1, err) over xs."""
        return tuple(v[0] for v in self.eval_table([lam], xs))


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
    """Numeric w_lam(x) for every lam in lams (rows) and x in xs
    (columns), shape (L, N): one batched evaluation on the problem's
    engine, with w = 1 at x <= a.  Each lam must be finite and >= 0."""
    lams = _checked_lams(lams)
    xs = np.asarray(xs, dtype=float)
    out = np.ones((len(lams),) + xs.shape)
    pos = xs > problem.a
    if np.any(pos):
        eng = get_engine(problem, float(np.max(xs[pos])))
        out[:, pos] = eng.eval_table(lams, xs[pos], with_w1=False)[0]
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
