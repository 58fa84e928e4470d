"""Kernel engine: the eigenfunction w_lambda(x) with w(a)=1, w^[1](a)=0,
its quasi-derivative w^[1] = p w', truncated kernels, and the moment
functions phi1, phi2.

Construction: the alternating series w = sum (-lam)^j eta_j with

    eta_j(x)  = int_a^x q(y) F_j(y) dy,      q = 1/p,
    F_j(y)    = int_a^y eta_{j-1}(xi) r(xi) dxi,   eta_0 = 1,

computed on a shared panel grid by cumulative Gauss-Legendre rules, then
ODE continuation of (w, w^[1]) once |lam| * eta_1 exceeds the switch
bound (alternating-series cancellation would otherwise eat precision).

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
beyond it, one solve_ivp integrates the 2L components (w, w^[1]) of every
lam at once.

Each problem has one engine (get_engine, an LRU cache keyed by the
problem).  Its deep region (x_min, x_w] is decided once, by one vectorized
probe of those ratios; its main panels start at x_w and grow forward, whole
panels at a time, when a caller needs a larger x.  Panels already laid
never change and every table is a left-to-right prefix sum, so w_lam(x)
does not depend on the call history; the other points and lam of a call
reach it only through the ODE solver's shared steps and the series' term
count, at the level of the solver's tolerance.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.integrate import solve_ivp

from . import errors
from .quadrature import gl_nodes
from .slmodel import SLProblem

__all__ = [
    "KernelValue", "MomentFns", "eval_kernel", "kernel_table",
    "eval_kernel_truncated", "moment_functions", "get_engine",
    "clear_engine_cache",
]


# ---------------------------------------------------------------------------
# Gauss-Legendre panel machinery (12 nodes per panel, Legendre partials)

_M = 12
_U, _W = gl_nodes(_M)          # nodes on [0,1]
# coefficients of the degree-11 interpolant in the shifted Legendre basis
_LVINV = np.linalg.inv(npleg.legvander(2.0 * _U - 1.0, _M - 1))
# partial-integral matrix: node_partials = vals @ _NODE_PART.T
_NODE_PART = 0.5 * npleg.legval(
    2.0 * _U - 1.0, npleg.legint(_LVINV, lbnd=-1.0), tensor=True).T
# _NODE_PART[k, j] = int_0^{u_k} L_j(u) du for the Lagrange basis L_j


def _leg_partial(coeffs, t):
    """Partial integrals int_0^t of interpolants with Legendre coefficient
    rows `coeffs` (m, 12), evaluated at matching points t (m,)."""
    ci = npleg.legint(coeffs.T, lbnd=-1.0)            # (13, m)
    return 0.5 * npleg.legval(2.0 * np.asarray(t) - 1.0, ci, tensor=False)


class CumField:
    """Cumulative integral of a panelized integrand sampled at GL nodes."""

    __slots__ = ("bp", "widths", "node_x", "vals", "cum_bounds", "cum_nodes")

    def __init__(self, bp, node_x, vals, start=0.0):
        self.bp = bp
        self.widths = np.diff(bp)
        self.node_x = node_x
        self.vals = vals
        fulls = self.widths * (vals @ _W)
        self.cum_bounds = start + np.concatenate([[0.0], np.cumsum(fulls)])
        self.cum_nodes = (self.cum_bounds[:-1, None]
                          + self.widths[:, None] * (vals @ _NODE_PART.T))

    def at(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xf = np.atleast_1d(x)
        idx = np.clip(np.searchsorted(self.bp, xf, side="right") - 1,
                      0, len(self.widths) - 1)
        t = np.clip((xf - self.bp[idx]) / self.widths[idx], 0.0, 1.0)
        coeffs = self.vals[idx] @ _LVINV.T
        out = self.cum_bounds[idx] + self.widths[idx] * _leg_partial(coeffs, t)
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# one fixed setting for every problem

_SWITCH_BOUND = 10.0    # switch series -> ODE where |lam| * eta_1 exceeds it
_J_CAP = 80             # hard cap on series terms
_TERM_TOL = 1e-18       # series truncation threshold
_ODE_RTOL = 1e-11
_ODE_ATOL = 1e-13
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
        self.phi_r = problem.r.log()
        self.phi_p = problem.p.log()
        self.dphi_r = problem.r.dlog()
        self.dphi_p = problem.p.dlog()
        self.d2phi_r = self.dphi_r.diff()
        self.d3phi_r = self.d2phi_r.diff()
        self._build_deep()
        self.cover(x_need)

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _safe(fn, x):
        with np.errstate(all="ignore"):
            return np.asarray(fn(x, check=False), float) * np.ones_like(x)

    def _watson_logF(self, x, eta, etap):
        """log F_j(x) = log int_a^x eta_{j-1} r by the asymptotic expansion
        around the right limit (valid on the deep region)."""
        x = np.asarray(x, float)
        s1 = self._safe(self.dphi_r, x)
        s2 = self._safe(self.d2phi_r, x)
        s3 = self._safe(self.d3phi_r, x)
        t0 = 1.0 / s1 + s2 / s1 ** 3 - s3 / s1 ** 4 + 3.0 * s2 ** 2 / s1 ** 5
        val = np.maximum(eta * t0 - etap / s1 ** 2, 1e-300)
        return self._safe(self.phi_r, x) + np.log(val)

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
        s1 = self._safe(self.dphi_r, probe)
        s2 = self._safe(self.d2phi_r, probe)
        s3 = self._safe(self.d3phi_r, probe)
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
                d = abs(float(dphi(x, check=False)))
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
        self._phir_nodes = self._safe(self.phi_r, self.node_x)
        self._phip_nodes = self._safe(self.phi_p, self.node_x)
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
                logF0 = -np.inf
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
        cf = CumField(self.bp, self.node_x, vals, start=0.0)
        self.levels.append(_Level(cf, logF_bounds))

    # -- evaluation ---------------------------------------------------------
    def eta_at(self, j, x):
        if j == 0:
            return np.ones_like(np.asarray(x, dtype=float))
        self._ensure_levels(j)
        return self.levels[j].cf.at(x)

    def F_log_at(self, j, x):
        """log F_j at points x (array), vectorized over the main region."""
        self._ensure_levels(max(j, 1))
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.full(x.shape, -np.inf)
        nd = self.n_deep
        deep = x <= self.x_w if nd else np.zeros(x.shape, bool)
        if np.any(deep):
            xd = x[deep]
            eta = self.eta_at(j - 1, xd)
            if j >= 2:
                with np.errstate(all="ignore"):
                    gp = np.exp(self.F_log_at(j - 1, xd)
                                - self._safe(self.phi_p, xd))
            else:
                gp = np.zeros_like(xd)
            out[deep] = self._watson_logF(xd, eta, gp)
        main = ~deep
        if np.any(main):
            xm = x[main]
            idx = np.clip(np.searchsorted(self.bp, xm, side="right") - 1,
                          nd, len(self.widths) - 1)
            t = np.clip((xm - self.bp[idx]) / self.widths[idx], 0.0, 1.0)
            if j == 1:
                eta_prev = np.ones((len(xm), _M))
            else:
                eta_prev = self.levels[j - 1].cf.cum_nodes[idx]
            ref = self._refs[idx - nd]
            with np.errstate(all="ignore"):
                sv = eta_prev * np.exp(self._phir_nodes[idx] - ref[:, None])
                coeffs = sv @ _LVINV.T
                raw = self.widths[idx] * _leg_partial(coeffs, t)
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
        w = np.ones(held.shape)
        acc = np.ones(held.shape)
        # w1 = -lam * sum_j (-lam)^j F_{j+1}
        w1sum = (np.where(held, np.exp(self.F_log_at(1, xs)), 0.0)
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
                term = np.where(held, power * self.eta_at(j, xs), 0.0)
                w += term
                tail = np.abs(term)
                acc += tail
                if with_w1:
                    w1sum += np.where(
                        held, power * np.exp(self.F_log_at(j + 1, xs)), 0.0)
                if j >= 2 and np.all(tail <= _TERM_TOL
                                     * np.maximum(acc, 1.0)):
                    break
        w1 = -lams[:, None] * w1sum if with_w1 else None
        err = np.where(held, tail + 1e-13 * acc + 5e-12, 0.0)
        return w, w1, err

    def eval_table(self, lams, xs, with_w1=True):
        """Kernel w, w1, err for every lam (rows) at points xs in
        (a, bp[-1]] (columns): the series up to each lam's switch point,
        then one ODE continuation of (w, w1) for all lam that need it,
        started at the smallest of their switch points.  scipy's RK error
        norm is the RMS over the 2L components; scaling the tolerances by
        1/sqrt(L) bounds each component by sqrt(2) times them, as the
        one-lam solve (2 components, unscaled) does.  w1 is None unless
        with_w1."""
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
            k = len(lo)
            x0 = float(np.min(sw[ode]))
            ws, w1s, es = self.series_eval(lo, np.asarray([x0]))
            on = np.flatnonzero(xs > x0)
            t_eval, inv = np.unique(xs[on], return_inverse=True)
            p, r = self.problem.p_val, self.problem.r_val
            neg = -lo

            def rhs(t, y):
                dy = np.empty_like(y)
                np.divide(y[k:], float(p(t)), out=dy[:k])
                np.multiply(neg * float(r(t)), y[:k], out=dy[k:])
                return dy

            scale = 1.0 / math.sqrt(k)
            sol = solve_ivp(rhs, (x0, float(t_eval[-1])),
                            np.concatenate([ws[:, 0], w1s[:, 0]]),
                            t_eval=t_eval, rtol=_ODE_RTOL * scale,
                            atol=_ODE_ATOL * scale, method="RK45")
            if not sol.success:
                raise errors.StepSizeUnderflow(
                    "ODE continuation failed: %s" % sol.message)
            # only a lam's own points beyond its switch take ODE values
            take = beyond[np.ix_(ode, on)]
            blk = np.ix_(live[ode], on)
            w[blk] = np.where(take, sol.y[:k][:, inv], w[blk])
            if with_w1:
                w1[blk] = np.where(take, sol.y[k:][:, inv], w1[blk])
            err[blk] = np.where(
                take, es[:, :1] + 1e-10 * (1.0 + np.abs(xs[on] - x0)),
                err[blk])
        return w, w1, err

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


def eval_kernel(problem, lam, x):
    """w_lambda(x) with w(a) = 1, w^[1](a) = 0 (KernelValue)."""
    if lam < 0:
        raise errors.ParamOutOfRange("lambda must be >= 0")
    x = float(x)
    if x == problem.a:
        return KernelValue(1.0, 0.0, 0.0)
    if not (problem.a < x < problem.b):
        raise errors.ParamOutOfRange("x=%g outside (a, b)" % x)
    eng = get_engine(problem, x)
    w, w1, err = eng.eval_many(float(lam), np.asarray([x]))
    return KernelValue(float(w[0]), float(w1[0]), float(err[0]))


def kernel_table(problem, lams, xs):
    """Numeric w_lam(x) for every lam in lams (rows) and x in xs
    (columns), shape (L, N): one batched evaluation on the problem's
    engine, with w = 1 at x <= a."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
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
    phi_p, phi_r = problem.p.log(), problem.r.log()
    dphi_p, dphi_r = problem.p.dlog(), problem.r.dlog()

    def quotient(x):
        with np.errstate(all="ignore"):
            amp = np.exp(0.5 * (float(phi_p(x, check=False))
                                - float(phi_r(x, check=False))))
            return amp * 0.5 * (float(dphi_p(x, check=False))
                                + float(dphi_r(x, check=False)))

    x0 = c if c > a else a + 1.0
    vals = []
    kappa = None
    for k in range(_KAPPA_PROBES):
        if np.isinf(b):
            xk = a + (x0 - a) * 2.0 ** k
        else:
            xk = b - (b - x0) * 0.5 ** k
        v = quotient(xk)
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
