"""Sturm-Liouville problem definitions, Feller boundary classification,
standard-form change of variables, and the monotonicity assumption check
used by the maximum-principle machinery.

The operator is l = -(1/r) d/dx (p d/dx) on (a, b) with p, r > 0.  The
scale function is s(x) = int_c^x dxi/p(xi) for an interior reference
point c.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import errors
from .expr import CoeffExpr
from .quadrature import gl_panels, improper_quad


# standard-form tabulation: points, and relative offset from a singular end
_STD_POINTS = 600
_STD_EPS_REL = 1e-8
# _inner_mass: panels graded toward the moving limit, GL nodes per panel
_INNER_PANELS = 24
_INNER_GL = 8


def graded_grid(lo, hi, n, eps_rel=1e-8):
    """Grid on (lo, hi] geometrically refined toward lo."""
    span = hi - lo
    t = np.geomspace(eps_rel, 1.0, n)
    return lo + span * t


@dataclass(frozen=True)
class SLProblem:
    """Coefficients p, r on (a, b) with reference point c in (a, b]."""
    a: float
    b: float                 # may be np.inf
    p: CoeffExpr
    r: CoeffExpr
    c: float
    name: str = "custom"

    def __post_init__(self):
        if not (self.a < self.c < self.b) and self.c != self.a:
            raise errors.ParamOutOfRange(
                "reference point c=%r outside [a, b)" % (self.c,))
        hi = self.c + 3.0 if np.isinf(self.b) else self.b
        probe = graded_grid(self.a, hi, 64, 1e-6)
        pv, rv = self.p(probe, check=False), self.r(probe, check=False)
        # allow underflow-to-0 / overflow-to-inf near singular endpoints,
        # but reject NaN, negative values, or identically nonpositive data
        for tag, v in (("p", pv), ("r", rv)):
            if np.any(np.isnan(v)) or np.any(v[np.isfinite(v)] < 0) \
                    or not np.any(v > 0):
                raise errors.ParamOutOfRange(
                    "%s must be positive on (a,b)" % tag)

    # vectorized coefficient access
    def p_val(self, x):
        return self.p(x, check=False)

    def r_val(self, x):
        return self.r(x, check=False)

    def fingerprint(self):
        return (self.a, self.b, self.c, self.p.printed(), self.r.printed())

    # -- standard form: xi = gamma(x) = int sqrt(r/p), A = sqrt(p r) ------
    @cached_property
    def logs(self):
        """(log p, log r, (log p)', (log r)'), decomposed structurally so
        they stay representable where p and r under- or overflow."""
        return self.p.log(), self.r.log(), self.p.dlog(), self.r.dlog()

    def sqrt_r_over_p(self, x):
        """sqrt(r/p) = d(xi)/dx, from the logs."""
        log_p, log_r, _, _ = self.logs
        with np.errstate(all="ignore"):
            return np.exp(0.5 * (log_r(x, check=False)
                                 - log_p(x, check=False)))

    def aprime_over_a(self, x):
        """A'/A = d/dxi log sqrt(p r) at the point x (not at xi), from the
        logs: (1/2) ((log p)' + (log r)') sqrt(p/r)."""
        log_p, log_r, dlog_p, dlog_r = self.logs
        with np.errstate(all="ignore"):
            return (np.exp(0.5 * (log_p(x, check=False)
                                  - log_r(x, check=False)))
                    * 0.5 * (dlog_p(x, check=False)
                             + dlog_r(x, check=False)))

    def gamma_cells(self, edges):
        """int sqrt(r/p) over each cell [edges[k], edges[k+1]], by 12-point
        Gauss-Legendre."""
        nodes, wts = gl_panels(edges)
        return (self.sqrt_r_over_p(nodes) * wts).sum(axis=1)


def custom_problem_from_dict(d):
    """Build an SLProblem from the 'custom' problem-JSON dictionary."""
    try:
        p = CoeffExpr(d["p"])
        r = CoeffExpr(d["r"])
        a = float(d["a"])
        b = np.inf if d["b"] in ("inf", "Infinity") else float(d["b"])
        c = float(d["c"])
    except KeyError as ex:
        raise errors.ParamOutOfRange("custom problem missing key %s" % ex)
    return SLProblem(a=a, b=b, p=p, r=r, c=c, name="custom")


# ---------------------------------------------------------------------------
# Feller boundary classification

@dataclass(frozen=True)
class BoundaryClass:
    endpoint: str            # 'left' | 'right'
    kind: str                # 'regular' | 'exit' | 'entrance' | 'natural'
    I_value: float
    J_value: float


def _inner_mass(f, lo, hi):
    """Proper integral with panels graded toward lo (possible integrable
    singularity at the moving limit)."""
    if hi <= lo:
        return 0.0
    t = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, _INNER_PANELS)])
    nodes, wts = gl_panels(lo + (hi - lo) * t, _INNER_GL)
    return float(wts.ravel() @ f(nodes.ravel()))


def classify_boundary(problem, endpoint):
    """Feller classification of one endpoint via the iterated integrals

        I = int int (scale-to-endpoint) r dy,   J = the transposed one,

    each reduced by Fubini to a single improper integral with an inner
    proper companion.  Divergence is decided by the geometric cut-off
    detector in quadrature.improper_quad.
    """
    c = problem.c if problem.c != problem.a else \
        (problem.a + 1.0 if np.isinf(problem.b)
         else 0.5 * (problem.a + problem.b))
    r = problem.r_val

    def q(x):
        return 1.0 / problem.p(x, check=False)

    if endpoint not in ("left", "right"):
        raise errors.ParamOutOfRange("endpoint must be 'left' or 'right'")
    e = problem.a if endpoint == "left" else problem.b

    # each inner integral runs between the point and c, lower limit first
    def gI(xs):
        return q(xs) * np.array([_inner_mass(r, *sorted((x, c)))
                                 for x in np.atleast_1d(xs)])

    def gJ(ys):
        return r(ys) * np.array([_inner_mass(q, *sorted((y, c)))
                                 for y in np.atleast_1d(ys)])

    res_I = improper_quad(gI, c, e)
    res_J = improper_quad(gJ, c, e)
    if res_I.finite and res_J.finite:
        kind = "regular"
    elif res_I.finite:
        kind = "exit"
    elif res_J.finite:
        kind = "entrance"
    else:
        kind = "natural"
    return BoundaryClass(endpoint=endpoint, kind=kind,
                         I_value=abs(res_I.value), J_value=abs(res_J.value))


def validate_left_endpoint(problem):
    """Reject problems whose left endpoint is exit or natural (the kernel
    construction requires a regular or entrance left endpoint)."""
    bc = classify_boundary(problem, "left")
    if bc.kind not in ("regular", "entrance"):
        raise errors.ParamOutOfRange(
            "left endpoint is %s; the kernel requires regular or entrance"
            % bc.kind)
    return bc


# ---------------------------------------------------------------------------
# Standard form

@dataclass(frozen=True)
class StandardForm:
    """Change of variables xi = gamma(x) = int_c^x sqrt(r/p); the operator
    becomes -d2/dxi2 - (A'/A) d/dxi with A(xi) = sqrt(p r)(gamma^{-1}(xi))."""
    gamma: object            # PchipInterpolator x -> xi
    inverse: object          # PchipInterpolator xi -> x
    gamma_a: float           # gamma at the left endpoint (may be -inf)
    x_grid: np.ndarray
    xi_grid: np.ndarray
    problem: SLProblem = field(repr=False)

    def A(self, xi):
        x = self.inverse(xi)
        log_p, log_r, _, _ = self.problem.logs
        with np.errstate(all="ignore"):
            return np.exp(0.5 * (log_p(x, check=False)
                                 + log_r(x, check=False)))

    def aprime_over_a(self, xi):
        return self.problem.aprime_over_a(self.inverse(xi))


def to_standard_form(problem):
    """Tabulate gamma on _STD_POINTS points of (a, c + 20] (or (a, b),
    offset _STD_EPS_REL of the span from a finite b)."""
    # imported here: the MP check is its one caller, and scipy.interpolate
    # costs every other start-up ~0.4 s
    from scipy.interpolate import PchipInterpolator

    a, b, c = problem.a, problem.b, problem.c
    x_max = (c + 20.0) if np.isinf(b) else b - (b - a) * _STD_EPS_REL
    n = _STD_POINTS
    left = graded_grid(a, c, n // 2, _STD_EPS_REL)
    right = np.linspace(c, x_max, n - n // 2 + 1)[1:]
    grid = np.unique(np.concatenate([left, [c], right]))
    gamma_vals = np.concatenate([[0.0], np.cumsum(problem.gamma_cells(grid))])
    # shift so gamma(c) = 0
    ic = int(np.searchsorted(grid, c))
    gamma_vals = gamma_vals - gamma_vals[ic]
    if np.any(np.diff(gamma_vals) <= 0):
        raise errors.NonMonotone("gamma not strictly increasing on the grid")
    res = improper_quad(problem.sqrt_r_over_p, c, a)
    gamma_a = res.value if res.finite else -np.inf
    gamma = PchipInterpolator(grid, gamma_vals, extrapolate=True)
    inverse = PchipInterpolator(gamma_vals, grid, extrapolate=True)
    return StandardForm(gamma=gamma, inverse=inverse, gamma_a=gamma_a,
                        x_grid=grid, xi_grid=gamma_vals, problem=problem)


# ---------------------------------------------------------------------------
# Assumption MP check

@dataclass(frozen=True)
class MPReport:
    """Outcome of check_mp_assumption on the sample grid.

    phi_budget and psi_budget are the per-point rounding budgets of phi and
    psi: how closely the sampled values resolve the true ones.  A value is
    a violation only where it passes the MP_TOL bound by more than its
    budget, and a first difference only where it passes it by more than
    the sum of the budgets of its two points.
    """
    eta: CoeffExpr
    grid: np.ndarray          # standard-form coordinates xi
    phi_eta: np.ndarray
    psi_eta: np.ndarray
    admissible: bool
    violations: tuple
    phi_budget: np.ndarray
    psi_budget: np.ndarray


MP_TOL = 1e-12
_MP_ULPS = 4          # uncertainty of a sample coordinate xi, in its ulps
_MP_EPS_TERMS = 8     # rounding of each term, in units of eps * |term|


def _mp_rounding_budget(terms):
    """Rounding budget of a sum of terms sampled at xi + j ulp(xi),
    j = -_MP_ULPS.._MP_ULPS (axis 0; row _MP_ULPS is xi itself): for each
    term, its largest change over those coordinates plus _MP_EPS_TERMS eps
    of its magnitude.  The terms are rounded independently (A'/A through
    the inverse of gamma, eta directly in xi), so their errors do not
    cancel in the sum even where the values do."""
    eps = np.finfo(float).eps
    with np.errstate(invalid="ignore"):
        b = sum(np.abs(t - t[_MP_ULPS]).max(axis=0)
                + _MP_EPS_TERMS * eps * np.abs(t[_MP_ULPS]) for t in terms)
    return np.where(np.isfinite(b), b, np.nan)


def _finite_absmax(v):
    return np.abs(v[np.isfinite(v)]).max(initial=0.0)


def check_mp_assumption(problem, eta):
    """Check Assumption MP for the candidate eta (a CoeffExpr in the
    standard-form coordinate): eta >= 0, phi = A'/A - eta >= 0, and both
    phi and psi = eta'/2 - eta^2/4 + (A'/2A) eta nonincreasing on the grid.

    Tolerance model.  A condition fails only where it is broken by more
    than MP_TOL (scaled by max(1, max|phi|) for phi >= 0 and by
    max(1, max|phi|, max|psi|) for the differences) plus the rounding
    budget of the sampled values (MPReport.phi_budget and psi_budget; eta
    gets its own).  A point's budget is, for each term of the quantity
    (eta and A'/A for phi; eta'/2, eta^2/4 and A'eta/2A for psi), its
    largest change when the sample coordinate xi moves by up to _MP_ULPS
    ulps, plus _MP_EPS_TERMS eps of its magnitude.  A first difference
    gets the sum of the budgets of its two points.

    Near a singular endpoint the sample coordinate xi limits how closely
    phi and psi can be resolved.  A'/A is evaluated at the x that the
    inverse of gamma returns for xi, which is right only to within a
    fraction of an ulp of xi, while eta is evaluated at xi itself.  Terms
    like 1/(xi - gamma(a)) have a large coordinate condition number there,
    so that sub-ulp difference becomes an error far above eps times phi or
    psi (which in the equality case eta = A'/A are zero).  The budget grows
    with that sensitivity near the endpoint and is a few eps of the terms
    elsewhere.  A point whose value or budget is NaN, or whose budget is
    infinite, is a violation."""
    sf = to_standard_form(problem)
    lo = max(sf.xi_grid[0], sf.gamma_a if np.isfinite(sf.gamma_a)
             else sf.xi_grid[0])
    grid = np.linspace(lo + 1e-6 * (sf.xi_grid[-1] - lo), sf.xi_grid[-1], 200)
    eta = CoeffExpr(eta)
    steps = np.arange(-_MP_ULPS, _MP_ULPS + 1, dtype=float)[:, None]
    xis = grid[None, :] + steps * np.spacing(np.abs(grid))[None, :]
    eta_s = eta(xis, check=False)
    deta_s = eta.diff()(xis, check=False)
    aoa_s = sf.aprime_over_a(xis)
    phi_terms = (aoa_s, -eta_s)
    psi_terms = (0.5 * deta_s, -0.25 * eta_s ** 2, 0.5 * aoa_s * eta_s)
    eta_v = eta_s[_MP_ULPS]
    phi = sum(t[_MP_ULPS] for t in phi_terms)
    psi = sum(t[_MP_ULPS] for t in psi_terms)
    eta_budget = _mp_rounding_budget((eta_s,))
    phi_budget = _mp_rounding_budget(phi_terms)
    psi_budget = _mp_rounding_budget(psi_terms)
    scale = max(1.0, _finite_absmax(phi))
    tol = max(scale, _finite_absmax(psi)) * MP_TOL
    with np.errstate(invalid="ignore"):
        # negated comparisons: a NaN value or budget is a violation
        checks = (
            (grid, ~(eta_v >= -(MP_TOL + eta_budget))),
            (grid, ~(phi >= -(MP_TOL * scale + phi_budget))),
            (grid[1:], ~(np.diff(phi) <= tol + phi_budget[:-1] + phi_budget[1:])),
            (grid[1:], ~(np.diff(psi) <= tol + psi_budget[:-1] + psi_budget[1:])),
        )
    bad = []
    for pts, mask in checks:
        bad.extend(pts[mask][:5])
    return MPReport(eta=eta, grid=grid, phi_eta=phi, psi_eta=psi,
                    admissible=(len(bad) == 0),
                    violations=tuple(float(v) for v in bad),
                    phi_budget=phi_budget, psi_budget=psi_budget)


# ---------------------------------------------------------------------------
# Problem JSON loading (family references resolved in families.py)

def load_problem_dict(path_or_dict):
    if isinstance(path_or_dict, dict):
        return path_or_dict
    with open(path_or_dict) as fh:
        return json.load(fh)
