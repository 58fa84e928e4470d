"""Hyperbolic Cauchy problem l_x f = l_y f with Neumann data on the
initial line: spectral-synthesis solver, characteristic-grid marcher in
standard-form coordinates, shifted-line limit studies, and the
positivity / maximum-principle audit."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, spectral

__all__ = ["Field2D", "TriangleGrid", "solve_spectral",
           "solve_characteristics", "degenerate_limit_study",
           "positivity_audit"]


@dataclass(frozen=True)
class Field2D:
    x_grid: np.ndarray
    y_grid: np.ndarray
    values: np.ndarray            # values[i, j] = f(x_i, y_j)
    method: str                   # "spectral" or "characteristic"
    stop: spectral.SynthesisStop = None  # how a spectral synthesis ended

    def symmetry_gap(self):
        """Max |f(x,y) - f(y,x)| over grid points common to both axes."""
        xi = {round(float(v), 10): i for i, v in enumerate(self.x_grid)}
        worst = 0.0
        for j, y in enumerate(self.y_grid):
            i = xi.get(round(float(y), 10))
            if i is None:
                continue
            for j2, y2 in enumerate(self.y_grid):
                i2 = xi.get(round(float(y2), 10))
                if i2 is None:
                    continue
                worst = max(worst, abs(self.values[i, j2]
                                       - self.values[i2, j]))
        return worst

    def initial_trace_gap(self, h):
        """Max |f(x, y_0) - h(x)| on the first y level."""
        hv = np.asarray(h(self.x_grid), dtype=float)
        return float(np.max(np.abs(self.values[:, 0] - hv)))


@dataclass(frozen=True)
class TriangleGrid:
    c: float                      # initial line level (y = c)
    vertex: tuple                 # (x0, y0): top corner to be covered
    step: float                   # characteristic-coordinate spatial step
    cfl: float = 0.5              # time step / space step ratio


# ---------------------------------------------------------------------------
# spectral synthesis

def solve_spectral(family, h, x_grid, y_grid, x_support=None, tol=1e-8,
                   max_windows=28, nodes_per_unit=1.5):
    """f(x, y) = integral of w_lam(x) w_lam(y) (Fh)(lam) over the spectral
    measure, evaluated tensorized over x_grid x y_grid.  The lambda
    quadrature grid is shared with the transform Fh; the field's stop
    says whether the synthesis reached tol or ended at the noise floor."""
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    x_max = max(float(np.max(x_grid)), float(np.max(y_grid)), 1.0)
    nx, ny = len(x_grid), len(y_grid)
    same = nx == ny and np.allclose(x_grid, y_grid, rtol=0.0, atol=0.0)
    # one kernel table over both axes
    pts = x_grid if same else np.concatenate([x_grid, y_grid])

    def coef(lams):
        return spectral.forward_transform(family, h, lams,
                                          x_support=x_support)

    def rows(lams):
        w = family.kernel(lams, pts)
        return w[:, :nx, None] * w[:, -ny:][:, None, :]

    vals, stop = spectral.synthesize(family, coef, rows, x_max, tol,
                                     max_windows, nodes_per_unit)
    values = np.broadcast_to(vals, (len(x_grid), len(y_grid))).copy()
    return Field2D(x_grid, y_grid, values, "spectral", stop=stop)


# ---------------------------------------------------------------------------
# characteristic-grid marcher

_COORD_CELLS = 4000     # cells of the marcher's gamma table


def _standard_coords(problem, x_lo, x_hi):
    """The table (xs, gamma) of gamma(x) = int_{x_lo}^{x} sqrt(r/p) on
    _COORD_CELLS + 1 equispaced points of [x_lo, x_hi]."""
    xs = np.linspace(x_lo, x_hi, _COORD_CELLS + 1)
    cells = problem.gamma_cells(xs)
    if not np.all(np.isfinite(cells)):
        raise errors.SingularCoefficient(
            "sqrt(r/p) not integrable on the marching window")
    return xs, np.concatenate([[0.0], np.cumsum(cells)])


def solve_characteristics(problem, h, tri):
    """Second-order leapfrog marcher for f_xixi + g(xi) f_xi =
    f_etaeta + g(eta) f_eta in standard-form coordinates, with Neumann
    data on the initial line eta = 0 (y = c) and reflecting left edge;
    the drift g is A'/A."""
    if tri.cfl > 1.0 + 1e-12 or tri.cfl <= 0.0:
        raise errors.CFLViolation("need 0 < cfl <= 1 (got %g)" % tri.cfl)
    c = float(tri.c)
    x0, y0 = tri.vertex
    if not (problem.a <= c < min(x0, y0)):
        raise errors.ParamOutOfRange("initial line must sit below the vertex")
    dxi = float(tri.step)
    deta = tri.cfl * dxi
    # window sizing: the scheme's numerical dependence cone widens by one
    # xi cell per eta step (1/cfl per unit eta), so the grid must extend
    # that far beyond the vertex; iterate since gamma is nonlinear
    x_hi_phys = x0 + (y0 - c) / tri.cfl + 8.0 * dxi
    for _ in range(60):
        xs, gamma = _standard_coords(problem, c, x_hi_phys)
        xi_span = gamma[-1]
        gamma_x0, gamma_y0 = np.interp([x0, y0], xs, gamma)
        deficit = gamma_x0 + gamma_y0 / tri.cfl + 6.0 * dxi - xi_span
        if deficit <= 0.0:
            break
        # extend by the local slope dx/dxi = 1/sqrt(r/p) at the right edge
        with np.errstate(divide="ignore"):
            slope = float(1.0 / problem.sqrt_r_over_p(x_hi_phys))
        if not np.isfinite(slope) or slope <= 0.0:
            slope = 1.0
        x_hi_phys += 1.1 * deficit * slope
    else:
        raise errors.SingularCoefficient(
            "could not size the characteristic window")
    n_eta = int(math.ceil(gamma_y0 / deta)) + 1
    n_xi = int(math.ceil(xi_span / dxi)) + 1
    xi = np.arange(n_xi) * dxi
    x_nodes = np.interp(xi, gamma, xs)
    g_xi = problem.aprime_over_a(x_nodes)
    if not np.all(np.isfinite(g_xi)):
        raise errors.SingularCoefficient(
            "drift g(xi) singular on the grid; shift the initial line")
    hv = np.asarray(h(x_nodes), dtype=float)

    levels = np.empty((n_eta + 1, n_xi))
    levels[0] = hv

    def rhs_space(f):
        # centered d2 and d1 with even reflection at the left edge
        fp = np.empty(n_xi + 2)
        fp[1:-1] = f
        fp[0] = f[1]          # reflection: f(-dxi) = f(+dxi)
        fp[-1] = f[-1]        # right edge: value never used (cone shrinks)
        d2 = fp[2:] - 2.0 * fp[1:-1] + fp[:-2]
        d1 = fp[2:] - fp[:-2]
        return d2 / (dxi * dxi) + g_xi * d1 / (2.0 * dxi)

    # second-order first step using f_eta = 0 on the initial line
    levels[1] = levels[0] + 0.5 * deta * deta * rhs_space(levels[0])
    eta = np.arange(n_eta + 1) * deta
    y_nodes = np.interp(eta, gamma, xs)     # the same map for y
    g_eta = problem.aprime_over_a(y_nodes)
    for n in range(1, n_eta):
        beta = 0.5 * deta * g_eta[n]
        levels[n + 1] = (2.0 * levels[n] - levels[n - 1]
                         + deta * deta * rhs_space(levels[n])
                         + beta * levels[n - 1]) / (1.0 + beta)

    # trim to the numerical dependence cone: the right-edge copy pollutes
    # one xi cell per eta step, so only xi <= xi_span - n_eta * dxi is valid
    keep = xi <= xi_span - (n_eta + 1) * dxi
    if not np.any(keep):
        raise errors.ParamOutOfRange("triangle too small for the vertex")
    return Field2D(x_grid=x_nodes[keep], y_grid=y_nodes,
                   values=levels.T[keep, :], method="characteristic")


# ---------------------------------------------------------------------------
# degenerate limit study and audits

def degenerate_limit_study(family, h, a_m_seq, probes=((0.8, 0.5),),
                           step=0.01):
    """Solve the Cauchy problem with the initial line shifted to each
    a_m > a (grid marcher on the shifted domain) and report pointwise gaps
    to the unshifted spectral solution at the probe points."""
    probes = [(float(px), float(py)) for px, py in probes]
    xs = sorted({p[0] for p in probes})
    ys = sorted({p[1] for p in probes})
    ref_field = solve_spectral(family, h, np.asarray(xs), np.asarray(ys))
    rows = []
    for a_m in a_m_seq:
        x0 = max(p[0] for p in probes)
        y0 = max(p[1] for p in probes)
        tri = TriangleGrid(c=float(a_m), vertex=(x0 + 0.2, y0 + 0.2),
                           step=step)
        fld = solve_characteristics(family.problem, h, tri)
        gaps = []
        for px, py in probes:
            # bilinear interpolation on the marcher grid
            fi = np.interp(py, fld.y_grid,
                           [np.interp(px, fld.x_grid, fld.values[:, j])
                            for j in range(len(fld.y_grid))])
            i = xs.index(px)
            j = ys.index(py)
            gaps.append(abs(float(fi) - float(ref_field.values[i, j])))
        rows.append({"a_m": float(a_m), "gaps": gaps,
                     "max_gap": max(gaps)})
    return {"probes": probes, "rows": rows}


_AUDIT_TOL = 1e-8       # slack of positivity_audit's bounds


def positivity_audit(field, h_bounds=(0.0, None)):
    """Maximum-principle audit: nonnegative data must give a nonnegative
    field; data bounded by C must keep the field at or below C (each to
    within _AUDIT_TOL)."""
    vmin = float(np.min(field.values))
    vmax = float(np.max(field.values))
    lo, hi = h_bounds
    report = {"min": vmin, "max": vmax,
              "nonnegative_ok": bool(vmin >= -_AUDIT_TOL)}
    if hi is not None:
        report["upper_ok"] = bool(vmax <= hi + _AUDIT_TOL)
    return report
