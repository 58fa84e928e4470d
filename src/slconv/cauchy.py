"""Hyperbolic Cauchy problem l_x f = l_y f with Neumann data on the
initial line: spectral-synthesis solver, characteristic-grid marcher in
standard-form coordinates, shifted-line limit studies, and the
positivity / maximum-principle audit."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, kernel, quadrature, spectral

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
    prob = family.problem
    ck = family.closed_kernel if family.prefer_closed_kernel else None
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    x_max = max(float(np.max(x_grid)), float(np.max(y_grid)), 1.0)
    nx, ny = len(x_grid), len(y_grid)
    same = nx == ny and np.allclose(x_grid, y_grid, rtol=0.0, atol=0.0)
    # one kernel table over both axes
    pts = x_grid if same else np.concatenate([x_grid, y_grid])

    def coef(lams):
        return spectral.forward_transform(prob, h, lams, x_support=x_support,
                                          closed_kernel=ck)

    def rows(lams):
        w = kernel.kernel_table(prob, lams, pts, ck)
        return w[:, :nx, None] * w[:, -ny:][:, None, :]

    vals, stop = spectral.synthesize(family, coef, rows, x_max, tol,
                                     max_windows, nodes_per_unit)
    values = np.broadcast_to(vals, (len(x_grid), len(y_grid))).copy()
    return Field2D(x_grid, y_grid, values, "spectral", stop=stop)


# ---------------------------------------------------------------------------
# characteristic-grid marcher

def _standard_coords(problem, x_lo, x_hi, n_fine=4000):
    """gamma(x) = int_{x_lo}^{x} sqrt(r/p), its inverse, and the drift
    g(xi) = d/dxi log sqrt(p r), tabulated on [x_lo, x_hi]."""
    xs = np.linspace(x_lo, x_hi, n_fine + 1)
    nodes, wts = quadrature.gl_panels(xs)
    with np.errstate(all="ignore"):
        integ = np.sqrt(problem.r_val(nodes) / problem.p_val(nodes))
    if not np.all(np.isfinite(integ)):
        raise errors.SingularCoefficient(
            "sqrt(r/p) not integrable on the marching window")
    gamma = np.concatenate([[0.0], np.cumsum((integ * wts).sum(axis=1))])
    dlp = problem.p.dlog()
    dlr = problem.r.dlog()

    def x_of_xi(xi):
        return np.interp(xi, gamma, xs)

    def g_of_xi(xi):
        x = np.interp(xi, gamma, xs)
        with np.errstate(all="ignore"):
            gx = 0.5 * (np.asarray(dlp(x, check=False), float)
                        + np.asarray(dlr(x, check=False), float))
            out = gx * np.sqrt(problem.p_val(x) / problem.r_val(x))
        return out

    return gamma[-1], x_of_xi, g_of_xi


def solve_characteristics(problem, h, tri):
    """Second-order leapfrog marcher for f_xixi + g(xi) f_xi =
    f_etaeta + g(eta) f_eta in standard-form coordinates, with Neumann
    data on the initial line eta = 0 (y = c) and reflecting left edge."""
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
        xi_span, x_of_xi, g_of_xi = _standard_coords(problem, c, x_hi_phys)
        xi_probe = np.linspace(0.0, xi_span, 4000)
        x_probe = x_of_xi(xi_probe)
        gamma_x0 = float(np.interp(x0, x_probe, xi_probe))
        gamma_y0 = float(np.interp(y0, x_probe, xi_probe))
        deficit = gamma_x0 + gamma_y0 / tri.cfl + 6.0 * dxi - xi_span
        if deficit <= 0.0:
            break
        # extend by the local slope dx/dxi = sqrt(p/r) at the right edge
        with np.errstate(all="ignore"):
            slope = math.sqrt(float(problem.p_val(x_hi_phys))
                              / float(problem.r_val(x_hi_phys)))
        if not np.isfinite(slope) or slope <= 0.0:
            slope = 1.0
        x_hi_phys += 1.1 * deficit * slope
    else:
        raise errors.SingularCoefficient(
            "could not size the characteristic window")
    n_eta = int(math.ceil(gamma_y0 / deta)) + 1
    n_xi = int(math.ceil(xi_span / dxi)) + 1
    xi = np.arange(n_xi) * dxi
    g_xi = np.asarray(g_of_xi(xi), dtype=float)
    if not np.all(np.isfinite(g_xi)):
        raise errors.SingularCoefficient(
            "drift g(xi) singular on the grid; shift the initial line")
    x_nodes = x_of_xi(xi)
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
    for n in range(1, n_eta):
        g_eta = float(g_of_xi(np.asarray(n * deta)))
        beta = 0.5 * deta * g_eta
        levels[n + 1] = (2.0 * levels[n] - levels[n - 1]
                         + deta * deta * rhs_space(levels[n])
                         + beta * levels[n - 1]) / (1.0 + beta)

    # trim to the numerical dependence cone: the right-edge copy pollutes
    # one xi cell per eta step, so only xi <= xi_span - n_eta * dxi is valid
    eta = np.arange(n_eta + 1) * deta
    y_nodes = x_of_xi(eta)     # same transformation for the y coordinate
    keep = xi <= xi_span - (n_eta + 1) * dxi
    if not np.any(keep):
        raise errors.ParamOutOfRange("triangle too small for the vertex")
    return Field2D(x_grid=x_nodes[keep], y_grid=y_nodes,
                   values=levels.T[keep, :], method="characteristic")


# ---------------------------------------------------------------------------
# degenerate limit study and audits

def degenerate_limit_study(family, h, a_m_seq, probes=((0.8, 0.5),),
                           step=0.01, ref_field=None, x_support=None):
    """Solve the Cauchy problem with the initial line shifted to each
    a_m > a (grid marcher on the shifted domain) and report pointwise gaps
    to the unshifted spectral solution at the probe points."""
    probes = [(float(px), float(py)) for px, py in probes]
    xs = sorted({p[0] for p in probes})
    ys = sorted({p[1] for p in probes})
    if ref_field is None:
        ref_field = solve_spectral(family, h, np.asarray(xs), np.asarray(ys),
                                   x_support=x_support)
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


def positivity_audit(field, h_bounds=(0.0, None), tol=1e-8):
    """Maximum-principle audit: nonnegative data must give a nonnegative
    field; data bounded by C must keep the field at or below C."""
    vmin = float(np.min(field.values))
    vmax = float(np.max(field.values))
    lo, hi = h_bounds
    report = {"min": vmin, "max": vmax,
              "nonnegative_ok": bool(vmin >= -tol)}
    if hi is not None:
        report["upper_ok"] = bool(vmax <= hi + tol)
    return report
