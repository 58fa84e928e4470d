"""Generalized convolution of measures and functions, generalized
translation, product-formula verification, and the Young inequality
check."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, families, kernel, measures, quadrature

__all__ = ["ConvCfg", "ConvReport", "convolve_measures", "translate",
           "convolve_functions", "verify_product_formula", "young_check"]


@dataclass(frozen=True)
class ConvCfg:
    max_pairs: int = 512        # budget on (x, y) support pairs
    seg_nodes: int = 16         # point-mass nodes per density segment
    grid_points: int = 800      # target grid for merging densities


@dataclass(frozen=True)
class ConvReport:
    lambda_grid: np.ndarray
    lhs: np.ndarray             # w_lam(x) * w_lam(y)
    rhs: np.ndarray             # integral of w_lam against the measure
    max_abs_err: float
    mass: float


def _measure_point_masses(mu, seg_nodes):
    """Measure reduced to weighted point masses (atoms exact, density
    segments by per-interval Gauss-Legendre with the linear density)."""
    locs = [loc for loc, _ in mu.atoms]
    wts = [m for _, m in mu.atoms]
    for seg in mu.segments:
        g, d = seg.grid, seg.density
        # subsample long segments: GL nodes per interval of a coarsened grid
        if len(g) > seg_nodes + 1:
            idx = np.unique(np.linspace(0, len(g) - 1,
                                        seg_nodes + 1).astype(int))
            cg = g[idx]
            cd = np.interp(cg, g, d)
        else:
            cg, cd = g, d
        nodes, w = map(np.ravel, quadrature.gl_panels(cg))
        w = w * np.interp(nodes, cg, cd)
        locs.extend(nodes.tolist())
        wts.extend(w.tolist())
    return np.asarray(locs), np.asarray(wts)


def convolve_measures(family, mu, nu, cfg=ConvCfg()):
    """Mixture construction of the measure convolution: the product of the
    two supports maps pairwise through the family's two-point convolution
    measures.  Result mass = mass(mu) * mass(nu)."""
    xs, xw = _measure_point_masses(mu, cfg.seg_nodes)
    ys, yw = _measure_point_masses(nu, cfg.seg_nodes)
    n_pairs = len(xs) * len(ys)
    if n_pairs > cfg.max_pairs:
        raise errors.GridOverflow(
            "convolution mixture needs %d support pairs (budget %d)"
            % (n_pairs, cfg.max_pairs))
    parts = []
    weights = []
    for x, wx in zip(xs, xw):
        for y, wy in zip(ys, yw):
            parts.append(families.family_convolution_measure(family, x, y))
            weights.append(wx * wy)
    return measures.merge_measures(parts, weights,
                                   grid_points=cfg.grid_points)


def translate(family, h, y, x_grid):
    """Generalized translation (T^y h)(x) = integral of h against the
    two-point convolution measure, sampled on x_grid."""
    out = np.empty(len(x_grid))
    for i, x in enumerate(np.asarray(x_grid, dtype=float)):
        nodes, wts, atoms = families.family_convolution_quadrature(
            family, float(x), float(y))
        total = math.fsum((wts * np.asarray(h(nodes), dtype=float)).tolist()) \
            if len(nodes) else 0.0
        total += sum(m * float(h(np.asarray(loc))) for loc, m in atoms)
        out[i] = total
    return out


def convolve_functions(family, h, g, x_grid, y_support, n_panels=24):
    """(h * g)(x) = integral over y of (T^y h)(x) g(y) r(y) dy, sampled on
    x_grid.  y_support bounds the effective support of g."""
    lo, hi = y_support
    prob = family.problem
    ys, yw = map(np.ravel, quadrature.gl_panels(
        np.linspace(lo, hi, n_panels + 1)))
    with np.errstate(all="ignore"):
        rv = np.asarray(prob.r_val(ys), dtype=float) * np.ones_like(ys)
    gv = np.asarray(g(ys), dtype=float) * np.ones_like(ys)
    out = np.zeros(len(x_grid))
    # accumulate column by column: for each y node, T^y h over the x grid
    for j, yval in enumerate(ys):
        coeff = yw[j] * gv[j] * rv[j]
        if coeff == 0.0:
            continue
        out += coeff * translate(family, h, float(yval), x_grid)
    return out


def verify_product_formula(family, x, y, lambda_grid, use_closed_kernel=False):
    """ConvReport comparing w_lam(x) w_lam(y) with the transform of the
    two-point convolution measure over lambda_grid."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    nodes, wts, atoms = families.family_convolution_quadrature(
        family, float(x), float(y))
    atom_locs = np.asarray([loc for loc, _ in atoms])
    atom_m = np.asarray([m for _, m in atoms])
    mass = float(np.sum(wts)) + float(np.sum(atom_m))
    ck = family.closed_kernel if use_closed_kernel else None
    n = len(nodes)
    wv = kernel.kernel_table(family.problem, lambda_grid,
                             np.concatenate([[x], [y], nodes, atom_locs]), ck)
    lhs = wv[:, 0] * wv[:, 1]
    rhs = wv[:, 2:2 + n] @ wts + wv[:, 2 + n:] @ atom_m
    return ConvReport(lambda_grid=lambda_grid, lhs=lhs, rhs=rhs,
                      max_abs_err=float(np.max(np.abs(lhs - rhs))),
                      mass=mass)


def _norm(vals, weights, p):
    vals = np.abs(vals)
    if np.isinf(p):
        return float(np.max(vals))
    return float(np.sum(weights * vals ** p) ** (1.0 / p))


def young_check(family, h, g, p1, p2, support=(0.0, 6.0), n_panels=32):
    """Young inequality ||h * g||_s <= ||h||_p1 ||g||_p2 with
    1/s = 1/p1 + 1/p2 - 1 (norms weighted by r(x) dx)."""
    inv_s = 1.0 / p1 + 1.0 / p2 - 1.0
    if inv_s < -1e-12 or inv_s > 1.0 + 1e-12:
        raise errors.ExponentMismatch(
            "Young exponents need 1 <= 1/p1 + 1/p2 <= 2")
    s = np.inf if inv_s <= 1e-12 else 1.0 / inv_s
    lo, hi = support
    prob = family.problem
    xs, xw = map(np.ravel, quadrature.gl_panels(
        np.linspace(lo, hi, n_panels + 1)))
    with np.errstate(all="ignore"):
        rv = np.asarray(prob.r_val(xs), dtype=float) * np.ones_like(xs)
    wts = xw * rv
    hv = np.asarray(h(xs), dtype=float) * np.ones_like(xs)
    gv = np.asarray(g(xs), dtype=float) * np.ones_like(xs)
    norm_h = _norm(hv, wts, p1)
    norm_g = _norm(gv, wts, p2)
    # support of the convolution extends to at most lo' .. 2*hi for the
    # built-in families (support of nu_{x,y} within [|x-y|, x+y] or decaying)
    cxs, cxw = map(np.ravel, quadrature.gl_panels(
        np.linspace(lo, 2.0 * hi, n_panels + 1)))
    with np.errstate(all="ignore"):
        crv = np.asarray(prob.r_val(cxs), dtype=float) * np.ones_like(cxs)
    conv_vals = convolve_functions(family, h, g, cxs, support,
                                   n_panels=n_panels)
    norm_conv = _norm(conv_vals, cxw * crv, s)
    bound = norm_h * norm_g
    return {
        "s": float(s), "p1": float(p1), "p2": float(p2),
        "norm_h": norm_h, "norm_g": norm_g, "norm_conv": norm_conv,
        "bound": bound,
        "ok": bool(norm_conv <= bound * (1.0 + 1e-6)),
    }
