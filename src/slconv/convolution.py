"""Generalized convolution of measures and functions, generalized
translation, product-formula verification, and the Young inequality
check."""

from dataclasses import dataclass, replace

import numpy as np

from . import errors, families, measures, quadrature

__all__ = ["ConvCfg", "ConvReport", "convolve_measures", "translate",
           "convolve_functions", "verify_product_formula", "young_check"]

_SEG_NODES = 16                 # point-mass panels per density segment
_PANELS = 32                    # Gauss-Legendre panels over a support
_PAIR_BLOCK = 64                # support pairs per law call with cells


@dataclass(frozen=True)
class ConvCfg:
    max_pairs: int = 512        # budget on (x, y) support pairs


@dataclass(frozen=True)
class ConvReport:
    lambda_grid: np.ndarray
    lhs: np.ndarray             # w_lam(x) * w_lam(y)
    rhs: np.ndarray             # integral of w_lam against the measure
    max_abs_err: float
    mass: float


def _measure_point_masses(mu):
    """Measure reduced to weighted point masses: atoms exact; a density
    segment as 12-point Gauss-Legendre nodes on at most _SEG_NODES panels
    over its grid, weighted by the segment's own linear density and
    scaled so each panel carries its exact trapezoid mass."""
    rows = [tuple(mu.atoms.T)]
    for seg in mu.segments:
        g, d = seg.grid, np.maximum(seg.density, 0.0)
        idx = np.unique(np.linspace(0, len(g) - 1,
                                    min(len(g), _SEG_NODES + 1)).astype(int))
        nodes, w = quadrature.gl_panels(g[idx])
        w = w * np.interp(nodes, g, d)
        cum = np.concatenate([[0.0],
                              np.cumsum(0.5 * (d[:-1] + d[1:]) * np.diff(g))])
        got = w.sum(axis=1)
        w *= np.divide(np.diff(cum[idx]), got, out=np.zeros_like(got),
                       where=got > 0.0)[:, None]
        rows.append((nodes.ravel(), w.ravel()))
    return tuple(np.concatenate(c) for c in zip(*rows))


def convolve_measures(family, mu, nu, cfg=ConvCfg()):
    """Mixture construction of the measure convolution: both measures are
    reduced to point masses, and the product of the two supports maps
    pairwise through the family's two-point convolution measures.  A
    law is atomic for every pair or for none: the first conv_sampled
    call takes _PAIR_BLOCK pairs, and if it returns no cells one more
    call takes all the rest; a law with cells keeps _PAIR_BLOCK pairs
    per call (bounding the cells held at once).  Each block's cells,
    times their pairs' weights, become polylines by
    measures.cell_polylines, with no Segment per pair (a pair of weight
    0 keeps no cell), and one merge_parts adds every pair's atoms and
    densities exactly.  Result mass = mass(mu) * mass(nu)."""
    xs, xw = _measure_point_masses(mu)
    ys, yw = _measure_point_masses(nu)
    n_pairs = len(xs) * len(ys)
    if n_pairs > cfg.max_pairs:
        raise errors.GridOverflow(
            "convolution mixture needs %d support pairs (budget %d)"
            % (n_pairs, cfg.max_pairs))
    x, y = (v.ravel() for v in
            families.convolution_pairs(family, xs[:, None], ys))
    w = np.outer(xw, yw).ravel()
    atoms, lines, i = [], [], 0
    while i < n_pairs:
        # after an atomic first block, one call takes the rest
        blk = slice(i, n_pairs if atoms and not lines else i + _PAIR_BLOCK)
        pair_atoms, cells = family.conv_sampled(x[blk], y[blk])
        locs, masses = np.array(pair_atoms).transpose(1, 2, 0)
        atoms.append(np.stack((locs, w[blk, None] * masses), axis=-1))
        if cells is not None:
            edges, masses, dens = cells
            with np.errstate(invalid="ignore"):     # 0 * inf: no cell kept
                lines.append(measures.cell_polylines(
                    edges, w[blk, None] * masses, w[blk, None] * dens))
        i = blk.stop
    return measures.merge_parts(atoms, lines)


def translate(family, h, y, x_grid):
    """Generalized translation (T^y h)(x) = integral of h against the
    two-point convolution measure, sampled on x_grid: one rule for all
    the pairs (x, y) and one call of h on its nodes and atoms."""
    nodes, wts = families.rule_table(*families.family_convolution_quadrature(
        family, np.asarray(x_grid, dtype=float), y))
    return np.sum(wts * np.asarray(h(nodes), dtype=float), axis=-1)


def _r_panels(problem, lo, hi):
    """_PANELS 12-point Gauss-Legendre panels on [lo, hi]: (nodes, w r)."""
    nodes, wts = map(np.ravel, quadrature.gl_panels(
        np.linspace(lo, hi, _PANELS + 1)))
    return nodes, wts * problem.r_val(nodes)


def convolve_functions(family, h, g, x_grid, y_support):
    """(h * g)(x) = integral over y of (T^y h)(x) g(y) r(y) dy, sampled on
    x_grid.  y_support bounds the effective support of g."""
    ys, yw = _r_panels(family.problem, *y_support)
    # one translation over the x grid per y node where g r is nonzero
    return sum((c * translate(family, h, float(yv), x_grid)
                for yv, c in zip(ys, yw * np.asarray(g(ys), dtype=float))
                if c != 0.0), np.zeros(len(x_grid)))


def verify_product_formula(family, x, y, lambda_grid, use_closed_kernel=False):
    """ConvReport comparing w_lam(x) w_lam(y) with the transform of the
    two-point convolution measure over lambda_grid, on the family's closed
    kernel if use_closed_kernel (and it has one), on the numeric kernel
    otherwise, whichever the family prefers."""
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    nodes, wts = families.rule_table(
        *families.family_convolution_quadrature(family, x, y))
    wv = replace(family, prefer_closed_kernel=use_closed_kernel).kernel(
        lambda_grid, np.concatenate([[x], [y], nodes]))
    lhs = wv[:, 0] * wv[:, 1]
    rhs = wv[:, 2:] @ wts
    return ConvReport(lambda_grid=lambda_grid, lhs=lhs, rhs=rhs,
                      max_abs_err=float(np.max(np.abs(lhs - rhs))),
                      mass=float(np.sum(wts)))


def _norm(vals, weights, p):
    vals = np.abs(np.asarray(vals, dtype=float)) * np.ones_like(weights)
    if np.isinf(p):
        return float(np.max(vals))
    return float(np.sum(weights * vals ** p) ** (1.0 / p))


def young_check(family, h, g, p1, p2, support=(0.0, 6.0)):
    """Young inequality ||h * g||_s <= ||h||_p1 ||g||_p2 with
    1/s = 1/p1 + 1/p2 - 1 (norms weighted by r(x) dx)."""
    inv_s = 1.0 / p1 + 1.0 / p2 - 1.0
    if inv_s < -1e-12 or inv_s > 1.0 + 1e-12:
        raise errors.ExponentMismatch(
            "Young exponents need 1 <= 1/p1 + 1/p2 <= 2")
    s = np.inf if inv_s <= 1e-12 else 1.0 / inv_s
    lo, hi = support
    xs, wts = _r_panels(family.problem, lo, hi)
    norm_h = _norm(h(xs), wts, p1)
    norm_g = _norm(g(xs), wts, p2)
    # support of the convolution extends to at most lo' .. 2*hi for the
    # built-in families (support of nu_{x,y} within [|x-y|, x+y] or decaying)
    cxs, cw = _r_panels(family.problem, lo, 2.0 * hi)
    norm_conv = _norm(convolve_functions(family, h, g, cxs, support), cw, s)
    bound = norm_h * norm_g
    return {
        "s": float(s), "p1": float(p1), "p2": float(p2),
        "norm_h": norm_h, "norm_g": norm_g, "norm_conv": norm_conv,
        "bound": bound,
        "ok": bool(norm_conv <= bound * (1.0 + 1e-6)),
    }
