"""Finite-measure representation: atoms + sampled density segments, CDF
construction, the generalized inverse used by the walk sampler, and JSON
serialization.

Densities are stored as grid samples w.r.t. Lebesgue measure on the
segment, interpolated linearly; all cumulative operations are exact for
that representation.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = ["Segment", "MeasureRepr", "CDF", "dirac", "total_mass", "build_cdf",
           "quantile", "sample", "scale", "cells_to_segments", "merge_parts",
           "merge_measures", "measure_to_dict", "measure_from_dict"]


@dataclass(frozen=True)
class Segment:
    l: float
    u: float
    grid: np.ndarray          # sorted, grid[0] = l, grid[-1] = u
    density: np.ndarray       # nonnegative samples w.r.t. dx

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        d = np.asarray(self.density, dtype=float)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)
        if g.ndim != 1 or g.shape != d.shape or len(g) < 2:
            raise errors.ParamOutOfRange("segment grid/density shape mismatch")
        if np.any(np.diff(g) <= 0):
            raise errors.ParamOutOfRange("segment grid must be increasing")
        if np.any(d < -1e-12 * max(1.0, np.max(np.abs(d)))):
            raise errors.NegativeDensity("segment density negative")

    def mass(self):
        return float(np.trapezoid(np.maximum(self.density, 0.0), self.grid))


@dataclass(frozen=True)
class MeasureRepr:
    atoms: tuple = ()         # ((loc, mass), ...)
    segments: tuple = ()      # (Segment, ...)
    meta: str = ""

    def __post_init__(self):
        atoms = tuple((float(l), float(m)) for l, m in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", tuple(self.segments))
        for _, m in atoms:
            if m < 0:
                raise errors.ParamOutOfRange("atom mass must be positive")


def dirac(loc, mass=1.0, meta="dirac"):
    return MeasureRepr(atoms=((float(loc), float(mass)),), meta=meta)


def total_mass(mu):
    return (sum(m for _, m in mu.atoms)
            + sum(seg.mass() for seg in mu.segments))


def scale(mu, c):
    c = float(c)
    if c < 0:
        raise errors.ParamOutOfRange("scale factor must be nonnegative")
    return MeasureRepr(
        atoms=tuple((l, c * m) for l, m in mu.atoms),
        segments=tuple(Segment(s.l, s.u, s.grid, c * s.density)
                       for s in mu.segments),
        meta=mu.meta)


# ---------------------------------------------------------------------------
# CDF and generalized inverse

@dataclass(frozen=True)
class CDF:
    """Piecewise representation of the cumulative function: cell k covers
    (edges_lo[k], edges_hi[k]] with cumulative F[k] -> F[k+1]; atom cells
    have zero width, density cells carry linear density d0 -> d1."""
    edges_lo: np.ndarray
    edges_hi: np.ndarray
    F: np.ndarray             # length n_cells + 1
    d0: np.ndarray
    d1: np.ndarray
    floor: float              # the left endpoint a (Phi floor)

    @property
    def mass(self):
        return float(self.F[-1])


def build_cdf(mu, floor=0.0):
    """The CDF of mu: atoms as zero-width cells, then every segment's grid
    cells, in one stable order by position with atoms first at a tie."""
    atoms = np.asarray(mu.atoms, dtype=float).reshape(-1, 2)
    grids = [s.grid for s in mu.segments]
    dens = [np.maximum(s.density, 0.0) for s in mu.segments]
    zeros = np.zeros(len(atoms))
    lo = np.concatenate([atoms[:, 0]] + [g[:-1] for g in grids])
    hi = np.concatenate([atoms[:, 0]] + [g[1:] for g in grids])
    d0 = np.concatenate([zeros] + [d[:-1] for d in dens])
    d1 = np.concatenate([zeros] + [d[1:] for d in dens])
    masses = 0.5 * (d0 + d1) * (hi - lo)
    masses[:len(atoms)] = atoms[:, 1]
    order = np.lexsort((np.arange(len(lo)) >= len(atoms), lo))
    F = np.concatenate([[0.0], np.cumsum(masses[order])])
    return CDF(edges_lo=lo[order], edges_hi=hi[order], F=F,
               d0=d0[order], d1=d1[order], floor=float(floor))


def quantile(cdf, u):
    """Generalized inverse Phi(u) = max(floor, sup{z : F(z) < u*mass});
    u in [0,1] relative to the total mass.  Vectorized."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    uv = np.atleast_1d(u)
    if np.any(uv < 0.0) or np.any(uv > 1.0):
        raise errors.ParamOutOfRange("quantile argument must lie in [0,1]")
    if len(cdf.F) == 1:
        out = np.full(uv.shape, cdf.floor)
        return float(out[0]) if scalar else out
    target = uv * cdf.mass
    # first cell whose cumulative end reaches the target
    idx = np.searchsorted(cdf.F[1:], target, side="left")
    idx = np.clip(idx, 0, len(cdf.edges_lo) - 1)
    out = np.empty_like(uv)
    width = cdf.edges_hi[idx] - cdf.edges_lo[idx]
    atomic = width == 0.0
    out[atomic] = cdf.edges_lo[idx][atomic]
    dens = ~atomic
    if np.any(dens):
        i = idx[dens]
        rem = target[dens] - cdf.F[i]
        x0 = cdf.edges_lo[i]
        h = cdf.edges_hi[i] - x0
        a0 = cdf.d0[i]
        a1 = cdf.d1[i]
        # solve a0*s + (a1-a0) s^2 / (2h) = rem for s in [0, h]
        qa = (a1 - a0) / (2.0 * h)
        s = np.empty_like(rem)
        lin = np.abs(qa) * h <= 1e-14 * np.maximum(a0, 1e-300)
        with np.errstate(all="ignore"):
            s_lin = rem / np.where(a0 > 0, a0, np.inf)
            disc = np.maximum(a0 * a0 + 4.0 * qa * rem, 0.0)
            s_quad = np.where(qa != 0.0,
                              (np.sqrt(disc) - a0) / (2.0 * qa), s_lin)
        s = np.where(lin, s_lin, s_quad)
        # a target at the cell's cumulative end is its right edge exactly:
        # where the density vanishes there, rounding in rem moves s by
        # the square root of an ulp
        out[dens] = np.where(target[dens] >= cdf.F[i + 1], cdf.edges_hi[i],
                             x0 + np.clip(s, 0.0, h))
    out[target <= 0.0] = cdf.floor
    out = np.maximum(out, cdf.floor)
    return float(out[0]) if scalar else out


def sample(mu, n, rng, floor=0.0):
    """n iid samples from the probability measure mu."""
    cdf = build_cdf(mu, floor=floor)
    if abs(cdf.mass - 1.0) > 1e-6:
        raise errors.MassDeficit("sampling requires a probability measure "
                                 "(mass=%g)" % cdf.mass)
    return quantile(cdf, rng.uniform(0.0, 1.0, size=n))


# ---------------------------------------------------------------------------
# combination

def cells_to_segments(edges, masses, dens):
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
        segs.append(Segment(x0[i], x1[j - 1], grid, vals))
    return tuple(segs)


def merge_parts(atoms, blocks, grid_points=800):
    """The sum of atoms ((loc, mass) rows) and (Segment, weight) blocks.
    Atoms equal to 12 decimals add in the order given.  Densities are cut
    at every segment end, so the covering set is constant on each output
    segment and the piecewise-linear densities add exactly (a jump between
    touching segments lands on a segment boundary instead of being averaged
    away).  Each output segment's grid is its ends, the covering segments'
    grid points and the points of a grid_points-point fill of the support
    that fall inside."""
    locs, masses = np.concatenate(
        [np.empty((0, 2))] + [a.reshape(-1, 2) for a in atoms]).T
    raw, at = np.unique(locs, return_inverse=True)
    keys, key = np.unique([round(v, 12) for v in raw.tolist()],
                          return_inverse=True)
    mass = np.bincount(key[at], weights=masses, minlength=len(keys))
    pos = mass > 0.0
    atoms = tuple(zip(keys[pos].tolist(), mass[pos].tolist()))
    if not blocks:
        return MeasureRepr(atoms=atoms, meta="merge")
    starts = np.array([s.grid[0] for s, _ in blocks])
    stops = np.array([s.grid[-1] for s, _ in blocks])
    lo, hi = starts.min(), stops.max()
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    # cuts: every segment end, an end within tol of the previous a duplicate
    cuts = np.unique(np.concatenate([starts, stops]))
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > tol])]
    # segment k covers the output intervals [ka[k], kb[k])
    ka = np.searchsorted(cuts, starts - tol, side="left")
    kb = np.maximum(ka, np.searchsorted(cuts, stops + tol, side="right") - 1)
    depth = np.cumsum(np.bincount(ka, minlength=len(cuts))
                      - np.bincount(kb, minlength=len(cuts)))
    covered = np.flatnonzero(depth[:-1] > 0)
    pts = np.unique(np.concatenate([cuts, np.linspace(lo, hi, grid_points)]
                                   + [s.grid for s, _ in blocks]))
    at = np.searchsorted(pts, cuts)
    # the output grid: interval k holds pts[at[k] : at[k+1] + 1], laid end
    # to end (an end shared by two intervals appears in both)
    sizes = np.zeros(len(cuts) - 1, dtype=int)
    sizes[covered] = at[covered + 1] - at[covered] + 1
    off = np.concatenate([[0], np.cumsum(sizes)])
    first = np.repeat(at[:-1] - off[:-1], sizes)
    grid = pts[first + np.arange(off[-1])]
    dens = np.zeros(off[-1])
    for (s, wgt), a, b in zip(blocks, ka, kb):
        part = slice(off[a], off[b])
        dens[part] += wgt * np.interp(grid[part], s.grid, s.density)
    segments = tuple(
        Segment(l=float(cuts[k]), u=float(cuts[k + 1]),
                grid=grid[off[k]:off[k + 1]], density=dens[off[k]:off[k + 1]])
        for k in covered)
    return MeasureRepr(atoms=atoms, segments=segments, meta="merge")


def merge_measures(measures, weights=None, grid_points=800):
    """Weighted sum of measures (weights default to 1), by merge_parts."""
    if weights is None:
        weights = [1.0] * len(measures)
    parts = [(mu, wgt) for mu, wgt in zip(measures, weights) if wgt != 0.0]
    return merge_parts(
        [np.reshape(mu.atoms, (-1, 2)) * (1.0, wgt) for mu, wgt in parts],
        [(s, wgt) for mu, wgt in parts for s in mu.segments], grid_points)


# ---------------------------------------------------------------------------
# serialization

def measure_to_dict(mu):
    return {
        "atoms": [[loc, m] for loc, m in mu.atoms],
        "segments": [{"l": s.l, "u": s.u,
                      "grid": list(map(float, s.grid)),
                      "density": list(map(float, s.density))}
                     for s in mu.segments],
    }


def measure_from_dict(d):
    atoms = tuple((float(l), float(m)) for l, m in d.get("atoms", []))
    segments = tuple(
        Segment(l=float(s["l"]), u=float(s["u"]),
                grid=np.asarray(s["grid"], dtype=float),
                density=np.asarray(s["density"], dtype=float))
        for s in d.get("segments", []))
    return MeasureRepr(atoms=atoms, segments=segments, meta="loaded")


def measure_to_json(mu, path=None):
    d = measure_to_dict(mu)
    if path is None:
        return json.dumps(d)
    with open(path, "w") as fh:
        json.dump(d, fh)
    return None


def measure_from_json(src):
    if isinstance(src, str) and src.lstrip().startswith("{"):
        return measure_from_dict(json.loads(src))
    with open(src) as fh:
        return measure_from_dict(json.load(fh))
