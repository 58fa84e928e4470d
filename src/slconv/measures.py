"""Finite-measure representation: atoms + sampled density segments, CDF
construction, the generalized inverse used by the walk sampler, and JSON
serialization.

Densities are stored as grid samples w.r.t. Lebesgue measure on the
segment, interpolated linearly; all cumulative operations are exact for
that representation.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import errors

__all__ = ["Segment", "MeasureRepr", "CDF", "dirac", "total_mass",
           "build_cdf", "quantile", "sample", "scale", "merge_measures",
           "measure_to_dict", "measure_from_dict"]


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
    events = []
    for loc, m in mu.atoms:
        events.append((loc, "atom", m, None))
    for seg in mu.segments:
        g, d = seg.grid, np.maximum(seg.density, 0.0)
        piece = 0.5 * (d[:-1] + d[1:]) * np.diff(g)
        for i in range(len(g) - 1):
            events.append((g[i], "cell", float(piece[i]),
                           (g[i], g[i + 1], float(d[i]), float(d[i + 1]))))
    events.sort(key=lambda e: (e[0], e[1] == "cell"))
    lo, hi, masses, dd0, dd1 = [], [], [], [], []
    for pos, kind, m, extra in events:
        if kind == "atom":
            lo.append(pos)
            hi.append(pos)
            masses.append(m)
            dd0.append(0.0)
            dd1.append(0.0)
        else:
            g0, g1, a0, a1 = extra
            lo.append(g0)
            hi.append(g1)
            masses.append(m)
            dd0.append(a0)
            dd1.append(a1)
    F = np.concatenate([[0.0], np.cumsum(masses)]) if masses else \
        np.array([0.0])
    return CDF(edges_lo=np.asarray(lo), edges_hi=np.asarray(hi), F=F,
               d0=np.asarray(dd0), d1=np.asarray(dd1), floor=float(floor))


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

def _coalesce_blocks(segments, tol):
    """Join a measure's contiguous segments (cells sharing an endpoint,
    where the shared density value agrees) into single blocks."""
    if not segments:
        return []
    segs = sorted(segments, key=lambda s: s.l)
    blocks = []
    grid = [segs[0].grid]
    dens = [segs[0].density]
    for s in segs[1:]:
        if abs(s.l - float(grid[-1][-1])) <= tol:
            grid.append(s.grid[1:])
            dens.append(s.density[1:])
        else:
            blocks.append((np.concatenate(grid), np.concatenate(dens)))
            grid, dens = [s.grid], [s.density]
    blocks.append((np.concatenate(grid), np.concatenate(dens)))
    return blocks


def merge_measures(measures, weights=None, grid_points=800):
    """Weighted sum of measures.  Atoms at (nearly) equal locations are
    combined.  Density segments are split at every block boundary so the
    covering set is constant on each output segment; the piecewise-linear
    densities then add exactly (jumps between touching blocks land on
    segment boundaries instead of being averaged away)."""
    if weights is None:
        weights = [1.0] * len(measures)
    atom_map = {}
    blocks = []                  # (grid, density, weight)
    lo = np.inf
    hi = -np.inf
    for mu, wgt in zip(measures, weights):
        if wgt == 0.0:
            continue
        for loc, m in mu.atoms:
            key = round(loc, 12)
            atom_map[key] = atom_map.get(key, 0.0) + wgt * m
        if mu.segments:
            lo = min(lo, min(s.l for s in mu.segments))
            hi = max(hi, max(s.u for s in mu.segments))
    atoms = tuple(sorted((loc, m) for loc, m in atom_map.items() if m > 0))
    if not np.isfinite(lo):
        return MeasureRepr(atoms=atoms, meta="merge")
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    for mu, wgt in zip(measures, weights):
        if wgt == 0.0:
            continue
        for g, d in _coalesce_blocks(mu.segments, tol):
            blocks.append((g, d, wgt))
    # breakpoints: all block endpoints (deduplicated)
    cuts = []
    for g, _, _ in blocks:
        cuts.extend((float(g[0]), float(g[-1])))
    cuts = sorted(set(cuts))
    dedup = [cuts[0]]
    for c in cuts[1:]:
        if c - dedup[-1] > tol:
            dedup.append(c)
    cuts = dedup
    fill = np.linspace(lo, hi, grid_points)
    segments = []
    for b0, b1 in zip(cuts[:-1], cuts[1:]):
        cover = [(g, d, w) for g, d, w in blocks
                 if g[0] <= b0 + tol and g[-1] >= b1 - tol]
        if not cover:
            continue
        pts = {b0, b1}
        pts.update(float(f) for f in fill if b0 < f < b1)
        for g, _, _ in cover:
            pts.update(float(v) for v in g if b0 < v < b1)
        grid = np.array(sorted(pts))
        dens = np.zeros_like(grid)
        for g, d, w in cover:
            dens += w * np.interp(grid, g, d)
        segments.append(Segment(l=float(b0), u=float(b1),
                                grid=grid, density=dens))
    return MeasureRepr(atoms=atoms, segments=tuple(segments), meta="merge")


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
