"""Finite-measure representation: atoms + sampled density segments, CDF
construction, the generalized inverse used by the walk sampler, sums of
measures, and JSON serialization.

Densities are stored as grid samples w.r.t. Lebesgue measure on the
segment, interpolated linearly; all cumulative operations are exact for
that representation.  Sums are too: a sum of piecewise-linear densities
is piecewise linear on the union of their knots, and merge_parts builds
it from the parts' own knots (a kink sum), with no resampling and no
fill grid.  Sampled cells become densities by one cell rule,
cell_polylines."""

import json
from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = ["Segment", "MeasureRepr", "CDF", "dirac", "total_mass", "build_cdf",
           "quantile", "sample", "scale", "cell_polylines",
           "cells_to_segments", "merge_parts", "merge_measures",
           "measure_to_dict", "measure_from_dict"]


@dataclass(frozen=True, eq=False)
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
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(d))):
            raise errors.ParamOutOfRange("segment grid and density must be "
                                         "finite")
        if np.any(np.diff(g) <= 0):
            raise errors.ParamOutOfRange("segment grid must be increasing")
        if not (self.l == g[0] and self.u == g[-1]):
            raise errors.ParamOutOfRange(
                "segment ends (%g, %g) must be its grid's ends (%g, %g)"
                % (self.l, self.u, g[0], g[-1]))
        if np.any(d < -1e-12 * max(1.0, np.max(np.abs(d)))):
            raise errors.NegativeDensity("segment density negative")

    def mass(self):
        return float(np.trapezoid(np.maximum(self.density, 0.0), self.grid))


@dataclass(frozen=True, eq=False)
class MeasureRepr:
    """A finite measure: atoms, a read-only (n, 2) float array of (loc,
    mass) rows in the order given (any sequence of pairs converts), plus
    density segments.  Locs and masses must be finite, masses >= 0.
    Measures compare by identity, as Segments do."""
    atoms: np.ndarray = ()
    segments: tuple = ()      # (Segment, ...)
    meta: str = ""

    def __post_init__(self):
        try:
            atoms = np.array(self.atoms, dtype=float)
        except (TypeError, ValueError) as exc:
            raise errors.ParamOutOfRange("atoms must be (loc, mass) pairs: "
                                         "%s" % exc) from None
        if not atoms.size:
            atoms = atoms.reshape(0, 2)
        if atoms.ndim != 2 or atoms.shape[1] != 2:
            raise errors.ParamOutOfRange("atoms must be (loc, mass) pairs")
        if not np.all(np.isfinite(atoms)):
            raise errors.ParamOutOfRange("atom loc and mass must be finite")
        if np.any(atoms[:, 1] < 0.0):
            raise errors.ParamOutOfRange("atom mass must be positive")
        atoms.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "segments", tuple(self.segments))


def dirac(loc, mass=1.0, meta="dirac"):
    return MeasureRepr(atoms=((float(loc), float(mass)),), meta=meta)


def total_mass(mu):
    return (sum(mu.atoms[:, 1].tolist())
            + sum(seg.mass() for seg in mu.segments))


def scale(mu, c):
    c = float(c)
    if c < 0:
        raise errors.ParamOutOfRange("scale factor must be nonnegative")
    return MeasureRepr(
        atoms=mu.atoms * (1.0, c),
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
    atoms = mu.atoms
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

def cell_polylines(edges, masses, dens):
    """The one cell rule, on sampled cells with any leading (pair) axes:
    each cell gets the knots (x0, mid, x1), the density at its edges
    (mass/width where that is not finite or over 50 times it) and the
    midpoint value that makes its trapezoid mass exact (flat if
    negative).  Returns the polyline (x, f, start) of every cell of
    positive mass and width, in order: adjoining cells whose shared edge
    values agree form one run, start marks the first knot of each run,
    and the edge two cells of a run share is one knot."""
    x0, x1 = edges[..., :-1], edges[..., 1:]
    keep = (masses > 0.0) & (x1 > x0)
    x0, x1, m = x0[keep], x1[keep], masses[keep]
    h = x1 - x0
    flat = m / h

    def edge_value(f):
        with np.errstate(invalid="ignore"):
            ok = np.isfinite(f) & (f >= 0.0) & ~(f > 50.0 * flat)
        return np.where(ok, f, flat)

    f0, f1 = edge_value(dens[..., :-1][keep]), edge_value(dens[..., 1:][keep])
    fm = 2.0 * m / h - 0.5 * (f0 + f1)
    neg = fm < 0.0
    f0, f1, fm = (np.where(neg, flat, f) for f in (f0, f1, fm))
    # a cell ends its run unless the next one starts where it stops with
    # the same value; its knots are x0, mid and, at a run's end, x1
    last = np.append((x1[:-1] != x0[1:]) | (f1[:-1] != f0[1:]), True)
    knot = np.ones((len(x0), 3), dtype=bool)
    knot[:, 2] = last
    start = np.zeros_like(knot)
    start[:, 0] = np.append(True, last[:-1])
    return (np.column_stack((x0, 0.5 * (x0 + x1), x1))[knot],
            np.column_stack((f0, fm, f1))[knot], start[knot])


def cells_to_segments(edges, masses, dens):
    """Mass-exact piecewise-linear segments of one pair's sampled cells:
    one Segment per run of cell_polylines, its knots as grid."""
    x, f, start = cell_polylines(edges, masses, dens)
    runs = np.flatnonzero(start)
    return tuple(Segment(g[0], g[-1], g, d) for g, d in
                 zip(np.split(x, runs)[1:], np.split(f, runs)[1:]))


def _exact_split(t):
    """Split t in place into hi + lo: hi, returned, on the grid of one
    power of two q so coarse that every partial sum of hi terms is exact;
    lo, left in t, at most q/2 in size."""
    hi = np.abs(t)
    q = 2.0 ** (np.frexp(hi.sum())[1] - 50)
    np.divide(t, q, out=hi)
    np.round(hi, out=hi)
    hi *= q
    t -= hi
    return hi


def _kink_sum(lines):
    """The segments of a sum of polylines (x, f, start): knots x, values
    f, start marking the first knot of each run; x increases within a
    run, and a repeated knot is a jump.  The sum is piecewise linear on
    the union of the knots.  At each distinct knot, the runs that start
    or end there change its value and coverage, and the pieces that start
    or end there change its slope; prefix sums of these changes give the
    value on each side of every knot.  The slopes are split
    (_exact_split) before they are binned, so a steep piece leaves
    nothing in the running slope once it ends.  One Segment per covered
    stretch, cut where the value jumps.  Each del frees an array once it
    is used, so the merge's peak memory stays near its inputs' own."""
    x, f, start = (np.concatenate(c) for c in zip(*lines))
    if not len(x):
        return ()
    start |= np.append(True, x[1:] == x[:-1])
    end = np.append(start[1:], True)
    f_start, f_end = f[start], f[end]
    # the slope of the piece from each knot to the next, 0 at a run's end
    inside = ~end[:-1]
    slope = np.zeros(len(x))
    np.subtract(f[1:], f[:-1], out=slope[:-1], where=inside)
    del f
    np.divide(slope[:-1], np.diff(x), out=slope[:-1], where=inside)
    grid = np.unique(x)
    k = len(grid)
    rank = np.searchsorted(grid, x)
    del x

    def running(w):         # prefix sums of w binned by knot
        b = np.bincount(rank, w, k)
        return np.cumsum(b, out=b)

    # the slope right of each knot, from the changes of the hi and the lo
    # parts of the piece slopes apart
    hi = _exact_split(slope)
    hi[1:] -= hi[:-1]
    slope[1:] -= slope[:-1]
    hi = running(hi)
    hi += running(slope)
    slope = hi
    rs, re = rank[start], rank[end]
    del hi, rank
    covered = np.cumsum(np.bincount(rs, minlength=k)
                        - np.bincount(re, minlength=k)) > 0
    jumps = np.bincount(rs, f_start, k) - np.bincount(re, f_end, k)
    # the value just right of each knot: prefix sums of the jumps and of
    # slope times width, split as the slopes are
    right = np.zeros(k)
    np.subtract(grid[1:], grid[:-1], out=right[1:])
    right[1:] *= slope[:-1]
    del slope
    right += jumps
    hi = _exact_split(right)
    np.cumsum(right, out=right)
    right += np.cumsum(hi, out=hi)
    del hi
    # segments cover stretches of covered intervals, cut at each jump
    was = np.append(False, covered[:-1])
    cut = jumps != 0.0
    first = np.flatnonzero(covered & (~was | cut))
    last = np.flatnonzero(was & (~covered | cut))
    left = right[last] - jumps[last]    # the value just left of an end
    return tuple(Segment(grid[a], grid[b], grid[a:b + 1],
                         np.append(right[a:b], fb))
                 for a, b, fb in zip(first, last, left))


def _merge_key(v):
    """round(v, 12) of each entry of the array v, bit for bit, as
    rint(v * 1e12) / 1e12 except where the two can differ.  Rounding is
    monotonic and k + 1/2 is a double for |k| < 2^52, so t = fl(v * 1e12)
    lies in [k - 1/2, k + 1/2] when v * 10^12 does, and rint(t) = k
    unless t is an end; then k / 1e12, both exact, rounds to the double
    nearest k / 10^12, as round does.  Python's round takes the rest:
    t a half-integer, or |t| >= 2^52."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = v * 1e12
        odd = (np.abs(t) >= 2.0 ** 52) | (t - np.floor(t) == 0.5)
    keys = np.rint(t) / 1e12
    keys[odd] = [round(x, 12) for x in v[odd].tolist()]
    return keys


def merge_parts(atoms, lines):
    """The sum of atoms (arrays of (loc, mass) along their last axis) and
    density polylines ((x, f, start) as cell_polylines gives them,
    weights already in f).  Atoms of positive mass equal to 12 decimals
    (_merge_key) add in the order given; the densities add exactly, on the
    union of their knots (_kink_sum)."""
    rows = np.concatenate(
        [np.empty((0, 2))] + [a.reshape(-1, 2) for a in atoms])
    locs, masses = rows[rows[:, 1] > 0.0].T
    keys, key = np.unique(_merge_key(locs), return_inverse=True)
    mass = np.bincount(key, weights=masses, minlength=len(keys))
    segments = _kink_sum(lines) if lines else ()
    return MeasureRepr(atoms=np.column_stack((keys, mass)),
                       segments=segments, meta="merge")


def merge_measures(measures, weights=None):
    """Weighted sum of measures (weights default to 1): one merge_parts
    call, each segment a polyline of one run on its own grid, its density
    times its measure's weight."""
    if weights is None:
        weights = [1.0] * len(measures)
    parts = [(mu, wgt) for mu, wgt in zip(measures, weights) if wgt != 0.0]
    return merge_parts(
        [mu.atoms * (1.0, wgt) for mu, wgt in parts],
        [(s.grid, wgt * s.density, np.arange(len(s.grid)) == 0)
         for mu, wgt in parts for s in mu.segments])


# ---------------------------------------------------------------------------
# serialization

def measure_to_dict(mu):
    return {
        "atoms": mu.atoms.tolist(),
        "segments": [{"l": s.l, "u": s.u,
                      "grid": list(map(float, s.grid)),
                      "density": list(map(float, s.density))}
                     for s in mu.segments],
    }


def measure_from_dict(d):
    segments = tuple(
        Segment(l=float(s["l"]), u=float(s["u"]),
                grid=np.asarray(s["grid"], dtype=float),
                density=np.asarray(s["density"], dtype=float))
        for s in d.get("segments", []))
    return MeasureRepr(atoms=d.get("atoms", ()), segments=segments,
                       meta="loaded")


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
