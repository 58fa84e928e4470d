"""Generalized integral transform against the eigenfunction kernel:
forward transform of functions and finite measures, and spectral
synthesis against a family-supplied spectral measure.

`synthesize` is the single tau-window driver: every sum over the spectral
measure (inverse transform, Cauchy field, semigroup and diffusion
densities) is its bilinear sum of c(lam) w_lam(x) w_lam(y) over two point
sets, and since w_lam(a) = 1 the one-sided sums are its x = a row.  It
evaluates each window in blocks of at most LAMBDA_BLOCK lam values:
coef(lams) returns one real coefficient per lam, shape (L,) (e.g.
exp(-t lam), or the transform (Fh)(lam)); the block then takes one
family.kernel call over the union of the two point sets and one matmul.
The block bound caps the memory of a window's kernel table.
`forward_transform` takes an array of lam the same way, on one shared x
quadrature per window.  Every function takes a families.Family and gets
kernel values from family.kernel, closed form or numeric."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, quadrature

__all__ = ["SpectralMeasure", "SynthesisStop", "forward_transform",
           "measure_transform", "synthesize", "inverse_transform"]

TAU0 = 8.0           # the first tau window is [0, TAU0]
NOISE_FLOOR = 1e-4   # a stalled tail this small (relative) ends synthesis
LAMBDA_BLOCK = 64    # most lam values per coef and kernel call of synthesize
MAX_WINDOWS = 28     # most tau windows synthesize adds after the first
_MAX_DOUBLINGS = 24  # x windows forward_transform adds on a half-line
_FORWARD_TOL = 1e-11  # forward_transform's x tail, relative to the sum
_INVERSE_TOL = 1e-9   # inverse_transform's tau tail, relative to scale


@dataclass(frozen=True)
class SpectralMeasure:
    """Plancherel measure of a transform pair, parameterized by tau with
    lambda = tau^2 + lam_shift; tau_density is the density w.r.t. d(tau)
    on tau > 0.  atoms are (lambda_i, mass_i) pairs."""
    tau_density: object
    lam_shift: float = 0.0
    atoms: tuple = ()

    def density(self, lam):
        """Density w.r.t. d(lambda) on lam > lam_shift."""
        lam = np.asarray(lam, dtype=float)
        tau = np.sqrt(np.maximum(lam - self.lam_shift, 0.0))
        with np.errstate(all="ignore"):
            out = np.where(tau > 0.0, self.tau_density(tau) / (2.0 * tau),
                           0.0)
        return out


@dataclass(frozen=True)
class SynthesisStop:
    """Why a synthesis ended: "tol" when the last tau window fell below
    tol * scale, "noise_floor" when the tail stalled at or below
    NOISE_FLOOR * scale (accuracy tol was then not reached).  tail_ratio
    is the last window's max |contribution| over the scale."""
    reason: str
    tail_ratio: float


def forward_transform(family, h, lam, x_support=None):
    """Integral of h(x) w_lam(x) r(x) dx over [a, b), for a scalar lam (a
    float) or an array of them (an array).  h is a callable; the
    integration window grows until the tail contribution of every lam is
    below _FORWARD_TOL of its sum (TailNotDecaying if it never is).  All
    lam share one x quadrature per window, its panel lengths resolving the
    local kernel wavelength pi / (tau sqrt(r/p)) of the largest tau."""
    problem = family.problem
    a, b = problem.a, problem.b
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    tau = math.sqrt(float(np.max(lams, initial=0.0)))

    def window_value(lo, hi):
        # panel sizing: resolve oscillation and keep enough panels
        n_base = 24
        edges = [lo]
        x = lo
        span = hi - lo
        while x < hi:
            dx = span / n_base
            if tau > 0.0:
                pr = problem.p_val(max(x, lo + 1e-12 * span))
                rr = problem.r_val(max(x, lo + 1e-12 * span))
                if pr > 0 and rr > 0 and np.isfinite(pr) and np.isfinite(rr):
                    dx = min(dx, 0.5 * math.pi / tau * math.sqrt(pr / rr))
            dx = max(dx, 1e-6 * span)
            x = min(x + dx, hi)
            edges.append(x)
        nodes, wts = map(np.ravel, quadrature.gl_panels(edges))
        with np.errstate(all="ignore"):
            rv = problem.r_val(nodes)
            hv = np.asarray(h(nodes), dtype=float) * np.ones_like(nodes)
            # in place: a window's (L, N) table is the largest array here
            contrib = family.kernel(lams, nodes)
            contrib *= hv
            contrib *= rv
        contrib[:, ~np.isfinite(rv)] = 0.0
        contrib *= wts
        return np.array([math.fsum(c.tolist()) for c in contrib])

    def result(total):
        return float(total[0]) if np.ndim(lam) == 0 else total

    if x_support is not None:
        lo, hi = x_support
        return result(window_value(max(lo, a),
                                   min(hi, b if np.isfinite(b) else hi)))

    hi = a + 1.0 if np.isinf(b) else b
    total = window_value(a, hi)
    if not np.isinf(b):
        return result(total)
    scale = np.maximum(np.abs(total), 1e-12)
    for _ in range(_MAX_DOUBLINGS):
        new_hi = a + 2.0 * (hi - a)
        tail = window_value(hi, new_hi)
        total += tail
        hi = new_hi
        scale = np.maximum(scale, np.abs(total))
        if np.all(np.abs(tail) < _FORWARD_TOL * scale):
            # one confirming extra octave
            tail2 = window_value(hi, a + 2.0 * (hi - a))
            total += tail2
            if np.all(np.abs(tail2) < _FORWARD_TOL * scale):
                return result(total)
            hi = a + 2.0 * (hi - a)
    raise errors.TailNotDecaying(
        "integrand tail did not fall below tolerance")


def measure_transform(family, mu, lam):
    """Transform of a finite measure: sum of mass * w_lam(loc) over atoms
    plus the integral of w_lam against each density segment (3-point
    Gauss-Legendre per cell of the segment's own grid, with the density
    linear on each cell, matching the measure's mass convention), from
    one kernel call and one exactly rounded sum."""
    u, _ = quadrature.gl_nodes(3)
    locs, wts = ([col] for col in np.reshape(mu.atoms, (-1, 2)).T)
    for seg in mu.segments:
        d = seg.density
        nodes, w = quadrature.gl_panels(seg.grid, 3)
        locs.append(nodes.ravel())
        wts.append((w * (d[:-1, None] + (d[1:] - d[:-1])[:, None] * u))
                   .ravel())
    wv = family.kernel([lam], np.concatenate(locs))[0]
    return math.fsum((np.concatenate(wts) * wv).tolist())


def synthesize(family, coef, xs, ys, tol, nodes_per_unit=1.5):
    """The table sum of coef(lam) w_lam(x) w_lam(y) over the family's
    spectral measure, for x in xs (rows) and y in ys (columns): the atoms,
    then tau windows [0, TAU0], then windows of width TAU0 / 2 growing by
    1.3, each with 12-point Gauss-Legendre panels, at least
    nodes_per_unit * max(|xs|, |ys|, 1) per unit of tau.  Stops when a
    window's largest contribution falls below tol times the largest value
    so far, or, once the tail stops decaying, at the noise floor (at or
    below NOISE_FLOOR times that scale); SlowDecay otherwise, or after
    MAX_WINDOWS windows.  coef takes an array of at most LAMBDA_BLOCK lam
    values; no kernel is evaluated for a lam whose weighted coefficient
    is 0.

    Returns (values, SynthesisStop), values of shape (len(xs), len(ys))."""
    sm = family.spectral
    if sm is None:
        raise errors.SpectralMeasureUnavailable(
            "family %r supplies no spectral measure" % (family.id,))
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    # one kernel table over both point sets, a shared point taken once
    pts, inv = np.unique(np.concatenate([xs, ys]), return_inverse=True)
    ix, iy = inv[:len(xs)], inv[len(xs):]
    x_max = max(float(np.max(np.abs(pts))), 1.0)

    def weighted_sum(lams, wts):
        acc = np.zeros((len(xs), len(ys)))
        for s in range(0, len(lams), LAMBDA_BLOCK):
            lb = lams[s:s + LAMBDA_BLOCK]
            c = wts[s:s + LAMBDA_BLOCK] * np.asarray(coef(lb), dtype=float)
            nz = c != 0.0
            if np.any(nz):
                w = family.kernel(lb[nz], pts)
                acc += (c[nz, None] * w[:, ix]).T @ w[:, iy]
        return acc

    atoms = np.asarray(sm.atoms, dtype=float).reshape(-1, 2)
    vals = weighted_sum(atoms[:, 0], atoms[:, 1])

    def window(t_lo, t_hi):
        n_panels = max(4, int(math.ceil((t_hi - t_lo) * nodes_per_unit
                                        * x_max)))
        tn, tw = map(np.ravel, quadrature.gl_panels(
            np.linspace(t_lo, t_hi, n_panels + 1)))
        dens = np.asarray(sm.tau_density(tn), dtype=float)
        acc = weighted_sum(tn * tn + sm.lam_shift, tw * dens)
        # tail size measured by the window's actual contribution: for
        # growing spectral densities the kernel decay is what makes the
        # integral converge, so a |w| <= 1 bound would never settle
        return acc, float(np.max(np.abs(acc)))

    t_hi = TAU0
    acc, _ = window(0.0, t_hi)
    vals += acc
    scale = max(float(np.max(np.abs(vals))), 1e-12)
    prev = np.inf
    width = 0.5 * TAU0
    for _ in range(MAX_WINDOWS):
        acc, budget = window(t_hi, t_hi + width)
        if budget < tol * scale:
            return vals + acc, SynthesisStop("tol", budget / scale)
        if budget >= 0.9 * prev:
            # tail stopped decaying: quadrature noise floor (amplified by
            # growing spectral densities); more windows only add noise
            if budget <= NOISE_FLOOR * scale:
                return vals, SynthesisStop("noise_floor", budget / scale)
            raise errors.SlowDecay(
                "spectral-synthesis tail stopped decaying while still "
                "large (noise floor %.2e of scale)" % (budget / scale))
        vals += acc
        prev = budget
        t_hi += width
        width *= 1.3
        scale = max(scale, float(np.max(np.abs(vals))))
    raise errors.SlowDecay("spectral-synthesis tail did not settle")


def inverse_transform(family, phi, x):
    """Inverse transform: integral of phi(lambda) w_lambda(x) against the
    family's spectral measure, plus its atoms (SlowDecay unless the tail
    falls below _INVERSE_TOL).  phi takes one lambda value."""
    val, stop = synthesize(
        family,
        lambda lams: [float(np.real(phi(lam))) for lam in lams.tolist()],
        [family.problem.a], [float(x)], _INVERSE_TOL)
    if stop.reason != "tol":
        raise errors.SlowDecay(
            "spectral integrand tail stalled at %.2e of scale, above tol"
            % stop.tail_ratio)
    return float(val[0, 0])
