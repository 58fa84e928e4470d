"""Generalized integral transform against the eigenfunction kernel:
forward transform of functions and finite measures, and spectral
synthesis against a family-supplied spectral measure.

`synthesize` is the single tau-window driver: every sum over the spectral
measure (inverse transform, Cauchy field, semigroup and diffusion
densities) goes through it.  Its contract: coef(lam) is a real scalar
(e.g. phi(lam), or the transform (Fh)(lam)); row(lam) is the kernel
product to be weighted by it (w_lam over a grid, or the outer product
w_lam(x) w_lam(y)), an array of the same shape for every lam.  row is
not evaluated at a quadrature node whose weighted coefficient is 0."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, kernel, quadrature

__all__ = ["SpectralMeasure", "SynthesisStop", "forward_transform",
           "measure_transform", "synthesize", "inverse_transform"]

TAU0 = 8.0           # the first tau window is [0, TAU0]
NOISE_FLOOR = 1e-4   # a stalled tail this small (relative) ends synthesis


@dataclass(frozen=True)
class SpectralMeasure:
    """Plancherel measure of a transform pair, parameterized by tau with
    lambda = tau^2 + lam_shift; tau_density is the density w.r.t. d(tau)
    on tau > 0.  atoms are (lambda_i, mass_i) pairs."""
    tau_density: object
    lam_shift: float = 0.0
    atoms: tuple = ()
    support_note: str = ""
    status: str = "validated"      # or "experimental"

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


def forward_transform(problem, h, lam, x_support=None, tol=1e-11,
                      max_doublings=24, closed_kernel=None):
    """Integral of h(x) w_lam(x) r(x) dx over [a, b).  h is a callable;
    the integration window grows until the tail contribution is below
    tol (TailNotDecaying if it never is).  Oscillation-aware: panel
    lengths resolve the local kernel wavelength pi / (tau sqrt(r/p))."""
    a, b = problem.a, problem.b
    tau = math.sqrt(max(float(lam), 0.0))

    def window_value(lo, hi):
        # panel sizing: resolve oscillation and keep enough panels
        n_base = 24
        edges = [lo]
        x = lo
        span = hi - lo
        while x < hi:
            dx = span / n_base
            if tau > 0.0:
                pr = float(problem.p_val(max(x, lo + 1e-12 * span)))
                rr = float(problem.r_val(max(x, lo + 1e-12 * span)))
                if pr > 0 and rr > 0 and np.isfinite(pr) and np.isfinite(rr):
                    dx = min(dx, 0.5 * math.pi / tau * math.sqrt(pr / rr))
            dx = max(dx, 1e-6 * span)
            x = min(x + dx, hi)
            edges.append(x)
        nodes, wts = map(np.ravel, quadrature.gl_panels(edges))
        wvals = kernel.kernel_row(problem, lam, nodes, closed_kernel)
        with np.errstate(all="ignore"):
            rv = problem.r_val(nodes) * np.ones_like(nodes)
            hv = np.asarray(h(nodes), dtype=float) * np.ones_like(nodes)
            contrib = np.where(np.isfinite(rv), hv * wvals * rv, 0.0)
        return math.fsum((contrib * wts).tolist())

    if x_support is not None:
        lo, hi = x_support
        return window_value(max(lo, a), min(hi, b if np.isfinite(b) else hi))

    hi = a + 1.0 if np.isinf(b) else b
    total = window_value(a, hi)
    if not np.isinf(b):
        return total
    scale = max(abs(total), 1e-12)
    for _ in range(max_doublings):
        new_hi = a + 2.0 * (hi - a)
        tail = window_value(hi, new_hi)
        total += tail
        hi = new_hi
        scale = max(scale, abs(total))
        if abs(tail) < tol * scale:
            # one confirming extra octave
            tail2 = window_value(hi, a + 2.0 * (hi - a))
            total += tail2
            if abs(tail2) < tol * scale:
                return total
            hi = a + 2.0 * (hi - a)
    raise errors.TailNotDecaying(
        "integrand tail did not fall below tolerance")


def measure_transform(problem, mu, lam, closed_kernel=None):
    """Transform of a finite measure: sum of mass * w_lam(loc) over atoms
    plus the integral of w_lam against each density segment (3-point
    Gauss-Legendre per cell of the segment's own grid, with the density
    linear on each cell, matching the measure's mass convention)."""
    locs = [loc for loc, _ in mu.atoms]
    masses = np.asarray([m for _, m in mu.atoms])
    parts = []
    if locs:
        wv = kernel.kernel_row(problem, lam, np.asarray(locs, float),
                               closed_kernel)
        parts.extend((masses * wv).tolist())
    u, _ = quadrature.gl_nodes(3)
    for seg in mu.segments:
        g, d = seg.grid, seg.density
        nodes, wts = quadrature.gl_panels(g, 3)
        dens = d[:-1, None] + (d[1:] - d[:-1])[:, None] * u
        wv = kernel.kernel_row(problem, lam, nodes.ravel(), closed_kernel)
        parts.append(float(np.sum(wts.ravel() * dens.ravel() * wv)))
    return math.fsum(parts)


def synthesize(family, coef, row, x_max, tol, max_windows=28,
               nodes_per_unit=1.5):
    """Sum of coef(lam) * row(lam) over the family's spectral measure:
    the atoms, then tau windows [0, TAU0], then windows of width TAU0 / 2
    growing by 1.3, each with 12-point Gauss-Legendre panels, at least
    nodes_per_unit * x_max per unit of tau.  Stops when a window's
    largest contribution falls below tol times the largest value so far,
    or, once the tail stops decaying, at the noise floor (at or below
    NOISE_FLOOR times that scale); SlowDecay otherwise.

    Returns (values, SynthesisStop).  values has the shape of row(lam);
    it is the scalar 0.0 if no row was ever needed."""
    sm = family.spectral
    if sm is None:
        raise errors.SpectralMeasureUnavailable(
            "family %r supplies no spectral measure" % (family.id,))
    vals = 0.0
    for lam, mass in sm.atoms:
        vals += mass * coef(lam) * row(lam)

    def window(t_lo, t_hi):
        n_panels = max(4, int(math.ceil((t_hi - t_lo) * nodes_per_unit
                                        * x_max)))
        tn, tw = map(np.ravel, quadrature.gl_panels(
            np.linspace(t_lo, t_hi, n_panels + 1)))
        dens = np.asarray(sm.tau_density(tn), dtype=float)
        acc = 0.0
        for t, wq, d in zip(tn, tw, dens):
            lam = t * t + sm.lam_shift
            c = wq * d * coef(lam)
            if c == 0.0:
                continue
            acc += c * row(lam)
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
    for _ in range(max_windows):
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


def inverse_transform(family, phi, x, tol=1e-9):
    """Inverse transform: integral of phi(lambda) w_lambda(x) against the
    family's spectral measure, plus its atoms (SlowDecay unless the tail
    falls below tol)."""
    ck = family.closed_kernel if family.prefer_closed_kernel else None
    xs = np.asarray([float(x)])
    val, stop = synthesize(
        family, lambda lam: float(np.real(phi(lam))),
        lambda lam: kernel.kernel_row(family.problem, lam, xs, ck)[0],
        max(abs(float(x)), 1.0), tol)
    if stop.reason != "tol":
        raise errors.SlowDecay(
            "spectral integrand tail stalled at %.2e of scale, above tol"
            % stop.tail_ratio)
    return float(val)
