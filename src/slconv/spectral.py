"""Generalized integral transform against the eigenfunction kernel:
forward transform of functions and finite measures, and spectral
synthesis against a family-supplied spectral measure.

`synthesize` is the single tau-window driver: every sum over the spectral
measure (inverse transform, Cauchy field, semigroup and diffusion
densities) is its bilinear sum of c(lam) w_lam(x) w_lam(y) over two point
sets, and since w_lam(a) = 1 the one-sided sums are its x = a row.  It
evaluates each window in blocks of at most LAMBDA_BLOCK lam values:
coef(lams) returns one real coefficient per lam, shape (L,) (e.g.
exp(-t lam)); the block then takes one family.kernel call over the union
of the two point sets and one matmul.  A TransformCoef, the transform
(Fh)(lam) over a finite window, instead adds its x quadrature to that one
kernel call, so a Cauchy field's coefficient and rows come from one
evaluation.  The block bound caps the memory of a window's kernel table.
`forward_transform` takes an array of lam the same way, on one shared x
quadrature per window (_transform_rule), and one family.kernel call over
every doubling window's nodes, the windows chosen by its stop rule on the
kernel-free weights |h| r (or, past _TABLE_NODES nodes, by their node
count doubling).  Every function takes a families.Family and gets kernel
values from family.kernel, closed form or numeric."""

import math
from dataclasses import dataclass

import numpy as np

from . import errors, quadrature

__all__ = ["SpectralMeasure", "SynthesisStop", "TransformCoef",
           "forward_transform", "measure_transform", "synthesize",
           "inverse_transform"]

TAU0 = 8.0           # the first tau window is [0, TAU0]
NOISE_FLOOR = 1e-4   # a stalled tail this small (relative) ends synthesis
LAMBDA_BLOCK = 64    # most lam values per coef and kernel call of synthesize
MAX_WINDOWS = 28     # most tau windows synthesize adds after the first
_MAX_DOUBLINGS = 24  # x windows forward_transform adds on a half-line
_FORWARD_TOL = 1e-11  # forward_transform's x tail, relative to the sum
_TABLE_NODES = 1 << 14  # x nodes a half-line transform lays before a table
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


def _support(problem, x_support):
    """The window x_support = (lo, hi) clipped to (a, b); ParamOutOfRange
    unless both ends are finite, lo < hi, and the window meets (a, b)."""
    lo, hi = (float(v) for v in x_support)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise errors.ParamOutOfRange(
            "x_support must be a finite window lo < hi (got (%g, %g))"
            % (lo, hi))
    if not (lo < problem.b and hi > problem.a):
        raise errors.ParamOutOfRange(
            "x_support (%g, %g) misses the interval (a, b)" % (lo, hi))
    return max(lo, problem.a), min(hi, problem.b)


def _transform_rule(problem, h, lams, lo, hi):
    """Nodes and weights on [lo, hi] of the integral of h(x) w_lam(x) r(x)
    dx for every lam in lams: 12-point Gauss-Legendre panels, their
    lengths resolving the local kernel wavelength pi / (tau sqrt(r/p)) of
    the largest tau, with h and r folded into the weights (0 where r is
    not finite)."""
    tau = math.sqrt(float(np.max(lams, initial=0.0)))
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
        wts = wts * np.asarray(h(nodes), dtype=float) * rv
    wts[~np.isfinite(rv)] = 0.0
    return nodes, wts


def _row_sums(table):
    """Exactly rounded sum of each row of table."""
    return np.array([math.fsum(row.tolist()) for row in table])


@dataclass(frozen=True)
class TransformCoef:
    """The coefficient (Fh)(lam) of h over the finite window x_support, as
    synthesize's coef: its x quadrature joins each lam block's one kernel
    call."""
    h: object
    x_support: tuple

    def rule(self, problem, lams):
        """Nodes and weights (_transform_rule) of the window for lams."""
        return _transform_rule(problem, self.h, lams,
                               *_support(problem, self.x_support))


def _window_sums(family, lams, rules):
    """The sums of h w_lam r over each window for every lam, one row per
    window, from the windows' rules (_transform_rule's (nodes, weights))
    and one family.kernel call over all their nodes."""
    nodes, wts = (np.concatenate(v) for v in zip(*rules))
    # in place: the (L, N) table is the largest array here
    contrib = family.kernel(lams, nodes)
    contrib *= wts
    cuts = np.cumsum([len(w) for _, w in rules])[:-1]
    return [_row_sums(c) for c in np.split(contrib, cuts, axis=1)]


def _doubling_stop(sums):
    """The stop rule of the half-line windows [a, a + 1], then [a + d, a +
    2 d] for d = 1, 2, 4, ..., on their sums (one row of values per
    window, in order): after each doubling, stop once the window's every
    |value| is below _FORWARD_TOL of the largest |total| so far (at least
    1e-12) and one confirming window is too.  Returns the total of the
    windows taken, or None when the rule needs more windows than given;
    TailNotDecaying after _MAX_DOUBLINGS doublings."""
    total = np.array(sums[0], dtype=float)
    scale = np.maximum(np.abs(total), 1e-12)
    n = 1
    for _ in range(_MAX_DOUBLINGS):
        for confirm in (False, True):
            if n == len(sums):
                return None
            tail = sums[n]
            n += 1
            total += tail
            if not confirm:
                scale = np.maximum(scale, np.abs(total))
            if not np.all(np.abs(tail) < _FORWARD_TOL * scale):
                break
        else:
            return total
    raise errors.TailNotDecaying(
        "integrand tail did not fall below tolerance")


def _kernel_free_stop(sums):
    """Whether the stop rule holds on the windows' kernel-free sums of
    |h| r, or has run out of doublings there."""
    try:
        return _doubling_stop(sums) is not None
    except errors.TailNotDecaying:
        return True


def _half_line_sums(family, h, lams):
    """The transform over the doubling windows of a half-line, the total
    _doubling_stop takes.  Windows are added until the rule holds on the
    kernel-free sums of |h| r, which bound the transform's since |w_lam|
    <= 1 wherever sqrt(p r) does not decrease (every built-in family),
    and one family.kernel call then takes them all; where the rule on the
    transform itself still fails (a kernel that grows), a window is added
    and the table retaken.  A kernel that decays can stop the transform
    far sooner than |h| r, so windows of more than _TABLE_NODES nodes
    take a table before the kernel-free rule holds, and again each time
    their nodes double.  They take none while lam = 0 is among lams and h
    keeps one sign on the windows laid: w_0 = 1, so the transform's rule
    cannot hold before the kernel-free one."""
    problem = family.problem
    a = problem.a
    rules, free = [], []      # each window's rule and its sum of |h| r
    edges = [a, a + 1.0]
    taken = _TABLE_NODES // 2     # nodes of the last table taken
    # lam = 0 among lams and h of one sign on the windows laid so far
    bounded = bool(np.any(lams == 0.0))
    pos = neg = False
    while True:
        rules.append(_transform_rule(problem, h, lams, *edges[-2:]))
        free.append(_row_sums(np.abs(rules[-1][1])[None]))
        edges.append(a + 2.0 * (edges[-1] - a))
        nodes = sum(len(w) for _, w in rules)
        if bounded:
            pos = pos or bool(np.any(rules[-1][1] > 0.0))
            neg = neg or bool(np.any(rules[-1][1] < 0.0))
            bounded = not (pos and neg)
        if (nodes < 2 * taken or bounded) and not _kernel_free_stop(free):
            continue
        total = _doubling_stop(_window_sums(family, lams, rules))
        if total is not None:
            return total
        taken = nodes


def forward_transform(family, h, lam, x_support=None):
    """Integral of h(x) w_lam(x) r(x) dx over [a, b), for a scalar lam (a
    float) or an array of them (an array).  h is a callable; with
    x_support, a finite window (lo, hi) (ParamOutOfRange otherwise), the
    integral runs over it, clipped to (a, b).  Otherwise, on a half-line,
    it runs over doubling windows until _doubling_stop holds for every
    lam (TailNotDecaying if it never does), chosen by _half_line_sums.
    All lam share one x quadrature per window (_transform_rule) and one
    family.kernel call over every window's nodes."""
    problem = family.problem
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    if x_support is None and np.isinf(problem.b):
        total = _half_line_sums(family, h, lams)
    else:
        lo, hi = ((problem.a, problem.b) if x_support is None
                  else _support(problem, x_support))
        total = _window_sums(family, lams,
                             [_transform_rule(problem, h, lams, lo, hi)])[0]
    return float(total[0]) if np.ndim(lam) == 0 else total


def measure_transform(family, mu, lam):
    """Transform of a finite measure: sum of mass * w_lam(loc) over atoms
    plus the integral of w_lam against each density segment (3-point
    Gauss-Legendre per cell of the segment's own grid, with the density
    linear on each cell, matching the measure's mass convention), from
    one kernel call and one exactly rounded sum."""
    u, _ = quadrature.gl_nodes(3)
    locs, wts = ([col] for col in mu.atoms.T)
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
    below NOISE_FLOOR times that scale); SlowDecay otherwise, after
    MAX_WINDOWS windows, or once the tail's decay rate per window has risen
    and even that rate leaves it above tol after the windows left.  coef
    takes an array of at most LAMBDA_BLOCK lam values, and no kernel is
    evaluated for a lam whose weighted coefficient is 0; or coef is a
    TransformCoef, whose nodes join the block's kernel call over the two
    point sets, and no kernel is evaluated for a lam of weight 0.

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
            lb, c = lams[s:s + LAMBDA_BLOCK], wts[s:s + LAMBDA_BLOCK]
            if isinstance(coef, TransformCoef):
                nz = c != 0.0
                if not np.any(nz):
                    continue
                # the transform's x quadrature joins the one kernel call
                nodes, nw = coef.rule(family.problem, lb)
                w = family.kernel(lb[nz], np.concatenate([pts, nodes]))
                c = c[nz] * _row_sums(w[:, len(pts):] * nw)
            else:
                c = c * np.asarray(coef(lb), dtype=float)
                nz = c != 0.0
                if not np.any(nz):
                    continue
                w = family.kernel(lb[nz], pts)
                c = c[nz]
            acc += (c[:, None] * w[:, ix]).T @ w[:, iy]
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
    prev, rate = np.inf, 0.0     # rate: budget / prev, 0 until known
    width = 0.5 * TAU0
    for k in range(MAX_WINDOWS):
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
        if 0.0 < rate < budget / prev and budget * (budget / prev) ** (
                MAX_WINDOWS - 1 - k) >= tol * scale:
            raise errors.SlowDecay("spectral-synthesis tail decays ever more "
                                   "slowly (rate %.3f)" % (budget / prev))
        vals += acc
        prev, rate = budget, budget / prev
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
