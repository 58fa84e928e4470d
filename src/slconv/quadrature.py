"""Quadrature toolkit: Gauss-Legendre panels, and improper integrals with
divergence detection over geometric cut-offs.

All integrand callables are expected to accept numpy arrays.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import errors


@lru_cache(maxsize=None)
def _legendre(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=None)
def gl_nodes(n):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = _legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def gl_panels(edges, n=12):
    """n-point Gauss-Legendre rule on each panel [edges[..., k],
    edges[..., k+1]]: (nodes, weights), both of shape (..., panels, n)."""
    edges = np.asarray(edges, dtype=float)
    x, w = _legendre(n)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return mid[..., None] + half[..., None] * x, half[..., None] * w


# improper-integral shells and divergence detection
_GROWTH_FACTOR = 1.5    # partial-value growth declaring divergence
_GROWTH_RUNS = 6        # consecutive growth shells required
_FLAT_RATIO = 0.75      # increments not decaying below this ratio
_FLAT_RUNS = 6          # ... for this many shells => divergent
_DECAY_RUNS = 6         # decaying increments accepted as convergent
_REL_TOL = 1e-9         # early stop when increment is negligible
_MAX_SHELLS = 48
_SHELL_NODES = 32
_FIRST_OFFSET = 0.5     # first cut-off distance fraction / unit


@dataclass(frozen=True)
class ImproperResult:
    value: float          # finite estimate, or +inf
    finite: bool
    shells: int
    status: str           # 'converged' | 'divergent' | 'extrapolated'


def _shell_edges(c, endpoint, k):
    """Geometric cut-off sequence c_k approaching the endpoint."""
    if np.isinf(endpoint):
        d = max(abs(c), 1.0) * _FIRST_OFFSET
        return c + d * 2.0 ** k
    d0 = abs(endpoint - c) * _FIRST_OFFSET
    return endpoint + np.sign(c - endpoint) * d0 * 0.5 ** k


def improper_quad(f, c, endpoint):
    """Integrate |∫_c^endpoint f| where the only trouble spot is `endpoint`
    (which may be ±inf).  f must be eventually nonnegative near the
    endpoint for the divergence logic to be meaningful.

    Returns ImproperResult; raises InconclusiveDivergence if the shell
    increments neither converge nor pass a divergence test in budget.
    """
    increments = []
    partials = []
    prev_edge = c
    overflow_hit = False
    for k in range(_MAX_SHELLS):
        edge = _shell_edges(c, endpoint, k)
        lo, hi = (prev_edge, edge) if edge > prev_edge else (edge, prev_edge)
        sign = 1.0 if edge > prev_edge else -1.0
        u, w = gl_nodes(_SHELL_NODES)
        xs = lo + (hi - lo) * u
        with np.errstate(all="ignore"):
            vals = np.asarray(f(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            overflow_hit = True
            break
        inc = sign * (hi - lo) * float(np.dot(w, vals))
        increments.append(inc)
        partials.append((partials[-1] if partials else 0.0) + inc)
        prev_edge = edge
        verdict = _classify_shells(increments, partials)
        if verdict is not None:
            return verdict
    # budget or overflow exhausted: decide from the trend so far
    verdict = _classify_shells(increments, partials, final=True)
    if verdict is not None:
        return verdict
    if overflow_hit and increments:
        # nonnegative integrand overflowing while increments grow
        if len(increments) < 2 or increments[-1] >= increments[0]:
            return ImproperResult(np.inf, False, len(increments), "divergent")
    raise errors.InconclusiveDivergence(
        "improper integral toward %r undecided after %d shells"
        % (endpoint, len(increments)))


def _classify_shells(increments, partials, final=False):
    n = len(increments)
    if n < 2:
        return None
    total = partials[-1]
    scale = max(abs(total), 1e-300)
    # early convergence: negligible increment
    if abs(increments[-1]) <= _REL_TOL * scale and \
            abs(increments[-2]) <= 10 * _REL_TOL * scale:
        return ImproperResult(total, True, n, "converged")
    # divergence by partial-value growth
    if n > _GROWTH_RUNS:
        grow = all(
            abs(partials[i]) >= _GROWTH_FACTOR * abs(partials[i - 1])
            and abs(partials[i - 1]) > 0
            for i in range(n - _GROWTH_RUNS, n))
        if grow:
            return ImproperResult(np.inf, False, n, "divergent")
    ratios = [abs(increments[i]) / max(abs(increments[i - 1]), 1e-300)
              for i in range(1, n)]
    # divergence by non-decaying increments (catches log divergence)
    if n - 1 >= _FLAT_RUNS:
        tail = ratios[-_FLAT_RUNS:]
        if all(rho >= _FLAT_RATIO for rho in tail) and \
                abs(increments[-1]) > _REL_TOL * scale:
            return ImproperResult(np.inf, False, n, "divergent")
    # geometric decay: extrapolate the tail once the pattern is stable
    if final and n - 1 >= min(_DECAY_RUNS, 3):
        tail = ratios[-min(_DECAY_RUNS, n - 1):]
        if all(rho < _FLAT_RATIO for rho in tail):
            rho = tail[-1]
            est = total + increments[-1] * rho / (1.0 - rho)
            return ImproperResult(est, True, n, "extrapolated")
    return None
