import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

_GL16_N, _GL16_W = leggauss(16)

# every family with a convolution measure, and each of hankel's regimes
CONVOLUTION_FAMILIES = [("cosine", {}), ("squared_weight", {})] + [
    ("hankel", {"alpha": alpha}) for alpha in (-0.5, 0.0, 0.5, 1.0, 2.0)] + [
    ("jacobi", {"alpha": 1.0, "beta": 0.0}), ("whittaker", {"alpha": 0.0})]


def gl_panels(lo, hi, n_panels, n=16):
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    nodes, wts = (_GL16_N, _GL16_W) if n == 16 else leggauss(n)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * nodes).ravel(),
            (half[:, None] * wts).ravel())


def measure_integral(mu, f):
    """Integral of f against a MeasureRepr: the atoms exactly, and 8-point
    Gauss-Legendre on every grid cell of a segment with its linear
    density.  f maps N points to values of shape (..., N)."""
    x8, w8 = leggauss(8)
    locs = [np.array([loc for loc, _ in mu.atoms])]
    wts = [np.array([m for _, m in mu.atoms])]
    for seg in mu.segments:
        g = seg.grid
        half = 0.5 * np.diff(g)
        nodes = (0.5 * (g[:-1] + g[1:]))[:, None] + half[:, None] * x8
        locs.append(nodes.ravel())
        wts.append((half[:, None] * w8
                    * np.interp(nodes, g, seg.density)).ravel())
    return np.asarray(f(np.concatenate(locs)), dtype=float) \
        @ np.concatenate(wts)


def smooth_bump(x, center=1.0, width=0.6):
    """C-infinity bump supported on [center-width, center+width]."""
    x = np.asarray(x, dtype=float)
    s = (x - center) / width
    out = np.zeros_like(x)
    m = np.abs(s) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2))
    return out


def _sigma(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    m = u > 0
    out[m] = np.exp(-1.0 / u[m])
    return out


def smooth_cutoff(x, lo, hi):
    """C-infinity transition: 1 for x <= lo, 0 for x >= hi."""
    x = np.asarray(x, dtype=float)
    t = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    s1 = _sigma(1.0 - t)
    s0 = _sigma(t)
    with np.errstate(all="ignore"):
        out = s1 / (s1 + s0)
    out = np.where(t <= 0.0, 1.0, out)
    out = np.where(t >= 1.0, 0.0, out)
    return out


@pytest.fixture(scope="session")
def rng_master():
    return np.random.default_rng(20240817)
