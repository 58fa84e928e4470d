"""Probabilistic layer: compound Poisson measures, Levy-Khintchine-type
exponents, semigroups, diffusion densities, one walk loop for random-walk
and diffusion samplers (heat-semigroup steps), and strong-law experiments."""

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import convolution, errors, families, kernel, measures, spectral

__all__ = ["LevyTriple", "WalkPath", "compound_poisson",
           "levy_khintchine_exponent", "semigroup_measure",
           "diffusion_density", "sample_walk", "walk_ensemble",
           "sample_diffusion", "diffusion_ensemble",
           "gaussian_criterion_probe", "lln_experiment"]


@dataclass(frozen=True)
class LevyTriple:
    gaussian_scale: float
    levy_measure: object          # MeasureRepr (finite representation)

    def __post_init__(self):
        if self.gaussian_scale < 0.0:
            raise errors.ParamOutOfRange("gaussian scale must be >= 0")


@dataclass(frozen=True)
class WalkPath:
    states: np.ndarray
    times: np.ndarray


_SYNTH_TOL = 1e-9      # semigroup and heat-law synthesis tolerance
_POISSON_TOL = 1e-10   # compound Poisson's certified tail, and its budget
_POISSON_CAP = 400     # most jumps a compound Poisson sum may take
_POISSON_CFG = convolution.ConvCfg(max_pairs=20000)
_STEP_GRID = 600       # heat-law grid points
_PROBE_SPAN, _PROBE_GRID = 12.0, 1200    # probe grid: [a, a + 12]


# ---------------------------------------------------------------------------
# compound Poisson

def _poisson_tail_kmax(m):
    """Smallest k with exp(-m) * sum_{j>k} m^j / j! < _POISSON_TOL;
    TailTooLarge if that k exceeds _POISSON_CAP."""
    if m <= 0.0:
        return 0
    logterm = -m
    tail = 1.0 - math.exp(-m)
    k = 0
    while tail > _POISSON_TOL:
        if k == _POISSON_CAP:
            raise errors.TailTooLarge(
                "Poisson tail %.3g above %g at k=%d (jump mass %g)"
                % (tail, _POISSON_TOL, k, m))
        k += 1
        logterm += math.log(m) - math.log(k)
        tail -= math.exp(logterm)
    return k


def compound_poisson(family, mu):
    """e(mu) = exp(-|mu|) sum_k mu^{*k} / k! truncated with a certified
    Poisson tail bound; transform satisfies exp(mu_hat - |mu|)."""
    m = measures.total_mass(mu)
    a = family.problem.a
    if m == 0.0:
        return measures.dirac(a, meta="compound_poisson")
    k_max = _poisson_tail_kmax(m)
    mu1 = measures.scale(mu, 1.0 / m)       # normalized jump law
    parts = [measures.dirac(a)]
    weights = [math.exp(-m)]
    power = mu1
    logw = -m
    for k in range(1, k_max + 1):
        logw += math.log(m) - math.log(k)
        parts.append(power)
        weights.append(math.exp(logw))
        if k < k_max:
            power = convolution.convolve_measures(family, power, mu1,
                                                  _POISSON_CFG)
    return replace(measures.merge_measures(parts, weights),
                   meta="compound_poisson")


def levy_khintchine_exponent(family, triple, lam):
    """psi(lam) = gaussian_scale * lam + integral of (1 - w_lam) d(nu), for
    a scalar lam (a float) or an array of them (an array, from one
    measure_transform over all lam)."""
    lams = np.asarray(lam, dtype=float)
    nu = triple.levy_measure
    nu_mass = measures.total_mass(nu)
    if not np.isfinite(nu_mass):
        raise errors.IntegralDiverges("Levy measure mass not finite")
    nu_hat = spectral.measure_transform(family, nu, lams) if nu_mass else 0.0
    psi = triple.gaussian_scale * lams + (nu_mass - nu_hat)
    return float(psi) if np.ndim(lam) == 0 else psi


# ---------------------------------------------------------------------------
# semigroup and diffusion densities

def _grid_measure(family, coef, x_grid, label):
    """The probability measure synthesized from a on x_grid from coef
    (taking an array of lam), stored w.r.t. dx, i.e. the spectral sum
    times r.  A sum below -1e-10 of its largest |value| where r > 0, or an
    O(h^4) mass off 1 by over 1e-6, is a failed inversion (MassDeficit):
    the sum, not the density, is judged, since r (e^{4x} / 16 on
    jacobi(1, 0)) would blow the sum's rounding up with it.  The rest is
    clipped at 0 and renormalized by its trapezoid mass, and the meta
    records both (the clipped part as its trapezoid integral) and how the
    synthesis stopped."""
    x_grid = np.asarray(x_grid, dtype=float)
    dens, stop = spectral.synthesize(family, coef, [family.problem.a],
                                     x_grid, _SYNTH_TOL)
    rv = family.problem.r_val(x_grid)
    rv = np.where(np.isfinite(rv), rv, 0.0)
    low = float(np.min(dens[0], where=rv > 0.0, initial=0.0))
    if low < -1e-10 * float(np.max(np.abs(dens[0]))):
        raise errors.MassDeficit("%s: negative spectral sum (min %g) from "
                                 "the inverse transform" % (label, low))
    dens_dx = dens[0] * rv
    clipped = float(np.trapezoid(np.minimum(dens_dx, 0.0), x_grid))
    dens_dx = np.maximum(dens_dx, 0.0)
    mass = float(np.trapezoid(dens_dx, x_grid))
    # cubic Hermite panels on np.gradient's second-order slopes add the
    # trapezoid's h^2 (f'(lo) - f'(hi)) / 12: O(h^4), on any grid
    h, d = np.diff(x_grid), np.gradient(dens_dx, x_grid, edge_order=2)
    mass4 = mass + float(np.sum(h * h * (d[:-1] - d[1:]))) / 12.0
    if abs(mass4 - 1.0) > 1e-6:
        raise errors.MassDeficit("%s: mass %.8f (inversion failure)"
                                 % (label, mass4))
    return measures.MeasureRepr(
        segments=(measures.Segment(float(x_grid[0]), float(x_grid[-1]),
                                   x_grid, dens_dx / mass),),
        meta="%s clipped_mass=%.3e renorm=%.3e stop=%s tail=%.3e"
             % (label, clipped, mass - 1.0, stop.reason, stop.tail_ratio))


def semigroup_measure(family, psi, t, x_grid):
    """Measure mu_t with transform exp(-t psi(lam)): inverse transform on
    x_grid (density stored w.r.t. dx, i.e. spectral density times r).
    psi takes an array of lambda values and returns psi at each (e.g. a
    CoeffExpr in x, or levy_khintchine_exponent), called once per lambda
    block of the synthesis."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    return _grid_measure(
        family, lambda lams: np.exp(-t * np.asarray(psi(lams), dtype=float)),
        x_grid, "semigroup t=%g" % t)


def _heat_law(family, t):
    """The heat semigroup's mu_t (psi(lam) = lam) on _STEP_GRID points of
    [a, a + 8 sqrt(2t) + 1]: the diffusion's step law, as its transition
    law P_t(x, .) = delta_x * mu_t has the transform w_lam(x) e^{-t lam}."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    a = family.problem.a
    x_grid = np.linspace(a, a + 8.0 * math.sqrt(2.0 * t) + 1.0, _STEP_GRID)
    return _grid_measure(family, lambda lams: np.exp(-t * lams), x_grid,
                         "heat t=%g" % t)


def diffusion_density(family, t, x, y_grid):
    """Fundamental solution p(t, x, y) = sum over the spectral measure of
    exp(-t lam) w_lam(x) w_lam(y), sampled over y_grid (w.r.t. r dy).

    Returns (density, SynthesisStop), as spectral.synthesize does."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    dens, stop = spectral.synthesize(family, lambda lams: np.exp(-t * lams),
                                     [float(x)], y_grid, _SYNTH_TOL)
    return dens[0], stop


# ---------------------------------------------------------------------------
# samplers

def _walk(family, step_laws, n_steps, n_paths, rng, start=None):
    """Yields the states of n_paths independent walks, starting at start
    (a by default) and after each of n_steps steps: step k draws X_k from
    step_laws[k mod len] by inverse CDF (each law's CDF built once), then
    S_k from nu_{S_{k-1}, X_k}.  Every sampler's one loop: a diffusion
    walks with heat laws.  ParamOutOfRange unless n_steps >= 0, n_paths
    >= 1 and no step law has mass below a."""
    if not (n_steps >= 0 and n_paths >= 1):
        raise errors.ParamOutOfRange(
            "a walk needs n_steps >= 0 and n_paths >= 1")
    a = family.problem.a
    cdfs = [measures.build_cdf(law, floor=a) for law in step_laws]
    if any(abs(cdf.mass - 1.0) > 1e-6 for cdf in cdfs):
        raise errors.MassDeficit("step laws must be probability measures")
    if any(np.any((cdf.edges_lo < a) & (np.diff(cdf.F) > 0.0))
           for cdf in cdfs):
        raise errors.ParamOutOfRange("step laws must put no mass below a")
    s = np.full(n_paths, a if start is None else float(start))
    yield s
    for k in range(n_steps):
        x = measures.quantile(cdfs[k % len(cdfs)],
                              rng.uniform(0.0, 1.0, size=n_paths))
        u = rng.uniform(0.0, 1.0, size=n_paths)
        s = families.family_step(family, s, x, u, rng)
        yield s


def sample_walk(family, step_laws, n, rng):
    """One path of the generalized additive walk S_k = S_{k-1} (+) X_k,
    with X_k drawn from step_laws[k mod len] and the randomized addition
    resolved by the family's step."""
    states = [float(s[0]) for s in _walk(family, step_laws, n, 1, rng)]
    return WalkPath(states=np.asarray(states, dtype=float),
                    times=np.arange(n + 1, dtype=float))


def walk_ensemble(family, step_law, n_steps, n_paths, rng):
    """Terminal states S_n of n_paths independent walks with iid steps."""
    return deque(_walk(family, [step_law], n_steps, n_paths, rng), 1)[0]


def sample_diffusion(family, x0, times, rng):
    """One diffusion path from x0 at the given increasing times: the walk
    from x0 whose step over dt draws Y from the heat law mu_dt (one
    synthesis per distinct dt) and then the state from nu_{x, Y}, exact
    since P_dt(x, .) = delta_x * mu_dt."""
    times = np.r_[0.0, times].astype(float)
    steps = np.diff(times).tolist()
    if not steps or not all(dt > 0.0 for dt in steps):
        raise errors.ParamOutOfRange("times must be positive increasing")
    laws = {dt: _heat_law(family, dt) for dt in set(steps)}
    states = [float(s[0]) for s in _walk(
        family, [laws[dt] for dt in steps], len(steps), 1, rng, x0)]
    return WalkPath(states=np.asarray(states), times=times)


def diffusion_ensemble(family, x0, t, n_paths, rng):
    """States at time t of n_paths independent diffusions from x0: one
    walk step from x0 with the heat law mu_t, as in sample_diffusion."""
    return deque(_walk(family, [_heat_law(family, t)], 1, n_paths, rng,
                       x0), 1)[0]


# ---------------------------------------------------------------------------
# probes and experiments

def gaussian_criterion_probe(family, psi, neighborhood, t_seq):
    """Reports (1/t) mu_t([a + neighborhood, inf)) along t_seq: vanishing
    ratios indicate a Gaussian (diffusion) semigroup, a positive limit a
    jump part.  psi takes an array of lambda values, as in
    semigroup_measure."""
    a = family.problem.a
    x_grid = np.linspace(a, a + _PROBE_SPAN, _PROBE_GRID)
    edge = a + neighborhood
    rows = []
    for t in t_seq:
        seg = semigroup_measure(family, psi, float(t), x_grid).segments[0]
        # trapezoid from the edge on, its density read off the straddled
        # cell's linear interpolant
        g = np.r_[edge, seg.grid[seg.grid > edge]]
        tail = float(np.trapezoid(np.interp(g, seg.grid, seg.density), g))
        rows.append({"t": float(t), "ratio": tail / float(t)})
    ratios = [r["ratio"] for r in rows]
    trend = "vanishing" if ratios[-1] < 0.1 * max(ratios[0], 1e-300) \
        or ratios[-1] < 1e-10 else "positive"
    return {"neighborhood": neighborhood, "rows": rows, "trend": trend}


def lln_experiment(family, law, variant, cfg, rng):
    """Strong-law experiment: simulates walk paths and reports the
    normalized statistic distribution at the terminal step.

    variant is "I", "II", "III" or "IV".  cfg keys: n (steps), n_paths,
    and r_n exponent "rate_pow" (variants I/III) or "theta" (II/IV)."""
    mf = kernel.moment_functions(family.problem)
    n = int(cfg["n"])
    n_paths = int(cfg.get("n_paths", 1000))
    # moment probe: finite-support law => E[phi_2(X)^q] finite, but probe
    # it numerically anyway
    cdfp = measures.build_cdf(law, floor=family.problem.a)
    probe_x = measures.quantile(cdfp, np.linspace(0.001, 0.999, 64))
    probe = mf.phi2(probe_x)
    if not np.all(np.isfinite(probe)):
        raise errors.MomentProbeFailed("phi_2 probe not finite on the law")
    e_phi1 = float(np.mean(mf.phi1(probe_x)))
    s_term = walk_ensemble(family, law, n, n_paths, rng)
    phi1_term = mf.phi1(s_term)
    phi2_term = mf.phi2(s_term)
    if variant == "I":
        stat = (phi1_term - np.mean(phi1_term)) \
            / math.sqrt(float(n) ** cfg.get("rate_pow", 1.5))
    elif variant == "II":
        theta = float(cfg.get("theta", 1.5))
        stat = (phi1_term - n * e_phi1) / float(n) ** (1.0 / theta)
    elif variant == "III":
        stat = phi2_term / float(n) ** cfg.get("rate_pow", 1.5)
    elif variant == "IV":
        theta = float(cfg.get("theta", 0.9))
        stat = phi2_term / float(n) ** (1.0 / theta)
    else:
        raise errors.ParamOutOfRange("unknown strong-law variant %r"
                                     % (variant,))
    return {"variant": variant, "n": n, "n_paths": n_paths,
            "median": float(np.median(stat)),
            "p90": float(np.percentile(stat, 90.0)),
            "mean": float(np.mean(stat)),
            "kappa": mf.kappa}
