"""Probabilistic layer: compound Poisson measures, Levy-Khintchine-type
exponents, convolution semigroups and diffusion transition densities,
random-walk / diffusion samplers, and strong-law experiments."""

import math
from dataclasses import dataclass

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


_SYNTH_TOL = 1e-9      # semigroup and transition synthesis tolerance
_POISSON_TOL = 1e-10   # compound Poisson's certified tail, and its budget
_POISSON_CAP = 400     # most jumps a compound Poisson sum may take
_POISSON_CFG = convolution.ConvCfg(max_pairs=20000, grid_points=600)
_PATH_GRID, _ENSEMBLE_GRID = 600, 800    # transition grid points
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
    out = measures.merge_measures(parts, weights,
                                  grid_points=_POISSON_CFG.grid_points)
    return measures.MeasureRepr(atoms=out.atoms, segments=out.segments,
                                meta="compound_poisson")


def levy_khintchine_exponent(family, triple, lam):
    """psi(lam) = gaussian_scale * lam + integral of (1 - w_lam) d(nu)."""
    lam = float(lam)
    nu = triple.levy_measure
    nu_mass = measures.total_mass(nu)
    if not np.isfinite(nu_mass):
        raise errors.IntegralDiverges("Levy measure mass not finite")
    nu_hat = spectral.measure_transform(family, nu, lam) if nu_mass else 0.0
    return triple.gaussian_scale * lam + (nu_mass - nu_hat)


# ---------------------------------------------------------------------------
# semigroup and diffusion densities

def _grid_measure(family, coef, x_grid, label):
    """The probability measure synthesized on x_grid from coef (taking an
    array of lam), stored w.r.t. dx, i.e. the spectral sum times r.  A
    density below -1e-10 of its scale or a mass off 1 by over 1e-6 is a
    failed inversion (MassDeficit); the rest is clipped at 0 and
    renormalized, and the meta records both and how the synthesis
    stopped."""
    x_grid = np.asarray(x_grid, dtype=float)
    dens, stop = spectral.synthesize(
        family, coef, lambda lams: family.kernel(lams, x_grid),
        max(float(np.max(np.abs(x_grid))), 1.0), _SYNTH_TOL)
    with np.errstate(all="ignore"):
        rv = np.asarray(family.problem.r_val(x_grid), dtype=float) \
            * np.ones_like(x_grid)
    dens_dx = dens * np.where(np.isfinite(rv), rv, 0.0)
    low = float(np.min(dens_dx))
    if low < -1e-10 * max(1.0, float(np.max(np.abs(dens_dx)))):
        raise errors.MassDeficit("%s: negative density (min %g) from the "
                                 "inverse transform" % (label, low))
    clipped = float(np.sum(np.minimum(dens_dx, 0.0)))
    dens_dx = np.maximum(dens_dx, 0.0)
    mass = float(np.trapezoid(dens_dx, x_grid))
    if abs(mass - 1.0) > 1e-6:
        raise errors.MassDeficit("%s: mass %.8f (inversion failure)"
                                 % (label, mass))
    return measures.MeasureRepr(
        segments=(measures.Segment(float(x_grid[0]), float(x_grid[-1]),
                                   x_grid, dens_dx / mass),),
        meta="%s clipped_mass=%.3e renorm=%.3e stop=%s tail=%.3e"
             % (label, clipped, mass - 1.0, stop.reason, stop.tail_ratio))


def semigroup_measure(family, psi, t, x_grid):
    """Measure mu_t with transform exp(-t psi(lam)): inverse transform on
    x_grid (density stored w.r.t. dx, i.e. spectral density times r).
    psi takes one lambda value."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    return _grid_measure(
        family, lambda lams: np.exp(-t * np.array(
            [float(psi(lam)) for lam in lams.tolist()])),
        x_grid, "semigroup t=%g" % t)


def _heat_coef(family, t, x):
    """lam -> exp(-t lam) w_lam(x), the spectral coefficient of
    p(t, x, .)."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    xs = np.asarray([float(x)])
    return lambda lams: np.exp(-t * lams) * family.kernel(lams, xs)[:, 0]


def diffusion_density(family, t, x, y_grid):
    """Fundamental solution p(t, x, y) = sum over the spectral measure of
    exp(-t lam) w_lam(x) w_lam(y), sampled over y_grid (w.r.t. r dy)."""
    coef = _heat_coef(family, t, x)
    y_grid = np.asarray(y_grid, dtype=float)
    return spectral.synthesize(
        family, coef, lambda lams: family.kernel(lams, y_grid),
        max(float(np.max(np.abs(y_grid))), 1.0), _SYNTH_TOL)[0]


def _transition_measure(family, t, x, y_grid):
    """The transition law from x over time t on y_grid."""
    return _grid_measure(family, _heat_coef(family, t, x), y_grid,
                         "transition t=%g x=%g" % (t, x))


def _transition_cdf(family, t, x, n_grid):
    """CDF of the transition law from x over time t, on n_grid points of
    [a, a + 8 sqrt(2t) + |x - a| + 1]."""
    a = family.problem.a
    # a time t <= 0 is refused by _transition_measure
    span = 8.0 * math.sqrt(2.0 * max(t, 0.0)) + abs(x - a) + 1.0
    mu = _transition_measure(family, t, x, np.linspace(a, a + span, n_grid))
    return measures.build_cdf(mu, floor=a)


# ---------------------------------------------------------------------------
# samplers

def _walk(family, step_laws, n_steps, n_paths, rng):
    """Yields the states of n_paths independent walks from a after each
    of n_steps steps: step k draws X_k from step_laws[k mod len] by
    inverse CDF (each law's CDF built once), then S_k from
    nu_{S_{k-1}, X_k}."""
    a = family.problem.a
    cdfs = [measures.build_cdf(law, floor=a) for law in step_laws]
    if any(abs(cdf.mass - 1.0) > 1e-6 for cdf in cdfs):
        raise errors.MassDeficit("step laws must be probability measures")
    s = np.full(n_paths, a)
    for k in range(n_steps):
        x = measures.quantile(cdfs[k % len(cdfs)],
                              rng.uniform(0.0, 1.0, size=n_paths))
        u = rng.uniform(0.0, 1.0, size=n_paths)
        s = families.family_step(family, s, x, u)
        yield s


def sample_walk(family, step_laws, n, rng):
    """One path of the generalized additive walk S_k = S_{k-1} (+) X_k,
    with X_k drawn from step_laws[k mod len] and the randomized addition
    resolved by the family's step."""
    states = [family.problem.a]
    states += [float(s[0]) for s in _walk(family, step_laws, n, 1, rng)]
    return WalkPath(states=np.asarray(states, dtype=float),
                    times=np.arange(n + 1, dtype=float))


def walk_ensemble(family, step_law, n_steps, n_paths, rng):
    """Terminal states S_n of n_paths independent walks with iid steps."""
    s = np.full(n_paths, family.problem.a)
    for s in _walk(family, [step_law], n_steps, n_paths, rng):
        pass
    return s


def sample_diffusion(family, x0, times, rng):
    """Exact-increment sampling of the diffusion path at the given
    increasing times (inverse CDF of each transition density)."""
    times = [float(t) for t in times]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])) or times[0] <= 0:
        raise errors.ParamOutOfRange("times must be positive increasing")
    states = [x0]
    for t0, t1 in zip([0.0] + times, times):
        cdf = _transition_cdf(family, t1 - t0, states[-1], _PATH_GRID)
        states.append(float(measures.quantile(cdf, float(rng.uniform()))))
    return WalkPath(states=np.asarray(states),
                    times=np.asarray([0.0] + times))


def diffusion_ensemble(family, x0, t, n_paths, rng):
    """Marginal sample of the diffusion at time t for n_paths paths
    started at x0 (one shared transition CDF; exact for iid marginals)."""
    cdf = _transition_cdf(family, t, x0, _ENSEMBLE_GRID)
    return measures.quantile(cdf, rng.uniform(0.0, 1.0, size=n_paths))


# ---------------------------------------------------------------------------
# probes and experiments

def gaussian_criterion_probe(family, psi, neighborhood, t_seq):
    """Reports (1/t) mu_t([a + neighborhood, inf)) along t_seq: vanishing
    ratios indicate a Gaussian (diffusion) semigroup, a positive limit a
    jump part."""
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

    cfg keys: n (steps), n_paths, and r_n exponent "rate_pow" (variants
    I/III) or "theta" (II/IV)."""
    mf = kernel.moment_functions(family.problem)
    if mf is None or not np.isfinite(mf.kappa):
        raise errors.MomentProbeFailed("moment functions unavailable")
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
    if variant in ("7.13.I", "I"):
        stat = (phi1_term - np.mean(phi1_term)) \
            / math.sqrt(float(n) ** cfg.get("rate_pow", 1.5))
    elif variant in ("7.13.II", "II"):
        theta = float(cfg.get("theta", 1.5))
        stat = (phi1_term - n * e_phi1) / float(n) ** (1.0 / theta)
    elif variant in ("7.13.III", "III"):
        stat = phi2_term / float(n) ** cfg.get("rate_pow", 1.5)
    elif variant in ("7.13.IV", "IV"):
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
