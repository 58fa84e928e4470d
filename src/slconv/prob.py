"""Probabilistic layer: compound Poisson measures, Levy-Khintchine-type
exponents, convolution semigroups and diffusion transition densities,
random-walk / diffusion samplers, and strong-law experiments."""

import math
from dataclasses import dataclass

import numpy as np

from . import convolution, errors, kernel, measures, spectral

__all__ = ["Exponent", "LevyTriple", "WalkPath", "compound_poisson",
           "levy_khintchine_exponent", "semigroup_measure",
           "diffusion_density", "sample_walk", "walk_ensemble",
           "sample_diffusion", "diffusion_ensemble",
           "gaussian_criterion_probe", "lln_experiment"]


@dataclass(frozen=True)
class Exponent:
    psi: object                   # callable lam -> value, psi(0) = 0
    kind: str = "composite"

    def __call__(self, lam):
        return self.psi(lam)


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
    rng_seed: object = None


# ---------------------------------------------------------------------------
# compound Poisson

def _poisson_tail_kmax(m, tol=1e-10, hard_cap=400):
    """Smallest k with exp(-m) * sum_{j>k} m^j / j! < tol."""
    if m <= 0.0:
        return 0
    logterm = -m
    tail = 1.0 - math.exp(-m)
    k = 0
    while tail > tol and k < hard_cap:
        k += 1
        logterm += math.log(m) - math.log(k)
        tail -= math.exp(logterm)
    return k


def compound_poisson(family, mu, k_max=None, cfg=None, tol=1e-10):
    """e(mu) = exp(-|mu|) sum_k mu^{*k} / k! truncated with a certified
    Poisson tail bound; transform satisfies exp(mu_hat - |mu|)."""
    m = measures.total_mass(mu)
    a = family.problem.a
    if m == 0.0:
        return measures.dirac(a, meta="compound_poisson")
    k_need = _poisson_tail_kmax(m, tol)
    if k_max is None:
        k_max = k_need
    elif k_max < k_need:
        raise errors.TailTooLarge(
            "Poisson tail bound above %g at k_max=%d (need %d)"
            % (tol, k_max, k_need))
    if cfg is None:
        cfg = convolution.ConvCfg(max_pairs=20000, grid_points=600)
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
            power = convolution.convolve_measures(family, power, mu1, cfg)
    out = measures.merge_measures(parts, weights,
                                  grid_points=cfg.grid_points)
    return measures.MeasureRepr(atoms=out.atoms, segments=out.segments,
                                meta="compound_poisson")


def levy_khintchine_exponent(family, triple, lam):
    """psi(lam) = gaussian_scale * lam + integral of (1 - w_lam) d(nu)."""
    lam = float(lam)
    nu = triple.levy_measure
    nu_mass = measures.total_mass(nu)
    if not np.isfinite(nu_mass):
        raise errors.IntegralDiverges("Levy measure mass not finite")
    ck = family.closed_kernel if family.prefer_closed_kernel else None
    nu_hat = spectral.measure_transform(family.problem, nu, lam,
                                        closed_kernel=ck) if nu_mass else 0.0
    return triple.gaussian_scale * lam + (nu_mass - nu_hat)


# ---------------------------------------------------------------------------
# spectral synthesis over an x grid

def _synthesize(family, coef, x_grid, tol):
    """sum over the spectral measure of coef(lam) w_lam(x) on x_grid, coef
    taking an array of lam: (values, SynthesisStop)."""
    prob = family.problem
    ck = family.closed_kernel if family.prefer_closed_kernel else None
    x_grid = np.asarray(x_grid, dtype=float)
    x_max = max(float(np.max(np.abs(x_grid))), 1.0)
    return spectral.synthesize(
        family, coef, lambda lams: kernel.kernel_table(prob, lams, x_grid, ck),
        x_max, tol)


def _stop_meta(stop):
    return "stop=%s tail=%.3e" % (stop.reason, stop.tail_ratio)


# ---------------------------------------------------------------------------
# semigroup and diffusion densities

def semigroup_measure(family, psi, t, x_grid, tol=1e-9):
    """Measure mu_t with transform exp(-t psi(lam)): inverse transform on
    x_grid (density stored w.r.t. dx, i.e. spectral density times r).
    psi takes one lambda value."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    psi_f = psi.psi if isinstance(psi, Exponent) else psi
    x_grid = np.asarray(x_grid, dtype=float)
    dens, stop = _synthesize(
        family, lambda lams: np.exp(-t * np.array(
            [float(psi_f(lam)) for lam in lams.tolist()])), x_grid, tol)
    prob = family.problem
    with np.errstate(all="ignore"):
        rv = np.asarray(prob.r_val(x_grid), dtype=float) * np.ones_like(
            x_grid)
    rv = np.where(np.isfinite(rv), rv, 0.0)
    dens_dx = dens * rv
    clip_floor = float(np.min(dens_dx))
    if clip_floor < -1e-10 * max(1.0, float(np.max(np.abs(dens_dx)))):
        raise errors.MassDeficit(
            "inverse transform produced non-negligible negative density "
            "(min %g)" % clip_floor)
    clipped = float(np.sum(np.minimum(dens_dx, 0.0)))
    dens_dx = np.maximum(dens_dx, 0.0)
    seg = measures.Segment(float(x_grid[0]), float(x_grid[-1]),
                           x_grid, dens_dx)
    mass = seg.mass()
    if abs(mass - 1.0) > 1e-6:
        raise errors.MassDeficit(
            "semigroup measure mass %.8f (inversion failure)" % mass)
    return measures.MeasureRepr(
        segments=(measures.Segment(seg.l, seg.u, seg.grid,
                                   seg.density / mass),),
        meta="semigroup t=%g clipped_mass=%.3e renorm=%.3e %s"
             % (t, clipped, mass - 1.0, _stop_meta(stop)))


def _diffusion_synthesis(family, t, x, y_grid, tol):
    """p(t, x, .) on y_grid w.r.t. r dy: (values, SynthesisStop)."""
    if t <= 0.0:
        raise errors.ParamOutOfRange("time must be positive")
    prob = family.problem
    xs = np.asarray([float(x)])
    ck = family.closed_kernel if family.prefer_closed_kernel else None

    def coef(lams):
        return np.exp(-t * lams) * kernel.kernel_table(prob, lams, xs,
                                                       ck)[:, 0]

    return _synthesize(family, coef, y_grid, tol)


def diffusion_density(family, t, x, y_grid, tol=1e-9):
    """Fundamental solution p(t, x, y) = sum over the spectral measure of
    exp(-t lam) w_lam(x) w_lam(y), sampled over y_grid (w.r.t. r dy)."""
    return _diffusion_synthesis(family, t, x, y_grid, tol)[0]


def _transition_measure(family, t, x, y_grid, tol=1e-9):
    """The transition law from x over time t on y_grid; its meta records
    how the synthesis stopped."""
    dens, stop = _diffusion_synthesis(family, t, x, y_grid, tol)
    prob = family.problem
    y_grid = np.asarray(y_grid, dtype=float)
    with np.errstate(all="ignore"):
        rv = np.asarray(prob.r_val(y_grid), dtype=float) * np.ones_like(
            y_grid)
    rv = np.where(np.isfinite(rv), rv, 0.0)
    dens_dx = np.maximum(dens * rv, 0.0)
    seg = measures.Segment(float(y_grid[0]), float(y_grid[-1]),
                           y_grid, dens_dx)
    mass = seg.mass()
    if abs(mass - 1.0) > 1e-4:
        raise errors.MassDeficit("transition density mass %.6f" % mass)
    return measures.MeasureRepr(
        segments=(measures.Segment(seg.l, seg.u, seg.grid,
                                   seg.density / mass),),
        meta="transition t=%g x=%g %s" % (t, x, _stop_meta(stop)))


# ---------------------------------------------------------------------------
# samplers

def _step_positions(family, s, xnew, u):
    """Vectorized one-step update S' with S' ~ quantile(nu_{s, x}, u);
    closed-form paths for the atomic / alpha = 1/2 families, generic
    inverse-CDF of the sampled convolution measure otherwise."""
    fam_id = family.id
    if fam_id == "cosine":
        return np.where(u < 0.5, np.abs(s - xnew), s + xnew)
    if fam_id == "hankel" and abs(family.param("alpha") - 0.5) < 1e-14:
        l = np.abs(s - xnew)
        hi = s + xnew
        return np.sqrt(l * l + u * (hi * hi - l * l))
    out = np.empty_like(np.asarray(s, dtype=float))
    for i, (si, xi, ui) in enumerate(zip(np.atleast_1d(s),
                                         np.atleast_1d(xnew),
                                         np.atleast_1d(u))):
        nu = family.conv_sampled(float(si), float(xi))
        cdf = measures.build_cdf(nu, floor=family.problem.a)
        out[i] = measures.quantile(cdf, float(ui))
    return out


def sample_walk(family, step_laws, n, rng):
    """One path of the generalized additive walk S_k = S_{k-1} (+) X_k,
    with X_k drawn from step_laws[k mod len] and the randomized addition
    resolved by inverse CDF."""
    a = family.problem.a
    states = np.empty(n + 1)
    states[0] = a
    for k in range(1, n + 1):
        law = step_laws[(k - 1) % len(step_laws)]
        x = float(measures.sample(law, 1, rng, floor=a)[0])
        u = float(rng.uniform())
        states[k] = float(_step_positions(family,
                                          np.asarray([states[k - 1]]),
                                          np.asarray([x]),
                                          np.asarray([u]))[0])
    return WalkPath(states=states, times=np.arange(n + 1, dtype=float))


def walk_ensemble(family, step_law, n_steps, n_paths, rng):
    """Terminal states S_n of n_paths independent walks with iid steps."""
    a = family.problem.a
    s = np.full(n_paths, a)
    cdf = measures.build_cdf(step_law, floor=a)
    if abs(cdf.mass - 1.0) > 1e-6:
        raise errors.MassDeficit("step law must be a probability measure")
    for _ in range(n_steps):
        x = measures.quantile(cdf, rng.uniform(0.0, 1.0, size=n_paths))
        u = rng.uniform(0.0, 1.0, size=n_paths)
        s = _step_positions(family, s, x, u)
    return s


def sample_diffusion(family, x0, times, rng, y_span=None, n_grid=600):
    """Exact-increment sampling of the diffusion path at the given
    increasing times (inverse CDF of each transition density)."""
    times = [float(t) for t in times]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])) or times[0] <= 0:
        raise errors.ParamOutOfRange("times must be positive increasing")
    a = family.problem.a
    states = [x0]
    t_prev = 0.0
    for t in times:
        dt = t - t_prev
        x = states[-1]
        span = y_span if y_span is not None else 8.0 * math.sqrt(
            2.0 * dt) + abs(x - a) + 1.0
        y_grid = np.linspace(a, a + span, n_grid)
        mu = _transition_measure(family, dt, x, y_grid)
        cdf = measures.build_cdf(mu, floor=a)
        states.append(float(measures.quantile(cdf, float(rng.uniform()))))
        t_prev = t
    return WalkPath(states=np.asarray(states),
                    times=np.asarray([0.0] + times))


def diffusion_ensemble(family, x0, t, n_paths, rng, n_grid=800,
                       y_span=None):
    """Marginal sample of the diffusion at time t for n_paths paths
    started at x0 (one shared transition CDF; exact for iid marginals)."""
    if family.id == "cosine" and x0 == 0.0:
        # reflected Brownian motion: |N(0, 2t)| from the origin
        return np.abs(rng.normal(0.0, math.sqrt(2.0 * t), size=n_paths))
    a = family.problem.a
    span = y_span if y_span is not None else 8.0 * math.sqrt(2.0 * t) \
        + abs(x0 - a) + 1.0
    y_grid = np.linspace(a, a + span, n_grid)
    mu = _transition_measure(family, t, x0, y_grid)
    cdf = measures.build_cdf(mu, floor=a)
    return measures.quantile(cdf, rng.uniform(0.0, 1.0, size=n_paths))


# ---------------------------------------------------------------------------
# probes and experiments

def gaussian_criterion_probe(family, psi, neighborhood, t_seq,
                             x_span=12.0, n_grid=1200):
    """Reports (1/t) mu_t([a + neighborhood, inf)) along t_seq: vanishing
    ratios indicate a Gaussian (diffusion) semigroup, a positive limit a
    jump part."""
    a = family.problem.a
    rows = []
    for t in t_seq:
        x_grid = np.linspace(a, a + x_span, n_grid)
        mu = semigroup_measure(family, psi, float(t), x_grid)
        seg = mu.segments[0]
        outside = seg.grid >= a + neighborhood
        if not np.any(outside):
            tail = 0.0
        else:
            g = seg.grid[outside]
            d = seg.density[outside]
            # include the straddling cell fraction
            tail = float(np.trapezoid(d, g))
            k = int(np.argmax(outside))
            if k > 0:
                xl = a + neighborhood
                x0, x1 = seg.grid[k - 1], seg.grid[k]
                d0, d1 = seg.density[k - 1], seg.density[k]
                dl = d0 + (d1 - d0) * (xl - x0) / (x1 - x0)
                tail += 0.5 * (dl + d1) * (x1 - xl)
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
