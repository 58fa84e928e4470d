"""End-to-end acceptance checks.  Each test prints one PASS/FAIL line
(visible in the -rP summary) and asserts the stated tolerance."""

import math

import numpy as np
import pytest

from conftest import gl_panels, smooth_bump, smooth_cutoff
from slconv import (cauchy, convolution, expr, families, kernel, measures,
                    prob, slmodel, spectral)


def _report(num, name, ok, detail):
    line = "ACCEPTANCE %02d %s: %s (%s)" % (num, name,
                                            "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

_KERNEL_CASES = [
    ("cosine", {}), ("squared_weight", {}),
    ("hankel", {"alpha": -0.5}), ("hankel", {"alpha": 0.0}),
    ("hankel", {"alpha": 0.5}), ("hankel", {"alpha": 1.0}),
    ("hankel", {"alpha": 2.0}),
    ("jacobi", {"alpha": 1.0, "beta": 0.0}),
    ("whittaker", {"alpha": 0.0}), ("whittaker", {"alpha": -0.5}),
]


def test_criterion_01_kernel_vs_closed_form():
    worst = 0.0
    for name, params in _KERNEL_CASES:
        fam = families.make_family(name, params)
        # 20x20 grids placed away from kernel zeros (the kernels oscillate;
        # near a zero the relative error is dominated by the closed form's
        # own rounding)
        if name == "whittaker":
            lam_grid = np.linspace(0.45, 15.3, 20)
            xs = fam.problem.a + np.linspace(0.12, 1.9, 20)
        else:
            lam_grid = np.linspace(0.5823836171947547, 23.103765055453252,
                                   20)
            xs = fam.problem.a + np.linspace(0.14798841672240715,
                                             2.8841409175695407, 20)
        for lam, wc in zip(lam_grid, fam.closed_kernel(lam_grid, xs)):
            wn = kernel.kernel_table(fam.problem, [float(lam)], xs)[0]
            rel = np.max(np.abs(wn - wc) / np.maximum(np.abs(wc), 1e-30))
            worst = max(worst, float(rel))
    _report(1, "kernel-vs-closed-form", worst <= 1e-8,
            "max rel err %.2e <= 1e-8 over 10 family variants" % worst)


def test_criterion_02_kernel_boundedness():
    cases = [("cosine", {}), ("squared_weight", {}),
             ("hankel", {"alpha": 0.0}), ("hankel", {"alpha": 0.5}),
             ("hankel", {"alpha": 2.0}),
             ("jacobi", {"alpha": 1.0, "beta": 0.0}),
             ("whittaker", {"alpha": 0.0})]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name, params in cases:
        fam = families.make_family(name, params)
        a = fam.problem.a
        for lam in rng.uniform(0.0, 50.0, 100):
            xs = a + rng.uniform(1e-3, 3.0, 100)
            w = kernel.kernel_table(fam.problem, [float(lam)], xs)[0]
            worst = max(worst, float(np.max(np.abs(w))))
    _report(2, "kernel-boundedness", worst <= 1.0 + 1e-12,
            "max |w| = 1 %+.2e over 7e4 random (x, lambda)" % (worst - 1.0))


def test_criterion_03_truncated_kernel_convergence():
    fam = families.make_family("hankel", {"alpha": 0.0})
    w_full = kernel.eval_kernel(fam.problem, 1.0, 1.0).w
    gaps = []
    for m in range(1, 13):
        kv = kernel.eval_kernel_truncated(fam.problem, 1.0, 1.0, 2.0 ** -m)
        gaps.append(abs(kv.w - w_full))
    mono = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    ok = mono and gaps[-1] <= 1e-6
    _report(3, "truncated-kernel-convergence", ok,
            "monotone=%s final gap %.2e <= 1e-6" % (mono, gaps[-1]))


def test_criterion_04_product_formula():
    cases = [("cosine", {}, 1e-12), ("hankel", {"alpha": 0.5}, 1e-6),
             ("whittaker", {"alpha": 0.0}, 1e-6),
             ("jacobi", {"alpha": 1.0, "beta": 0.0}, 1e-5)]
    lam_grid = np.linspace(0.0, 25.0, 26)
    rng = np.random.default_rng(41)
    details = []
    ok = True
    for name, params, tol in cases:
        fam = families.make_family(name, params)
        a = fam.problem.a
        worst = 0.0
        worst_mass = 0.0
        for _ in range(5):
            x = a + 0.3 + 1.5 * rng.uniform()
            y = a + 0.3 + 1.5 * rng.uniform()
            rep = convolution.verify_product_formula(fam, x, y, lam_grid,
                                                     use_closed_kernel=True)
            worst = max(worst, rep.max_abs_err)
            worst_mass = max(worst_mass, abs(rep.mass - 1.0))
        ok = ok and worst <= tol and worst_mass <= 1e-8
        details.append("%s err %.1e<=%.0e mass 1%+.1e" % (name, worst, tol,
                                                          worst_mass))
    _report(4, "product-formula", ok, "; ".join(details))


def test_criterion_05_transform_trivialization():
    rng = np.random.default_rng(55)
    lam_grid = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for name, params in (("cosine", {}), ("hankel", {"alpha": 0.5})):
        fam = families.make_family(name, params)
        a = fam.problem.a

        def rand_measure():
            locs = a + rng.uniform(0.1, 3.0, 5)
            mass = rng.uniform(0.2, 1.0, 5)
            mass = mass / mass.sum()
            return measures.MeasureRepr(atoms=tuple(zip(locs, mass)))

        mu, nu = rand_measure(), rand_measure()
        cfg = convolution.ConvCfg(max_pairs=64)
        conv = convolution.convolve_measures(fam, mu, nu, cfg)
        for lam in lam_grid:
            lhs = spectral.measure_transform(fam, conv, float(lam))
            rhs = (spectral.measure_transform(fam, mu, float(lam))
                   * spectral.measure_transform(fam, nu, float(lam)))
            worst = max(worst, abs(lhs - rhs))
    _report(5, "transform-trivialization", worst <= 1e-6,
            "max |(mu*nu)^ - mu^ nu^| = %.2e <= 1e-6" % worst)


def test_criterion_06_plancherel():
    worst = 0.0
    for name, params in (("cosine", {}), ("hankel", {"alpha": 0.5})):
        fam = families.make_family(name, params)
        pr = fam.problem
        xs, xw = gl_panels(0.4, 1.6, 40)
        rv = pr.r_val(xs) * np.ones_like(xs)
        hv = smooth_bump(xs)
        lhs = float(np.sum(xw * hv * hv * rv))
        tn, tw = gl_panels(1e-6, 60.0, 120)
        dens = np.asarray(fam.spectral.tau_density(tn), dtype=float)
        fh = fam.closed_kernel(tn * tn + fam.spectral.lam_shift, xs) \
            @ (xw * hv * rv)
        rhs = float(np.sum(tw * dens * fh * fh))
        worst = max(worst, abs(rhs - lhs) / lhs)
    _report(6, "plancherel", worst <= 1e-5,
            "max rel isometry gap %.2e <= 1e-5" % worst)


def test_criterion_07_cauchy_cross_validation():
    details = []
    ok = True
    for name in ("cosine", "squared_weight"):
        fam = families.make_family(name)
        mu = 2.0

        def h(x):
            x = np.asarray(x, dtype=float)
            return fam.closed_kernel([mu], x)[0] * smooth_cutoff(x, 3.3, 6.3)

        gaps = []
        trace = None
        for step in (0.01, 0.005, 0.0025):
            tri = cauchy.TriangleGrid(c=fam.problem.a, vertex=(1.6, 1.6),
                                      step=step)
            fld = cauchy.solve_characteristics(fam.problem, h, tri)
            if trace is None:
                trace = fld.initial_trace_gap(h)
            ref = cauchy.solve_spectral(fam, h, fld.x_grid, fld.y_grid,
                                        x_support=(fam.problem.a, 6.3))
            gaps.append(float(np.max(np.abs(fld.values - ref.values))))
        orders = [math.log2(g1 / g2) for g1, g2 in zip(gaps, gaps[1:])]
        this_ok = (gaps[0] <= 5e-3 and min(orders) >= 1.8
                   and trace <= 1e-6)
        ok = ok and this_ok
        details.append("%s gap %.1e orders %.2f/%.2f trace %.1e"
                       % (name, gaps[0], orders[0], orders[1], trace))
    _report(7, "cauchy-cross-validation", ok, "; ".join(details))


def test_criterion_08_positivity():
    # Gaussian data: entire, with rapidly decaying transform, and with
    # vanishing quasi-derivative at the left endpoint (even pair)
    def ebump(x, c=1.0, w=0.5):
        x = np.asarray(x, dtype=float)
        return (np.exp(-((x - c) / w) ** 2)
                + np.exp(-((x + c) / w) ** 2))

    fam = families.make_family("hankel", {"alpha": 1.0})
    grid = np.linspace(0.0, 1.5, 11)
    fld = cauchy.solve_spectral(fam, ebump, grid, grid,
                                x_support=(0.0, 6.0))
    audit_h = cauchy.positivity_audit(fld)

    famw = families.make_family("whittaker", {"alpha": 0.0})
    gridw = np.linspace(0.5, 1.8, 7)

    def gauss(x):
        return np.exp(-((np.asarray(x, dtype=float) - 1.5) / 0.35) ** 2)

    fldw = cauchy.solve_spectral(famw, gauss, gridw, gridw,
                                 x_support=(0.2, 3.5))
    audit_w = cauchy.positivity_audit(fldw)

    # upper bound: data <= 1 must keep the field <= 1
    def plateau(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (1.0 + np.exp(np.clip((x - 2.0) * 8.0, -40, 40)))

    fldp = cauchy.solve_spectral(fam, plateau, grid, grid,
                                 x_support=(0.0, 8.0))
    audit_p = cauchy.positivity_audit(fldp, upper=1.0)

    ok = (audit_h["min"] >= -1e-8 and audit_w["min"] >= -1e-8
          and audit_p["min"] >= -1e-8 and audit_p["upper_ok"])
    _report(8, "positivity", ok,
            "hankel min %.1e; whittaker min %.1e; plateau max 1%+.1e"
            % (audit_h["min"], audit_w["min"], audit_p["max"] - 1.0))


def test_criterion_09_diffusion_semigroup():
    fam = families.make_family("cosine")
    t, x0 = 0.3, 0.5
    yg = np.linspace(0.0, 12.0, 48001)
    p, _ = prob.diffusion_density(fam, t, x0, yg)
    oracle = ((np.exp(-(yg - x0) ** 2 / (4 * t))
               + np.exp(-(yg + x0) ** 2 / (4 * t)))
              / math.sqrt(4 * math.pi * t))
    sup = float(np.max(np.abs(p - oracle)))
    mu_p = measures.MeasureRepr(
        segments=(measures.Segment(0.0, 12.0, yg, p),))
    mass_err = abs(measures.total_mass(mu_p) - 1.0)
    hat_err = 0.0
    for lam in (1.0, 4.0, 9.0, 16.0):
        mh = spectral.measure_transform(fam, mu_p, lam)
        hat_err = max(hat_err, abs(mh - math.exp(-t * lam)
                                   * math.cos(math.sqrt(lam) * x0)))
    # Chapman-Kolmogorov at (s, t) = (0.3, 0.7)
    s_, t_ = 0.3, 0.7
    y_test = np.array([0.2, 1.0, 2.5])
    p_st, _ = prob.diffusion_density(fam, s_ + t_, x0, y_test)
    zg = np.linspace(0.0, 12.0, 2401)
    p_s, _ = prob.diffusion_density(fam, s_, x0, zg)
    ck_err = 0.0
    for j, y in enumerate(y_test):
        p_t, _ = prob.diffusion_density(fam, t_, float(y), zg)
        ck_err = max(ck_err, abs(float(np.trapezoid(p_s * p_t, zg))
                                 - p_st[j]))
    ok = (mass_err <= 1e-6 and hat_err <= 1e-8 and ck_err <= 1e-6
          and sup <= 1e-8)
    _report(9, "diffusion-semigroup", ok,
            "mass 1%+.1e hat %.1e CK %.1e folded-Gaussian sup %.1e"
            % (mass_err, hat_err, ck_err, sup))


def test_criterion_10_compound_poisson():
    fam = families.make_family("cosine")
    mu = measures.MeasureRepr(atoms=((1.0, 0.8), (2.5, 0.4)))
    e_mu = prob.compound_poisson(fam, mu)
    m = measures.total_mass(mu)
    hat_err = 0.0
    for lam in (0.3, 1.0, 4.0, 9.0):
        lhs = spectral.measure_transform(fam, e_mu, lam)
        mu_hat = spectral.measure_transform(fam, mu, lam)
        hat_err = max(hat_err, abs(lhs - math.exp(mu_hat - m)))
    # Monte Carlo with the cosine fast path, fixed seed
    rng = np.random.default_rng(7)
    n_mc = 100000
    counts = rng.poisson(m, n_mc)
    s = np.zeros(n_mc)
    cdf1 = measures.build_cdf(measures.scale(mu, 1.0 / m), floor=0.0)
    for step in range(1, int(counts.max()) + 1):
        act = counts >= step
        na = int(act.sum())
        x = measures.quantile(cdf1, rng.uniform(0.0, 1.0, na))
        u = rng.uniform(0.0, 1.0, na)
        s[act] = np.where(u < 0.5, np.abs(s[act] - x), s[act] + x)
    atoms = dict(e_mu.atoms)
    vals, cnt = np.unique(np.round(s, 9), return_counts=True)
    emp = dict(zip(vals.tolist(), (cnt / n_mc).tolist()))
    support = sorted(set(list(atoms) + list(emp)))
    fm = np.cumsum([atoms.get(v, 0.0) for v in support])
    fe = np.cumsum([emp.get(round(v, 9), 0.0) for v in support])
    ks = float(np.max(np.abs(fm - fe)))
    ok = hat_err <= 1e-8 and ks <= 0.02
    _report(10, "compound-poisson", ok,
            "transform err %.1e <= 1e-8, KS %.4f <= 0.02" % (hat_err, ks))


def test_criterion_11_walk_oracle():
    fam = families.make_family("cosine")
    two_step = families.family_convolution_measure(fam, 1.0, 1.0)
    exact2 = dict(two_step.atoms)
    exact_ok = (not two_step.segments and exact2 == {0.0: 0.5, 2.0: 0.5})
    rng = np.random.default_rng(11)
    n_mc = 100000
    term = prob.walk_ensemble(fam, measures.dirac(1.0), 10, n_mc, rng)
    vals, cnt = np.unique(np.round(term, 9), return_counts=True)
    emp = dict(zip(vals.tolist(), (cnt / n_mc).tolist()))
    # folded simple walk oracle by dynamic programming
    dist = {0.0: 1.0}
    for _ in range(10):
        nd = {}
        for v, pm in dist.items():
            nd[abs(v - 1.0)] = nd.get(abs(v - 1.0), 0.0) + 0.5 * pm
            nd[v + 1.0] = nd.get(v + 1.0, 0.0) + 0.5 * pm
        dist = nd
    support = set(list(dist) + list(emp))
    tv = 0.5 * sum(abs(dist.get(v, 0.0) - emp.get(v, 0.0))
                   for v in support)
    ok = exact_ok and tv <= 0.02
    _report(11, "walk-oracle", ok,
            "two-step law exact=%s, 10-step TV %.4f <= 0.02"
            % (exact_ok, tv))


def test_criterion_12_lln():
    fam = families.make_family("cosine")
    g = np.linspace(0.0, 2.0, 101)
    law = measures.MeasureRepr(segments=(measures.Segment(
        0.0, 2.0, g, np.full(101, 0.5)),))
    rng = np.random.default_rng(12)
    res = prob.lln_experiment(fam, law, "III",
                              {"n": 10000, "n_paths": 1000,
                               "rate_pow": 1.5}, rng)
    ok = res["p90"] <= 0.1
    _report(12, "strong-law-7.13.III", ok,
            "phi2(S_n)/n^1.5 90th pct %.4f <= 0.1 (n=1e4, 1e3 paths)"
            % res["p90"])


def test_criterion_13_young_inequality():
    rng = np.random.default_rng(13)
    worst = -np.inf
    ok = True
    for name, params in (("cosine", {}), ("hankel", {"alpha": 0.5})):
        fam = families.make_family(name, params)
        for _ in range(20):
            # data must vanish outside the norm window [a, a+4] so the
            # truncation seen by the convolution matches the norms
            c1, c2 = fam.problem.a + rng.uniform(0.6, 2.2, 2)
            w1, w2 = rng.uniform(0.3, 0.9, 2)
            a1, a2 = rng.uniform(0.5, 2.0, 2)

            def h(x, c=c1, w=w1, amp=a1):
                return amp * smooth_bump(x, center=c, width=w)

            def g(x, c=c2, w=w2, amp=a2):
                return amp * smooth_bump(x, center=c, width=w)

            p1 = rng.uniform(1.0, 2.0)
            # keep 1/s = 1/p1 + 1/p2 - 1 away from 0 so the conjugate
            # exponent s stays in floating-point range
            inv2 = rng.uniform(min(1.0 - 1.0 / p1 + 0.05, 1.0), 1.0)
            p2 = 1.0 / inv2
            rep = convolution.young_check(fam, h, g, p1, p2,
                                          support=(fam.problem.a,
                                                   fam.problem.a + 4.0))
            slack = rep["norm_conv"] / rep["bound"] - 1.0
            worst = max(worst, slack)
            ok = ok and rep["ok"]
    _report(13, "young-inequality", ok and worst <= 1e-6,
            "max norm excess %.2e <= 1e-6 over 40 random cases" % worst)


_GOLDEN_EXPRS = [
    "1", "x", "x^2", "2*x + 1", "x^3 - 4*x", "1/(1 + x)", "(1 + x)^2",
    "sqrt(x + 1)", "exp(-x)", "exp(-x^2/4)", "log(1 + x)", "sinh(x)",
    "cosh(x/2)", "tanh(x)", "x*exp(-x)", "x^2*log(1 + x)",
    "sinh(x)*cosh(x)", "exp(x)/(1 + x^2)", "(x + 1)/(x + 2)",
    "sqrt(1 + x^2)", "x^(1/2) + x^(3/2)", "2^x", "abs(x - 1) + x",
    "exp(-1/(1 + x))", "cosh(x)^2 - sinh(x)^2", "log(cosh(x))",
    "x/(1 + exp(-x))", "tanh(x)^3", "sqrt(x)*exp(-x/2)",
    "(1 + x^2)^(-3/2)",
]


def test_criterion_14_parser():
    xs = np.linspace(0.1, 2.5, 40)
    worst_fd = 0.0
    for src in _GOLDEN_EXPRS:
        ast = expr.parse(src)
        text = expr.unparse(ast)
        ast2 = expr.parse(text)
        v1 = expr.evaluate(ast, xs)
        v2 = expr.evaluate(ast2, xs)
        assert np.array_equal(np.asarray(v1, dtype=float) * np.ones_like(xs),
                              np.asarray(v2, dtype=float)
                              * np.ones_like(xs)), src
        if "abs" in src:
            continue   # not differentiable at the kink
        d = expr.diff(ast)
        dv = np.asarray(expr.evaluate(d, xs), dtype=float) * np.ones_like(xs)
        eps = 1e-6
        fd = (np.asarray(expr.evaluate(ast, xs + eps), dtype=float)
              - np.asarray(expr.evaluate(ast, xs - eps), dtype=float)) \
            / (2 * eps)
        rel = np.max(np.abs(dv - fd) / np.maximum(np.abs(fd), 1.0))
        worst_fd = max(worst_fd, float(rel))
    ok = worst_fd <= 1e-6
    _report(14, "parser", ok,
            "30 golden round-trips exact, derivative-vs-FD rel %.1e <= 1e-6"
            % worst_fd)


def test_criterion_15_boundary_classification():
    expect = [
        (("hankel", {"alpha": 0.0}), "left", "entrance"),
        (("cosine", {}), "left", "regular"),
        (("cosine", {}), "right", "natural"),
        (("squared_weight", {}), "right", "natural"),
        (("hankel", {"alpha": 0.0}), "right", "natural"),
        (("hankel", {"alpha": 0.5}), "right", "natural"),
        (("jacobi", {"alpha": 1.0, "beta": 0.0}), "right", "natural"),
        (("whittaker", {"alpha": 0.0}), "right", "natural"),
    ]
    bad = []
    for (name, params), endpoint, kind in expect:
        fam = families.make_family(name, params)
        got = slmodel.classify_boundary(fam.problem, endpoint).kind
        if got != kind:
            bad.append("%s %s: got %s want %s" % (name, endpoint, got, kind))
    _report(15, "boundary-classification", not bad,
            "all 8 classifications correct" if not bad else "; ".join(bad))
