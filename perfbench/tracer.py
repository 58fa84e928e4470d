"""Run-time call tracing for the benchmark.

The tracer wraps public functions of the slconv modules from outside the
program: it replaces module attributes (and a few class attributes) with
timing wrappers and hands operations `dataclasses.replace` copies of each
`Family` whose stored closures are wrapped.  Nothing under `src/` changes.

Every wrapped call adds to per-name aggregates (calls, self time, total
time); self time excludes the time spent in wrapped child calls.  Calls
named as coarse also record a span (name, start, end, parent span) kept in
memory.  Hot calls such as `expr.evaluate` only aggregate.
"""

import dataclasses
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.stats = {}        # name -> [calls, self_s, total_s]
        self.counters = {}     # name -> number (points, nodes, solver work)
        self.spans = []        # [name, start, end, parent index or -1]
        self.active = False
        self._frames = []      # per active wrapped call: [child_s]
        self._open_spans = []  # indices into self.spans
        self._patches = []     # (owner, attr, original, wrapper)
        self._family_copies = {}
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------
    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, span=False, after=None):
        """Timing wrapper around fn; a pass-through while inactive."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames = self._frames
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            frames.append(frame)
            if span:
                idx = len(self.spans)
                parent = self._open_spans[-1] if self._open_spans else -1
                self.spans.append([name, 0.0, 0.0, parent])
                self._open_spans.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
                if span:
                    self._open_spans.pop()
                    self.spans[idx][1] = t0 - self._t0
                    self.spans[idx][2] = t1 - self._t0
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def patch(self, owner, attr, name, span=False, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append(
            (owner, attr, original,
             self.wrap(original, name, span=span, after=after)))

    def wrap_family(self, fam):
        """Copy of fam whose closures and spectral density are wrapped."""
        key = id(fam)
        if key in self._family_copies:
            return self._family_copies[key][1]
        kw = {}
        for field in ("closed_kernel", "conv_quad", "conv_sampled"):
            fn = getattr(fam, field)
            if fn is not None:
                kw[field] = self.wrap(fn, "families." + field)
        if fam.spectral is not None:
            # tau_density is called once per quadrature window with all of
            # the window's tau nodes: their count is the lambda-node count
            kw["spectral"] = dataclasses.replace(
                fam.spectral, tau_density=self.wrap(
                    fam.spectral.tau_density, "spectral.tau_density",
                    after=lambda a, out: self.count(
                        "spectral.lambda_nodes", int(np.size(a[0])))))
        copy = dataclasses.replace(fam, **kw)
        # keep fam alive so its id is not reused by another object
        self._family_copies[key] = (fam, copy)
        return copy

    # -- installation ------------------------------------------------------
    def install(self, mods):
        """Register wrappers on the slconv modules given as a dict
        name -> module (see run.py for the list)."""
        kernel = mods["kernel"]

        def coeff_points(args, out):
            self.count("slmodel.coeff.points", int(np.size(args[1])))

        for attr in ("p_val", "r_val"):
            self.patch(mods["slmodel"].SLProblem, attr, "slmodel.coeff",
                       after=coeff_points)
        self.patch(mods["expr"], "evaluate", "expr.evaluate")
        self.patch(kernel.KernelEngine, "__init__", "kernel.engine",
                   span=True)
        self.patch(kernel.KernelEngine, "eval_many", "kernel.eval")
        self.patch(kernel.KernelEngine, "series_eval", "kernel.series")
        self.patch(kernel, "get_engine", "kernel.get_engine")
        self.patch(kernel, "solve_ivp", "kernel.ode",
                   after=lambda a, out: self.count("kernel.ode.rhs_calls",
                                                   int(out.nfev)))
        for attr in ("whittaker_w", "gauss_2f1", "parabolic_d",
                     "jn_normalized"):
            self.patch(mods["specfun"], attr, "specfun." + attr)
        for attr in ("forward_transform", "measure_transform"):
            self.patch(mods["spectral"], attr, "spectral." + attr)
        self.patch(mods["cauchy"], "solve_spectral", "cauchy.solve_spectral",
                   span=True)
        for attr in ("verify_product_formula", "convolve_measures"):
            self.patch(mods["convolution"], attr, "convolution." + attr,
                       span=True)
        for attr in ("build_cdf", "quantile", "merge_measures"):
            self.patch(mods["measures"], attr, "measures." + attr)
        for attr in ("walk_ensemble", "compound_poisson",
                     "semigroup_measure", "diffusion_ensemble"):
            self.patch(mods["prob"], attr, "prob." + attr, span=True)
        self.patch(mods["cli"], "main", "cli.main", span=True)
        families = mods["families"]
        make_family = families.make_family

        def traced_make_family(*args, **kwargs):
            return self.wrap_family(make_family(*args, **kwargs))

        self._patches.append((families, "make_family", make_family,
                              traced_make_family))

    def start(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def stop(self):
        self.active = False
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def snapshot(self):
        return ({k: list(v) for k, v in self.stats.items()},
                dict(self.counters))


def per_layer(setup, rounds, n_rounds):
    """Per-layer metric values: what set-up recorded plus the mean of one
    traced round.  setup and rounds are Tracer.snapshot() results; rounds
    holds the totals after all traced rounds."""
    s_stats, s_cnt = setup
    r_stats, r_cnt = rounds

    def stat(name, i):
        before = s_stats.get(name, [0, 0.0, 0.0])[i]
        after = r_stats.get(name, [0, 0.0, 0.0])[i]
        return before + (after - before) / n_rounds

    def cnt(name):
        before = s_cnt.get(name, 0)
        return before + (r_cnt.get(name, 0) - before) / n_rounds

    calls = {n: stat(n, 0) for n in r_stats}
    self_s = {n: stat(n, 1) for n in r_stats}
    coeff_calls = calls.get("slmodel.coeff", 0)
    get_engine = calls.get("kernel.get_engine", 0)
    builds = calls.get("kernel.engine", 0)
    m = {
        "expr.evaluate.calls": (calls.get("expr.evaluate", 0), "count"),
        "expr.evaluate.self_s": (self_s.get("expr.evaluate", 0.0), "s"),
        "slmodel.coeff.calls": (coeff_calls, "count"),
        "slmodel.coeff.points_per_call": (
            cnt("slmodel.coeff.points") / coeff_calls if coeff_calls else 0.0,
            "count"),
        "kernel.engine.builds": (builds, "count"),
        "kernel.engine.build_s": (stat("kernel.engine", 2), "s"),
        "kernel.engine.hit_ratio": (
            1.0 - builds / get_engine if get_engine else 0.0, "ratio"),
        "kernel.eval.calls": (calls.get("kernel.eval", 0), "count"),
        "kernel.eval.self_s": (self_s.get("kernel.eval", 0.0), "s"),
        "kernel.series.calls": (calls.get("kernel.series", 0), "count"),
        "kernel.series.self_s": (self_s.get("kernel.series", 0.0), "s"),
        "kernel.ode.solves": (calls.get("kernel.ode", 0), "count"),
        "kernel.ode.rhs_calls": (cnt("kernel.ode.rhs_calls"), "count"),
        "kernel.ode.self_s": (self_s.get("kernel.ode", 0.0), "s"),
        "spectral.lambda_nodes": (cnt("spectral.lambda_nodes"), "count"),
    }
    for name in ("specfun.whittaker_w", "specfun.gauss_2f1",
                 "specfun.parabolic_d", "families.conv_quad",
                 "families.conv_sampled", "families.closed_kernel",
                 "spectral.forward_transform",
                 "convolution.convolve_measures", "measures.build_cdf",
                 "measures.quantile", "measures.merge_measures"):
        m[name + ".calls"] = (calls.get(name, 0), "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("specfun.jn_normalized", "spectral.measure_transform",
                 "cauchy.solve_spectral",
                 "convolution.verify_product_formula", "prob.walk_ensemble",
                 "prob.compound_poisson", "prob.semigroup_measure",
                 "prob.diffusion_ensemble", "cli.main"):
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    return m
