"""Command-line surface: subcommand dispatch, configuration loading, and
CSV/JSON emission for the numeric operations.

Exit codes: 0 success, 1 validation failure, 2 numeric failure; failures
emit one machine-readable JSON object on stderr.  Every CSV artifact
starts with `# slconv v<semver> seed=<n> cmd=<...>` and prints floats
with 17 significant digits so reruns are byte-identical.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import (cauchy, convolution, errors, expr, families, kernel,
               measures, prob, slmodel, spectral)

__version__ = "0.1.0"

_F = "%.17g"


def _fmt(v):
    return _F % float(v)


def _grid_spec(text):
    """Parse 'start:step:stop' into an inclusive numpy grid."""
    try:
        lo, step, hi = (float(t) for t in text.split(":"))
    except ValueError:
        raise errors.ParamOutOfRange(
            "grid spec must be start:step:stop, got %r" % text)
    if step <= 0 or hi < lo:
        raise errors.ParamOutOfRange("grid spec %r not increasing" % text)
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def _step_law(text):
    """Parse a step-law spec: 'delta:LOC', 'uniform:LO,HI' (finite
    numbers)."""
    kind, _, rest = text.partition(":")
    try:
        vals = [float(t) for t in rest.split(",")]
    except ValueError:
        vals = []
    if not np.all(np.isfinite(vals)):
        vals = []
    if kind == "delta" and len(vals) == 1:
        return measures.dirac(vals[0])
    if kind == "uniform" and len(vals) == 2:
        lo, hi = vals
        if hi <= lo:
            raise errors.ParamOutOfRange("uniform law needs lo < hi")
        g = np.linspace(lo, hi, 64)
        return measures.MeasureRepr(segments=(measures.Segment(
            lo, hi, g, np.full(64, 1.0 / (hi - lo))),))
    raise errors.ParamOutOfRange(
        "step law must be delta:LOC or uniform:LO,HI, got %r" % text)


def _resolve(args):
    """The Family named by the --family/--problem flags; a custom problem
    file gives families.from_problem (numeric kernel, no spectral or
    convolution measure)."""
    if getattr(args, "problem", None):
        d = slmodel.load_problem_dict(args.problem)
        if "family" in d:
            return families.load_family(d)
        return families.from_problem(slmodel.custom_problem_from_dict(d))
    if getattr(args, "family", None):
        params = {}
        if getattr(args, "alpha", None) is not None:
            params["alpha"] = args.alpha
        if getattr(args, "beta", None) is not None:
            params["beta"] = args.beta
        return families.make_family(args.family, params)
    raise errors.ParamOutOfRange("need --family or --problem")


class _Writer:
    def __init__(self, args):
        self.path = getattr(args, "out", None)
        cmd = " ".join(args.argv)
        self.lines = ["# slconv v%s seed=%d cmd=%s"
                      % (__version__, getattr(args, "seed", 0), cmd)]

    def row(self, *vals):
        self.lines.append(",".join(
            v if isinstance(v, str) else _fmt(v) for v in vals))

    def comment(self, text):
        self.lines.append("# " + text)

    def flush(self):
        body = "\n".join(self.lines) + "\n"
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(body)
        else:
            sys.stdout.write(body)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_kernel(args):
    problem = _resolve(args).problem
    if args.truncate is not None:
        kv = kernel.eval_kernel_truncated(problem, args.lam, args.x,
                                          args.truncate)
    else:
        kv = kernel.eval_kernel(problem, args.lam, args.x)
    out = _Writer(args)
    out.row("w", "w1", "err")
    out.row(kv.w, kv.w1, kv.err_est)
    out.flush()
    return 0


def _cmd_transform(args):
    fam = _resolve(args)
    h = expr.CoeffExpr(args.h)
    lam_grid = _grid_spec(args.lambda_grid)
    out = _Writer(args)
    out.row("lambda", "value")
    vals = spectral.forward_transform(fam, h, lam_grid)
    for lam, val in zip(lam_grid, vals):
        out.row(lam, val)
    out.flush()
    return 0


def _cmd_convolve(args):
    fam = _resolve(args)
    nu = families.family_convolution_measure(fam, args.x, args.y)
    body = measures.measure_to_json(nu)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        sys.stdout.write(body + "\n")
    return 0


def _cmd_product_check(args):
    fam = _resolve(args)
    lam_grid = _grid_spec(args.lambda_grid)
    rep = convolution.verify_product_formula(fam, args.x, args.y, lam_grid)
    out = _Writer(args)
    out.comment("max_abs_err=%s mass=%s" % (_fmt(rep.max_abs_err),
                                            _fmt(rep.mass)))
    out.row("lambda", "lhs", "rhs", "abs_err")
    for lam, l, r in zip(rep.lambda_grid, rep.lhs, rep.rhs):
        out.row(lam, l, r, abs(l - r))
    out.flush()
    return 0


def _cmd_cauchy(args):
    fam = _resolve(args)
    h = expr.CoeffExpr(args.h)
    grid = _grid_spec(args.grid)
    if args.method == "spectral":
        field = cauchy.solve_spectral(fam, h, grid, grid,
                                      x_support=(grid[0], grid[-1]))
    else:
        step = grid[1] - grid[0]
        tri = cauchy.TriangleGrid(c=fam.problem.a,
                                  vertex=(float(grid[-1]), float(grid[-1])),
                                  step=float(step))
        field = cauchy.solve_characteristics(fam.problem, h, tri)
    out = _Writer(args)
    out.row("x\\y", *[_fmt(y) for y in field.y_grid])
    for i, x in enumerate(field.x_grid):
        out.row(x, *[_fmt(v) for v in field.values[i]])
    out.flush()
    return 0


def _cmd_semigroup(args):
    fam = _resolve(args)
    psi = expr.CoeffExpr(args.psi.replace("lambda", "x"))
    x_grid = _grid_spec(args.x_grid)
    mu = prob.semigroup_measure(fam, psi, args.t, x_grid)
    seg = mu.segments[0]
    out = _Writer(args)
    out.row("x", "density")
    for x, d in zip(seg.grid, seg.density):
        out.row(x, d)
    out.flush()
    return 0


def _cmd_walk(args):
    fam = _resolve(args)
    law = _step_law(args.step)
    rng = np.random.default_rng(args.seed)
    term = prob.walk_ensemble(fam, law, args.n, args.paths, rng)
    out = _Writer(args)
    out.row("n", "paths", "mean", "std", "p10", "p50", "p90")
    out.row(float(args.n), float(args.paths), np.mean(term),
            np.std(term), np.percentile(term, 10.0),
            np.percentile(term, 50.0), np.percentile(term, 90.0))
    out.flush()
    return 0


def _cmd_classify(args):
    problem = _resolve(args).problem
    left = slmodel.classify_boundary(problem, "left")
    right = slmodel.classify_boundary(problem, "right")
    sys.stdout.write("left=%s right=%s\n" % (left.kind, right.kind))
    return 0


def _cmd_validate_family(args):
    fam = _resolve(args)
    rng = np.random.default_rng(args.seed)
    lam_grid = np.linspace(0.0, 25.0, 26)
    lo = fam.problem.a
    checks = []
    for _ in range(3):
        x = lo + 0.3 + 1.4 * rng.uniform()
        y = lo + 0.3 + 1.4 * rng.uniform()
        rep = convolution.verify_product_formula(fam, x, y, lam_grid)
        checks.append(("product x=%.3f y=%.3f" % (x, y),
                       rep.max_abs_err, 1e-5))
        checks.append(("mass x=%.3f y=%.3f" % (x, y),
                       abs(rep.mass - 1.0), 1e-8))
    all_ok = True
    for name, err, tol in checks:
        ok = err <= tol
        all_ok = all_ok and ok
        sys.stdout.write("%s %s err=%s tol=%s\n"
                         % ("PASS" if ok else "FAIL", name,
                            _fmt(err), _fmt(tol)))
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------

class _ArgError(Exception):
    pass


class _Argparser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The subcommand parser, built once per process (parsing keeps no
    state in it)."""
    ap = _Argparser(
        prog="slconv",
        description="Sturm-Liouville convolution structures: kernels, "
                    "transforms, convolutions, and associated processes.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Argparser)

    def common(p, out=True):
        p.add_argument("--family", choices=sorted(families.FAMILY_NAMES))
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("kernel", help="evaluate the kernel w_lambda(x)")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--truncate", type=float, default=None,
                   help="truncation point a_m for the restricted problem")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("transform", help="forward transform of h")
    common(p)
    p.add_argument("--h", required=True, help="expression in x")
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                   help="start:step:stop")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("convolve", help="convolution measure of two points")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(fn=_cmd_convolve)

    p = sub.add_parser("product-check",
                       help="verify the product formula at (x, y)")
    common(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True)
    p.set_defaults(fn=_cmd_product_check)

    p = sub.add_parser("cauchy", help="solve the hyperbolic Cauchy problem")
    common(p)
    p.add_argument("--h", required=True, help="initial data, expr in x")
    p.add_argument("--method", choices=("spectral", "characteristic"),
                   default="spectral")
    p.add_argument("--grid", required=True, help="start:step:stop")
    p.set_defaults(fn=_cmd_cauchy)

    p = sub.add_parser("semigroup", help="convolution semigroup density")
    common(p)
    p.add_argument("--psi", required=True, help="exponent, expr in lambda")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x-grid", dest="x_grid", required=True)
    p.set_defaults(fn=_cmd_semigroup)

    p = sub.add_parser("walk", help="terminal statistics of the walk")
    common(p)
    p.add_argument("--step", required=True,
                   help="step law: delta:LOC or uniform:LO,HI")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.set_defaults(fn=_cmd_walk)

    p = sub.add_parser("classify", help="Feller boundary classification")
    common(p, out=False)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("validate-family",
                       help="product-formula and mass-one report")
    common(p, out=False)
    p.set_defaults(fn=_cmd_validate_family)
    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _build_parser()
    try:
        try:
            args = ap.parse_args(argv)
        except _ArgError as ex:
            raise errors.ParamOutOfRange(str(ex))
        args.argv = argv
        return args.fn(args)
    except errors.ValidationError as ex:
        sys.stderr.write(json.dumps(
            {"error": type(ex).__name__, "kind": "validation",
             "message": str(ex)}) + "\n")
        return 1
    except errors.NumericError as ex:
        sys.stderr.write(json.dumps(
            {"error": type(ex).__name__, "kind": "numeric",
             "message": str(ex)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
