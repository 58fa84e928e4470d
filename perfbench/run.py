"""slconv benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/` of that checkout.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
is a JSON report (machine, rounds, per-operation raw and calibrated
times, failures, checks and, when traced, spans).  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
KINDS = ("spectral", "measure")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("numeric-kernel", "closed-form", "sampling"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args()


def timed(clock, fn):
    """fn() and its stretch: (perf_counter start, end, work time by
    clock)."""
    t0, w0 = time.perf_counter(), clock()
    out = fn()
    return out, (t0, time.perf_counter(), clock() - w0)


def import_program():
    import numpy
    import scipy
    from slconv import (cauchy, cli, convolution, expr, families, kernel,
                        measures, prob, slmodel, specfun, spectral)
    return numpy, scipy, dict(
        cauchy=cauchy, cli=cli, convolution=convolution, expr=expr,
        families=families, kernel=kernel, measures=measures, prob=prob,
        slmodel=slmodel, specfun=specfun, spectral=spectral)


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "slconv", "cli.py")):
        sys.stderr.write("perfbench: no slconv sources under %s; run from "
                         "the root of a source checkout\n" % SRC)
        return 2
    ncpu = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(ncpu)
    sys.path.insert(0, SRC)
    import speed  # imports numpy, after the thread limits above
    sampler = speed.SpeedSampler()
    if not args.trace:
        # sampled from before the imports of scipy and slconv, which
        # set-up time includes (numpy, which the calibration uses, is
        # imported with speed)
        sampler.start()
    (np, scipy, mods), import_t = timed(sampler.work_clock, import_program)
    import tracer
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            result, report = run_traced(wl, args, mods, tracer)
        else:
            result, report = run_timed(wl, args, sampler, import_t,
                                       mods["kernel"])
    report.update(workload=wl.name, seed=args.seed, machine={
        "nproc": ncpu, "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__})
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_round(wl, seed, index, clock=time.perf_counter, fns=None):
    """One round: every op once, in order (fns maps an op name to the
    callable to run instead of op.fn).  Returns per-op stretches (see
    timed(); None for a failed op), outputs, failures (op name -> error
    type) and the round's start and end by perf_counter."""
    import numpy as np
    rng = np.random.default_rng([seed, index])
    times, outputs, failures = {}, {}, {}
    start = time.perf_counter()
    for op in wl.ops:
        fn = op.fn if fns is None else fns[op.name]
        try:
            outputs[op.name], times[op.name] = timed(clock, lambda: fn(rng))
        except Exception as ex:  # any failure is counted, with its type
            times[op.name] = None
            failures[op.name] = type(ex).__name__
            if op.expect != type(ex).__name__:
                sys.stderr.write("perfbench: %s failed:\n%s"
                                 % (op.name, traceback.format_exc()))
    return {"start": start, "end": time.perf_counter(), "times": times,
            "outputs": outputs, "failures": failures}


def run_rounds(wl, seconds, seed, clock=time.perf_counter, fns=None):
    """Whole rounds until the next one would end after `seconds` (at least
    one round)."""
    rounds = []
    t0 = clock()
    while True:
        rounds.append(run_round(wl, seed, len(rounds), clock, fns))
        elapsed = clock() - t0
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def summarize(wl, rounds):
    """attempted, failed, failure types per op, and the checks.  An op
    known to fail (op.expect) counts in failed when it fails; it is a
    check failure only if it fails with another error type."""
    fail_types = {}
    for r in rounds:
        for name, err in r["failures"].items():
            counts = fail_types.setdefault(name, {})
            counts[err] = counts.get(err, 0) + 1
    failed = sum(sum(v.values()) for v in fail_types.values())
    outputs = {}
    for r in rounds:
        for name, out in r["outputs"].items():
            outputs.setdefault(name, []).append(out)
    checks = []
    for op in wl.ops:
        unexpected = set(fail_types.get(op.name, {})) - {op.expect}
        if unexpected:
            checks.append(("%s runs" % op.name, False,
                           str(fail_types[op.name])))
    if not checks:
        checks += wl.check(outputs)
    return len(wl.ops) * len(rounds), failed, fail_types, checks


def result_line(checks, attempted, failed, metrics):
    return {"correct": all(ok for _, ok, _ in checks),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def run_timed(wl, args, sampler, import_t, kernel):
    """Set-up SETUP_REPEATS times, then rounds for args.seconds, all while
    the sampler runs; every stretch is scaled by the calibration sampled
    around it (speed.py)."""
    import resource
    import speed
    setup_t = []
    for _ in range(SETUP_REPEATS):
        kernel.clear_engine_cache()
        setup_t.append(timed(sampler.work_clock, wl.setup)[1])
    rounds = run_rounds(wl, args.seconds, args.seed, sampler.work_clock)
    sampler.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, fail_types, checks = summarize(wl, rounds)
    import_cal = sampler.scaled(*import_t)
    setup_runs_cal = [sampler.scaled(*t) for t in setup_t]
    setup_cal = import_cal + statistics.median(setup_runs_cal)

    def per_op(f):
        """op name -> [f(stretch) for each round], None for a failure."""
        return {op.name: [None if r["times"][op.name] is None
                          else f(r["times"][op.name]) for r in rounds]
                for op in wl.ops}

    op_cal = per_op(lambda t: sampler.scaled(*t))
    metrics = {"setup_s": (speed.REF_CAL_S * setup_cal, "s"),
               "peak_rss_mb": (peak_mb, "MB")}
    report = {"rounds": len(rounds), "ops_per_round": len(wl.ops),
              "import_s": import_t[2],
              "setup_runs_s": [t[2] for t in setup_t],
              "import_cal": import_cal, "setup_runs_cal": setup_runs_cal,
              "calibration_samples": len(sampler.samples),
              "calibration_median_s": statistics.median(
                  d for _, d in sampler.samples),
              "op_s": per_op(lambda t: t[2]),
              "op_cal": op_cal,
              "failures": fail_types, "checks": [list(c) for c in checks]}
    for kind in KINDS:
        # a known-failing op stays out of the sums whether or not it
        # fails, so that mending it changes only `failed`
        med = {op.name: statistics.median(
            [v for v in op_cal[op.name] if v is not None] or [0.0])
            for op in wl.ops if op.kind == kind and op.expect is None}
        total = sum(med.values())
        metrics[kind + "_cal"] = (total, "cal")
        report[kind + "_share"] = {n: v / (total or 1.0)
                                   for n, v in med.items()}
    walks = [op.name for op in wl.ops if op.name.startswith("walk-")]
    whole = [r for r in rounds if all(r["times"][n] for n in walks)]
    if walks and whole:
        report["walk_steps_per_s"] = wl.path_steps() / statistics.median(
            sum(r["times"][n][2] for n in walks) for r in whole)
    return result_line(checks, attempted, failed, metrics), report


def run_traced(wl, args, mods, tracer):
    """Set-up and rounds with the tracer on, then one untraced round for
    the tracing overhead.  Checks run with the tracer off."""
    tr = tracer.Tracer()
    tr.install(mods)
    fns = {op.name: tr.wrap(op.fn, "op:" + op.name, span=True)
           for op in wl.ops}
    tr.start()
    tr.wrap(wl.setup, "setup", span=True)()
    after_setup = tr.snapshot()
    rounds = run_rounds(wl, args.seconds, args.seed, fns=fns)
    totals = tr.snapshot()
    tr.stop()
    plain = run_round(wl, args.seed, len(rounds))
    attempted, failed, fail_types, checks = summarize(wl, rounds + [plain])
    traced_wall = statistics.mean(r["end"] - r["start"] for r in rounds)
    plain_wall = plain["end"] - plain["start"]
    layer = tracer.per_layer(after_setup, totals, len(rounds))
    layer["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    report = {"rounds_traced": len(rounds), "ops_per_round": len(wl.ops),
              "traced_round_s": traced_wall, "untraced_round_s": plain_wall,
              "failures": fail_types, "checks": [list(c) for c in checks],
              "spans": [[n, round(a, 6), round(b - a, 6), p]
                        for n, a, b, p in tr.spans]}
    return result_line(checks, attempted, failed, layer), report


if __name__ == "__main__":
    sys.exit(main())
