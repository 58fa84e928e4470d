import dataclasses
import math

import numpy as np
import pytest

from conftest import smooth_bump
from slconv import errors, families, kernel, measures, slmodel, spectral


def _numeric_cosine():
    # the cosine problem without its closed form: the numeric kernel
    return families.from_problem(families.make_family("cosine").problem)


def test_forward_transform_cosine_gaussian():
    # integral of exp(-x^2) cos(sqrt(lam) x) dx = sqrt(pi)/2 exp(-lam/4)
    fam = _numeric_cosine()
    for lam in (0.0, 1.0, 4.0, 10.0):
        got = spectral.forward_transform(
            fam, lambda x: np.exp(-np.asarray(x, dtype=float) ** 2), lam)
        want = 0.5 * math.sqrt(math.pi) * math.exp(-lam / 4.0)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_forward_transform_x_support_window():
    fam = _numeric_cosine()
    h = smooth_bump
    full = spectral.forward_transform(fam, h, 2.0)
    windowed = spectral.forward_transform(fam, h, 2.0,
                                          x_support=(0.0, 2.0))
    assert windowed == pytest.approx(full, rel=1e-10)


def test_forward_transform_closed_kernel_agrees():
    fam = families.make_family("hankel", {"alpha": 0.5})
    v1 = spectral.forward_transform(families.from_problem(fam.problem),
                                    smooth_bump, 3.0, x_support=(0.0, 2.0))
    v2 = spectral.forward_transform(fam, smooth_bump, 3.0,
                                    x_support=(0.0, 2.0))
    assert v1 == pytest.approx(v2, rel=1e-8)


def test_forward_transform_tail_not_decaying():
    fam = _numeric_cosine()
    with pytest.raises(errors.TailNotDecaying):
        spectral.forward_transform(fam, lambda x: np.ones_like(
            np.asarray(x, dtype=float)), 0.0)


def test_measure_transform_atoms():
    fam = families.make_family("cosine")
    mu = measures.MeasureRepr(atoms=((1.0, 0.5), (2.0, 0.5)))
    got = spectral.measure_transform(fam, mu, 4.0)
    want = 0.5 * math.cos(2.0) + 0.5 * math.cos(4.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_measure_transform_at_zero_is_mass():
    fam = families.make_family("hankel", {"alpha": 0.5})
    g = np.linspace(0.5, 1.5, 21)
    mu = measures.MeasureRepr(
        atoms=((0.3, 0.25),),
        segments=(measures.Segment(0.5, 1.5, g, np.full(21, 0.75)),))
    got = spectral.measure_transform(families.from_problem(fam.problem),
                                     mu, 0.0)
    assert got == pytest.approx(measures.total_mass(mu), rel=1e-12)


def test_inverse_transform_round_trip_cosine():
    # phi(lam) = exp(-t lam) inverts to the heat kernel from x = a: the
    # folded Gaussian for cosine, exp(-x^2/4t) / (8 t^2) for hankel
    # alpha = 1 (0.78125 at x = 0, t = 0.4)
    t = 0.4
    cases = [(families.make_family("cosine"),
              lambda x: 2.0 * math.exp(-x * x / (4 * t))
              / math.sqrt(4 * math.pi * t)),
             (families.make_family("hankel", {"alpha": 1.0}),
              lambda x: math.exp(-x * x / (4 * t)) / (8 * t * t))]
    for fam, heat in cases:
        for x in (0.0, 0.7, 1.5):
            got = spectral.inverse_transform(
                fam, lambda lam: math.exp(-t * lam), x)
            assert got == pytest.approx(heat(x), rel=1e-7, abs=1e-10)


def test_synthesize_reports_stop_reason():
    fam = families.make_family("cosine")
    xs = np.array([0.0, 0.5])
    vals, stop = spectral.synthesize(
        fam, lambda lams: np.exp(-lams), [0.0], xs, 1e-9)
    assert vals.shape == (1, 2)
    assert stop.reason == "tol"
    assert stop.tail_ratio < 1e-9
    # folded heat kernel at t = 1
    want = np.exp(-xs ** 2 / 4.0) / math.sqrt(math.pi)
    assert np.allclose(vals[0], want, rtol=1e-9)
    # a constant 1e-9 floor: the tail stops decaying far above tol but
    # below the noise floor, and the stop says so
    vals, stop = spectral.synthesize(
        fam, lambda lams: np.exp(-lams) + 1e-9, [0.0], xs, 1e-9)
    assert stop.reason == "noise_floor"
    assert 1e-9 < stop.tail_ratio <= spectral.NOISE_FLOOR
    assert np.allclose(vals[0], want, rtol=1e-6)
    with pytest.raises(errors.SlowDecay):
        spectral.inverse_transform(fam, lambda lam: math.exp(-lam) + 1e-9,
                                   0.0)


def _kernel_counted(fam, sizes):
    """fam with its closed kernel wrapped to record each call's lam
    count."""
    ck = fam.closed_kernel

    def counted(lams, xs):
        sizes.append(len(lams))
        return ck(lams, xs)
    return dataclasses.replace(fam, closed_kernel=counted)


def test_synthesize_passes_bounded_blocks():
    # the point at 10 puts 1440 tau nodes in the first window alone
    coef_sizes, row_sizes = [], []
    fam = _kernel_counted(families.make_family("cosine"), row_sizes)
    xs = np.array([0.0, 0.5, 3.0])

    def coef(lams):
        coef_sizes.append(len(lams))
        return np.exp(-lams)

    vals, stop = spectral.synthesize(fam, coef, [0.0], np.r_[xs, 10.0],
                                     1e-9)
    assert max(coef_sizes) == max(row_sizes) == spectral.LAMBDA_BLOCK
    assert sum(row_sizes) > 20 * spectral.LAMBDA_BLOCK
    assert stop.reason == "tol"
    want = np.exp(-xs ** 2 / 4.0) / math.sqrt(math.pi)
    np.testing.assert_allclose(vals[0, :3], want, rtol=1e-9)


def test_synthesize_bilinear_is_folded_heat_kernel():
    # cosine: sum of exp(-t lam) cos(tau x) cos(tau y) is the 2-D folded
    # Gaussian; xs and ys overlap, are unsorted and repeat a point, and
    # each lam block is one kernel call over their union
    t = 0.3
    coef_sizes, row_sizes = [], []
    fam = _kernel_counted(families.make_family("cosine"), row_sizes)

    def coef(lams):
        coef_sizes.append(len(lams))
        return np.exp(-t * lams)

    xs = np.array([1.2, 0.0, 0.7, 0.7])
    ys = np.array([0.7, 2.5, 0.0, 1.9, 0.3])
    vals, stop = spectral.synthesize(fam, coef, xs, ys, 1e-10)
    assert stop.reason == "tol"
    assert row_sizes == coef_sizes

    def heat(x, y):
        return ((np.exp(-(x - y) ** 2 / (4 * t))
                 + np.exp(-(x + y) ** 2 / (4 * t)))
                / math.sqrt(4 * math.pi * t))

    np.testing.assert_allclose(vals, heat(xs[:, None], ys[None, :]),
                               rtol=0, atol=1e-10)
    # the x = a row is the one-sided sum over ys
    one, _ = spectral.synthesize(fam, coef, [0.0], ys, 1e-10)
    np.testing.assert_allclose(vals[1], one[0], rtol=1e-13, atol=1e-15)


def test_forward_transform_lambda_array_matches_scalar():
    fam = _numeric_cosine()

    def h(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    lams = np.array([0.0, 1.0, 4.0, 10.0])
    got = spectral.forward_transform(fam, h, lams)
    assert got.shape == (4,)
    want = 0.5 * math.sqrt(math.pi) * np.exp(-lams / 4.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
    one = spectral.forward_transform(fam, h, 4.0)
    assert isinstance(one, float)
    assert one == pytest.approx(got[2], rel=1e-12)


def test_spectral_measure_density_conversion():
    fam = families.make_family("cosine")
    lam = 4.0
    tau = 2.0
    want = fam.spectral.tau_density(np.array([tau]))[0] / (2 * tau)
    got = fam.spectral.density(np.array([lam]))[0]
    assert got == pytest.approx(want, rel=1e-13)


def test_measure_transform_closed_kernel_atom_at_left_end():
    # whittaker's closed form is singular at x = a; w = 1 there on both paths
    fam = families.make_family("whittaker", {"alpha": 0.0})
    mu = measures.MeasureRepr(atoms=((0.0, 0.3), (1.0, 0.7)))
    closed = spectral.measure_transform(
        dataclasses.replace(fam, prefer_closed_kernel=True), mu, 2.0)
    numeric = spectral.measure_transform(fam, mu, 2.0)
    assert np.isfinite(closed)
    assert closed == pytest.approx(numeric, rel=0, abs=1e-8)


def test_forward_transform_rejects_bad_x_support():
    fam = _numeric_cosine()
    for support in ((0.0, math.inf), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(errors.ParamOutOfRange):
            spectral.forward_transform(fam, smooth_bump, [1.0, 4.0],
                                       x_support=support)


def _recorded_tables(monkeypatch):
    """The point sets of every KernelEngine.table call from now on."""
    calls = []
    table = kernel.KernelEngine.table

    def recorded(self, lams, xs, with_w1=True):
        calls.append(np.array(xs))
        return table(self, lams, xs, with_w1)

    monkeypatch.setattr(kernel.KernelEngine, "table", recorded)
    return calls


def test_forward_transform_windows_take_one_table(monkeypatch):
    # p = r = x^3 (hankel alpha = 1 without its closed form): the six
    # doubling windows [0, 1], [1, 2], [2, 4], ..., [16, 32] take one
    # numeric table over all their nodes
    problem = slmodel.custom_problem_from_dict(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1})
    fam = families.from_problem(problem)
    lams = np.arange(0.0, 11.0)

    def h(x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    calls = _recorded_tables(monkeypatch)
    got = spectral.forward_transform(fam, h, lams)
    monkeypatch.undo()
    np.testing.assert_allclose(got, 0.5 * np.exp(-lams / 4.0), rtol=0,
                               atol=1e-9)
    # fresh tables window by window, summed window by window
    want = np.zeros(len(lams))
    windows = []
    lo, hi = 0.0, 1.0
    for _ in range(6):
        nodes, wts = spectral._transform_rule(problem, h, lams, lo, hi)
        windows.append(nodes)
        want += spectral._row_sums(
            kernel.kernel_table(problem, lams, nodes) * wts)
        lo, hi = hi, 2.0 * hi
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate(windows))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_forward_transform_retakes_the_table_for_a_growing_kernel(
        monkeypatch):
    # p = r = e^-x: sqrt(p r) decreases and w_lam grows like e^(x/2), so
    # the rule on |h| r stops one window short of the rule on the
    # transform, and the table is retaken once with one more window; the
    # transform of e^-x is the Laplace transform of w_lam at 2, 1/(2 + lam)
    problem = slmodel.custom_problem_from_dict(
        {"p": "exp(-x)", "r": "exp(-x)", "a": 0, "b": "inf", "c": 1})
    fam = families.from_problem(problem)
    lams = np.array([0.0, 1.0, 4.0, 9.0])
    calls = _recorded_tables(monkeypatch)
    got = spectral.forward_transform(
        fam, lambda x: np.exp(-np.asarray(x, dtype=float)), lams)
    assert len(calls) == 2
    assert np.array_equal(calls[1][:len(calls[0])], calls[0])
    np.testing.assert_allclose(got, 1.0 / (2.0 + lams), rtol=0, atol=1e-12)


def test_forward_transform_tables_a_decaying_kernel_early(monkeypatch):
    # p = r = x^3 with h = (1 + x)^-8 and lam > 0: |h| r ~ x^-5 would keep
    # the kernel-free rule laying windows far beyond the transform's own
    # rule, since w_lam decays like x^-3/2 (|h| r alone would take some
    # 314,000 nodes); the windows take a table once they pass _TABLE_NODES
    # nodes, and that one table, within a doubling of the ten windows the
    # rule needs (20,436 nodes), ends it
    problem = slmodel.custom_problem_from_dict(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1})
    fam = families.from_problem(problem)
    lams = np.array([1.0, 25.0])

    def h(x):
        return (1.0 + np.asarray(x, dtype=float)) ** -8

    calls = _recorded_tables(monkeypatch)
    got = spectral.forward_transform(fam, h, lams)
    monkeypatch.undo()
    # fresh tables window by window until the rule holds on their sums
    sums, free, nodes = [], [], 0
    lo, hi = 0.0, 1.0
    want = None
    while want is None:
        xs, wts = spectral._transform_rule(problem, h, lams, lo, hi)
        sums.append(spectral._row_sums(
            kernel.kernel_table(problem, lams, xs) * wts))
        free.append(spectral._row_sums(np.abs(wts)[None]))
        nodes += len(xs)
        want = spectral._doubling_stop(sums)
        lo, hi = hi, 2.0 * hi
    assert not spectral._kernel_free_stop(free)
    assert len(calls) == 1
    assert len(calls[0]) <= 2 * nodes
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_forward_transform_with_lambda_zero_takes_no_early_table(monkeypatch):
    # w_0 = 1 and h = (1 + x)^-8 > 0: the lam = 0 column meets the
    # transform's rule no sooner than |h| r meets it, so the windows take
    # their one table once the kernel-free rule holds, not at every
    # doubling of their nodes past _TABLE_NODES
    problem = slmodel.custom_problem_from_dict(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1})
    fam = families.from_problem(problem)

    def h(x):
        return (1.0 + np.asarray(x, dtype=float)) ** -8

    calls = _recorded_tables(monkeypatch)
    got = spectral.forward_transform(fam, h, np.array([0.0, 25.0]))
    assert len(calls) == 1
    # B(4, 4) = 1/140 at lam = 0; at lam = 25 the value the early tables
    # gave
    np.testing.assert_allclose(got, [1.0 / 140.0, 8.885469501324521e-4],
                               rtol=0, atol=1e-12)
