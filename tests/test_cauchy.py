import dataclasses

import numpy as np
import pytest

from slconv import cauchy, errors, families, kernel, spectral


def _ebump(x, c=1.0, w=0.5):
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - c) / w) ** 2) + np.exp(-((x + c) / w) ** 2)


def test_cosine_spectral_solution_is_dalembert():
    # for the translation structure the solution is the even d'Alembert
    # average f(x,y) = [h(x+y) + h(|x-y|)] / 2
    fam = families.make_family("cosine")
    grid = np.linspace(0.0, 1.5, 13)
    fld = cauchy.solve_spectral(fam, _ebump, grid, grid,
                                x_support=(0.0, 8.0))
    want = 0.5 * (_ebump(grid[:, None] + grid[None, :])
                  + _ebump(np.abs(grid[:, None] - grid[None, :])))
    assert float(np.max(np.abs(fld.values - want))) < 1e-7


def test_spectral_field_symmetry_and_trace():
    fam = families.make_family("cosine")
    grid = np.linspace(0.0, 1.2, 9)
    fld = cauchy.solve_spectral(fam, _ebump, grid, grid,
                                x_support=(0.0, 8.0))
    assert fld.symmetry_gap() < 1e-10
    assert fld.initial_trace_gap(_ebump) < 1e-7


def test_symmetry_gap_on_partly_shared_grids():
    # x and y share only 0.5 and 1.0 (0.1 + 0.4 matches 0.5 to 10 digits);
    # the gap is max |f(0.5, 1) - f(1, 0.5)| = |7 - 2| over that 2 x 2 block
    x = np.array([0.0, 0.1 + 0.4, 1.0, 2.0])
    y = np.array([0.5, 0.7, 1.0])
    vals = np.array([[9.0, 9.0, 9.0],
                     [1.0, 9.0, 7.0],
                     [2.0, 9.0, 3.0],
                     [9.0, 9.0, 9.0]])
    fld = cauchy.Field2D(x, y, vals, "spectral")
    assert fld.symmetry_gap() == 5.0
    assert cauchy.Field2D(x, y + 10.0, vals, "spectral").symmetry_gap() == 0.0


def test_characteristics_matches_dalembert():
    fam = families.make_family("cosine")
    tri = cauchy.TriangleGrid(c=0.0, vertex=(1.2, 1.2), step=0.01)
    fld = cauchy.solve_characteristics(fam.problem, _ebump, tri)
    xg = fld.x_grid[:, None]
    yg = fld.y_grid[None, :]
    want = 0.5 * (_ebump(xg + yg) + _ebump(np.abs(xg - yg)))
    assert float(np.max(np.abs(fld.values - want))) < 5e-4


def test_characteristics_rejects_bad_cfl():
    fam = families.make_family("cosine")
    tri = cauchy.TriangleGrid(c=0.0, vertex=(1.0, 1.0), step=0.01,
                              cfl=1.5)
    with pytest.raises(errors.CFLViolation):
        cauchy.solve_characteristics(fam.problem, _ebump, tri)


def test_positivity_audit_reports_bounds():
    fld = cauchy.Field2D(x_grid=np.array([0.0, 1.0]),
                         y_grid=np.array([0.0, 1.0]),
                         values=np.array([[0.2, 0.4], [0.4, 0.9]]),
                         method="spectral")
    rep = cauchy.positivity_audit(fld, upper=1.0)
    assert rep["nonnegative_ok"]
    assert rep["upper_ok"]
    assert rep["min"] == pytest.approx(0.2)
    assert rep["max"] == pytest.approx(0.9)


def test_degenerate_limit_study_cosine():
    # truncated problems approach the full solution linearly in a_m
    fam = families.make_family("cosine")
    rep = cauchy.degenerate_limit_study(fam, _ebump,
                                        [0.4, 0.2, 0.1],
                                        probes=((0.8, 0.5),), step=0.02)
    gaps = [row["max_gap"] for row in rep["rows"]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_solve_spectral_slow_decay_guard(monkeypatch):
    # data with a nonzero quasi-derivative at the endpoint makes the
    # transform decay like 1/tau^2: the tail loop must refuse
    fam = families.make_family("cosine")
    grid = np.linspace(0.0, 1.0, 5)

    def bad(x):
        return np.exp(-np.asarray(x, dtype=float))

    monkeypatch.setattr(spectral, "MAX_WINDOWS", 6)
    with pytest.raises(errors.NumericError):
        cauchy.solve_spectral(fam, bad, grid, grid, x_support=(0.0, 40.0))


@pytest.mark.parametrize("x_support", [None, (0.0, 6.0)])
def test_solve_spectral_slow_decay_fails_fast(x_support):
    # h'(0) != 0 makes the cosine transform decay like 1/lam: the window
    # tails fall ever more slowly, so synthesis refuses within a few
    # windows instead of running its whole window budget
    fam = families.make_family("cosine")
    windows = []

    def tau_density(tau):
        windows.append(len(tau))
        return fam.spectral.tau_density(tau)

    counted = dataclasses.replace(fam, spectral=dataclasses.replace(
        fam.spectral, tau_density=tau_density))
    grid = np.linspace(0.0, 2.0, 3)

    def h(x):
        return np.exp(-(np.asarray(x, dtype=float) - 1.0) ** 2)

    with pytest.raises(errors.SlowDecay):
        cauchy.solve_spectral(counted, h, grid, grid, x_support=x_support)
    assert 0 < len(windows) <= 5


def test_solve_spectral_one_kernel_call_per_block(monkeypatch):
    # whittaker alpha = 0 on the numeric kernel: each lam block takes its
    # transform coefficient and its grid rows from one kernel evaluation
    fam = families.make_family("whittaker", {"alpha": 0.0})
    grid = np.array([0.5, 0.8])
    support = (0.2, 3.5)

    def h(x):
        return np.exp(-((np.asarray(x, dtype=float) - 1.5) / 0.35) ** 2)

    tables, blocks = [], []
    table, rule = kernel.KernelEngine.table, spectral.TransformCoef.rule

    def counted_table(self, lams, xs, with_w1=True):
        tables.append(len(xs))
        return table(self, lams, xs, with_w1)

    def counted_rule(self, problem, lams):
        blocks.append(len(lams))
        return rule(self, problem, lams)

    monkeypatch.setattr(kernel.KernelEngine, "table", counted_table)
    monkeypatch.setattr(spectral.TransformCoef, "rule", counted_rule)
    fld = cauchy.solve_spectral(fam, h, grid, grid, x_support=support,
                                tol=1e-6, nodes_per_unit=0.5)
    assert len(blocks) >= 2
    assert len(tables) == len(blocks)
    # the two-call construction: the transform per block, then the rows
    ref, stop = spectral.synthesize(
        fam, lambda lams: spectral.forward_transform(fam, h, lams,
                                                     x_support=support),
        grid, grid, 1e-6, 0.5)
    assert len(tables) == 3 * len(blocks)
    assert stop == fld.stop
    np.testing.assert_allclose(fld.values, ref, rtol=1e-12, atol=0)
