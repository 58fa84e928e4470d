import numpy as np
import pytest

from slconv import errors, families, slmodel


def test_classify_boundary_oracles():
    cosine = families.make_family("cosine").problem
    assert slmodel.classify_boundary(cosine, "left").kind == "regular"
    assert slmodel.classify_boundary(cosine, "right").kind == "natural"
    bessel = families.make_family("hankel", {"alpha": 0.0}).problem
    assert slmodel.classify_boundary(bessel, "left").kind == "entrance"


def test_validate_left_endpoint_accepts_builtin():
    for name, params in (("cosine", {}), ("hankel", {"alpha": 0.5})):
        prob = families.make_family(name, params).problem
        slmodel.validate_left_endpoint(prob)   # must not raise


def test_custom_problem_from_dict_and_eval():
    prob = slmodel.custom_problem_from_dict(
        {"p": "1", "r": "(1 + x)^2", "a": 0.0, "b": "inf", "c": 1.0})
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(prob.r_val(xs), (1 + xs) ** 2)
    assert prob.p_val(1.5) == pytest.approx(1.0)


def test_custom_problem_missing_key():
    with pytest.raises(errors.ValidationError):
        slmodel.custom_problem_from_dict({"p": "1", "a": 0.0})


def test_gamma_cells_cosine_identity():
    # p = r = 1: gamma(x) = x - c, so each cell's gamma is its width, and
    # A = sqrt(p r) = 1 has A'/A = 0
    prob = families.make_family("cosine").problem
    xs = np.linspace(0.1, 2.0, 9)
    np.testing.assert_allclose(prob.gamma_cells(xs), np.diff(xs),
                               rtol=1e-14, atol=0.0)
    assert np.all(prob.aprime_over_a(xs) == 0.0)


def test_standard_form_quantities_custom():
    # p = 1, r = (1+x)^2: A = sqrt(p r) = 1 + x, so A'/A = (1+x)^-2 in xi,
    # and xi = int_1^x sqrt(r/p) = x + x^2/2 - 3/2
    prob = slmodel.custom_problem_from_dict(
        {"p": "1", "r": "(1 + x)^2", "a": 0.0, "b": "inf", "c": 1.0})
    xs = np.linspace(1.0, 5.0, 41)
    np.testing.assert_allclose(prob.aprime_over_a(xs), (1.0 + xs) ** -2,
                               rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.cumsum(prob.gamma_cells(xs)),
                               xs[1:] + 0.5 * xs[1:] ** 2 - 1.5,
                               rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name, params", [
    ("whittaker", {"alpha": 0.0}), ("whittaker", {"alpha": -0.5}),
    ("degenerate_custom", {})])
def test_check_mp_assumption_degenerate_examples(name, params):
    # p and r both underflow toward a = 0 (factor exp(-1/x)), yet
    # A'/A = 1 - 2 alpha + 1/x (kappa = 1 for degenerate_custom's default)
    # is finite, positive and decreasing: eta = 0 is admissible
    prob = families.make_family(name, params).problem
    rep = slmodel.check_mp_assumption(prob, "0")
    assert np.all(np.isfinite(rep.phi_eta))
    assert rep.admissible
    assert not rep.violations


def test_check_mp_assumption_builtin():
    # hankel alpha=1/2: the standard coordinate is xi = x - 1 (gamma is
    # anchored at c = 1), so A = (xi + 1)^2 and eta = A'/A = 2/(xi + 1)
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    rep = slmodel.check_mp_assumption(prob, "2/(x+1)")
    assert rep.admissible
    assert not rep.violations


@pytest.mark.parametrize("eta", ["1/(x+1)", "1.999999/(x+1)"])
def test_check_mp_assumption_admits_strict_case(eta):
    # hankel alpha=1/2 with eta = k/(xi+1), k < 2: phi = (2-k)/(xi+1) >= 0
    # and psi = k(2-k)/(4(xi+1)^2), both nonincreasing
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    rep = slmodel.check_mp_assumption(prob, eta)
    assert rep.admissible
    assert not rep.violations


@pytest.mark.parametrize("eta", ["2.000001/(x+1)", "3/(x+1)",
                                 "2/(x+1) + 1e-6"])
def test_check_mp_assumption_rejects_phi_negative(eta):
    # phi = A'/A - eta < 0 on the whole grid, by as little as 1e-6
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    rep = slmodel.check_mp_assumption(prob, eta)
    assert not rep.admissible
    assert rep.violations


def test_check_mp_assumption_rejects_undefined_eta():
    # sqrt(xi) is NaN on the part of the grid where xi < 0: the check
    # cannot vouch for eta there
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    rep = slmodel.check_mp_assumption(prob, "sqrt(x)")
    assert not rep.admissible
    assert rep.violations[0] == rep.grid[0]


def test_check_mp_assumption_budget_is_local():
    # the rounding budget covers the error of phi and psi (both exactly 0
    # here) and is large only next to the singular end: away from it, it
    # stays within 100 eps of the magnitude of the terms
    prob = families.make_family("hankel", {"alpha": 0.5}).problem
    rep = slmodel.check_mp_assumption(prob, "2/(x+1)")
    u = rep.grid + 1.0
    eps = np.finfo(float).eps
    far = u > 0.1
    assert np.all(rep.phi_budget[far] <= 100 * eps * (4.0 / u[far]))
    assert np.all(rep.psi_budget[far] <= 100 * eps * (4.0 / u[far] ** 2))
    assert np.all(np.abs(rep.phi_eta) <= rep.phi_budget)
    assert np.all(np.abs(rep.psi_eta) <= rep.psi_budget)


def test_graded_grid_endpoints():
    g = slmodel.graded_grid(0.0, 1.0, 50)
    assert g[0] == pytest.approx(0.0, abs=1e-7)
    assert g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(g) > 0)
