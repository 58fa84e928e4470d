import math
import random
import re
import warnings

import numpy as np
import pytest

from slconv import errors, expr, families, kernel, slmodel


def test_parse_evaluate_basic():
    ast = expr.parse("2*x^2 + 3*x - 1")
    assert expr.evaluate(ast, 2.0) == pytest.approx(13.0)
    xs = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(expr.evaluate(ast, xs),
                               [-1.0, 4.0, 13.0])


def test_precedence_and_unary_minus():
    assert expr.evaluate(expr.parse("-x^2"), 3.0) == pytest.approx(-9.0)
    assert expr.evaluate(expr.parse("2 + 3*4^2"), 0.0) == pytest.approx(50.0)
    assert expr.evaluate(expr.parse("(2 + 3)*4"), 0.0) == pytest.approx(20.0)


def test_power_right_associative():
    # 2^(3^2) = 512, not (2^3)^2 = 64
    assert expr.evaluate(expr.parse("2^3^2"), 0.0) == pytest.approx(512.0)


def test_functions():
    assert expr.evaluate(expr.parse("exp(log(x))"), 2.5) \
        == pytest.approx(2.5)
    assert expr.evaluate(expr.parse("sqrt(x^2)"), 3.0) == pytest.approx(3.0)
    assert expr.evaluate(expr.parse("cosh(x)^2 - sinh(x)^2"), 1.3) \
        == pytest.approx(1.0)


def test_unparse_round_trip():
    for src in ("x^2 + 1", "exp(-x/2)", "(1 + x)^(-1)", "x*sqrt(1 + x)"):
        ast = expr.parse(src)
        again = expr.parse(expr.unparse(ast))
        xs = np.linspace(0.1, 2.0, 7)
        np.testing.assert_array_equal(
            np.asarray(expr.evaluate(ast, xs), dtype=float),
            np.asarray(expr.evaluate(again, xs), dtype=float))


def test_diff_chain_and_product():
    ast = expr.parse("x^2*exp(-x)")
    d = expr.diff(ast)
    x = 1.7
    want = 2 * x * math.exp(-x) - x * x * math.exp(-x)
    assert expr.evaluate(d, x) == pytest.approx(want, rel=1e-12)


_FAMILY_CASES = (("cosine", {}), ("squared_weight", {}),
                 ("hankel", {"alpha": 0.0}), ("hankel", {"alpha": 1.0}),
                 ("hankel", {"alpha": -0.25}),
                 ("jacobi", {"alpha": 1.0, "beta": 0.0}),
                 ("jacobi", {"alpha": 0.5, "beta": -0.5}),
                 ("whittaker", {"alpha": 0.0}),
                 ("whittaker", {"alpha": 0.25}), ("degenerate_custom", {}))


def _derivative_trees():
    """For each log p and log r of the built-in families, its first to
    third derivatives by diff alone and by dlog then diff."""
    out = []
    for name, params in _FAMILY_CASES:
        prob = families.make_family(name, params).problem
        for coeff in (prob.p, prob.r):
            chains = ([expr.log_ast(coeff.ast)], [expr.dlog_ast(coeff.ast)])
            chains[0].append(expr.diff(chains[0][-1]))
            for chain in chains:
                while len(chain) < 4:
                    chain.append(expr.diff(chain[-1]))
            out.append(chains[0][1:] + chains[1][1:])
    return out


def test_folded_derivatives_match_the_literal_trees(monkeypatch):
    # diff and dlog fold numbers, unit and zero factors as they build a
    # tree; wherever the literal tree is finite the folded one gives its
    # values to the bit
    folded = _derivative_trees()
    monkeypatch.setattr(expr, "_node", lambda op, *args: (op,) + args)
    literal = _derivative_trees()
    xs = np.concatenate([np.geomspace(1e-6, 1e3, 401), -np.geomspace(
        1e-6, 1e3, 41)])
    shrunk = 0
    for fold_row, lit_row in zip(folded, literal):
        for f, lit in zip(fold_row, lit_row):
            want = expr.evaluate(lit, xs, check=False)
            got = expr.evaluate(f, xs, check=False)
            fin = np.isfinite(want)
            assert np.count_nonzero(fin) > 200
            assert np.array_equal(got[fin], want[fin]), expr.unparse(f)
            shrunk += len(expr.unparse(f)) < len(expr.unparse(lit))
    assert shrunk >= len(folded)


def test_syntax_errors():
    for bad in ("", "x +", "(x", "x**2", "foo(x)", "1..2", "1e999"):
        with pytest.raises(errors.ValidationError):
            expr.parse(bad)


def test_domain_error_on_nonfinite():
    with pytest.raises(errors.DomainError):
        expr.evaluate(expr.parse("1/x"), 0.0)
    with pytest.raises(errors.DomainError):
        expr.evaluate(expr.parse("log(x - 5)"), 1.0)


def test_non_ascii_rejected():
    with pytest.raises(errors.ValidationError):
        expr.parse("x²")


def test_coeff_expr_compiles_once(monkeypatch):
    prob = slmodel.custom_problem_from_dict(
        {"p": "x^3", "r": "x^3", "a": 0, "b": "inf", "c": 1})
    xs = np.linspace(0.1, 3.0, 7)
    want = kernel.kernel_table(prob, [0.0, 5.0], xs)
    compiled = []
    original = expr._compile

    def counting(ast):
        compiled.append(ast)
        return original(ast)

    monkeypatch.setattr(expr, "_compile", counting)
    prob.p(xs)
    prob.r(1.5, check=False)
    got = kernel.kernel_table(prob, [0.0, 5.0], xs)
    assert compiled == []
    np.testing.assert_array_equal(got, want)
    # the counter sees a compile when there is one
    expr.CoeffExpr("x + 1")
    assert compiled


def test_evaluate_shape_contract():
    const = expr.CoeffExpr("2.5")
    v = const(np.zeros((3, 4)))
    assert isinstance(v, np.ndarray)
    assert v.shape == (3, 4) and v.dtype == np.float64
    assert np.all(v == 2.5)
    s = const(1.0)
    assert type(s) is float and s == 2.5
    assert type(expr.CoeffExpr("x^2")(np.float64(3.0))) is float
    for src in ("x", "2.5"):
        vi = expr.CoeffExpr(src)(np.arange(4))
        assert vi.dtype == np.float64 and vi.shape == (4,)
    assert expr.CoeffExpr("x/2")(np.arange(4)).tolist() == [0.0, 0.5, 1.0,
                                                            1.5]


def test_deep_sum_evaluates():
    e = expr.CoeffExpr("+".join(["x"] * 300))
    assert e(0.5) == 150.0
    np.testing.assert_array_equal(e(np.array([1.0, 2.0])), [300.0, 600.0])
    assert e.diff()(0.5) == 300.0


def _random_ast(rng, depth):
    """A random AST of the grammar: numbers are nonnegative, since parse
    reads a leading '-' as a 'neg' node."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([("x",), ("num", float(rng.randrange(20))),
                           ("num", rng.uniform(0.0, 10.0)),
                           ("num", 10.0 ** rng.randrange(-20, 21))])
    op = rng.choice(("neg", "add", "sub", "mul", "div", "pow", "call"))
    if op == "neg":
        return ("neg", _random_ast(rng, depth - 1))
    if op == "call":
        return ("call", rng.choice(sorted(expr.FUNCTIONS)),
                _random_ast(rng, depth - 1))
    return (op, _random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_printed_random_asts_parse_back():
    # unparse as printed, and with random blanks after every operator,
    # parenthesis and comma outside a number, reads back to the same tuple
    rng = random.Random(25)
    token = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|[-+*/^(,]")
    for _ in range(10000):
        ast = _random_ast(rng, 4)
        text = expr.unparse(ast)
        assert expr.parse(text) == ast, text
        spaced = token.sub(lambda m: m.group() if m.group()[0].isdigit()
                           else m.group() + rng.choice(" \t\n")
                           * rng.randrange(3), text)
        assert expr.parse(spaced) == ast, spaced


def test_python_syntax_outside_the_grammar_is_refused():
    for bad in ("", "x +", "(x", "x**2", "foo(x)", "1..2", "1e999",
                ".5", "1_0", "0x1F", "1j", "True", "+x", "x % 2", "x // 2",
                "x < 1", "not x", "x if x else 1", "(x, 1)", "x.real",
                "x # c", "lambda: x", "9" * 400, "exp(x,)", "(exp)(x)",
                "x(2)", "pow(x)", "exp(x, 2)", "exp", "1if x else 2",
                "-" * 2000 + "x"):
        with pytest.raises(errors.ValidationError):
            expr.parse(bad)


def test_python_parser_warnings_become_the_syntax_error():
    # a number run into a keyword warns in Python's tokenizer: parse
    # refuses it without printing that warning
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        for bad in ("1if x else 2", "0x1for x"):
            with pytest.raises(errors.SyntaxError):
                expr.parse(bad)
    assert seen == []


def test_leading_zeros_and_blanks_parse_as_before():
    assert expr.parse("02") == ("num", 2.0)
    assert expr.parse("x^07") == ("pow", ("x",), ("num", 7.0))
    assert expr.parse("1.05e-05") == ("num", 1.05e-05)
    for src in (" x + 1", "x\n+1", "\tx+\n 1 "):
        assert expr.parse(src) == ("add", ("x",), ("num", 1.0))
