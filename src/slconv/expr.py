"""Coefficient expression language: parser, printer, compiled evaluator,
derivative.

Grammar (ASCII, '^' right-associative, unary minus binds looser than '^'):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 'x' | ident '(' expr ')' | 'pow' '(' expr ',' expr ')'
            | '(' expr ')'
    ident  in {exp, log, sqrt, sinh, cosh, tanh, abs}

This is Python's arithmetic with '^' for '**': parse joins blanks to single
spaces, drops integers' leading zeros, writes '^' as '**' and maps the tree
of ast.parse to tuples.  It refuses what Python accepts beyond the grammar:
a character other than letters, digits, '_', blanks and .+-*/^(), and '**';
a number not written digits[.digits][(e|E)[+-]digits] (.5, 1_0, 0x1F, 1j)
or not finite; other nodes (+x, %, //, comparisons, not, if-else,
tuples, attributes, Python keywords such as True); and a tree nested
deeper than _MAX_DEPTH.

ASTs are nested tuples: ('num', v), ('x',), ('neg', e), ('add', a, b),
('sub', a, b), ('mul', a, b), ('div', a, b), ('pow', a, b),
('call', name, e).  pow(a, b) is sugar for the '^' node, so it prints
back in operator form.  A CoeffExpr compiles its AST once, at
construction, into a tree of closures that `evaluate` calls.
"""

import ast as pyast
import math
import operator
import re
import warnings

import numpy as np

from . import errors

FUNCTIONS = {"exp", "log", "sqrt", "sinh", "cosh", "tanh", "abs"}

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_BINOPS = {pyast.Add: "add", pyast.Sub: "sub", pyast.Mult: "mul",
           pyast.Div: "div", pyast.Pow: "pow"}
_ARITY = dict.fromkeys(FUNCTIONS, 1) | {"pow": 2}
_MAX_DEPTH = 300    # deepest AST parse accepts: the printer, compiler and
                    # derivative recurse over the tree too


def _tree(node, text, depth=0):
    """The AST tuple of a node of Python's tree for text, at most
    _MAX_DEPTH nodes deep."""
    if depth > _MAX_DEPTH:
        raise errors.SyntaxError(node.col_offset, {"expression"},
                                 "nested deeper than %d" % _MAX_DEPTH)
    if isinstance(node, pyast.Name):
        if node.id == "x":
            return ("x",)
        if node.id not in _ARITY:
            raise errors.UnknownFunction(node.id)
    elif isinstance(node, pyast.Constant):
        num = text[node.col_offset:node.end_col_offset]
        if _NUMBER.fullmatch(num) and math.isfinite(float(num)):
            return ("num", float(num))
    elif isinstance(node, pyast.UnaryOp) and isinstance(node.op, pyast.USub):
        return ("neg", _tree(node.operand, text, depth + 1))
    elif isinstance(node, pyast.BinOp) and type(node.op) in _BINOPS:
        return (_BINOPS[type(node.op)], _tree(node.left, text, depth + 1),
                _tree(node.right, text, depth + 1))
    elif isinstance(node, pyast.Call) and isinstance(node.func, pyast.Name):
        name = node.func.id
        if name not in _ARITY and name != "x":
            raise errors.UnknownFunction(name)
        # a bare name before the '(' and no trailing ',' in the arguments
        if (len(node.args) == _ARITY.get(name) and not node.keywords
                and node.func.col_offset == node.col_offset
                and not text[:node.end_col_offset - 1].rstrip().endswith(",")):
            args = [_tree(arg, text, depth + 1) for arg in node.args]
            return ("pow", *args) if name == "pow" else ("call", name, *args)
    raise errors.SyntaxError(node.col_offset, {"number", "x", "function", "("})


def parse(src):
    """Parse a coefficient expression into an AST tuple tree."""
    if not src or not src.strip():
        raise errors.SyntaxError(0, {"expression"}, "empty expression")
    bad = re.search(r"[^\w\s.+\-*/^(),]|[^\x00-\x7f]|\*\*", src)
    if bad:
        raise errors.SyntaxError(bad.start(), {"token"},
                                 "unrecognized %r" % bad.group())
    text = _LEADING_ZEROS.sub("", " ".join(src.split())).replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = pyast.parse(text, mode="eval")
    except (SyntaxError, RecursionError) as exc:
        raise errors.SyntaxError((getattr(exc, "offset", None) or 1) - 1,
                                 {"expression"}, str(exc)) from None
    return _tree(tree.body, text)


# --- printer ---

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 2, "pow": 3,
         "num": 9, "x": 9, "call": 9}


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return repr(int(v))
    return repr(v)


def _fits_pow_rhs(ast):
    # '^' rhs is a factor: atom, pow chain, or '-' factor
    if ast[0] in ("num", "x", "call", "pow"):
        return True
    if ast[0] == "neg":
        return _fits_pow_rhs(ast[1])
    return False


def unparse(ast):
    """Print an AST back to source; parse(unparse(ast)) == ast."""
    op = ast[0]
    if op == "num":
        return _fmt_num(ast[1])
    if op == "x":
        return "x"
    if op == "call":
        return "%s(%s)" % (ast[1], unparse(ast[2]))
    if op == "neg":
        inner = unparse(ast[1])
        # grammar: '-' factor, so the operand must itself be a factor
        if ast[1][0] not in ("num", "x", "call", "pow", "neg"):
            inner = "(%s)" % inner
        return "-" + inner
    if op == "pow":
        lhs = unparse(ast[1])
        if ast[1][0] not in ("num", "x", "call"):
            lhs = "(%s)" % lhs
        rhs = unparse(ast[2])
        if not _fits_pow_rhs(ast[2]):
            rhs = "(%s)" % rhs
        return "%s^%s" % (lhs, rhs)
    # binary arithmetic, left-associative: an equal-precedence right child
    # must be parenthesized to survive the round trip, except a leading
    # unary minus which re-parses identically ('a*-b', 'a--b').
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    p = _PREC[op]
    lhs = unparse(ast[1])
    if _PREC[ast[1][0]] < p:
        lhs = "(%s)" % lhs
    rhs = unparse(ast[2])
    if _PREC[ast[2][0]] < p or (_PREC[ast[2][0]] == p and ast[2][0] != "neg"):
        rhs = "(%s)" % rhs
    return "%s%s%s" % (lhs, sym, rhs)


# --- evaluation ---

_FN_NUMPY = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sinh": np.sinh,
    "cosh": np.cosh, "tanh": np.tanh, "abs": np.abs,
}

_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv, "pow": np.power}


def _compile(ast):
    """The AST as a closure f(x, one): x is a float or a float array and
    one is 1.0 or an array of ones of x's shape, so that a constant is a
    float at a scalar x and a full array at an array x."""
    op = ast[0]
    if op == "num":
        v = ast[1]
        return lambda x, one: v * one
    if op == "x":
        return lambda x, one: x
    if op == "neg":
        f = _compile(ast[1])
        return lambda x, one: -f(x, one)
    if op == "call":
        fn, f = _FN_NUMPY[ast[1]], _compile(ast[2])
        return lambda x, one: fn(f(x, one))
    if op not in _BINARY:
        raise ValueError("bad AST node %r" % (op,))
    fn, fa, fb = _BINARY[op], _compile(ast[1]), _compile(ast[2])
    return lambda x, one: fn(fa(x, one), fb(x, one))


def evaluate(ast, x, check=True):
    """Evaluate a CoeffExpr (or a raw AST, compiled for this call) at x: a
    float for a scalar x, a float array of x's shape for an array x.

    With check=True a non-finite result raises DomainError instead of
    silently returning NaN/inf.
    """
    fn = ast.fn if isinstance(ast, CoeffExpr) else _compile(ast)
    scalar = np.ndim(x) == 0
    xv = float(x) if scalar else np.asarray(x, dtype=float)
    try:
        with np.errstate(all="ignore"):
            val = fn(xv, 1.0 if scalar else np.ones_like(xv))
    except ZeroDivisionError:
        val = math.nan
    if check and not np.all(np.isfinite(val)):
        bad = np.ravel(xv)[~np.isfinite(np.ravel(val))]
        raise errors.DomainError(
            "expression not finite at x=%r" % (bad[:3].tolist(),))
    return float(val) if scalar else val


# --- symbolic differentiation ---

def _is_const(ast):
    op = ast[0]
    if op == "num":
        return True
    if op == "x":
        return False
    if op == "neg":
        return _is_const(ast[1])
    if op == "call":
        return _is_const(ast[2])
    return _is_const(ast[1]) and _is_const(ast[2])


def _value(ast):
    """The number a 'num' node, or a 'neg' of one, stands for, else None."""
    if ast[0] == "neg":
        ast = ast[1]
        return -ast[1] if ast[0] == "num" else None
    return ast[1] if ast[0] == "num" else None


def _node(op, *args):
    """The node (op, *args) with exact identities folded: a subtree free
    of x becomes its value (a negative one as 'neg' of a number, so that
    it prints back), 0 * e, e * 0, 0 / e, 1 * e, e * 1, e / 1, e + 0,
    0 + e, e - 0, 0 - e and e ^ 1 lose their number, -1 * e and e * -1
    become -e, and -(-e) becomes e.  Each fold gives the literal node's
    values to the bit at an array x wherever they are finite."""
    node = (op,) + args
    if _is_const(node):
        v = float(_compile(node)(np.zeros(1), np.ones(1))[0])
        if not math.isfinite(v):
            return node
        return ("neg", ("num", -v)) if v < 0.0 else ("num", v)
    if op == "neg" and args[0][0] == "neg":
        return args[0][1]
    if op in ("neg", "call"):
        return node
    a, b = args
    va, vb = _value(a), _value(b)
    if op == "add" and (va == 0.0 or vb == 0.0):
        return b if va == 0.0 else a
    if op == "sub" and (va == 0.0 or vb == 0.0):
        return a if vb == 0.0 else _node("neg", b)
    if op == "mul" and (va == 0.0 or vb == 0.0):
        return ("num", 0.0)
    if op == "mul" and (va == 1.0 or vb == 1.0):
        return b if va == 1.0 else a
    if op == "mul" and (va == -1.0 or vb == -1.0):
        return _node("neg", b if va == -1.0 else a)
    if op == "div" and va == 0.0:
        return ("num", 0.0)
    if op in ("div", "pow") and vb == 1.0:
        return a
    return node


def diff(ast):
    """Symbolic derivative d/dx of the AST, each node built by _node, so
    that numbers and unit or zero factors fold away as the rules apply
    (d/dx of -1/x is 1/x^2); the derivative takes the literal rules'
    values to the bit wherever those are finite."""
    op = ast[0]
    if op == "num":
        return ("num", 0.0)
    if op == "x":
        return ("num", 1.0)
    if op == "neg":
        return _node("neg", diff(ast[1]))
    if op in ("add", "sub"):
        return _node(op, diff(ast[1]), diff(ast[2]))
    if op == "mul":
        u, v = ast[1], ast[2]
        return _node("add", _node("mul", diff(u), v),
                     _node("mul", u, diff(v)))
    if op == "div":
        u, v = ast[1], ast[2]
        num = _node("sub", _node("mul", diff(u), v),
                    _node("mul", u, diff(v)))
        return _node("div", num, _node("pow", v, ("num", 2.0)))
    if op == "pow":
        u, v = ast[1], ast[2]
        if _is_const(v):
            # d u^c = c * u^(c-1) * u'
            cm1 = _node("sub", v, ("num", 1.0))
            return _node("mul", _node("mul", v, _node("pow", u, cm1)),
                         diff(u))
        # general: u^v * (v' log u + v u' / u)
        t1 = _node("mul", diff(v), ("call", "log", u))
        t2 = _node("div", _node("mul", v, diff(u)), u)
        return _node("mul", ast, _node("add", t1, t2))
    if op == "call":
        name, u = ast[1], ast[2]
        du = diff(u)
        if name == "exp":
            outer = ast
        elif name == "log":
            return _node("div", du, u)
        elif name == "sqrt":
            return _node("div", du, _node("mul", ("num", 2.0), ast))
        elif name == "sinh":
            outer = ("call", "cosh", u)
        elif name == "cosh":
            outer = ("call", "sinh", u)
        elif name == "tanh":
            outer = _node("sub", ("num", 1.0), _node("pow", ast, ("num", 2.0)))
        elif name == "abs":
            outer = _node("div", u, ast)  # sign(u), undefined at 0
        else:
            raise errors.UnknownFunction(name)
        return _node("mul", outer, du)
    raise ValueError("bad AST node %r" % (op,))


def log_ast(ast):
    """AST computing log(ast), decomposed structurally through products,
    powers and exponentials so that it stays representable even where the
    expression itself over/underflows.  Assumes the expression is positive."""
    op = ast[0]
    if op == "num":
        return ("num", float(np.log(ast[1])))
    if op == "mul":
        return ("add", log_ast(ast[1]), log_ast(ast[2]))
    if op == "div":
        return ("sub", log_ast(ast[1]), log_ast(ast[2]))
    if op == "pow" and _is_const(ast[2]):
        return ("mul", ast[2], log_ast(ast[1]))
    if op == "call" and ast[1] == "exp":
        return ast[2]
    if op == "call" and ast[1] == "sqrt":
        return ("div", log_ast(ast[2]), ("num", 2.0))
    return ("call", "log", ast)


def dlog_ast(ast):
    """AST computing d/dx log(ast), decomposed structurally (the logarithmic
    derivative stays tame where the expression itself over/underflows),
    folded as diff folds."""
    op = ast[0]
    if op == "num":
        return ("num", 0.0)
    if op == "mul":
        return _node("add", dlog_ast(ast[1]), dlog_ast(ast[2]))
    if op == "div":
        return _node("sub", dlog_ast(ast[1]), dlog_ast(ast[2]))
    if op == "pow" and _is_const(ast[2]):
        return _node("mul", ast[2], dlog_ast(ast[1]))
    if op == "call" and ast[1] == "exp":
        return diff(ast[2])
    if op == "call" and ast[1] == "sqrt":
        return _node("div", dlog_ast(ast[2]), ("num", 2.0))
    return _node("div", diff(ast), ast)


class CoeffExpr:
    """Parsed coefficient expression, compiled once at construction;
    immutable, callable, differentiable."""

    __slots__ = ("ast", "source", "fn")

    def __init__(self, src_or_ast):
        if isinstance(src_or_ast, CoeffExpr):
            self.ast = src_or_ast.ast
            self.source = src_or_ast.source
            self.fn = src_or_ast.fn
            return
        if isinstance(src_or_ast, str):
            self.ast = parse(src_or_ast)
            self.source = src_or_ast
        else:
            self.ast = src_or_ast
            self.source = unparse(src_or_ast)
        self.fn = _compile(self.ast)

    def __call__(self, x, check=True):
        return evaluate(self, x, check=check)

    def diff(self):
        return CoeffExpr(diff(self.ast))

    def log(self):
        """log of this expression, decomposed to stay representable."""
        return CoeffExpr(log_ast(self.ast))

    def dlog(self):
        """Logarithmic derivative of this expression."""
        return CoeffExpr(dlog_ast(self.ast))

    def printed(self):
        return unparse(self.ast)

    def __repr__(self):
        return "CoeffExpr(%r)" % (self.printed(),)

    def __eq__(self, other):
        return isinstance(other, CoeffExpr) and self.ast == other.ast

    def __hash__(self):
        return hash(("CoeffExpr", self.printed()))
