"""A small expression language for coefficients and manufactured data.

Grammar (whitespace insignificant, '^' binds tightest, integer powers only):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' intlit)?
    base   := number | 'i' | 'pi' | 'x' | 'y'
            | ident '(' expr ')' | '(' expr ')'
    ident  := 'sin' | 'cos' | 'exp' | 'abs' | 'sqrt' | 'conj'

Unary minus applies to a whole power, so -x^2 is -(x^2).

Evaluation is complex-valued and accepts numpy arrays for x and y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import HypotorusError

FUNCTIONS = ("sin", "cos", "exp", "abs", "sqrt", "conj")
VARIABLES = ("x", "y")
CONSTANTS = {"i": 1j, "pi": math.pi}


class ExprError(HypotorusError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExprError):
    pass


class ExprEvalError(ExprError):
    pass


class ExprDiffError(ExprError):
    pass


@dataclass(frozen=True)
class Const:
    value: complex
    pos: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "ExprAst"
    right: "ExprAst"
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int
    pos: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprAst"
    pos: int = 0


ExprAst = Union[Const, Var, Neg, BinOp, Pow, Call]


# ---------------------------------------------------------------- tokenizer

_NUM_START = set("0123456789.")


def _tokenize(src: str):
    """Yield (kind, text, offset) triples; kind in {'num','ident','op'}."""
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _NUM_START:
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            if text == ".":
                raise ExprSyntaxError("malformed number", i)
            toks.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append(("op", c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


# ------------------------------------------------------------------ parser

class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, ch: str):
        kind, text, off = self.peek()
        if kind == "op" and text == ch:
            return self.advance()
        raise ExprSyntaxError(f"expected {ch!r}", off)

    def parse(self) -> ExprAst:
        node = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {text!r}", off)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = BinOp(text, node, rhs, off)
            else:
                return node

    def term(self) -> ExprAst:
        node = self.factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = BinOp(text, node, rhs, off)
            else:
                return node

    def factor(self) -> ExprAst:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor(), off)
        node = self.base()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = Pow(node, self._intlit(), off)
        return node

    def _intlit(self) -> int:
        kind, text, off = self.peek()
        sign = 1
        if kind == "op" and text == "-":
            self.advance()
            sign = -1
            kind, text, off = self.peek()
        if kind != "num":
            raise ExprSyntaxError("expected integer exponent", off)
        self.advance()
        if "." in text or "e" in text or "E" in text:
            raise ExprSyntaxError("non-integer exponent", off)
        return sign * int(text)

    def base(self) -> ExprAst:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(complex(float(text)), off)
        if kind == "ident":
            if text in CONSTANTS:
                return Const(complex(CONSTANTS[text]), off)
            if text in VARIABLES:
                return Var(text, off)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg, off)
            raise ExprSyntaxError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse_expr(src: str) -> ExprAst:
    """Parse source text into an AST; raises ExprSyntaxError with a byte offset."""
    return _Parser(src).parse()


# -------------------------------------------------------------- evaluation

def eval_expr(ast: ExprAst, x, y):
    """Evaluate with complex semantics.  x, y may be scalars or numpy arrays.

    sqrt takes the principal branch; abs returns the (real) modulus as a
    complex value.  Division by zero anywhere in the operands raises
    ExprEvalError carrying the offending node's source offset.
    """
    xv = np.asarray(x, dtype=complex)
    yv = np.asarray(y, dtype=complex)
    out = _eval(ast, xv, yv)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return complex(out)
    return out


def _eval(ast, xv, yv):
    if isinstance(ast, Const):
        return np.broadcast_to(np.asarray(ast.value, dtype=complex),
                               np.broadcast_shapes(xv.shape, yv.shape))
    if isinstance(ast, Var):
        return xv if ast.name == "x" else yv
    if isinstance(ast, Neg):
        return -_eval(ast.child, xv, yv)
    if isinstance(ast, BinOp):
        a = _eval(ast.left, xv, yv)
        b = _eval(ast.right, xv, yv)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if np.any(b == 0):
            raise ExprEvalError("division by zero", ast.pos)
        return a / b
    if isinstance(ast, Pow):
        base = _eval(ast.base, xv, yv)
        if ast.exponent < 0 and np.any(base == 0):
            raise ExprEvalError("zero raised to a negative power", ast.pos)
        return base ** ast.exponent
    if isinstance(ast, Call):
        v = _eval(ast.arg, xv, yv)
        if ast.fn == "sin":
            return np.sin(v)
        if ast.fn == "cos":
            return np.cos(v)
        if ast.fn == "exp":
            return np.exp(v)
        if ast.fn == "abs":
            return np.abs(v).astype(complex)
        if ast.fn == "sqrt":
            return np.sqrt(v)
        if ast.fn == "conj":
            return np.conj(v)
    raise HypotorusError(f"unknown AST node {ast!r}")


# ---------------------------------------------------------------- printing

def to_string(ast: ExprAst) -> str:
    """Render an AST back to source text that reparses to the same function."""
    if isinstance(ast, Const):
        v = ast.value
        if v.imag == 0.0:
            return _fmt_real(v.real)
        if v.real == 0.0:
            if v.imag == 1.0:
                return "i"
            return f"{_fmt_real(v.imag)}*i"
        return f"({_fmt_real(v.real)}+{_fmt_real(v.imag)}*i)"
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Neg):
        return f"-{_wrap(ast.child)}"
    if isinstance(ast, BinOp):
        return f"({to_string(ast.left)}{ast.op}{to_string(ast.right)})"
    if isinstance(ast, Pow):
        e = ast.exponent
        return f"{_wrap(ast.base)}^{e}" if e >= 0 else f"{_wrap(ast.base)}^-{-e}"
    if isinstance(ast, Call):
        return f"{ast.fn}({to_string(ast.arg)})"
    raise HypotorusError(f"unknown AST node {ast!r}")


def _fmt_real(v: float) -> str:
    if v < 0:
        return f"(0-{-v!r})"
    return repr(v)


def _wrap(ast: ExprAst) -> str:
    s = to_string(ast)
    if isinstance(ast, (Var, Call)) or s.startswith("("):
        return s
    if isinstance(ast, Const) and "+" not in s and "*" not in s and not s.startswith("-"):
        return s
    return f"({s})"


# ------------------------------------------------------- AST construction

def const(v) -> Const:
    return Const(complex(v))


def var(name: str) -> Var:
    if name not in VARIABLES:
        raise HypotorusError(f"unknown variable {name!r}")
    return Var(name)


def _is_const(ast, v) -> bool:
    return isinstance(ast, Const) and ast.value == v


def add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return BinOp("+", a, b)


def sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0):
        return Neg(b)
    return BinOp("-", a, b)


def mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0j)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return BinOp("*", a, b)


def div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0) and not _is_const(b, 0):
        return Const(0j)
    return BinOp("/", a, b)


def neg(a: ExprAst) -> ExprAst:
    if _is_const(a, 0):
        return a
    return Neg(a)


def call(fn: str, arg: ExprAst) -> Call:
    if fn not in FUNCTIONS:
        raise HypotorusError(f"unknown function {fn!r}")
    return Call(fn, arg)


def pow_int(base: ExprAst, exponent: int) -> ExprAst:
    if exponent == 1:
        return base
    return Pow(base, exponent)


def subst(ast: ExprAst, name: str, replacement: ExprAst) -> ExprAst:
    """Replace every occurrence of the variable `name` by `replacement`."""
    if isinstance(ast, Const):
        return ast
    if isinstance(ast, Var):
        return replacement if ast.name == name else ast
    if isinstance(ast, Neg):
        return Neg(subst(ast.child, name, replacement), ast.pos)
    if isinstance(ast, BinOp):
        return BinOp(ast.op, subst(ast.left, name, replacement),
                     subst(ast.right, name, replacement), ast.pos)
    if isinstance(ast, Pow):
        return Pow(subst(ast.base, name, replacement), ast.exponent, ast.pos)
    if isinstance(ast, Call):
        return Call(ast.fn, subst(ast.arg, name, replacement), ast.pos)
    raise HypotorusError(f"unknown AST node {ast!r}")


# ---------------------------------------------------------------- calculus

def depends_on(ast: ExprAst, name: str) -> bool:
    if isinstance(ast, Const):
        return False
    if isinstance(ast, Var):
        return ast.name == name
    if isinstance(ast, Neg):
        return depends_on(ast.child, name)
    if isinstance(ast, BinOp):
        return depends_on(ast.left, name) or depends_on(ast.right, name)
    if isinstance(ast, Pow):
        return depends_on(ast.base, name)
    if isinstance(ast, Call):
        return depends_on(ast.arg, name)
    raise HypotorusError(f"unknown AST node {ast!r}")


def symbolic_diff(ast: ExprAst, name: str) -> ExprAst:
    """Exact partial derivative with respect to 'x' or 'y'.

    abs and conj are not complex-differentiable, so any such call whose
    argument depends on the variable is rejected.
    """
    if name not in VARIABLES:
        raise HypotorusError(f"unknown variable {name!r}")
    if isinstance(ast, Const):
        return Const(0j)
    if isinstance(ast, Var):
        return Const(1 + 0j) if ast.name == name else Const(0j)
    if isinstance(ast, Neg):
        return neg(symbolic_diff(ast.child, name))
    if isinstance(ast, BinOp):
        da = symbolic_diff(ast.left, name)
        db = symbolic_diff(ast.right, name)
        if ast.op == "+":
            return add(da, db)
        if ast.op == "-":
            return sub(da, db)
        if ast.op == "*":
            return add(mul(da, ast.right), mul(ast.left, db))
        num = sub(mul(da, ast.right), mul(ast.left, db))
        return div(num, Pow(ast.right, 2))
    if isinstance(ast, Pow):
        n = ast.exponent
        if n == 0:
            return Const(0j)
        du = symbolic_diff(ast.base, name)
        return mul(mul(Const(complex(n)), pow_int(ast.base, n - 1)), du)
    if isinstance(ast, Call):
        if ast.fn in ("abs", "conj"):
            if depends_on(ast.arg, name):
                raise ExprDiffError(
                    f"{ast.fn} is not differentiable in {name}", ast.pos)
            return Const(0j)
        du = symbolic_diff(ast.arg, name)
        if ast.fn == "sin":
            return mul(call("cos", ast.arg), du)
        if ast.fn == "cos":
            return neg(mul(call("sin", ast.arg), du))
        if ast.fn == "exp":
            return mul(Call("exp", ast.arg), du)
        if ast.fn == "sqrt":
            return div(du, mul(Const(2 + 0j), call("sqrt", ast.arg)))
    raise HypotorusError(f"unknown AST node {ast!r}")
