import numpy as np
import pytest

from hypotorus import exprparser as ep
from hypotorus.field import build_field

ORACLE_SOURCES = (
    "0.2*sin(2*pi*x)*cos(2*pi*y)",
    "0.1*sin(2*pi*x)*cos(2*pi*y)",
    "0.15*cos(2*pi*x)*sin(2*pi*y)",
    "0.1*exp(i*2*pi*y)",
    "exp(i*2*pi*(x+y))",
)


def all_builtin_sources():
    out = []
    for name in ("elliptic", "degenerate_sin2", "analytic_perturbed",
                 "degenerate_2d"):
        spec = build_field(name)
        out.extend([spec.a_src, spec.b_src])
        if spec.z_exact_src:
            out.append(spec.z_exact_src)
    return out


def test_parse_structure():
    ast = ep.parse_expr("i*sin(pi*y)^2")
    assert isinstance(ast, ep.BinOp) and ast.op == "*"
    assert isinstance(ast.left, ep.Const) and ast.left.value == 1j
    assert isinstance(ast.right, ep.Pow) and ast.right.exponent == 2
    assert isinstance(ast.right.base, ep.Call) and ast.right.base.fn == "sin"


def test_eval_examples():
    assert ep.eval_expr(ep.parse_expr("i*sin(pi*y)^2"), 0.0, 0.5) == (
        pytest.approx(1j))
    assert ep.eval_expr(ep.parse_expr("exp(i*2*pi*x)"), 0.25, 0.0) == (
        pytest.approx(1j))
    assert ep.eval_expr(ep.parse_expr("abs(-3)"), 0, 0) == pytest.approx(3.0)
    assert ep.eval_expr(ep.parse_expr("conj(x+i*y)"), 0.5, 0.25) == (
        pytest.approx(0.5 - 0.25j))


def test_syntax_error_offsets():
    with pytest.raises(ep.ExprSyntaxError) as err:
        ep.parse_expr("x + ")
    assert err.value.offset == 4
    with pytest.raises(ep.ExprSyntaxError):
        ep.parse_expr("foo(x)")
    with pytest.raises(ep.ExprSyntaxError):
        ep.parse_expr("x^2.5")
    with pytest.raises(ep.ExprSyntaxError):
        ep.parse_expr("")


def test_division_by_zero_reports_location():
    ast = ep.parse_expr("x/(y-y)")
    with pytest.raises(ep.ExprEvalError) as err:
        ep.eval_expr(ast, 0.3, 0.4)
    assert err.value.offset >= 0


def test_power_binds_tighter_than_mul():
    v = ep.eval_expr(ep.parse_expr("2*x^2"), 3.0, 0.0)
    assert v == pytest.approx(18.0)


def test_unary_minus_applies_to_the_whole_power():
    assert ep.eval_expr(ep.parse_expr("-x^2"), 3.0, 0.0) == pytest.approx(-9.0)
    assert ep.eval_expr(ep.parse_expr("-2^2"), 0, 0) == pytest.approx(-4.0)
    assert ep.eval_expr(ep.parse_expr("2*-x^2"), 3.0, 0.0) == (
        pytest.approx(-18.0))
    assert ep.eval_expr(ep.parse_expr("(-x)^2"), 3.0, 0.0) == (
        pytest.approx(9.0))


def test_negated_power_survives_print_parse():
    ast = ep.Neg(ep.Pow(ep.BinOp("+", ep.Var("x"), ep.Const(1 + 0j)), 2))
    back = ep.parse_expr(ep.to_string(ast))
    assert ep.eval_expr(ast, 1.0, 0.0) == pytest.approx(-4.0)
    assert ep.eval_expr(back, 1.0, 0.0) == pytest.approx(-4.0)


def test_left_associativity():
    assert ep.eval_expr(ep.parse_expr("8/4/2"), 0, 0) == pytest.approx(1.0)
    assert ep.eval_expr(ep.parse_expr("8-4-2"), 0, 0) == pytest.approx(2.0)


def test_round_trip_print_parse():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, (50, 2))
    for src in (*ORACLE_SOURCES, *all_builtin_sources()):
        ast = ep.parse_expr(src)
        back = ep.parse_expr(ep.to_string(ast))
        for (x, y) in pts:
            v1 = ep.eval_expr(ast, x, y)
            v2 = ep.eval_expr(back, x, y)
            assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))


def test_symbolic_diff_vs_finite_difference():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.05, 0.95, (100, 2))
    h = 1e-5
    for src in (*ORACLE_SOURCES, *all_builtin_sources()):
        ast = ep.parse_expr(src)
        for var in ("x", "y"):
            d = ep.symbolic_diff(ast, var)
            for (x, y) in pts[:25]:
                exact = ep.eval_expr(d, x, y)
                if var == "x":
                    num = (ep.eval_expr(ast, x + h, y)
                           - ep.eval_expr(ast, x - h, y)) / (2 * h)
                else:
                    num = (ep.eval_expr(ast, x, y + h)
                           - ep.eval_expr(ast, x, y - h)) / (2 * h)
                assert abs(exact - num) <= 1e-6 * max(1.0, abs(exact))


def test_diff_of_independent_variable_is_zero():
    d = ep.symbolic_diff(ep.parse_expr("y"), "x")
    assert ep.eval_expr(d, 0.7, 0.3) == 0


def test_diff_rejects_conj_and_abs():
    with pytest.raises(ep.ExprDiffError):
        ep.symbolic_diff(ep.parse_expr("conj(x)"), "x")
    with pytest.raises(ep.ExprDiffError):
        ep.symbolic_diff(ep.parse_expr("abs(x+y)"), "y")
    # independent of the variable they are fine
    d = ep.symbolic_diff(ep.parse_expr("abs(y)*x"), "x")
    assert ep.eval_expr(d, 1.0, -2.0) == pytest.approx(2.0)


def test_vectorized_eval_matches_scalar():
    ast = ep.parse_expr("exp(i*2*pi*(x+y)) + x^3")
    xs = np.linspace(0, 1, 7)
    ys = np.linspace(0, 1, 7)
    vec = ep.eval_expr(ast, xs, ys)
    for idx in range(7):
        assert vec[idx] == pytest.approx(ep.eval_expr(ast, xs[idx], ys[idx]))
