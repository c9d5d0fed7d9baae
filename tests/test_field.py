import dataclasses

import numpy as np
import pytest

from hypotorus import HypotorusError, ZEvaluator, build_field, normalize
from hypotorus import exprparser as ep
from hypotorus import field as field_module
from hypotorus.core import grid_centers
from hypotorus.field import (
    BUILTIN_NAMES,
    FieldSpec,
    SigmaComponent,
    char_set_info,
    coeff_grid,
    first_integral,
    integrate_line,
    parse_sigma_hint,
    periods,
)


def test_builtin_names_resolve():
    for name in BUILTIN_NAMES:
        spec = build_field(name)
        assert spec.name == name
        assert spec.z_exact_src is not None
    with pytest.raises(HypotorusError):
        build_field("moebius")


def test_parse_sigma_hint():
    assert parse_sigma_hint("y=0.25") == 0.25
    assert parse_sigma_hint("y = 0") == 0.0
    assert parse_sigma_hint("equator") is None
    assert parse_sigma_hint("y=??") is None


def test_spec_parses_each_source_once(monkeypatch):
    parsed, parse = [], ep.parse_expr

    def counting(src):
        parsed.append(src)
        return parse(src)

    monkeypatch.setattr(ep, "parse_expr", counting)
    spec = FieldSpec("custom", "1", "i*sin(pi*y)^2",
                     "x + i*(y/2 - sin(2*pi*y)/(4*pi))", ())
    for name in ("a_ast", "b_ast", "z_exact_ast"):
        first = getattr(spec, name)
        assert getattr(spec, name) is first
    assert parsed == [spec.a_src, spec.b_src, spec.z_exact_src]


def test_integrate_line_basic():
    assert abs(integrate_line(lambda t: t ** 2, 0.0, 1.0) - 1 / 3) < 1e-12
    assert abs(integrate_line(lambda t: np.sin(2 * np.pi * t), 0, 1)) < 1e-12
    # orientation flips the sign
    fwd = integrate_line(lambda t: np.exp(t), 0.0, 0.7)
    bwd = integrate_line(lambda t: np.exp(t), 0.7, 0.0)
    assert abs(fwd + bwd) < 1e-12
    assert integrate_line(lambda t: t, 0.3, 0.3) == 0


def test_integrate_line_breakpoints_help_with_kinks():
    fn = lambda t: np.abs(t - 0.37)
    exact = 0.5 * (0.37 ** 2 + 0.63 ** 2)
    v = integrate_line(fn, 0.0, 1.0, breakpoints=(0.37,))
    assert abs(v - exact) < 1e-12


def test_periods_of_builtins():
    c1, c2 = periods(build_field("elliptic"))
    assert abs(c1 - 1) < 1e-12 and abs(c2 - 1j) < 1e-12
    c1, c2 = periods(build_field("degenerate_sin2"))
    assert abs(c1 - 1) < 1e-10 and abs(c2 - 0.5j) < 1e-10
    c1, c2 = periods(build_field("analytic_perturbed"))
    assert abs(c1 - 1) < 1e-10 and abs(c2 - 1j) < 1e-10
    c1, c2 = periods(build_field("degenerate_2d"))
    assert abs(c1 - 1) < 1e-10 and abs(c2 - 0.5j) < 1e-10


def test_normalize_elliptic_identity(nf_elliptic):
    nf = nf_elliptic
    assert not nf.flip_y
    assert abs(nf.tau - 1j) < 1e-12
    a, b = nf.a(0.3, 0.7), nf.b(0.3, 0.7)
    assert abs(a - 1) < 1e-12 and abs(b - 1j) < 1e-12


def test_normalize_flips_reversed_orientation():
    spec = FieldSpec("mirror", "1", "-i", None,
                     (SigmaComponent(1.0, 0.25, "y=0.25"),))
    nf = normalize(spec)
    assert nf.flip_y
    assert abs(nf.tau - 1j) < 1e-12
    a, b = nf.a(0.1, 0.6), nf.b(0.1, 0.6)
    assert abs(a - 1) < 1e-12 and abs(b - 1j) < 1e-12
    # declared circles move with the reflection
    assert nf.sigma_ordinates() == (0.75,)


def test_normalize_rejects_parallel_periods():
    spec = FieldSpec("flat", "1", "2", None, ())
    with pytest.raises(HypotorusError):
        normalize(spec)


def test_first_integral_matches_exact(nf_perturbed, nf_deg_2d):
    rng = np.random.default_rng(21)
    for nf in (nf_perturbed, nf_deg_2d):
        exact = nf.z_exact_ast
        from hypotorus import exprparser as ep

        anchor = ep.eval_expr(exact, 0.0, 0.0)
        for _ in range(6):
            x, y = rng.uniform(0.05, 0.95, 2)
            want = ep.eval_expr(exact, x, y) - anchor
            got = first_integral(nf, (x, y))
            assert abs(got - want) < 1e-9


def test_first_integral_path_independence(nf_perturbed, nf_deg_sin2):
    rng = np.random.default_rng(22)
    for nf in (nf_perturbed, nf_deg_sin2):
        for _ in range(6):
            x, y = rng.uniform(0.0, 1.0, 2)
            d = first_integral(nf, (x, y), path="xy") - first_integral(
                nf, (x, y), path="yx")
            assert abs(d) < 1e-9
    with pytest.raises(HypotorusError):
        first_integral(nf_perturbed, (0.5, 0.5), path="diag")


def test_first_integral_quasi_periods(nf_deg_sin2):
    nf = nf_deg_sin2
    z0 = first_integral(nf, (0.3, 0.4))
    assert abs(first_integral(nf, (1.3, 0.4)) - z0 - 1) < 1e-9
    assert abs(first_integral(nf, (0.3, 1.4)) - z0 - nf.tau) < 1e-9


def test_zevaluator_exact_vs_quadrature(nf_deg_sin2):
    """The two evaluation routes must agree: direct from the antiderivative
    expression, and accumulated cell-by-cell quadrature."""
    nf = nf_deg_sin2
    ze_exact = ZEvaluator(nf, 16)
    ze_quad = ZEvaluator(dataclasses.replace(nf, z_exact_ast=None), 16)
    assert np.max(np.abs(ze_exact.centers - ze_quad.centers)) < 1e-9
    rng = np.random.default_rng(23)
    pts = rng.uniform(-1.0, 2.0, (40, 2))
    v1 = ze_exact.at(pts[:, 0], pts[:, 1])
    v2 = ze_quad.at(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(v1 - v2)) < 1e-8


@pytest.mark.parametrize("n", [16, 48])
def test_zevaluator_splits_columns_at_interior_circle(n):
    # a declared circle at y = 0.3 lies inside a cell, where b has a kink;
    # the quadrature centres split their y panels there, as first_integral
    # does
    spec = FieldSpec("custom", "1", "i*abs(sin(pi*(y-0.3)))^3", None,
                     (SigmaComponent(3.0, 0.3, "y=0.3"),))
    nf = normalize(spec)
    c = (np.arange(n) + 0.5) / n
    want = np.array([[first_integral(nf, (x, y)) for y in c] for x in c])
    assert np.max(np.abs(ZEvaluator(nf, n).centers - want)) < 1e-12


@pytest.mark.parametrize("hint", [1.3, -0.7])
def test_declared_ordinate_is_reduced_mod_1(hint):
    # the circle of the test above declared one period away: every caller
    # of the ordinate sees it in [0, 1), so the centres split where they
    # do for y = 0.3
    def centers(y0):
        spec = FieldSpec("custom", "1", "i*abs(sin(pi*(y-0.3)))^3", None,
                         (SigmaComponent(3.0, y0, f"y={y0}"),))
        return ZEvaluator(normalize(spec), 16).centers

    assert np.max(np.abs(centers(hint) - centers(0.3))) <= 1e-14


def test_zevaluator_layout_and_periods(nf_elliptic):
    ze = ZEvaluator(nf_elliptic, 8)
    # axis 0 is x: moving one cell in x adds 1/8 to Re Z
    assert abs(ze.centers[3, 0] - ze.centers[2, 0] - 0.125) < 1e-12
    assert abs(ze.centers[0, 3] - ze.centers[0, 2] - 0.125j) < 1e-12
    z = ze.at(0.2, 0.6)
    assert abs(ze.at(1.2, 0.6) - z - 1) < 1e-12
    assert abs(ze.at(0.2, -0.4) - z + nf_elliptic.tau) < 1e-12


def test_char_set_info_elliptic(nf_elliptic):
    rep = char_set_info(nf_elliptic)
    assert rep.sign_fixed
    assert rep.components == []
    assert rep.min_abs_off_sigma > 0.9


def test_char_set_info_degenerate(nf_deg_sin2, nf_deg_2d):
    for nf in (nf_deg_sin2, nf_deg_2d):
        rep = char_set_info(nf)
        assert rep.sign_fixed
        assert rep.min_abs_off_sigma > 0.0
        (comp,) = rep.components
        assert comp.declared_sigma == 2.0
        assert not comp.rate_mismatch
        assert abs(comp.fitted_rate - 2.0) < 0.3


def test_char_set_info_flags_wrong_declared_rate():
    spec = FieldSpec("overdeclared", "1", "i*sin(pi*y)^2", None,
                     (SigmaComponent(4.0, 0.0, "y=0"),))
    rep = char_set_info(normalize(spec))
    (comp,) = rep.components
    assert comp.rate_mismatch


@pytest.mark.parametrize("spec", [
    build_field("elliptic"), build_field("degenerate_sin2"),
    FieldSpec("custom", "1", "i*(1.5+sin(2*pi*y))", None, ()),
    FieldSpec("overdeclared", "1", "i*sin(pi*y)^2", None,
              (SigmaComponent(4.0, 0.3, "y=0.3"),))])
def test_char_set_info_reads_one_column_when_x_invariant(spec, monkeypatch):
    # Im(a*conj(b)) does not depend on x, so one column of the PROBE_N grid
    # gives the report the whole grid gives, from a 128th of its points
    nf = normalize(spec)
    count, eval_expr = [0], ep.eval_expr

    def counting(ast, x, y):
        count[0] += np.broadcast(np.asarray(x), np.asarray(y)).size
        return eval_expr(ast, x, y)

    monkeypatch.setattr(ep, "eval_expr", counting)
    rep = char_set_info(nf)
    column = count[0]
    with monkeypatch.context() as m:
        m.setattr(field_module, "x_invariant", lambda fld: False)
        count[0] = 0
        assert char_set_info(nf) == rep
    # a and b each at PROBE_N points in place of PROBE_N^2; the rate fits
    # evaluate the same points either way
    probe_n = field_module.PROBE_N
    assert count[0] - column == 2 * (probe_n ** 2 - probe_n)


def test_coeff_grid_is_cached_on_the_field_and_read_only(monkeypatch):
    spec = build_field("degenerate_sin2")
    nf = normalize(spec)
    a, b = coeff_grid(nf, 16)
    x, y = grid_centers(16)
    assert np.array_equal(a, nf.a(x, y)) and np.array_equal(b, nf.b(x, y))

    def refuse(ast, x, y):
        raise AssertionError("a cached grid was evaluated again")

    with monkeypatch.context() as m:
        m.setattr(ep, "eval_expr", refuse)
        a2, b2 = coeff_grid(nf, 16)
    assert a2 is a and b2 is b
    for g in (a, b):
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0, 0] = 0
    # the cache is the field's own: another normalization of the spec
    # equals it and starts empty
    other = normalize(spec)
    assert other == nf and hash(other) == hash(nf)
    assert other._grids == {}
    a3, _ = coeff_grid(other, 16)
    assert a3 is not a and np.array_equal(a3, a)
    assert coeff_grid(nf, 8)[0].shape == (8, 8)
