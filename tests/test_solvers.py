import warnings

import numpy as np
import pytest

from hypotorus import (
    GridFunction,
    HypotorusError,
    Lattice,
    SolveReport,
    lattice_project,
    mean_integral,
    nu_estimates,
    pk_apply,
    pk_fixed_point,
    similarity_check,
    solve_a,
    solve_ab,
    solve_f,
    t_omega,
    t_omega_point,
)
from hypotorus import exprparser as ep
from hypotorus.core import grid_centers
from hypotorus.field import coeff_grid
from hypotorus.kernel import (REFINE_DEPTH, kernel_context, operator_matrix,
                              t_omega_y_jump)
from hypotorus import kernel as kn
from hypotorus import solvers as sv

TWO_PI_I = 2.0j * np.pi


def const_grid(n, value):
    return GridFunction(n, np.full((n, n), value, dtype=complex))


def test_mean_integral():
    assert mean_integral(const_grid(16, 2 + 3j)) == 2 + 3j
    g = GridFunction.from_callable(16, lambda x, y: np.exp(TWO_PI_I * x))
    assert abs(mean_integral(g)) < 1e-12
    g = GridFunction.from_callable(16, lambda x, y: np.sin(np.pi * y) ** 2)
    assert abs(mean_integral(g) - 0.5) < 1e-12


def test_nu_of_constants(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    assert abs(nu_estimates(ctx, const_grid(16, -TWO_PI_I)).mean - 1) < 1e-14
    assert nu_estimates(ctx, const_grid(16, 0)).mean == 0
    tau = ctx.tau
    want = 2 + 3 * tau
    got = nu_estimates(ctx, const_grid(16, -TWO_PI_I * want)).mean
    assert abs(got - want) < 1e-13


def test_nu_boundary_formula_agrees(ctx_elliptic_16):
    est = nu_estimates(ctx_elliptic_16, const_grid(16, -TWO_PI_I))
    assert est.discrepancy < 1e-4


@pytest.mark.parametrize("nf_name", ["nf_elliptic", "nf_deg_sin2",
                                     "nf_perturbed", "nf_deg_2d"])
def test_boundary_offsets_are_the_dropped_blocks(request, nf_name):
    # The kernel's lattice index moves by exactly one between (x, 0) and
    # (x, 1), so T g (x, 1) - T g (x, 0) is -mean(g) plus what the singular
    # quadtrees leave out: at the sample abscissae the probe is a corner of
    # four cells, each of which drops one block of side h * 2^-depth.  The
    # closed form of an x-invariant field drops nothing.  The probes tie
    # t_omega_y_jump's closed form to point evaluation.
    n = 16
    ctx = kernel_context(request.getfixturevalue(nf_name), n)
    rng = np.random.default_rng(44)
    g = GridFunction(n, rng.normal(size=(n, n))
                     + 1j * rng.normal(size=(n, n)))
    h = 1.0 / n
    depth = REFINE_DEPTH
    samples = (np.arange(sv.OFFSET_SAMPLES) + 0.5) / sv.OFFSET_SAMPLES
    dropped = {}
    for x in (0.0, *samples):
        i = round(x * n)
        assert i == x * n
        cells = g.values[np.ix_([(i - 1) % n, i], [n - 1, 0])]
        dropped[x] = h * h * 4.0 ** -depth * cells.sum()
        if ctx.strategy != "dense":
            dropped[x] = 0.0
        got = (t_omega_point(ctx, g, (x, 1.0))
               - t_omega_point(ctx, g, (x, 0.0)))
        assert abs(got - (dropped[x] - mean_integral(g))) < 1e-13
        assert abs(t_omega_y_jump(ctx, g, x) - got) < 1e-13
    # off a cell corner the probe sits on an edge of two cells, inside
    # their columns, and the closed form still matches the probes
    for x in (0.1234, 0.37):
        got = (t_omega_point(ctx, g, (x, 1.0))
               - t_omega_point(ctx, g, (x, 0.0)))
        assert abs(t_omega_y_jump(ctx, g, x) - got) < 1e-13
    # so offset_constancy is the spread of the dropped blocks' share
    share = np.array([dropped[x] for x in samples])
    spread = np.abs(share - share.mean()).max()
    assert abs(sv._boundary_offsets(ctx, g) - spread) < 1e-13


def test_solvers_make_no_point_probe(ctx_elliptic_16, monkeypatch):
    # every verdict, offset constancy included, comes without a probe
    def probe(*args, **kwargs):
        raise AssertionError("t_omega_point called on the solve path")

    monkeypatch.setattr(sv, "t_omega_point", probe)
    ctx = ctx_elliptic_16
    f = GridFunction.from_callable(
        16, lambda x, y: np.exp(TWO_PI_I * (x + y)))
    a_fn = GridFunction.from_callable(
        16, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
    b_fn = GridFunction.from_callable(
        16, lambda x, y: 0.05 * np.exp(TWO_PI_I * y))
    assert solve_f(ctx, f).solvable == "yes"
    assert solve_a(ctx, a_fn).solvable == "yes"
    assert solve_ab(ctx, a_fn, b_fn).solvable == "yes"


@pytest.mark.parametrize("nf_name", ["nf_elliptic", "nf_deg_sin2",
                                     "nf_perturbed"])
def test_solves_on_a_built_context_evaluate_no_expression(
        request, nf_name, monkeypatch):
    # the context holds a and b on its grid (coeff_grid) and the operator;
    # the residual and the boundary offsets of every solve read them, so
    # no strategy evaluates an expression once the operator is built
    ctx = kernel_context(request.getfixturevalue(nf_name), 16)
    operator_matrix(ctx)
    calls, eval_expr = [], ep.eval_expr

    def counting(ast, x, y):
        calls.append(ep.to_string(ast))
        return eval_expr(ast, x, y)

    monkeypatch.setattr(ep, "eval_expr", counting)
    f = GridFunction.from_callable(
        16, lambda x, y: np.exp(TWO_PI_I * (x + y)))
    a_fn = GridFunction.from_callable(
        16, lambda x, y: 0.3 * np.sin(2 * np.pi * x))
    b_fn = GridFunction.from_callable(
        16, lambda x, y: 0.05 * np.exp(TWO_PI_I * y))
    for rep in (solve_f(ctx, f), solve_a(ctx, a_fn),
                solve_ab(ctx, a_fn, b_fn)):
        assert rep.residual is not None  # the certified path ran
    assert calls == []


@pytest.mark.parametrize("nf_name", ["nf_elliptic", "nf_deg_sin2",
                                     "nf_perturbed", "nf_deg_2d"])
def test_y_jump_reads_its_cells_from_the_cache(request, nf_name):
    n = 16
    ctx = kernel_context(request.getfixturevalue(nf_name), n)
    rng = np.random.default_rng(45)
    # cell corners, column interiors and abscissae off [0, 1), each against
    # the closed form summed over _point_cells and _singular_squares on a
    # dense context, and against -mean(g) on an x-invariant one
    for x in (0.0, 0.0625, 0.1234, 0.37, 0.5, 0.99, 1.25, -0.3):
        sing = [c for _, c, _, _ in kn._point_cells(n, x, 0.0)]
        # terms of magnitudes 1e-2 to 1e2 and a mean of order one, so the
        # sum depends on the order of its additions: g on the singular
        # cells is 1 / (h^2 times the dropped share), 2^20, times the term
        vals = np.zeros(n * n, dtype=complex)
        vals[sing] = 2.0 ** 20 * ((rng.normal(size=len(sing))
                                   + 1j * rng.normal(size=len(sing)))
                                  * 10.0 ** rng.uniform(-2, 2, len(sing)))
        other = next(c for c in range(n * n) if c not in sing)
        vals[other] = -vals.sum() + n * n * (rng.normal() + 1j)
        g = GridFunction(n, vals.reshape(n, n))
        want = -complex(np.mean(g.values))
        # the closed form of an x-invariant field drops no block
        cells = kn._point_cells(n, x, 0.0) if ctx.strategy == "dense" else []
        for _, c, ox, oy in cells:
            side = kn._singular_squares(ox, oy)[2]
            dropped = 1.0 - np.sum(side * side)
            want += g.values.flat[c] * ctx.h ** 2 * dropped
        for _ in range(2):  # filling the cache, then reading it
            got = t_omega_y_jump(ctx, g, x)
            assert complex(got) == complex(want)  # bit for bit


def test_lattice_project():
    lat = Lattice(1j)
    assert lattice_project(1 + 1j, lat) == (1, 1)
    assert lattice_project(0.5 + 0j, lat) is None
    assert lattice_project(2 + 3j - 1e-8 * (1 + 1j), lat) == (2, 3)
    lat2 = Lattice(0.3 + 0.8j)
    assert lattice_project(-1 + 2 * (0.3 + 0.8j), lat2) == (-1, 2)
    with pytest.raises(HypotorusError):
        lattice_project(0j, lat, tol=0.0)


def test_lattice_project_refuses_half_a_step():
    # at tol >= 1/2 every nu rounds onto the lattice
    for tol in (0.5, 0.9):
        with pytest.raises(HypotorusError):
            lattice_project(0.5 + 0j, Lattice(1j), tol=tol)


def test_residual_bound_gates_every_yes(ctx_elliptic_16, monkeypatch):
    ctx = ctx_elliptic_16
    monkeypatch.setattr(sv, "K_MAX", 1)
    f = GridFunction.from_callable(
        16, lambda x, y: np.exp(TWO_PI_I * (x + y)))
    a_fn = const_grid(16, -TWO_PI_I * ctx.tau)
    solves = (lambda: solve_f(ctx, f), lambda: solve_a(ctx, a_fn),
              lambda: solve_ab(ctx, a_fn, const_grid(16, 0)))
    for solve in solves:
        assert solve().solvable == "yes"
    # a residual above the bound leaves the solution uncertified; the
    # report still carries it
    monkeypatch.setattr(sv, "RESIDUAL_BOUND", 1e-9)
    for solve in solves:
        rep = solve()
        assert rep.solvable == "inconclusive"
        assert rep.u is not None and rep.residual_sup > 0.0
        assert "not certified" in rep.notes


def test_large_nu_is_left_to_the_residual(ctx_elliptic_16):
    # nu(A) = 63.7i scales the lattice tolerance past half a step; the
    # solve must still run, and its residual refuses the false solution
    a_fn = GridFunction.from_callable(
        16, lambda x, y: 400.0 + np.sin(2 * np.pi * x))
    rep = solve_a(ctx_elliptic_16, a_fn)
    assert rep.solvable == "inconclusive"
    assert "quadrature-scaled" in rep.notes


def test_report_invariants():
    with pytest.raises(HypotorusError):
        SolveReport(solvable="maybe")
    with pytest.raises(HypotorusError):
        SolveReport(solvable="yes")


def test_solve_f_rejects_nonzero_mean(ctx_elliptic_16):
    rep = solve_f(ctx_elliptic_16, const_grid(16, 1))
    assert rep.solvable == "no"
    assert rep.u is None and rep.residual_sup is None
    assert "gate" in rep.notes


def test_solve_f_zero_mean(ctx_elliptic_16):
    f = GridFunction.from_callable(
        16, lambda x, y: np.exp(TWO_PI_I * (x + y)))
    rep = solve_f(ctx_elliptic_16, f)
    assert rep.solvable == "yes"
    assert rep.u is not None
    assert rep.residual_sup < 0.5
    assert rep.offset_constancy < 1e-3
    assert rep.iterations == 0


def test_solve_a_zero_coefficient(ctx_elliptic_16):
    rep = solve_a(ctx_elliptic_16, const_grid(16, 0))
    assert rep.solvable == "yes"
    assert (rep.j, rep.k) == (0, 0)
    assert np.allclose(rep.u.values, 1.0, atol=1e-14)
    assert rep.residual_sup < 1e-12
    assert "exact mode" in rep.notes
    assert rep.k_sim == 0


def test_solve_a_rejects_off_lattice(ctx_elliptic_16):
    rep = solve_a(ctx_elliptic_16, const_grid(16, 1))
    assert rep.solvable == "no"
    assert abs(rep.nu - 1j / (2 * np.pi)) < 1e-14
    assert "not a lattice point" in rep.notes


def test_solve_a_constant_coefficient(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    a_fn = const_grid(16, -TWO_PI_I * ctx.tau)
    rep = solve_a(ctx, a_fn)
    assert rep.solvable == "yes"
    assert (rep.j, rep.k) == (0, 1)
    assert rep.residual_sup < 0.2
    # u was assembled as exp(v - 2 pi i k Z), so stripping the similarity
    # factor with k_sim leaves an exact constant
    c, max_dev, min_abs = similarity_check(ctx, rep.u, rep.k_sim, rep.v)
    assert max_dev < 1e-12
    assert min_abs > 0.0
    assert abs(c) > 1e-3


def test_pk_apply_ignores_v_when_b_vanishes(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    a_fn = GridFunction.from_callable(16, lambda x, y: np.exp(TWO_PI_I * x))
    b_fn = const_grid(16, 0)
    rng = np.random.default_rng(41)
    v = GridFunction(16, rng.normal(size=(16, 16))
                     + 1j * rng.normal(size=(16, 16)))
    want = t_omega(ctx, a_fn)
    for k in (0, 2):
        got = pk_apply(ctx, a_fn, b_fn, k, v)
        assert np.array_equal(got.values, want.values)


def test_pk_integrand_phase_is_unimodular(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    rng = np.random.default_rng(42)
    a_fn = const_grid(16, 0.3 - 0.2j)
    b_fn = GridFunction.from_callable(16, lambda x, y: 0.1 * np.exp(TWO_PI_I * y))
    v = GridFunction(16, rng.normal(size=(16, 16)) * (2 + 5j))
    integ = sv._pk_integrand(ctx, a_fn, b_fn, 1, v)
    dev = np.abs(integ.values - a_fn.values) - np.abs(b_fn.values)
    assert np.max(np.abs(dev)) < 1e-13


def test_pk_fixed_point_b_zero_lands_in_two_steps(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    a_fn = GridFunction.from_callable(16, lambda x, y: np.exp(TWO_PI_I * x))
    state = pk_fixed_point(ctx, a_fn, const_grid(16, 0), k=0)
    assert state.converged
    assert state.iterations == 2
    want = t_omega(ctx, a_fn)
    assert np.array_equal(state.v.values, want.values)


def test_pk_fixed_point_zero_data(ctx_elliptic_16):
    state = pk_fixed_point(ctx_elliptic_16, const_grid(16, 0),
                           const_grid(16, 0), k=0)
    assert state.converged and state.iterations == 1
    assert np.all(state.v.values == 0)


def _defect(ctx, a_fn, b_fn, k, v):
    return float(np.abs(pk_apply(ctx, a_fn, b_fn, k, v).values
                        - v.values).max())


def _damped_fixed_point(ctx, a_fn, b_fn, k, damping=0.5):
    """Reference: damped Picard v <- v + d (P_k v - v) from v = 0 until an
    update is at most PICARD_TOL; returns v and the applies of P_k, one
    more than the steps for the defect check that follows them, or v None
    if it stalls."""
    v = GridFunction.zeros(ctx.n)
    for it in range(1, sv.MAX_ITER + 1):
        step = damping * (pk_apply(ctx, a_fn, b_fn, k, v).values - v.values)
        v = GridFunction(ctx.n, v.values + step)
        if np.abs(step).max() <= sv.PICARD_TOL:
            return v, it + 1
    return None, sv.MAX_ITER


def _counted_fixed_point(monkeypatch, ctx, a_fn, b_fn, k):
    """pk_fixed_point with its applies of P_k counted."""
    calls, apply = [], sv.pk_apply

    def counting(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(sv, "pk_apply", counting)
    state = pk_fixed_point(ctx, a_fn, b_fn, k)
    assert state.iterations == len(calls)
    return state


def test_pk_fixed_point_cold_sin2_ab_case_in_six_applies(nf_deg_sin2,
                                                         monkeypatch):
    # the benchmark's cold-sin2-ab case: A = L w - B exp(conj(w) - w) for
    # w = 0.15 cos(2 pi x) sin(2 pi y), B = 0.1 exp(2 pi i y)
    n = 48
    ctx = kernel_context(nf_deg_sin2, n)
    x, y = grid_centers(n)
    w = 0.15 * np.cos(2 * np.pi * x) * np.sin(2 * np.pi * y)
    wx = -0.3 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    wy = 0.3 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    a, b = coeff_grid(nf_deg_sin2, n)
    b_fn = GridFunction(n, 0.1 * np.exp(TWO_PI_I * y))
    a_fn = GridFunction(n, b * wx - a * wy
                        - b_fn.values * np.exp(np.conj(w) - w))
    state = _counted_fixed_point(monkeypatch, ctx, a_fn, b_fn, 0)
    assert state.converged and state.iterations <= 6
    assert state.delta_sup <= sv.PICARD_TOL
    assert _defect(ctx, a_fn, b_fn, 0, state.v) <= sv.PICARD_TOL


def _ab_data(n, beta):
    a_fn = GridFunction.from_callable(
        n, lambda x, y: 0.3 * np.cos(2 * np.pi * x)
        + 0.2j * np.sin(2 * np.pi * y))
    b_fn = GridFunction.from_callable(
        n, lambda x, y: beta * np.exp(TWO_PI_I * y))
    return a_fn, b_fn


@pytest.mark.parametrize("beta", [0.1, 1.0, 4.0])
@pytest.mark.parametrize("field", ["elliptic", "degenerate_sin2"])
def test_pk_fixed_point_takes_fewer_applies_than_damped_picard(
        nf_elliptic, nf_deg_sin2, monkeypatch, field, beta):
    nf = {"elliptic": nf_elliptic, "degenerate_sin2": nf_deg_sin2}[field]
    ctx = kernel_context(nf, 32)
    a_fn, b_fn = _ab_data(32, beta)
    want, damped_applies = _damped_fixed_point(ctx, a_fn, b_fn, 0)
    assert want is not None
    state = _counted_fixed_point(monkeypatch, ctx, a_fn, b_fn, 0)
    assert state.converged
    assert state.iterations < damped_applies
    assert _defect(ctx, a_fn, b_fn, 0, state.v) <= sv.PICARD_TOL
    assert np.abs(state.v.values - want.values).max() <= 1e-7


def test_pk_fixed_point_converges_where_damped_picard_stalls(nf_deg_sin2):
    ctx = kernel_context(nf_deg_sin2, 32)
    a_fn, b_fn = _ab_data(32, 8.0)
    assert _damped_fixed_point(ctx, a_fn, b_fn, 0)[0] is None
    state = pk_fixed_point(ctx, a_fn, b_fn, k=0)
    assert state.converged and state.iterations < sv.MAX_ITER
    assert _defect(ctx, a_fn, b_fn, 0, state.v) <= sv.PICARD_TOL


def test_k_order():
    assert sv._k_order(3) == [0, 1, -1, 2, -2, 3, -3]
    assert sv._k_order(0) == [0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_solve_ab_b_zero_reduces_to_solve_a(ctx_elliptic_32, monkeypatch,
                                            k):
    # the k = 0 offset names the winding, so K_MAX = 1 reaches every k; at
    # n=16 the FD residual leaves solve_a itself uncertified from k = 4
    monkeypatch.setattr(sv, "K_MAX", 1)
    ctx = ctx_elliptic_32
    a_fn = const_grid(32, -TWO_PI_I * k * ctx.tau)
    rep_a = solve_a(ctx, a_fn)
    rep_ab = solve_ab(ctx, a_fn, const_grid(32, 0))
    assert rep_ab.solvable == "yes"
    assert rep_ab.k == -rep_a.k
    assert rep_ab.j == 0
    assert rep_ab.iterations == 2
    assert np.max(np.abs(rep_ab.u.values - rep_a.u.values)) < 1e-10


def test_solve_ab_no_matching_winding(ctx_elliptic_16, monkeypatch):
    monkeypatch.setattr(sv, "K_MAX", 1)
    rep = solve_ab(ctx_elliptic_16, const_grid(16, 1), const_grid(16, 0))
    assert rep.solvable == "no"
    assert rep.u is None
    assert "k=0" in rep.notes and "k=-1" in rep.notes
    assert rep.iterations == 3 * 2


def test_solve_ab_far_winding_is_inconclusive(ctx_elliptic_16):
    # the k = 0 offset names k* = -200 and its fixed point lands on the
    # lattice; exp(2 pi i k Z + v) stays finite, but at n=16 the FD
    # certificate cannot back a winding this fast, so the verdict is open
    a_fn = const_grid(16, -TWO_PI_I * 200 * ctx_elliptic_16.tau)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = solve_ab(ctx_elliptic_16, a_fn, const_grid(16, 0))
    assert rep.solvable == "inconclusive"
    assert rep.k == -200
    assert "not certified" in rep.notes


def test_similarity_check_degenerate(ctx_elliptic_16):
    with pytest.raises(HypotorusError):
        similarity_check(ctx_elliptic_16, GridFunction.zeros(16), 0,
                         GridFunction.zeros(16))


def test_similarity_check_exact_form(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    rng = np.random.default_rng(43)
    v = GridFunction(16, 0.3 * rng.normal(size=(16, 16))
                     + 0.2j * rng.normal(size=(16, 16)))
    k = 2
    u = GridFunction(16, 1.7 * np.exp(TWO_PI_I * k * ctx.z_centers
                                      + v.values))
    c, max_dev, min_abs = similarity_check(ctx, u, k, v)
    assert abs(c - 1.7) < 1e-12
    assert max_dev < 1e-12
    assert min_abs > 0
