import sys
import threading
import warnings

import numpy as np
import pytest

from hypotorus import (
    GridFunction,
    HypotorusError,
    kernel_context,
    operator_matrix,
    t_omega,
    t_omega_point,
)
from hypotorus import core
from hypotorus import exprparser as ep
from hypotorus import kernel as kn
from hypotorus.core import (grid_centers, lattice_reduce,
                            reduced_lattice_distance)
from hypotorus.field import (FieldSpec, SigmaComponent, build_field,
                             coeff_grid, normalize, x_invariant)
from hypotorus.solvers import solve_a
from hypotorus.theta import kernel_x_fourier, pole_offset, theta_log_deriv_raw

from helpers import kernel_m, use_cpus

# a field depending on x with no z_exact, so Z comes from quadrature
NO_Z_EXACT = FieldSpec(
    "custom", "1 + 0.1*pi*cos(2*pi*x)*sin(pi*y)^2",
    "0.1*pi*sin(2*pi*x)*sin(pi*y)*cos(pi*y) + i*sin(pi*y)^2", None,
    (SigmaComponent(2.0, 0.0, "y=0"),))

# a field constant in x with no z_exact: the circulant strategy on the
# quadrature Z path, tau = 1.5i
X_INVARIANT_NO_Z = FieldSpec("custom", "1", "i*(1.5+sin(2*pi*y))", None, ())

# constant coefficients with no z_exact and a non-rectangular tau: the
# convolution strategy on the quadrature Z path
TILTED_NO_Z = FieldSpec("custom", "1", "0.3+0.8*i", None, ())

# elliptic with a declared circle, which shapes no part of the operator:
# it takes the convolution strategy
ELLIPTIC_CIRCLE = FieldSpec("elliptic", "1", "i", "x + i*y",
                            (SigmaComponent(2.0, 0.3, "y=0.3"),))

CIRCULANT_SPECS = {"noz": X_INVARIANT_NO_Z, "tilted": TILTED_NO_Z,
                   "elliptic_circle": ELLIPTIC_CIRCLE}

# d a / d y = 0.2 pi cos(2 pi y) but d b / d x = 0.2 pi cos(2 pi x): the form
# is not closed, and it depends on x, so only the closedness rule sees it
OPEN_FORM_X = FieldSpec("custom", "1 + 0.1*sin(2*pi*y)",
                        "i + 0.1*sin(2*pi*x)", None, ())


def test_ring_offsets_geometry():
    # a point at the cell center: every level after the first emits a
    # 12-square ring; the first keeps all four children
    for depth in (3, 4, 6):
        qx, qy, side = kn._singular_squares(0.0, 0.0, depth)
        assert len(qx) == 12 * (depth - 1)
        for level in range(2, depth + 1):
            u = 2.0 ** -level
            ring = side == u
            assert np.count_nonzero(ring) == 12
            arr = np.column_stack([qx[ring], qy[ring]])
            # every midpoint sits in the L-inf ring between u and 2u, and
            # the pattern is centrally symmetric (pole contributions cancel
            # in pairs)
            assert np.all(np.max(np.abs(arr), axis=1) <= 1.5 * u + 1e-15)
            assert np.all(np.max(np.abs(arr), axis=1) >= 0.5 * u - 1e-15)
            for (ox, oy) in arr:
                assert np.any((np.abs(ox + arr[:, 0]) < 1e-15)
                              & (np.abs(oy + arr[:, 1]) < 1e-15))


def test_context_validation(nf_elliptic):
    with pytest.raises(HypotorusError):
        kernel_context(nf_elliptic, 7)
    ctx = kernel_context(nf_elliptic, 16)
    assert ctx.h == 1 / 16
    assert abs(ctx.z0 - (1 + 1j) / 2) < 1e-15


def test_building_a_context_evaluates_no_kernel_value(nf_deg_sin2,
                                                     monkeypatch):
    # every kernel value, singular cells included, belongs to an operator
    # row, so a context that is only probed never pays for a full build
    def refuse(*args):
        raise AssertionError("kernel evaluated while building a context")

    monkeypatch.setattr(kn, "theta_log_deriv_raw", refuse)
    ctx = kernel_context(nf_deg_sin2, 16)
    assert ctx._operator is None


def test_kernel_m_lattice_shift(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    rng = np.random.default_rng(31)
    for _ in range(10):
        px, py, sx, sy = rng.uniform(0, 1, 4)
        if abs(px - sx) < 0.05 and abs(py - sy) < 0.05:
            continue
        base = kernel_m(ctx, (px, py), (sx, sy))
        for (j, k) in ((1, 0), (0, 1), (-1, 1), (2, -1)):
            shifted = kernel_m(ctx, (px, py), (sx + j, sy + k))
            assert abs(shifted - base + 2j * np.pi * k) < 1e-10


def test_kernel_m_pole_law(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    eps = 1e-6
    p = (0.3, 0.4)
    for s in ((0.3 + eps, 0.4), (0.3, 0.4 + eps)):
        diff = complex(ctx.zeval.at(*s)) - complex(ctx.zeval.at(*p))
        assert abs(diff * kernel_m(ctx, p, s) - 1) < 1e-4


def test_kernel_m_singular(ctx_elliptic_16):
    with pytest.raises(HypotorusError):
        kernel_m(ctx_elliptic_16, (0.3, 0.4), (0.3, 0.4))
    with pytest.raises(HypotorusError):
        kernel_m(ctx_elliptic_16, (0.3, 0.4), (1.3, 1.4))


def test_point_eval_matches_grid_at_centers(nf_elliptic, nf_deg_sin2,
                                            nf_deg_2d):
    g = GridFunction.from_callable(16, lambda x, y: np.exp(2j * np.pi * x))
    for nf in (nf_elliptic, nf_deg_sin2, nf_deg_2d):
        ctx = kernel_context(nf, 16)
        tg = t_omega(ctx, g)
        for i in range(16):
            for j in range(16):
                p = ((i + 0.5) / 16, (j + 0.5) / 16)
                assert abs(t_omega_point(ctx, g, p) - tg.values[i, j]) < 1e-10


def test_point_eval_continuous_across_cell_edges(ctx_elliptic_16):
    # on an edge the singular treatment switches to two cells; the value
    # must still agree with nearby interior points
    ctx = ctx_elliptic_16
    g = GridFunction.from_callable(
        16, lambda x, y: np.exp(2j * np.pi * (x + y)))
    edge = t_omega_point(ctx, g, (0.25, 0.4))          # x on a cell edge
    near = t_omega_point(ctx, g, (0.25 + 1e-7, 0.4))
    assert abs(edge - near) < 1e-3
    corner = t_omega_point(ctx, g, (0.5, 0.5))         # four-cell corner
    near2 = t_omega_point(ctx, g, (0.5 + 1e-7, 0.5 + 1e-7))
    assert abs(corner - near2) < 1e-3


def test_point_eval_quasi_periodicity(ctx_elliptic_16):
    ctx = ctx_elliptic_16
    g = GridFunction.from_callable(16, lambda x, y: np.ones_like(x) + 0j)
    base = t_omega_point(ctx, g, (0.25, 0.375))
    # x-period: exact, the kernel arguments shift by whole lattice vectors
    assert abs(t_omega_point(ctx, g, (1.25, 0.375)) - base) < 1e-13
    # y-period picks up minus the integral of g; only the dropped block
    # around the singular point contributes error
    dev = t_omega_point(ctx, g, (0.25, 1.375)) - base + 1.0
    assert abs(dev) < 1e-5


def test_point_eval_edge_offsets_exact_off_power_of_two(nf_elliptic):
    # at n=48, h is not a binary fraction; a probe on a cell corner must
    # still be seen on the corner, which keeps it close to the limit of
    # nearby interior points
    ctx = kernel_context(nf_elliptic, 48)
    g = GridFunction.from_callable(
        48, lambda x, y: np.exp(2j * np.pi * (x + 2 * y)))
    for p in ((0.0625, 1.0), (0.4375, 0.0), (0.25, 0.4)):
        corner = t_omega_point(ctx, g, p)
        near = np.mean([t_omega_point(ctx, g, (p[0] + sx, p[1] + sy))
                        for sx in (-1e-8, 1e-8) for sy in (-1e-8, 1e-8)])
        assert abs(corner - near) < 1e-4


def test_threaded_run_is_deterministic(nf_perturbed, nf_deg_2d,
                                       monkeypatch):
    # n=16 is four 64-row blocks, so four threads really share the dense
    # build; degenerate_2d puts refined rows next to its circle into it
    for nf in (nf_perturbed, nf_deg_2d):
        use_cpus(monkeypatch, 1)
        one = operator_matrix(kernel_context(nf, 16))
        use_cpus(monkeypatch, 4)
        four = operator_matrix(kernel_context(nf, 16))
        assert np.array_equal(one, four)


def test_build_threads_follow_cpus_and_blocks(nf_perturbed, nf_elliptic,
                                              monkeypatch):
    # a build runs one thread per CPU the process may use, at most one per
    # row block, and a one-block build runs without a pool
    pools = []

    class Recording(kn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(kn, "ThreadPoolExecutor", Recording)
    use_cpus(monkeypatch, 3)
    operator_matrix(kernel_context(nf_perturbed, 16))  # 256 rows, 4 blocks
    assert pools == [3]
    operator_matrix(kernel_context(nf_elliptic, 16))   # one row
    assert pools == [3]


def test_dense_build_is_thread_count_invariant(nf_deg_2d, monkeypatch):
    # degenerate_2d at n=16 is four row blocks: built inline on one CPU and
    # on a pool of two threads on two, W is the same bit for bit
    pools = []

    class Recording(kn.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(kn, "ThreadPoolExecutor", Recording)
    builds = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        builds.append(operator_matrix(kernel_context(nf_deg_2d, 16)))
    assert pools == [2]
    assert np.array_equal(*builds)


@pytest.mark.parametrize("name", ["nf_deg_sin2", "nf_deg_2d"])
def test_weights_do_not_depend_on_row_blocks(name, request):
    # refinement next to the degenerate circles is never cut short, so rows
    # built 32 or all 1024 at a time equal the dense build's 64-row blocks;
    # the row engine builds degenerate_sin2's rows as a dense field's,
    # although its own operator is the closed form
    ctx = kernel_context(request.getfixturevalue(name), 32)
    want = kn._built_rows(ctx)
    for size in (32, 1024):
        got = np.vstack([kn._operator_rows(ctx, r, r + size)
                         for r in range(0, 1024, size)])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_threaded_build_counts_expression_points_once(nf_perturbed,
                                                     monkeypatch):
    # analytic_perturbed at n=48 has 36 row blocks; two threads must not
    # both fill a shared lazy cache, which would evaluate the same points
    # twice
    lock = threading.Lock()
    count = [0]
    eval_expr = ep.eval_expr

    def counting(ast, x, y):
        with lock:
            count[0] += np.broadcast(np.asarray(x), np.asarray(y)).size
        return eval_expr(ast, x, y)

    def points_in_build(cpus):
        ctx = kernel_context(nf_perturbed, 48)
        use_cpus(monkeypatch, cpus)
        count[0] = 0
        operator_matrix(ctx)
        return count[0]

    monkeypatch.setattr(ep, "eval_expr", counting)
    want = points_in_build(1)
    assert want > 0
    for _ in range(3):
        assert points_in_build(2) == want


def test_far_field_block_is_reduced_once(nf_perturbed, monkeypatch):
    # n=16 is four row blocks of 64 targets by 256 cells
    original, shapes = core.lattice_reduce, []

    def recording(z, tau):
        shapes.append(np.shape(z))
        return original(z, tau)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hypotorus") and hasattr(mod, "lattice_reduce"):
            monkeypatch.setattr(mod, "lattice_reduce", recording)
    use_cpus(monkeypatch, 1)
    operator_matrix(kernel_context(nf_perturbed, 16))
    assert shapes.count((64, 256)) == 4


STRATEGIES = {"elliptic": "convolution", "tilted": "convolution",
              "degenerate_sin2": "circulant", "noz": "circulant"}


def test_strategy_follows_the_field(nf_perturbed, nf_deg_2d):
    for name, strategy in STRATEGIES.items():
        nf = normalize(CIRCULANT_SPECS.get(name) or build_field(name))
        assert x_invariant(nf) and x_invariant(nf.spec)
        for n in (16, 96):
            assert kernel_context(nf, n).strategy == strategy
    for nf in (nf_perturbed, nf_deg_2d, normalize(NO_Z_EXACT)):
        assert not x_invariant(nf) and not x_invariant(nf.spec)
        assert kernel_context(nf, 16).strategy == "dense"
        with pytest.raises(HypotorusError, match="grid_n <= 80"):
            kernel_context(nf, 96)


@pytest.mark.parametrize("name, n", [
    (name, n) for name in ("elliptic", "degenerate_sin2", "noz", "tilted")
    for n in (16, 32)] + [
    ("degenerate_sin2", 8), ("noz", 8), ("tilted", 8)])
def test_circulant_matches_stacked_rows(name, n):
    # the cached operator (blocks from the row recurrence, or the
    # convolution spectrum) applied to every grid basis vector, and the FFT
    # apply, against W stacked from the window rows at every cell centre,
    # one ordinate at a time with no recurrence; n=8 has a Nyquist block
    spec = CIRCULANT_SPECS.get(name) or build_field(name)
    ctx = kernel_context(normalize(spec), n)
    assert ctx.strategy == STRATEGIES[name]
    xf = kn._x_fourier(ctx)
    blocks = np.stack([_fft_index_rows(n, *kn._window_rows(xf, (j + 0.5) / n))
                       for j in range(n)], axis=1)
    basis = np.fft.fft(np.eye(n * n).reshape(n, n, n * n), axis=0)
    want = np.fft.ifft(blocks @ basis, axis=0).reshape(n * n, n * n)
    scale = np.max(np.abs(want))
    w = _grid_w(ctx)
    assert np.max(np.abs(w - want)) <= 1e-13 * scale
    g = GridFunction.from_callable(
        n, lambda x, y: np.exp(2j * np.pi * (x + 2 * y)) + np.sin(np.pi * y))
    wg = w @ g.values.ravel()
    got = t_omega(ctx, g).values.ravel()
    assert np.max(np.abs(got - wg)) <= 1e-13 * np.max(np.abs(wg))


def _fft_index_rows(n, up, down, zero):
    # T_k's row by FFT index k: T_p at p, T_-p at n - p, their mean at the
    # Nyquist index of an even n
    rows = np.empty((n, n), dtype=complex)
    rows[0] = zero
    for p in range(1, len(up) + 1):
        rows[p] = up[p - 1]
        rows[n - p] = down[p - 1]
    if n % 2 == 0:
        rows[n // 2] = 0.5 * (up[-1] + down[-1])
    return rows


@pytest.mark.parametrize("n", [16, 32])
def test_declared_circle_shapes_no_part_of_the_operator(n):
    # the elliptic field with and without a declared circle: the same
    # cached operator, bit for bit
    spectra = [operator_matrix(kernel_context(normalize(spec), n))
               for spec in (build_field("elliptic"), ELLIPTIC_CIRCLE)]
    assert np.array_equal(*spectra)


@pytest.mark.parametrize("name", ["degenerate_sin2", "tilted"])
def test_circulant_point_probe_matches_series(name):
    # a point probe on an x-invariant context against the kernel's
    # x-Fourier series summed directly: C^+ on each half-cell part below
    # the probe and C^- above it, with no window and no recurrence, at an
    # interior point, a cell corner and a point off the unit square (by T's
    # laws: period 1 in x, -mean(g) per unit step in y)
    n = 16
    spec = CIRCULANT_SPECS.get(name) or build_field(name)
    ctx = kernel_context(normalize(spec), n)
    g = GridFunction.from_callable(
        n, lambda x, y: np.exp(2j * np.pi * (x + 2 * y)) + np.sin(np.pi * y))
    gk = np.fft.fft(g.values, axis=0) / n
    nodes = np.arange(2 * n + 1) / (2 * n)
    phi = ctx.zeval.at(np.zeros_like(nodes), nodes)
    phi[-1] = phi[0] + ctx.tau
    for p in [(0.3, 0.71), (0.25, 0.5), (1.4, -0.35)]:
        x, y = p[0] % 1.0, p[1] % 1.0
        phi_y = np.interp(y, nodes, phi.real) + 1j * np.interp(y, nodes,
                                                               phi.imag)
        want = 0j
        for k in range(-n // 2, n // 2 + 1):
            above, below = kernel_x_fourier(ctx.theta, k)
            cells = np.zeros(n, dtype=complex)
            for m in range(2 * n):
                lo, hi = nodes[m], nodes[m + 1]
                for a, b, coef in ((lo, min(hi, y), above),
                                   (max(lo, y), hi, below)):
                    if b <= a:
                        continue
                    za, zb = [phi[m] + (v - lo) * 2 * n * (phi[m + 1] - phi[m])
                              for v in (a, b)]
                    arg = 2j * np.pi * k * (zb - za)
                    mean = (np.expm1(-arg) / -arg) if arg else 1.0
                    cells[m // 2] += (coef * (b - a) * mean
                                      * np.exp(2j * np.pi * k * (phi_y - za)))
            share = 0.5 if abs(k) == n // 2 else 1.0
            want += (share * np.exp(2j * np.pi * k * (x - 0.5 / n))
                     * (cells @ gk[k % n]) / (2j * np.pi))
        want -= np.floor(p[1]) * np.mean(g.values)
        got = t_omega_point(ctx, g, p)
        assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("name, rows", [
    ("elliptic", 1), ("tilted", 1), ("elliptic_circle", 1)])
def test_constant_coefficient_field_builds_one_row(name, rows, monkeypatch):
    # T commutes with y-shifts too when neither coefficient depends on x or
    # y: the window row at the lowest target gives the whole spectrum, and
    # no row of the row engine is built
    spec = CIRCULANT_SPECS.get(name) or build_field(name)
    ctx = kernel_context(normalize(spec), 16)
    built = [0]
    window_rows = kn._window_rows

    def counting(xf, y):
        built[0] += 1
        return window_rows(xf, y)

    def refuse(*args):
        raise AssertionError("a row of the row engine was built")

    monkeypatch.setattr(kn, "_window_rows", counting)
    monkeypatch.setattr(kn, "_operator_rows", refuse)
    t_omega(ctx, GridFunction.from_callable(16, lambda x, y: np.sin(x + y)))
    assert built[0] == rows


def _grid_w(ctx):
    # W, n^2 x n^2: a dense context's operator, a circulant context's
    # x-Fourier blocks applied to every grid basis vector in one batch, or
    # t_omega applied to each grid basis vector on a convolution context
    op = operator_matrix(ctx)
    if ctx.strategy == "dense":
        return op
    n = ctx.n
    if ctx.strategy == "convolution":
        return np.column_stack([
            t_omega(ctx, GridFunction(n, e.reshape(n, n))).values.ravel()
            for e in np.eye(n * n)])
    basis = np.fft.fft(np.eye(n * n).reshape(n, n, n * n), axis=0)
    return np.fft.ifft(op @ basis, axis=0).reshape(n * n, n * n)


def test_refinement_leaves_are_pinned(nf_deg_2d, monkeypatch):
    # kernel values at refinement leaves of a degenerate_2d n=16 build: a
    # pole distance that flipped a split decision would move the count
    count, inside = [0], [False]
    raw, refined = kn.theta_log_deriv_raw, kn._refined_cell_integrals

    def counting(theta, w, k):
        count[0] += np.size(w) if inside[0] else 0
        return raw(theta, w, k)

    def marking(ctx, zt, cols):
        inside[0] = True
        try:
            return refined(ctx, zt, cols)
        finally:
            inside[0] = False

    monkeypatch.setattr(kn, "theta_log_deriv_raw", counting)
    monkeypatch.setattr(kn, "_refined_cell_integrals", marking)
    use_cpus(monkeypatch, 1)
    t_omega(kernel_context(nf_deg_2d, 16), GridFunction.zeros(16))
    assert count[0] == 774132


def test_refinement_reduces_each_pair_once(nf_deg_2d, monkeypatch):
    # a refinement reduces each flagged (target, cell) pair once, at its
    # cell center; afterwards only squares whose offset e from the pair's
    # pole is at least R/2 are reduced again, to find their pole distance
    original, calls, inside = core.lattice_reduce, [], [False]
    refined = kn._refined_cell_integrals

    def recording(z, tau):
        if inside[0]:
            calls[-1].append(np.asarray(z).ravel())
        return original(z, tau)

    def marking(ctx, zt, cols):
        inside[0] = True
        calls.append([len(cols)])
        try:
            return refined(ctx, zt, cols)
        finally:
            inside[0] = False

    for name, mod in list(sys.modules.items()):
        if name.startswith("hypotorus") and hasattr(mod, "lattice_reduce"):
            monkeypatch.setattr(mod, "lattice_reduce", recording)
    monkeypatch.setattr(kn, "_refined_cell_integrals", marking)
    use_cpus(monkeypatch, 1)
    n = 16
    ctx = kernel_context(nf_deg_2d, n)
    t_omega(ctx, GridFunction.zeros(n))
    assert calls
    for pairs, first, *fallbacks in calls:
        assert first.size == pairs
        for z in fallbacks:
            assert np.all(np.abs(z - ctx.z0) >= ctx.theta.pole_radius / 2)
    # refine every cell of target 0: those that stay one square, many of
    # them beyond R/2, must match the far field's value at the cell center
    zt = ctx.z_centers.ravel()[:1]
    e, k = pole_offset(ctx.theta, zt[:, None] - ctx.z_centers.ravel())
    cols = np.arange(1, n * n)
    far = theta_log_deriv_raw(ctx.theta, e[0, cols], k[0, cols])
    dist = reduced_lattice_distance(e[0, cols], ctx.tau)
    one = ctx.coeff_size.ravel()[cols] / n < 0.9 * kn.KAPPA * dist
    got = kn._refined_cell_integrals(ctx, np.repeat(zt, len(cols)), cols)
    assert len(calls[-1]) > 2 and np.count_nonzero(one) > n
    assert np.allclose(got[one] * n * n, far[one], rtol=1e-12, atol=0.0)


def test_dense_build_and_corner_probe_raise_no_warning(nf_deg_2d):
    # each target's own cell sits exactly on the pole, where the Laurent
    # series divides by zero; the singular quadtree replaces that value
    # without a warning, and so does a probe on a cell corner
    ctx = kernel_context(nf_deg_2d, 16)
    g = GridFunction.from_callable(16, lambda x, y: np.cos(2 * np.pi * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = operator_matrix(ctx)
        v = t_omega_point(ctx, g, (0.25, 0.5))
    assert np.all(np.isfinite(w)) and np.isfinite(v)


def test_open_form_is_refused_where_the_field_depends_on_x():
    with pytest.raises(HypotorusError, match="not closed"):
        kernel_context(normalize(OPEN_FORM_X), 16)
    # closed forms pass: the builtins, the x-invariant noz field and
    # NO_Z_EXACT, the field of the benchmark's cold-custom-noz-a workload
    for spec in [build_field(name) for name in (
            "elliptic", "degenerate_sin2", "analytic_perturbed",
            "degenerate_2d")] + [X_INVARIANT_NO_Z, NO_Z_EXACT]:
        assert kernel_context(normalize(spec), 16).strategy


def test_closed_form_without_symbolic_derivative_is_accepted():
    # d a / d y = d b / d x, but abs has no symbolic derivative, so the
    # closedness check cannot run and the field is built as before
    g = "0.2*abs(sin(pi*(x+y)))"
    spec = FieldSpec("custom", f"1 + {g}", f"i + {g}", None, ())
    ctx = kernel_context(normalize(spec), 8)
    assert ctx.strategy == "dense"
    assert np.all(np.isfinite(operator_matrix(ctx)))


def test_open_form_is_refused_on_the_circulant_path():
    # b does not depend on x, so closedness asks d a / d y = 0
    spec = FieldSpec("custom", "1 + 0.1*sin(2*pi*y)", "i", None, ())
    with pytest.raises(HypotorusError, match="not closed"):
        kernel_context(normalize(spec), 16)


@pytest.mark.parametrize("z_exact", ["x + i*y + 0.05*sin(2*pi*x)",
                                     "x + 2*i*y"])
def test_z_exact_that_is_not_a_first_integral_is_refused(z_exact):
    # d Z / d x = a and d Z / d y = b fail by 0.31 and 1.0 on the grid
    spec = FieldSpec("custom", "1", "i", z_exact, ())
    with pytest.raises(HypotorusError, match="not a first integral"):
        kernel_context(normalize(spec), 32)
    # normalization reflects y here, in the coefficients and in z_exact
    # alike, so the check passes
    flipped = normalize(FieldSpec("custom", "1", "-i", "x - i*y", ()))
    assert flipped.flip_y
    assert kernel_context(flipped, 16).strategy


def test_circulant_rows_are_built_once(nf_deg_sin2, monkeypatch):
    # operator_matrix leaves the blocks cached, so an apply builds nothing
    ctx = kernel_context(nf_deg_sin2, 16)
    operator_matrix(ctx)

    def refuse(*args):
        raise AssertionError("operator rows built twice")

    for name in ("_operator_rows", "_circulant_blocks", "_window_rows"):
        monkeypatch.setattr(kn, name, refuse)
    g = GridFunction.from_callable(16, lambda x, y: np.cos(2 * np.pi * x))
    t_omega(ctx, g)


def test_circulant_context_caches_one_array(nf_deg_sin2):
    # the x-Fourier blocks are the only cache, and operator_matrix hands
    # out that array itself, read-only
    n = 16
    ctx = kernel_context(nf_deg_sin2, n)
    t_omega(ctx, GridFunction.from_callable(n, lambda x, y: np.sin(x + y)))
    op1, op2 = operator_matrix(ctx), operator_matrix(ctx)
    cached = [v for v in vars(ctx).values()
              if isinstance(v, np.ndarray) and v.size >= n ** 3]
    assert [a.shape for a in cached] == [(n, n, n)]
    assert op1 is op2 and op1 is cached[0]
    with pytest.raises(ValueError):
        op1[0, 0, 0] = 0.0


def test_circulant_build_is_thread_count_invariant(nf_deg_sin2,
                                                  monkeypatch):
    # the closed form builds the n=128 blocks on the calling thread, on any
    # number of CPUs
    g = GridFunction.from_callable(
        128, lambda x, y: np.exp(2j * np.pi * (x - y)))
    runs = []
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        ctx = kernel_context(nf_deg_sin2, 128)
        runs.append((t_omega(ctx, g).values, ctx._operator))
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][0], runs[1][0])


@pytest.mark.parametrize("name", ["elliptic", "tilted"])
def test_convolution_apply_matches_direct_sum(name):
    # T g(i, j) = sum row0[(i' - i) mod n, (j' - j) mod n] g(i', j')
    #             - h^2 sum_{j' < j} sum_{i'} g(i', j'),
    # summed directly at 8 targets: O(n^2) each, no FFT along y and no n^3
    # array; row0, the weights of target (0, 0) less the jump, comes from
    # the window rows at y = h/2, back along x from the x-frequencies
    n = 256
    spec = CIRCULANT_SPECS.get(name) or build_field(name)
    ctx = kernel_context(normalize(spec), n)
    rng = np.random.default_rng(23)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    got = t_omega(ctx, GridFunction(n, g)).values
    rows = _fft_index_rows(n, *kn._window_rows(kn._x_fourier(ctx), 0.5 / n))
    row0 = np.fft.ifft(rows, axis=0)[-np.arange(n) % n]
    below = np.cumsum(g.sum(axis=0)) - g.sum(axis=0)
    targets = [(0, 0), (0, 255), (255, 0), (17, 200), (128, 128), (201, 3),
               (90, 250), (255, 255)]
    want = np.array([np.sum(np.roll(row0, (i, j), axis=(0, 1)) * g)
                     - below[j] / n ** 2 for i, j in targets])
    diff = np.array([got[i, j] for i, j in targets]) - want
    assert np.max(np.abs(diff)) <= 1e-13 * np.max(np.abs(want))


def test_convolution_context_caches_one_array(nf_elliptic):
    # the 2-D spectrum of row 0, n^2 values, is the only cache, and
    # operator_matrix hands out that array itself, read-only
    n = 16
    ctx = kernel_context(nf_elliptic, n)
    t_omega(ctx, GridFunction.from_callable(n, lambda x, y: np.sin(x + y)))
    op1, op2 = operator_matrix(ctx), operator_matrix(ctx)
    arrays = [v for v in vars(ctx).values() if isinstance(v, np.ndarray)]
    cached = [a for a in arrays if np.iscomplexobj(a)]
    assert [a.shape for a in cached] == [(n, n)]
    assert max(a.size for a in arrays) == n * n
    assert op1 is op2 and op1 is cached[0]
    with pytest.raises(ValueError):
        op1[0, 0] = 0.0


def test_convolution_build_is_thread_count_invariant(nf_elliptic,
                                                    monkeypatch):
    g = GridFunction.from_callable(
        64, lambda x, y: np.exp(2j * np.pi * (x - y)) + np.sin(np.pi * y))
    runs = []
    for cpus in (1, 4):
        use_cpus(monkeypatch, cpus)
        ctx = kernel_context(nf_elliptic, 64)
        runs.append((t_omega(ctx, g).values, ctx._operator))
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][0], runs[1][0])


# the manufactured error mod const over all rows, t_omega(L w) against w =
# 0.2 sin(2 pi x) cos(2 pi y), of the row engine that built these fields'
# operators before the closed form (circulant and convolution strategies,
# measured on 2 vCPUs, numpy 2.4.6), at n = 32 and 64
ROW_ENGINE_ERROR = {"elliptic": (1.270e-3, 3.204e-4),
                    "degenerate_sin2": (2.471e-3, 1.294e-3),
                    "tilted": (1.314e-3, 3.325e-4),
                    "noz": (1.330e-3, 3.408e-4)}


def _manufactured_error(nf, n):
    x, y = grid_centers(n)
    a, b = coeff_grid(nf, n)
    w = 0.2 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    wx = 0.4 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
    wy = -0.4 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    f = b * wx - a * wy
    u = t_omega(kernel_context(nf, n), GridFunction(n, f - f.mean())).values
    e = u - w
    return float(np.max(np.abs(e - e.mean())))


@pytest.mark.parametrize("name", list(ROW_ENGINE_ERROR))
def test_closed_form_error_is_at_most_the_row_engines(name):
    # at most three quarters of the row engine's error: the closed form
    # measured 6.35e-4 / 1.60e-4 on elliptic, 9.53e-4 / 2.40e-4 on
    # degenerate_sin2 (whose row engine was at order 0.94), 6.37e-4 /
    # 1.60e-4 on tilted and 8.67e-4 / 2.20e-4 on noz
    nf = normalize(CIRCULANT_SPECS.get(name) or build_field(name))
    for n, row_engine in zip((32, 64), ROW_ENGINE_ERROR[name]):
        assert _manufactured_error(nf, n) <= 0.75 * row_engine


def test_closed_form_is_second_order_next_to_the_circle(nf_deg_sin2):
    # over every row of degenerate_sin2, the rows next to its circle too
    e64, e128 = (_manufactured_error(nf_deg_sin2, n) for n in (64, 128))
    assert np.log2(e64 / e128) >= 1.9


def test_closed_form_weights_are_finite_at_the_nyquist_frequency():
    # tau = 1.5i and n = 256: q_k underflows at k = n/2, and the steps
    # across a half-cell fall to about exp(-2.2); every exponential is formed
    # at a modulus of at most 1, so nothing overflows or divides by zero
    ctx = kernel_context(normalize(X_INVARIANT_NO_Z), 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = operator_matrix(ctx)
        xf = kn._x_fourier(ctx)
        rows = [kn._window_rows(xf, y) for y in (0.0, 0.3, 1 / 512, 0.999)]
    assert np.all(np.isfinite(op[126:131]))
    for up, down, _ in rows:
        assert np.all(np.isfinite(up[-1])) and np.all(np.isfinite(down[-1]))


@pytest.mark.parametrize("name", ["elliptic", "degenerate_sin2", "noz"])
def test_closed_form_evaluates_no_kernel_value(name, monkeypatch):
    # the build, an apply, point probes and the y-jump on an x-invariant
    # context, with every kernel value refused
    def refuse(*args):
        raise AssertionError("kernel evaluated on the closed-form path")

    monkeypatch.setattr(kn, "theta_log_deriv_raw", refuse)
    ctx = kernel_context(normalize(CIRCULANT_SPECS.get(name)
                                   or build_field(name)), 48)
    g = GridFunction.from_callable(
        48, lambda x, y: np.exp(2j * np.pi * (x - y)) + np.sin(np.pi * y))
    t_omega(ctx, g)
    t_omega_point(ctx, g, (0.3, 1.7))
    assert kn.t_omega_y_jump(ctx, g, 0.3) == -complex(np.mean(g.values))


def test_lattice_dist(ctx_elliptic_16):
    z = np.array([0j, 1 + 0j, 2 + 3j, (1 + 1j) / 2])
    tau = ctx_elliptic_16.tau
    d = reduced_lattice_distance(lattice_reduce(z, tau)[0], tau)
    assert np.allclose(d[:3], 0.0, atol=1e-12)
    assert abs(d[3] - np.sqrt(2) / 2) < 1e-12


def test_quadtree_squares_off_center():
    qx, qy, side = kn._singular_squares(0.11, -0.13, 5)
    assert len(qx) == 3 * 5
    covered = np.sum(side ** 2)
    assert abs(covered - (1.0 - (1.0 / 2 ** 5) ** 2)) < 1e-14
    # no evaluated square contains the singular point
    assert np.all(np.maximum(np.abs(qx - 0.11), np.abs(qy + 0.13))
                  > side / 2 - 1e-15)


def test_quadtree_squares_centered_point():
    # point at the cell center: the first level keeps all four children, so
    # each following level emits a 12-square ring and four deepest blocks
    # are dropped symmetrically
    qx, qy, side = kn._singular_squares(0.0, 0.0, 6)
    assert len(qx) == 12 * 5
    covered = np.sum(side ** 2)
    assert abs(covered - (1.0 - 4 * (1.0 / 2 ** 6) ** 2)) < 1e-14


def test_operator_matrix_guard(nf_elliptic, nf_deg_sin2):
    # a convolution context serves the 2-D spectrum of its row 0 and a
    # circulant one its x-Fourier blocks, at every n; only strategy_for
    # refuses a grid size, and only for a field that depends on x
    # (test_strategy_follows_the_field)
    for nf, shape in ((nf_elliptic, (96, 96)), (nf_deg_sin2, (96, 96, 96))):
        ctx = kernel_context(nf, 96)
        assert operator_matrix(ctx).shape == shape


def test_grid_mismatch(ctx_elliptic_16):
    g = GridFunction.zeros(32)
    with pytest.raises(HypotorusError):
        t_omega(ctx_elliptic_16, g)
    with pytest.raises(HypotorusError):
        t_omega_point(ctx_elliptic_16, g, (0.3, 0.3))


def test_nothing_parses_after_construction(monkeypatch):
    x, y = grid_centers(16)
    g = GridFunction.from_callable(
        16, lambda x, y: np.exp(2j * np.pi * (x + y)))
    ctxs = []
    for spec in (build_field("degenerate_sin2"), NO_Z_EXACT):
        nf = normalize(spec)
        a, b = coeff_grid(nf, 16)
        # A = L w for w = 0.1 sin(2 pi x) cos(2 pi y)
        wx = 0.2 * np.pi * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
        wy = -0.2 * np.pi * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        a_fn = GridFunction(16, b * wx - a * wy)
        ctxs.append((kernel_context(nf, 16), a_fn))

    def refuse(src):
        raise AssertionError(f"parsed {src!r} after construction")

    monkeypatch.setattr(ep, "parse_expr", refuse)
    for ctx, a_fn in ctxs:
        operator_matrix(ctx)
        t_omega(ctx, g)
        t_omega_point(ctx, g, (0.3, 0.7))
        assert solve_a(ctx, a_fn).solvable == "yes"
