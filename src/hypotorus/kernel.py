"""Theta-kernel Cauchy-Pompeiu operator on the torus.

The kernel pairs a target point p with a source point s through the
logarithmic derivative of the theta function evaluated at a difference of
first-integral values, shifted by the theta zero z0.  Integrating the
transposed kernel against a density over the fundamental square gives an
operator T that inverts the vector field L = b d/dx - a d/dy on doubly
periodic data and shifts by exact lattice constants under deck
transformations.

One row engine serves every target, whether a grid center or an arbitrary
point of the universal cover.  Its row for target p with singular point
s* = p mod 1 has three parts:

* Far field: the kernel at the center of every cell whose closure does not
  contain s*.  On a circulant context (below) a = 1, so the n cells of one
  source row lie at x-shifts of exactly h: their n values come from one
  reduction and one length-n FFT of the theta series' Laurent terms
  (theta_log_deriv_shifts), O(m_max + n log n) per (target, source row)
  pair in place of n series sums, for grid rows and point probes alike.
  A dense context sums the series at every cell.

* Refined cells: a cell is refined adaptively whenever its image under the
  first integral is large relative to its distance from the kernel pole:
  sub-squares split while side*(|a|+|b|) >= KAPPA * dist(Z(p) - Z(mid),
  lattice), down to MAX_LEVEL.  This covers both the ordinary neighbors of
  the singular cell and the cells hugging a degenerate circle, where the
  first integral compresses distances so strongly that the pole is felt at
  points far from s* in grid metric (the near-circle mirror of the target,
  for instance).  The refined cell average replaces the midpoint sample.
  When neither coefficient depends on x, Z and |a|+|b| are evaluated once
  per distinct ordinate of a level's squares, not once per square.

* Singular quadtree: each singular cell freezes the density at its own
  sample and integrates the kernel alone over a dyadic quadtree of
  REFINE_DEPTH levels that shrinks toward s*; the deepest block still
  containing s* is dropped - its simple-pole part cancels by central
  symmetry, leaving an O((h 2^-depth)^(1+alpha)) error.  With the density
  frozen at the cell sample, the Holder-difference term of the classical
  value-subtraction split vanishes identically.

Each far-field and singular-cell kernel argument arg = Z(p) - Z(s) is
reduced once, by theta.pole_offset, to (e, k): e is its offset from the
nearest kernel pole in lattice coordinates, theta_log_deriv_raw at (e, k)
is the kernel value, and the pole distance that decides refinement is the
lattice distance of e.  A refined (target, cell) pair is reduced once, at
its cell center, to its pole lam; its squares then carry their offset e =
arg - lam, whose modulus is the pole distance within half the shortest
lattice vector, and theta_log_deriv_raw values them at (e, k), by the
pole's Laurent series near it.

One function finishes the row of any target from its Z value and its
singular cells: a grid target is singular in its own cell at the center, a
point probe in the one to four cells whose closure holds it.  Rows are built
in blocks of _ROW_BLOCK targets, refinement and singular cells included; a
block bounds memory only, so W does not depend on it.  Between the point
rows at (x, 0) and (x, 1) only the kernel's lattice index moves, so their
difference has a closed form that needs no kernel value (t_omega_y_jump).

The context picks how T is built and applied once, from the field
(strategy_for), and caches one array for it, the matrix of T in the basis
it is applied in, built on first use (operator_matrix):

* circulant: when neither coefficient depends on x, the closed form has
  a = 1 and Z = x + phi(y), so the kernel depends on x - x' alone and T
  commutes with x-translations:
  W[(i, j), (i', j')] = R[j, (i' - i) mod n, j'], where R is the first n
  rows of W.  Only R is built, O(n^3) work and memory, and only its
  spectrum along x is kept: the n blocks of n x n in which T acts on
  the x-frequencies of a density.  An apply is an FFT along x with one
  block product per x-frequency, at every n.  When neither coefficient
  depends on y either, Z is linear and the kernel depends on p - s alone,
  except that a source wrapping across y = 1 shifts Z by tau and the
  kernel by -2 pi i.  Then only row 0 is built, O(n^2) work:
  R[j, d, j'] = row0[d, (j' - j) mod n] - h^2 [j' < j], the -h^2 being
  the -2 pi i jump times the row scale h^2 / (2 pi i).  Either
  build takes its far field by x-shifts, and the n-row build transforms R
  along x in place, so the build peaks at two n^3 arrays.

* dense: otherwise all n^2 rows of W are built, O(n^4) work, cached, and
  every apply is one matrix product.  W would not fit in memory above
  n = _MATRIX_MAX_N, so strategy_for refuses such a field there before any
  kernel value is computed.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import exprparser as ep
from .core import (GridFunction, HypotorusError, as_point, grid_centers,
                   lattice_distance, reduced_lattice_distance)
from .field import (FieldSpec, NormalizedField, ZEvaluator, char_set_info,
                    constant_coefficients, x_invariant)
from .theta import (ThetaContext, pole_offset, theta_log_deriv,
                    theta_log_deriv_raw, theta_log_deriv_shifts)

KAPPA = 0.45        # leaf criterion: cell Z-size < KAPPA * distance to pole
MAX_LEVEL = 16      # dyadic refinement cap for adaptive cells
REFINE_DEPTH = 6    # singular-cell quadtree depth, for every target
_MATRIX_MAX_N = 80  # above this the n^4 weight matrix would not fit in RAM
_ROW_BLOCK = 64     # target rows per block; bounds memory, never a value


def thread_count() -> int:
    raw = os.environ.get("HYPOTORUS_THREADS", "")
    if not raw:
        return 1
    try:
        v = int(raw)
    except ValueError as exc:
        raise HypotorusError(
            f"HYPOTORUS_THREADS must be a positive integer, got {raw!r}"
        ) from exc
    if v < 1:
        raise HypotorusError(
            f"HYPOTORUS_THREADS must be a positive integer, got {raw!r}")
    return v


@dataclass
class KernelContext:
    nf: NormalizedField
    n: int
    # the theta series of nf's lattice
    theta: ThetaContext = field(repr=False, init=False)
    zeval: ZEvaluator = field(repr=False, init=False)
    # |a| + |b| at cell centers: the local Z-stretch of a cell
    coeff_size: np.ndarray = field(repr=False, init=False)
    # "circulant" or "dense": how T is built and applied
    strategy: str = field(init=False)
    # the one cached operator, built on first use by operator_matrix: W for
    # the dense strategy, the x-Fourier blocks of T for the circulant one
    _operator: np.ndarray | None = field(repr=False, init=False, default=None)

    def __post_init__(self):
        if self.n < 8:
            raise HypotorusError(f"grid too coarse for quadrature: n={self.n}")
        if not char_set_info(self.nf).sign_fixed:
            raise HypotorusError("orientation is not fixed: Im(a*conj(b)) "
                                 "takes both signs on the torus")
        self.strategy = strategy_for(self.nf, self.n)
        x, y = grid_centers(self.n)
        a, b = self.nf.a(x, y), self.nf.b(x, y)
        self.coeff_size = (np.abs(a) + np.abs(b)).astype(float)
        _check_closed(self.nf, x, y, self.coeff_size.max())
        _check_first_integral(self.nf, x, y, a, b, self.coeff_size.max())
        self.theta = ThetaContext(self.nf.lattice)
        self.zeval = ZEvaluator(self.nf, self.n)

    @property
    def tau(self) -> complex:
        return self.nf.tau

    @property
    def z0(self) -> complex:
        return self.nf.lattice.zero_point

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def z_centers(self) -> np.ndarray:
        return self.zeval.centers


def _gap(got, want, size: float) -> float:
    """The largest |got - want| if it stands above rounding, 1e-10 of the
    largest |got| + |want| plus 1e-12 of size (the largest |a| + |b| at the
    samples); 0 otherwise."""
    gap = np.max(np.abs(got - want))
    if gap > 1e-10 * np.max(np.abs(got) + np.abs(want)) + 1e-12 * size:
        return gap
    return 0.0


def _check_closed(nf: NormalizedField, x, y, size: float) -> None:
    """Refuse a form a dx + b dy that is not closed, d a / d y != d b / d x
    at the samples (x, y): it has no first integral.  Skipped when a does
    not depend on y and b not on x, where both sides vanish, and when a
    derivative cannot be taken symbolically (abs or conj of the variable).
    size is the largest |a| + |b| at the samples, which _gap needs."""
    if not (ep.depends_on(nf.a_ast, "y") or ep.depends_on(nf.b_ast, "x")):
        return
    try:
        ay = ep.eval_expr(ep.symbolic_diff(nf.a_ast, "y"), x, y)
        bx = ep.eval_expr(ep.symbolic_diff(nf.b_ast, "x"), x, y)
    except ep.ExprDiffError:
        return
    spec = nf.spec
    gap = _gap(ay, bx, size)
    if gap:
        raise HypotorusError(
            f"the form a dx + b dy is not closed: d a / d y - d b / d x "
            f"reaches {gap:.3g} on the grid for a = {spec.a_src!r}, "
            f"b = {spec.b_src!r}")


def _check_first_integral(nf: NormalizedField, x, y, a, b, size) -> None:
    """Refuse a z_exact that is not the field's first integral: d Z / d x
    != a or d Z / d y != b at the samples (x, y), by _gap as
    _check_closed."""
    if nf.z_exact_ast is None:
        return
    try:
        zx, zy = [ep.eval_expr(ep.symbolic_diff(nf.z_exact_ast, v), x, y)
                  for v in "xy"]
    except ep.ExprDiffError:
        return
    gap = max(_gap(zx, a, size), _gap(zy, b, size))
    if gap:
        raise HypotorusError(
            f"z_exact is not a first integral of the field: d Z / d x "
            f"- a or d Z / d y - b reaches {gap:.3g} on the grid for "
            f"z_exact = {nf.spec.z_exact_src!r}")


def strategy_for(fld: FieldSpec | NormalizedField, n: int) -> str:
    """How T is built and applied for the field fld at grid size n:
    "circulant" or "dense".  Raises HypotorusError when neither serves it:
    a field that depends on x above n = _MATRIX_MAX_N."""
    if x_invariant(fld):
        return "circulant"
    if n > _MATRIX_MAX_N:
        raise HypotorusError(
            f"a field whose coefficients depend on x needs grid_n <= "
            f"{_MATRIX_MAX_N}, got {n}: above it the O(n^4) weight matrix "
            f"would not fit in memory")
    return "dense"


def kernel_context(nf: NormalizedField, n: int) -> KernelContext:
    return KernelContext(nf, n)


# ---------------------------------------------------------------- kernel

def kernel_m(ctx: KernelContext, p, s) -> complex:
    """Theta log-derivative at Z(s) - Z(p) + z0.

    Shifting s by a lattice vector (j,k) changes the value by exactly
    -2*pi*i*k; as s approaches p the product with Z(s) - Z(p) tends to 1.
    Raises PoleProximityError when source and target coincide on the torus.
    """
    pp, ss = as_point(p), as_point(s)
    zp = complex(ctx.zeval.at(pp.x, pp.y))
    zs = complex(ctx.zeval.at(ss.x, ss.y))
    return theta_log_deriv(ctx.theta, zs - zp + ctx.z0)


def _far_field_by_shifts(ctx: KernelContext, zt: np.ndarray):
    """Far-field kernel values and pole distances, (targets, cells), for a
    circulant context.  There a = 1, so the cells of source row j' lie at
    Z(h/2, y_j') + d h, d = 0..n-1: each (target, source row) pair is
    reduced once, theta_log_deriv_shifts gives its n values, and the
    distances are its lattice coordinates shifted by d h."""
    n = ctx.n
    e, k = pole_offset(ctx.theta, zt[:, None] - ctx.z_centers[0][None, :])
    # a target's own cell sits on the pole, where the sum can vanish
    # exactly; _target_rows replaces that value
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = theta_log_deriv_shifts(ctx.theta, e, k, n)
    x = e.real[:, None, :] - (np.arange(n) / n)[:, None]
    dist = lattice_distance(x, e.imag[:, None, :], ctx.tau)
    return rows.reshape(len(zt), n * n), dist.reshape(len(zt), n * n)


# ------------------------------------------------ adaptive cell quadrature

def _refined_cell_integrals(ctx: KernelContext, zt: np.ndarray,
                            cols: np.ndarray) -> np.ndarray:
    """Integral of the kernel over whole cells, one value per (target, cell)
    pair, by dyadic subdivision until each leaf is small in Z relative to
    its distance from the pole.  zt[i] is the target's Z value, cols[i] the
    flat source-cell index.

    Each pair is reduced once, at its cell center, by pole_offset:
    Z(p) - Z(center) = e + lam with lam = j + k*tau, the pair's pole, so
    Z(p) - lam = Z(center) + e.  A square s of the pair then carries e =
    (Z(p) - lam) - Z(s), and its kernel value is theta_log_deriv_raw at
    (e, k).  Within |e| < R/2 (R the shortest lattice vector) lam is the
    nearest lattice point, so the pole distance is |e| exactly; only
    squares farther out are reduced again, to (e', k'), for their distance
    and their value at (e', k + k').

    Every square of a level has the same side.  Each square keeps the index
    of its ordinate in a table of the level's distinct ordinates (about a
    tenth as many near a degenerate circle); a child's table is its
    parent's shifted by a quarter side either way, pruned to the entries
    that split squares use.  A circulant context evaluates Z and |b| once
    per ordinate, on that table, and a once per call: neither coefficient
    depends on x, so a is constant and Z(x, y) = Z(0, y) + a x.  A dense
    context evaluates them at every square."""
    n, h = ctx.n, ctx.h
    half_radius = ctx.theta.pole_radius / 2.0
    out = np.zeros(len(cols), dtype=complex)
    pair = np.arange(len(cols))
    mx = (cols // n + 0.5) * h
    ys = (np.arange(n) + 0.5) * h  # the table of ordinates
    row = cols % n                 # each square's index into it
    side = h
    if ctx.strategy == "circulant":
        a = complex(ctx.nf.a(0.0, 0.0))
    for level in range(MAX_LEVEL + 1):
        if ctx.strategy == "circulant":
            x0 = np.zeros_like(ys)
            zs = ctx.zeval.at(x0, ys)[row]
            zs += a * mx
            stretch = (side * (abs(a) + np.abs(ctx.nf.b(x0, ys))))[row]
        else:
            my = ys[row]
            zs = ctx.zeval.at(mx, my)
            stretch = side * (np.abs(ctx.nf.a(mx, my))
                              + np.abs(ctx.nf.b(mx, my)))
        if level == 0:
            e, k = pole_offset(ctx.theta, zt - zs)
            zp = zs + e  # Z(p) - lam, per pair
        e = zp[pair] - zs
        d = np.abs(e)
        beyond = d >= half_radius
        if np.any(beyond):
            eb, kb = pole_offset(ctx.theta, e[beyond])
            d[beyond] = reduced_lattice_distance(eb, ctx.tau)
        split = (stretch >= KAPPA * d) & (level < MAX_LEVEL)
        leaf = ~split
        if np.any(leaf):
            el, kl = e[leaf], k[pair[leaf]]
            if np.any(beyond):
                # e = eb + j' + k'*tau, so the value is at (eb, k + k')
                far, fb = beyond[leaf], leaf[beyond]
                el[far] = eb[fb]
                kl[far] += kb[fb]
            vals = theta_log_deriv_raw(ctx.theta, el, kl)
            vals *= side ** 2
            np.add.at(out, pair[leaf], vals)
        if not np.any(split):
            break
        q = side / 4.0
        # the children's table: the ordinates of split squares, less q
        # and then plus q; children go below, above, below, above
        keep = np.zeros(len(ys), dtype=bool)
        keep[row[split]] = True
        below = (np.cumsum(keep) - 1)[row[split]]
        ys = np.concatenate([ys[keep] - q, ys[keep] + q])
        above = below + len(ys) // 2
        row = np.concatenate([below, above, below, above])
        mx0 = mx[split]
        mx = np.concatenate([mx0 - q, mx0 - q, mx0 + q, mx0 + q])
        side /= 2.0
        pair = np.tile(pair[split], 4)
    return out


# --------------------------------------------------------- row engine

@lru_cache(maxsize=256)
def _singular_squares(rx: float, ry: float, depth: int = REFINE_DEPTH):
    """Evaluated squares of the singular cell's dyadic quadtree toward the
    point (rx, ry): x offsets, y offsets and sides, in units of h relative
    to the cell center.  Each level splits the squares that still contain
    the point; the deepest squares containing it are dropped.  Cached, so
    the arrays come back read-only."""
    cx = cy = np.zeros(1)
    half = 0.5
    out_x, out_y, out_side = [], [], []
    for _ in range(depth):
        half /= 2.0
        kx = np.concatenate([cx - half, cx - half, cx + half, cx + half])
        ky = np.concatenate([cy - half, cy + half, cy - half, cy + half])
        keep = (np.abs(rx - kx) <= half) & (np.abs(ry - ky) <= half)
        out_x.append(kx[~keep])
        out_y.append(ky[~keep])
        out_side.append(np.full(np.count_nonzero(~keep), 2.0 * half))
        cx, cy = kx[keep], ky[keep]
    out = (np.concatenate(out_x), np.concatenate(out_y),
           np.concatenate(out_side))
    for arr in out:
        arr.flags.writeable = False
    return out


def _target_rows(ctx: KernelContext, zt: np.ndarray, sing) -> np.ndarray:
    """Finished operator rows for targets with first-integral values zt.

    sing lists the singular pairs (row, cell, ox, oy): the target of that
    row lies in that flat source cell at offset (ox, oy) from its center, in
    units of h.  Every other cell holds the kernel at its center, or its
    refined cell average where flagged; each singular cell holds the kernel
    integrated over its quadtree of REFINE_DEPTH levels, deepest block
    dropped.  The rows come scaled by h^2 / (2 pi i), ready to multiply a
    grid density.  A circulant context takes the far field by shifts
    (_far_field_by_shifts), a dense one by a series sum per cell."""
    n, h = ctx.n, ctx.h
    if ctx.strategy == "circulant":
        rows, dist = _far_field_by_shifts(ctx, zt)
    else:
        e, k = pole_offset(ctx.theta,
                           zt[:, None] - ctx.z_centers.ravel()[None, :])
        # a target's own cell sits on the pole, where the Laurent series
        # divides by zero; the singular quadtree below replaces that value
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = theta_log_deriv_raw(ctx.theta, e, k)
        dist = reduced_lattice_distance(e, ctx.tau)
    groups = {}
    for r, c, ox, oy in sing:
        dist[r, c] = np.inf
        groups.setdefault((ox, oy), []).append((r, c))
    flag = dist < (h / KAPPA) * ctx.coeff_size.ravel()[None, :]
    if np.any(flag):
        tloc, cols = np.nonzero(flag)
        refined = _refined_cell_integrals(ctx, zt[tloc], cols)
        rows[tloc, cols] = refined / (h * h)
    for (ox, oy), pairs in groups.items():
        r, c = np.array(pairs).T
        qx, qy, side = _singular_squares(ox, oy)
        zs = ctx.zeval.at((c[:, None] // n + 0.5 + qx) * h,
                          (c[:, None] % n + 0.5 + qy) * h)
        vals = theta_log_deriv_raw(ctx.theta,
                                   *pole_offset(ctx.theta, zt[r, None] - zs))
        # a per-pair sum, so no target depends on who shares its block
        rows[r, c] = np.sum(vals * (side * side), axis=-1)
    rows *= h * h / (2.0j * np.pi)
    return rows


def _operator_rows(ctx: KernelContext, r0: int, r1: int) -> np.ndarray:
    """Rows [r0, r1) of W: each grid target is singular in its own cell, at
    the cell center."""
    sing = [(r, c, 0.0, 0.0) for r, c in enumerate(range(r0, r1))]
    return _target_rows(ctx, ctx.z_centers.ravel()[r0:r1], sing)


def _built_rows(ctx: KernelContext, total: int) -> np.ndarray:
    """Rows [0, total) of W, built in blocks of _ROW_BLOCK rows on
    thread_count() threads.  The context is complete when it is made, so
    the threads only read shared state."""
    rows = np.empty((total, ctx.n * ctx.n), dtype=complex)

    def fill(block):
        r0, r1 = block
        rows[r0:r1] = _operator_rows(ctx, r0, r1)

    blocks = [(r, min(r + _ROW_BLOCK, total))
              for r in range(0, total, _ROW_BLOCK)]
    threads = thread_count()
    if threads == 1:
        list(map(fill, blocks))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    return rows


def operator_matrix(ctx: KernelContext) -> np.ndarray:
    """The matrix of T in the basis the context applies it in, cached on
    the context, built on first use and read-only.  Dense: W, with
    T g = (W @ g.ravel()).reshape(n, n).  Circulant: the n blocks of T in
    the x-Fourier basis, from R, the first n rows of W, those of the
    targets in the column x = h/2; block k is the n x n matrix
    sum_d R[:, d, :] exp(2 pi i k d / n) that multiplies the k-th
    x-frequency of a density.  When R also follows from its first row
    (constant coefficients), only that row is built."""
    if ctx._operator is None:
        n = ctx.n
        if ctx.strategy == "dense":
            op = _built_rows(ctx, n * n)
        elif constant_coefficients(ctx.nf):
            # R[j, d, j'] = row0[d, (j' - j) mod n] - h^2 [j' < j], as in
            # the module docstring; the -h^2 is constant along d, so only
            # block 0 sees it, n times
            row0 = np.fft.ifft(_built_rows(ctx, 1).reshape(n, n), axis=0,
                               norm="forward")
            j = np.arange(n)
            op = row0[:, (j[None, :] - j[:, None]) % n]
            op[0] -= n * ctx.h ** 2 * (j[None, :] < j[:, None])
        else:
            rows = _built_rows(ctx, n).reshape(n, n, n)
            # one target row at a time, in place, so the build holds two
            # n^3 arrays
            for j in range(n):
                rows[j] = np.fft.ifft(rows[j], axis=0, norm="forward")
            op = np.ascontiguousarray(np.moveaxis(rows, 1, 0))
        op.flags.writeable = False
        ctx._operator = op
    return ctx._operator


def t_omega(ctx: KernelContext, g: GridFunction) -> GridFunction:
    """Apply the Cauchy-Pompeiu operator to a grid density."""
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    n = ctx.n
    op = operator_matrix(ctx)
    if ctx.strategy == "circulant":
        gk = np.fft.fft(g.values, axis=0)
        tk = np.matmul(op, gk[:, :, None])[:, :, 0]
        return GridFunction(n, np.fft.ifft(tk, axis=0))
    return GridFunction(n, (op @ g.values.ravel()).reshape(n, n))


# ------------------------------------------------------ point evaluation

def _axis_cells(c: float, n: int):
    """(cell, offset of c from the cell center in units of h) for each cell
    per axis whose closure contains coordinate c mod 1."""
    f = (c % 1.0) * n
    r = round(f)
    if abs(f - r) < 1e-9:
        return [((r - 1) % n, f - r + 0.5), (r % n, f - r - 0.5)]
    i = math.floor(f)
    return [(i % n, f - i - 0.5)]


def _point_cells(ctx: KernelContext, x: float, y: float):
    """Singular pairs (0, cell, ox, oy) of the point row at (x, y): every
    cell whose closure holds the point mod 1."""
    n = ctx.n
    return [(0, i * n + j, ox, oy)
            for (i, ox) in _axis_cells(x, n)
            for (j, oy) in _axis_cells(y, n)]


def t_omega_point(ctx: KernelContext, g: GridFunction, p) -> complex:
    """Evaluate T g at an arbitrary point of the universal cover.

    The point is deliberately not reduced mod 1: the operator is
    quasi-periodic, not periodic, and the exact lattice shifts of the
    kernel produce the required additive constants.  When p sits on a cell
    edge or corner, every cell whose closure contains it is treated as
    singular; their quadtrees jointly restore the symmetric drop around p.
    """
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    pp = as_point(p)
    zp = complex(ctx.zeval.at(pp.x, pp.y))
    row = _target_rows(ctx, np.array([zp]), _point_cells(ctx, pp.x, pp.y))[0]
    return complex(row @ g.values.ravel())


def t_omega_y_jump(ctx: KernelContext, g: GridFunction, x: float) -> complex:
    """T g (x, 1) - T g (x, 0), in closed form: no kernel value is needed.

    t_omega_point builds both rows over the same singular cells, and the
    kernel's lattice index moves by exactly one between them, so every
    cell weight moves by minus the area it integrates over: h^2, less the
    blocks a singular quadtree drops around the probe.  The jump is
    -mean(g) plus g on each singular cell times its dropped area.
    """
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    jump = -complex(np.mean(g.values))
    for _, c, ox, oy in _point_cells(ctx, x, 0.0):
        side = _singular_squares(ox, oy)[2]
        jump += g.values.flat[c] * ctx.h ** 2 * (1.0 - np.sum(side * side))
    return jump
