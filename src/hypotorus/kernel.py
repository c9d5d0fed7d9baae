"""Theta-kernel Cauchy-Pompeiu operator on the torus.

The kernel pairs a target point p with a source point s through the
logarithmic derivative of the theta function evaluated at a difference of
first-integral values, shifted by the theta zero z0: K(Z(p) - Z(s)) with
K(w) = Theta'/Theta(w + z0).  Integrating it against a density over the
fundamental square, T g(p) = (1/2 pi i) int K(Z(p) - Z(s)) g(s) ds, gives
an operator that inverts the vector field L = b d/dx - a d/dy on doubly
periodic data and shifts by exact lattice constants under deck
transformations: period 1 in x, and -mean(g) per unit step in y.

The context picks how T is built and applied once, from the field
(strategy_for), and caches one array for it, the matrix of T in the basis
it is applied in, built on first use (operator_matrix).

Closed form (when neither coefficient depends on x).  Normalization makes
a = 1 there, so Z = x + phi(y), phi(y) = Z(0, y).  With a fixed
orientation Im phi increases, so Z(p) - Z(s) lies between the kernel's pole
lines, above the real axis for a source below the target and below it for a
source above, and K's Fourier series along x (theta.kernel_x_fourier, C_k
above and below) splits T into one operator per x-frequency k:

    T_k g(y) = (1/2 pi i) int C_k^(+-) e^(2 pi i k (phi(y) - phi(s))) g_k ds,

with g_k = g_k(s), C^+ for s < y and C^- for s > y.  Since C^-_k =
C^+_k q_k, q_k = exp(2 pi i k tau), and phi(s - 1) = phi(s) - tau, T_k
for k > 0 is C^+_k / 2 pi i times the integral over the window (y - 1, y],
and for k < 0 C^-_k / 2 pi i times the integral over [y, y + 1); there
every exponential has modulus at most 1.  T_0 g(y) = -int_0^y g_0, which
carries T's -mean(g) jump.  No kernel value, refinement or quadtree is
needed:

* along x, g is interpolated trigonometrically: g_k is the FFT of the grid
  rows, and the Nyquist frequency of an even n is split evenly between
  +n/2 and -n/2;
* along y, g is constant on each cell and phi is sampled at the 2n + 1
  half-cell nodes and taken as linear between them, so every half-cell
  weight is an exact exponential integral, (exp(z) - 1) / z times its
  length.  The target's own cell splits at the target's ordinate.

The rows of a grid column follow from one window row each way by a
recurrence: moving the target up one cell multiplies every weight of T_k,
k > 0, by the exponential of the two half-cells passed and adds their
weights; k < 0 runs downward.  Two strategies cache what this gives:

* circulant: the n x-Fourier blocks of n x n, block k acting on the k-th
  x-frequency of a density; an apply is an FFT along x and one block
  product per frequency, O(n^3) values cached.

* convolution: when neither coefficient depends on y either, phi is linear
  and each block with k != 0 is circulant in y; so is T_0 less its jump,
  the -h/2 self-cell term.  The cache is the n^2 spectrum, the FFT along y
  of each block's y-circulant column, and an apply is
  ifft2(K fft2(g)) less h^2 times the exclusive prefix sum along y of g's
  column sums, O(n^2 log n).

A point probe (t_omega_point) takes the same closed form at any ordinate,
from its window row, interpolates trigonometrically along x, and applies
T's laws off the unit square exactly; so a probe at a cell centre is the
grid value, and the y-jump (t_omega_y_jump) is exactly -mean(g).

Dense (a field that depends on x): the row engine builds all n^2 rows of W,
O(n^4) work, caches the matrix and applies it by one product.  W would not
fit in memory above n = _MATRIX_MAX_N, so strategy_for refuses such a field
there before any kernel value is computed.  The row for target p with
singular point s* = p mod 1 has three parts:

* Far field: the kernel at the center of every cell whose closure does not
  contain s*, one series sum per cell.

* Refined cells: a cell is refined adaptively whenever its image under the
  first integral is large relative to its distance from the kernel pole:
  sub-squares split while side*(|a|+|b|) >= KAPPA * dist(Z(p) - Z(mid),
  lattice), down to MAX_LEVEL.  This covers both the ordinary neighbors of
  the singular cell and the cells hugging a degenerate circle, where the
  first integral compresses distances so strongly that the pole is felt at
  points far from s* in grid metric (the near-circle mirror of the target,
  for instance).  The refined cell average replaces the midpoint sample.

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
block bounds memory only, so W does not depend on it.  A build runs its
blocks on one thread per CPU the process may use (its CPU affinity), at
most one per block, and each block fills its own rows, so W does not
depend on the thread count either; nothing else sets it.  Between the
point rows at (x, 0) and (x, 1) only the kernel's lattice index moves, so
their difference has a closed form that needs no kernel value
(t_omega_y_jump).
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
                   reduced_lattice_distance)
from .field import (FieldSpec, NormalizedField, ZEvaluator, char_set_info,
                    coeff_grid, constant_coefficients, x_invariant)
from .theta import (ThetaContext, kernel_x_fourier, pole_offset,
                    theta_log_deriv_raw)

KAPPA = 0.45        # leaf criterion: cell Z-size < KAPPA * distance to pole
MAX_LEVEL = 16      # dyadic refinement cap for adaptive cells
REFINE_DEPTH = 6    # singular-cell quadtree depth, for every target
_MATRIX_MAX_N = 80  # above this the n^4 weight matrix would not fit in RAM
_ROW_BLOCK = 64     # target rows per block; bounds memory, never a value


@dataclass
class KernelContext:
    nf: NormalizedField
    n: int
    # the theta series of nf's lattice
    theta: ThetaContext = field(repr=False, init=False)
    zeval: ZEvaluator = field(repr=False, init=False)
    # |a| + |b| at cell centers: the local Z-stretch of a cell
    coeff_size: np.ndarray = field(repr=False, init=False)
    # "convolution", "circulant" or "dense": how T is built and applied
    strategy: str = field(init=False)
    # the one cached operator, built on first use by operator_matrix: the
    # 2-D spectrum of T less its jump, the x-Fourier blocks of T or W, by
    # strategy
    _operator: np.ndarray | None = field(repr=False, init=False, default=None)
    # what the closed form needs, made on first use (_x_fourier)
    _xf: _XFourier | None = field(repr=False, init=False, default=None)

    def __post_init__(self):
        if self.n < 8:
            raise HypotorusError(f"grid too coarse for quadrature: n={self.n}")
        if not char_set_info(self.nf).sign_fixed:
            raise HypotorusError("orientation is not fixed: Im(a*conj(b)) "
                                 "takes both signs on the torus")
        self.strategy = strategy_for(self.nf, self.n)
        x, y = grid_centers(self.n)
        a, b = coeff_grid(self.nf, self.n)
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
    "convolution", "circulant" or "dense".  Raises HypotorusError when none
    serves it: a field that depends on x above n = _MATRIX_MAX_N."""
    if constant_coefficients(fld):
        return "convolution"
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


# ----------------------------------------- closed form (x-invariant fields)

@dataclass(frozen=True)
class _XFourier:
    """The closed form's data on an x-invariant context, for the
    frequencies p = 1..n//2 of T_p and T_-p (module docstring)."""

    phi: np.ndarray    # phi at the 2n + 1 half-cell nodes m h / 2
    d: np.ndarray      # phi_{m+1} - phi_m, per half-cell m
    p: np.ndarray      # 1..n//2
    up: np.ndarray     # C^+_p / 2 pi i: T_p is this times its window
    down: np.ndarray   # C^-_{-p} / 2 pi i: the same for T_-p
    step: np.ndarray   # exp(2 pi i p d_m), (p, half-cell); modulus <= 1
    half: np.ndarray   # (h/2) (step - 1) / (2 pi i p d_m), the half-cell
    #                    integral of exp(2 pi i p (phi_{m+1} - phi(s)))


def _mean_exp(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z, and 1 at z = 0: the mean of exp over [0, z]."""
    out = np.ones_like(z)
    np.divide(np.expm1(z), z, out=out, where=z != 0)
    return out


def _x_fourier(ctx: KernelContext) -> _XFourier:
    """The context's _XFourier, made on first use.  phi(y) = Z(0, y) at
    the nodes, its last node phi_0 + tau, so that the nodes of the next
    period are this period's plus tau."""
    if ctx._xf is None:
        n = ctx.n
        phi = ctx.zeval.at(np.zeros(2 * n), np.arange(2 * n) / (2 * n))
        phi = np.append(phi, phi[0] + ctx.tau)
        d = np.diff(phi)
        p = np.arange(1, n // 2 + 1)
        up = kernel_x_fourier(ctx.theta, p)[0] / (2j * math.pi)
        down = kernel_x_fourier(ctx.theta, -p)[1] / (2j * math.pi)
        z = 2j * math.pi * p[:, None] * d
        ctx._xf = _XFourier(phi, d, p, up, down, np.exp(z),
                            0.5 * ctx.h * _mean_exp(z))
    return ctx._xf


def _window_rows(xf: _XFourier, y: float):
    """(up, down, zero): the weights of the n cells in T_p and T_-p (each
    (n//2, n), row p - 1) and in T_0 (n,) at the ordinate y in [0, 1),
    applied to a density's x-Fourier coefficient on the cells.

    T_p integrates over the window (y - 1, y]: each half-cell's part below
    y, and its part above y moved down one period, where phi is less tau.
    T_-p integrates over [y, y + 1) the same way.  Every exponential is
    formed at a modulus of at most 1, and a part of zero length is left
    out before its exponential is formed."""
    n2 = len(xf.d)
    dlt = 1.0 / n2
    t = y * n2
    below = np.clip(t - np.arange(n2), 0.0, 1.0)  # share of each half-cell
    above = 1.0 - below
    i = min(int(t), n2 - 1)
    phi_y = xf.phi[i] + (t - i) * xf.d[i]
    # phi where each half-cell meets y, or at its end nearer to y
    psi = xf.phi[:-1] + below * xf.d
    k = 2j * math.pi * xf.p[:, None]
    tau = xf.phi[-1] - xf.phi[0]

    def part(share, arg):
        # exp(arg) times the share's integral of the exponential that
        # falls to 1 at its end, for every (p, half-cell)
        arg = np.where(share > 0, arg, 0.0)
        return np.exp(arg) * (share * dlt) * _mean_exp(k * (share * xf.d))

    up = part(below, k * (phi_y - psi))
    up += part(above, k * (phi_y + tau - xf.phi[1:]))
    down = part(above, k * (psi - phi_y))
    down += part(below, k * (xf.phi[:-1] + tau - phi_y))
    up = up.reshape(len(xf.p), -1, 2).sum(axis=-1) * xf.up[:, None]
    down = down.reshape(len(xf.p), -1, 2).sum(axis=-1) * xf.down[:, None]
    zero = -(below * dlt).reshape(-1, 2).sum(axis=-1)
    return up, down, zero


def _down_index(n: int) -> np.ndarray:
    """The FFT index n - p of the frequency -p, p = 1..n//2, less the
    Nyquist index n/2 of an even n, which +n/2 and -n/2 share."""
    return n - np.arange(1, (n + 1) // 2)


def _circulant_blocks(ctx: KernelContext) -> np.ndarray:
    """The n x-Fourier blocks of T, (n, n, n), block k at FFT index k.

    Block 0 is T_0: -h per cell below the target and -h/2 for its own.  The
    rows of T_p start from the window at the lowest target and run upward:
    T_p = -int_{-inf}^y, since C^+_p / 2 pi i = -1 / (1 - q_p) sums the
    window over every period below, so one cell up multiplies each weight
    by the two half-cells' steps and adds their integrals.  T_-p =
    int_y^inf runs downward from the highest target the same way.  At the
    Nyquist index of an even n the block is the mean of T_{n/2} and
    T_{-n/2}."""
    xf = _x_fourier(ctx)
    n, h = ctx.n, ctx.h
    top = len(xf.p)
    step, half = xf.step, xf.half
    op = np.empty((n, n, n), dtype=complex)
    op[0] = -h * np.tri(n, k=-1) - 0.5 * h * np.eye(n)
    up = _window_rows(xf, 0.5 * h)[0]
    for j in range(n):
        op[1:top + 1, j] = up
        if j + 1 < n:
            a, b = 2 * j + 1, 2 * j + 2  # the half-cells from j to j + 1
            up *= (step[:, a] * step[:, b])[:, None]
            up[:, j] -= step[:, b] * half[:, a]
            up[:, j + 1] -= half[:, b]
    nyquist = op[top].copy() if n % 2 == 0 else None
    kd = _down_index(n)
    down = _window_rows(xf, 1.0 - 0.5 * h)[1]
    for j in range(n - 1, -1, -1):
        op[kd, j] = down[:len(kd)]
        if nyquist is not None:
            nyquist[j] += down[-1]
        if j > 0:
            a, b = 2 * j - 1, 2 * j  # the half-cells from j to j - 1
            down *= (step[:, a] * step[:, b])[:, None]
            down[:, j] += step[:, a] * half[:, b]
            down[:, j - 1] += half[:, a]
    if nyquist is not None:
        op[top] = 0.5 * nyquist
    return op


def _convolution_spectrum(ctx: KernelContext) -> np.ndarray:
    """The (n, n) spectrum of T less its jump on a constant-coefficient
    context: block k's y-circulant column is its row at the lowest target
    read backwards, and the spectrum is that column's FFT along y.  Block
    0's column is the -h/2 self-cell term; the -h^2 jump is applied
    separately (t_omega)."""
    xf = _x_fourier(ctx)
    n = ctx.n
    up, down, zero = _window_rows(xf, 0.5 * ctx.h)
    row = np.empty((n, n), dtype=complex)
    row[0] = zero
    row[1:len(up) + 1] = up
    kd = _down_index(n)
    row[kd] = down[:len(kd)]
    if n % 2 == 0:
        row[n // 2] = 0.5 * (up[-1] + down[-1])
    return np.fft.fft(row[:, -np.arange(n) % n], axis=1)


def _closed_form_point(ctx: KernelContext, g: GridFunction, x: float,
                       y: float) -> complex:
    """T g (x, y) in closed form: T at the ordinate y mod 1 from its window
    rows, trigonometric interpolation along x, period 1 in x and -mean(g)
    per unit step in y."""
    xf = _x_fourier(ctx)
    n = ctx.n
    steps = math.floor(y)
    up, down, zero = _window_rows(xf, y - steps)
    gk = np.fft.fft(g.values, axis=0)
    p = xf.p
    phase = np.exp(2j * math.pi * p * (x % 1.0 - 0.5 * ctx.h))
    if n % 2 == 0:
        phase[-1] *= 0.5  # the Nyquist frequency, split evenly
    val = (zero @ gk[0] + phase @ np.sum(up * gk[p], axis=1)
           + phase.conj() @ np.sum(down * gk[n - p], axis=1))
    return complex(val / n - steps * np.mean(g.values))


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
    and their value at (e', k + k').  Z and |a| + |b| are evaluated at
    every square."""
    n, h = ctx.n, ctx.h
    half_radius = ctx.theta.pole_radius / 2.0
    out = np.zeros(len(cols), dtype=complex)
    pair = np.arange(len(cols))
    mx = (cols // n + 0.5) * h
    my = (cols % n + 0.5) * h
    side = h
    for level in range(MAX_LEVEL + 1):
        zs = ctx.zeval.at(mx, my)
        stretch = side * (np.abs(ctx.nf.a(mx, my)) + np.abs(ctx.nf.b(mx, my)))
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
        # children go below, above, below, above
        mx0, my0 = mx[split], my[split]
        mx = np.concatenate([mx0 - q, mx0 - q, mx0 + q, mx0 + q])
        my = np.concatenate([my0 - q, my0 + q, my0 - q, my0 + q])
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
    grid density."""
    n, h = ctx.n, ctx.h
    e, k = pole_offset(ctx.theta, zt[:, None] - ctx.z_centers.ravel()[None, :])
    # a target's own cell sits on the pole, where the Laurent series divides
    # by zero; the singular quadtree below replaces that value
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


def _built_rows(ctx: KernelContext) -> np.ndarray:
    """All n^2 rows of W, built in blocks of _ROW_BLOCK rows, on one worker
    per block up to the CPUs the process may run on; a one-block build runs
    inline.  The context is complete when it is made, so the workers only
    read shared state, and every block lands in its own rows, so W does not
    depend on the worker count."""
    total = ctx.n * ctx.n
    rows = np.empty((total, total), dtype=complex)

    def fill(block):
        r0, r1 = block
        rows[r0:r1] = _operator_rows(ctx, r0, r1)

    blocks = [(r, min(r + _ROW_BLOCK, total))
              for r in range(0, total, _ROW_BLOCK)]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(blocks))
    if workers == 1:
        list(map(fill, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, blocks))
    return rows


def operator_matrix(ctx: KernelContext) -> np.ndarray:
    """The matrix of T in the basis the context applies it in, cached on
    the context, built on first use and read-only.  Dense: W, with
    T g = (W @ g.ravel()).reshape(n, n).  Circulant: the n blocks of T in
    the x-Fourier basis (_circulant_blocks); block k is the n x n matrix
    that multiplies the k-th x-frequency of a density, the FFT along x of
    its grid rows.  Convolution: the (n, n) 2-D spectrum of T less its
    jump (_convolution_spectrum).  Neither of the last two evaluates a
    kernel value."""
    if ctx._operator is None:
        if ctx.strategy == "dense":
            op = _built_rows(ctx)
        elif ctx.strategy == "convolution":
            op = _convolution_spectrum(ctx)
        else:
            op = _circulant_blocks(ctx)
        op.flags.writeable = False
        ctx._operator = op
    return ctx._operator


def t_omega(ctx: KernelContext, g: GridFunction) -> GridFunction:
    """Apply the Cauchy-Pompeiu operator to a grid density."""
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    n = ctx.n
    op = operator_matrix(ctx)
    if ctx.strategy == "convolution":
        tg = np.fft.ifft2(op * np.fft.fft2(g.values))
        # the -h^2 jump of every source in a row below the target's
        col = g.values.sum(axis=0)
        tg -= ctx.h ** 2 * (np.cumsum(col) - col)
        return GridFunction(n, tg)
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


def _point_cells(n: int, x: float, y: float):
    """Singular pairs (0, cell, ox, oy) of the point row at (x, y) on the
    n x n grid: every cell whose closure holds the point mod 1."""
    return [(0, i * n + j, ox, oy)
            for (i, ox) in _axis_cells(x, n)
            for (j, oy) in _axis_cells(y, n)]


def t_omega_point(ctx: KernelContext, g: GridFunction, p) -> complex:
    """Evaluate T g at an arbitrary point of the universal cover.

    On an x-invariant context the closed form gives it (_closed_form_point),
    with T's laws off the unit square applied exactly.  On a dense one the
    point is deliberately not reduced mod 1: the operator is
    quasi-periodic, not periodic, and the exact lattice shifts of the
    kernel produce the required additive constants.  When p sits on a cell
    edge or corner, every cell whose closure contains it is treated as
    singular; their quadtrees jointly restore the symmetric drop around p.
    """
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    pp = as_point(p)
    if ctx.strategy != "dense":
        return _closed_form_point(ctx, g, pp.x, pp.y)
    zp = complex(ctx.zeval.at(pp.x, pp.y))
    sing = _point_cells(ctx.n, pp.x, pp.y)
    row = _target_rows(ctx, np.array([zp]), sing)[0]
    return complex(row @ g.values.ravel())


def t_omega_y_jump(ctx: KernelContext, g: GridFunction, x: float) -> complex:
    """T g (x, 1) - T g (x, 0), in closed form: no kernel value is needed.

    On an x-invariant context it is -mean(g) exactly, T's law per unit
    step in y.  On a dense one t_omega_point builds both rows over the same
    singular cells, and the kernel's lattice index moves by exactly one
    between them, so every cell weight moves by minus the area it
    integrates over: h^2, less the blocks a singular quadtree drops around
    the probe.  The jump is -mean(g) plus g on each singular cell times its
    dropped area.
    """
    if g.n != ctx.n:
        raise HypotorusError(f"grid mismatch: g.n={g.n}, ctx.n={ctx.n}")
    jump = -complex(np.mean(g.values))
    if ctx.strategy != "dense":
        return jump
    for c, dropped in _jump_cells(ctx.n, x):
        jump += g.values.flat[c] * ctx.h ** 2 * dropped
    return jump


@lru_cache(maxsize=256)
def _jump_cells(n: int, x: float):
    """(cell, share of the cell its quadtree drops) for each singular cell
    of the probe (x, 0), in _point_cells' order."""
    cells = []
    for _, c, ox, oy in _point_cells(n, x, 0.0):
        side = _singular_squares(ox, oy)[2]
        cells.append((c, 1.0 - np.sum(side * side)))
    return tuple(cells)
