"""Global solvers for Lu = f, Lu = Au, and Lu = Au + B*conj(u).

Solvability of each equation on the torus reduces to arithmetic of means:
Lu = f needs a vanishing mean, Lu = Au needs nu(A) = -(1/2pi i) * integral
of A to land on the lattice Z + tau*Z, and the conjugate-coupled equation
needs the offset of a Picard fixed point to land on 2pi i (Z - tau*Z).
Solutions come out as exponentials of integral transforms, so they never
vanish; comparisons against manufactured oracles are made modulo the
constant the kernel of L leaves free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GridFunction, HypotorusError, Lattice
from .kernel import KernelContext, t_omega, t_omega_point, t_omega_y_jump
from .verify import ResidualReport, apply_l_fd, residual_report

OFFSET_SAMPLES = 8      # boundary abscissae for the offset constancy
MEAN_TOL = 1e-8         # relative gate on |mean f| for Lu = f solvability
RESIDUAL_BOUND = 0.25   # a "yes" needs residual_sup <= this * (1 + sup|rhs|)
K_MAX = 3               # solve_ab tries k = 0, then k* +- K_MAX around k*
DAMPING = 0.5           # Picard step v <- (1-d) v + d P_k v
MAX_ITER = 200          # Picard steps per winding
PICARD_TOL = 1e-8       # Picard stops once an update is at most this
LATTICE_TOL = 1e-6      # exact-mode lattice tolerance in integer coordinates


@dataclass
class SolveReport:
    solvable: str                       # "yes" | "no" | "inconclusive"
    u: GridFunction | None = None
    j: int | None = None
    k: int | None = None
    nu: complex | None = None
    residual: ResidualReport | None = None  # FD residual that backs u
    iterations: int = 0
    offset_constancy: float = 0.0
    notes: str = ""
    v: GridFunction | None = None       # exponent of the similarity form
    k_sim: int | None = None            # u = C * exp(2pi i k_sim Z + v)

    def __post_init__(self):
        if self.solvable not in ("yes", "no", "inconclusive"):
            raise HypotorusError(f"bad verdict {self.solvable!r}")
        if self.solvable == "yes" and (self.u is None
                                       or self.residual is None):
            raise HypotorusError(
                "a solvable report must carry a solution and its residual")

    @property
    def residual_sup(self) -> float | None:
        return None if self.residual is None else self.residual.sup_norm

    @property
    def residual_l2(self) -> float | None:
        return None if self.residual is None else self.residual.l2_norm


@dataclass
class FixedPointState:
    k: int
    v: GridFunction
    delta_sup: float
    converged: bool
    iterations: int = 0


def mean_integral(g: GridFunction) -> complex:
    """Midpoint-rule integral of g over the fundamental square."""
    return complex(np.mean(g.values))


def _boundary_offsets(ctx: KernelContext, g: GridFunction) -> float:
    """Spread of T g (x, 1) - T g (x, 0) over OFFSET_SAMPLES abscissae.

    Each offset comes in closed form from t_omega_y_jump, which is what
    two t_omega_point probes give: -mean(g) exactly on an x-invariant
    field, so the spread is 0 there; on a dense one -mean(g) plus g on the
    probe's singular cells times the area their quadtrees drop around it,
    since the kernel's lattice index moves by exactly one between them.
    The spread follows how much g varies over the dropped blocks; it does
    not measure quadrature error.
    """
    xs = (np.arange(OFFSET_SAMPLES) + 0.5) / OFFSET_SAMPLES
    offs = np.array([t_omega_y_jump(ctx, g, x) for x in xs])
    return float(np.abs(offs - offs.mean()).max())


@dataclass(frozen=True)
class NuEstimate:
    """The solvability number nu(A) computed two ways: from the grid mean
    and from the boundary jump of the integral transform."""
    mean: complex
    boundary: complex

    @property
    def discrepancy(self) -> float:
        return abs(self.mean - self.boundary)


def nu_estimates(ctx: KernelContext, a_fn: GridFunction) -> NuEstimate:
    """nu(A) = -(1/2pi i) integral of A.  The grid mean is authoritative
    and is the one solve_a uses; the boundary jump is probed with two
    t_omega_point rows, T A (0, 1) - T A (0, 0).  It equals the same
    integral, exactly on an x-invariant field and up to the quadtree
    blocks dropped around the probes on a dense one (see t_omega_y_jump),
    so their discrepancy checks the lattice-shift bookkeeping of point
    rows, not the quadrature."""
    two_pi_i = 2.0j * np.pi
    nu_mean = -mean_integral(a_fn) / two_pi_i
    nu_bdry = (t_omega_point(ctx, a_fn, (0.0, 1.0))
               - t_omega_point(ctx, a_fn, (0.0, 0.0))) / two_pi_i
    return NuEstimate(mean=nu_mean, boundary=nu_bdry)


def lattice_project(nu: complex, lattice: Lattice, tol: float = LATTICE_TOL):
    """Nearest lattice representation nu = j + k*tau, or None if nu is
    farther than tol from the lattice in each integer coordinate."""
    if not 0 < tol < 0.5:
        raise HypotorusError(
            f"lattice tolerance must lie in (0, 0.5), got {tol}: at half a "
            "lattice step every nu rounds onto the lattice")
    tau = complex(lattice.tau)
    k_real = nu.imag / tau.imag
    j_real = nu.real - k_real * tau.real
    j, k = round(j_real), round(k_real)
    if abs(j_real - j) <= tol and abs(k_real - k) <= tol:
        return (int(j), int(k))
    return None


def _certify(ctx: KernelContext, u: GridFunction, rhs: GridFunction,
             density: GridFunction, notes: str, **fields) -> SolveReport:
    """The report for a candidate solution u of Lu = rhs: "yes" only when
    its FD residual is small against the right-hand side, "inconclusive"
    when the residual does not back it.  The offset constancy is reported
    for the density whose transform built u."""
    rep = residual_report(ctx.nf, apply_l_fd(ctx.nf, u), rhs)
    bound = RESIDUAL_BOUND * (1.0 + rhs.sup_norm())
    verdict = "yes"
    if rep.sup_norm > bound:
        verdict = "inconclusive"
        notes += (f"; residual_sup {rep.sup_norm:.3e} exceeds {bound:.3e} = "
                  f"{RESIDUAL_BOUND} * (1 + sup|rhs|), so the solution is "
                  "not certified")
    return SolveReport(solvable=verdict, u=u, residual=rep,
                       offset_constancy=_boundary_offsets(ctx, density),
                       notes=notes, **fields)


def _similarity_solution(ctx: KernelContext, k_sim: int,
                         v: GridFunction) -> GridFunction:
    """exp(2pi i k_sim Z + v), scaled to unit sup norm."""
    u_raw = np.exp(2.0j * np.pi * k_sim * ctx.z_centers + v.values)
    return GridFunction(ctx.n, u_raw / np.abs(u_raw).max())


# ----------------------------------------------------------------- Lu = f

def solve_f(ctx: KernelContext, f: GridFunction) -> SolveReport:
    """Lu = f is solvable iff f has zero mean; then u = T f works and any
    other solution differs by a constant."""
    m = mean_integral(f)
    gate = MEAN_TOL * (1.0 + f.sup_norm())
    if abs(m) > gate:
        return SolveReport(
            solvable="no",
            notes=f"mean(f) = {m:.6e} exceeds gate {gate:.2e}; "
                  "a doubly periodic solution cannot exist")
    return _certify(ctx, t_omega(ctx, f), f, f,
                    f"mean(f) = {m:.3e} within gate; solution is T f, "
                    "unique up to an additive constant")


# ---------------------------------------------------------------- Lu = Au

def _lattice_tols(values: np.ndarray, nu_scale: float) -> tuple[float, str]:
    """LATTICE_TOL for grid-constant data, quadrature-scaled otherwise;
    the note records both so reports show which mode applied."""
    exact = bool(np.ptp(values.real) == 0.0 and np.ptp(values.imag) == 0.0)
    # at half a lattice step every nu would round onto the lattice, so a
    # large |nu| stops the scaled tolerance just below it and leaves the
    # verdict to the residual bound
    scaled = min(max(LATTICE_TOL, 1e-2 * (1.0 + nu_scale)),
                 math.nextafter(0.5, 0.0))
    if exact:
        return LATTICE_TOL, (f"lattice tol {LATTICE_TOL:.1e} (exact mode; "
                             f"scaled mode would be {scaled:.1e})")
    return scaled, (f"lattice tol {scaled:.1e} (quadrature-scaled; "
                    f"exact mode would be {LATTICE_TOL:.1e})")


def solve_a(ctx: KernelContext, a_fn: GridFunction) -> SolveReport:
    """Lu = Au is solvable iff nu(A) lies on the lattice; then
    u = exp(T A - 2pi i k Z) is a nonvanishing doubly periodic solution."""
    nu = -mean_integral(a_fn) / (2.0j * np.pi)
    tol, tol_note = _lattice_tols(a_fn.values, abs(nu))
    jk = lattice_project(nu, ctx.nf.lattice, tol)
    nu_note = f"nu(A) = {nu:.8g}; {tol_note}"
    if jk is None:
        return SolveReport(solvable="no", nu=nu,
                           notes=nu_note + "; nu is not a lattice point")
    j, k = jk
    v = t_omega(ctx, a_fn)
    # Periodicity bookkeeping: under y -> y+1 the exponent moves by
    # -integral(A) - 2pi i k tau = 2pi i (j + k tau) - 2pi i k tau = 2pi i j,
    # and under x -> x+1 by 0, so exp(.) is doubly periodic by construction.
    u = _similarity_solution(ctx, -k, v)
    return _certify(
        ctx, u, GridFunction(ctx.n, a_fn.values * u.values), a_fn,
        nu_note + f"; exponent shifts: x+1 -> 0, y+1 -> 2*pi*i*{j}",
        j=j, k=k, nu=nu, v=v, k_sim=-k)


# ------------------------------------------------- Lu = Au + B * conj(u)

def _bk_factor(ctx: KernelContext, b_fn: GridFunction, k: int) -> np.ndarray:
    """B twisted by the k-th winding: B * exp(-2pi i k (Z + conj(Z))), which
    is B itself at k = 0."""
    if k == 0:
        return b_fn.values
    z = ctx.z_centers
    return b_fn.values * np.exp(-2.0j * np.pi * k * (z + np.conj(z)))


def _pk_integrand(ctx: KernelContext, a_fn: GridFunction,
                  b_fn: GridFunction, k: int,
                  v: GridFunction) -> GridFunction:
    phase = np.exp(np.conj(v.values) - v.values)
    return GridFunction(
        ctx.n, a_fn.values + _bk_factor(ctx, b_fn, k) * phase)


def pk_apply(ctx: KernelContext, a_fn: GridFunction, b_fn: GridFunction,
             k: int, v: GridFunction) -> GridFunction:
    """One application of the twisted integral map whose fixed points
    solve the conjugate-coupled equation at winding k.  Since
    conj(v) - v is purely imaginary, the integrand stays bounded by
    |A| + |B| no matter how large v gets."""
    return t_omega(ctx, _pk_integrand(ctx, a_fn, b_fn, k, v))


def pk_fixed_point(ctx: KernelContext, a_fn: GridFunction,
                   b_fn: GridFunction, k: int) -> FixedPointState:
    """Damped Picard iteration v <- (1-d) v + d P_k v from v = 0, with
    d = DAMPING, for at most MAX_ITER steps, until an update is at most
    PICARD_TOL.

    When B vanishes the map is constant, so the damping is 1 and the
    iteration lands exactly in two steps.  A converged state always
    satisfies the a-posteriori defect bound |v - P_k v| <= 10 * PICARD_TOL;
    states failing it are reported unconverged rather than trusted.

    P_k with B is P_0 with B twisted by the winding (_bk_factor), so B is
    twisted once here, not on every step.
    """
    damping = 1.0 if b_fn.sup_norm() == 0.0 else DAMPING
    bk = GridFunction(ctx.n, _bk_factor(ctx, b_fn, k))
    v = GridFunction.zeros(ctx.n)
    delta = np.inf
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        pv = pk_apply(ctx, a_fn, bk, 0, v)
        new = GridFunction(
            ctx.n, (1.0 - damping) * v.values + damping * pv.values)
        delta = float(np.abs(new.values - v.values).max())
        v = new
        if delta <= PICARD_TOL:
            converged = True
            break
    if converged:
        defect = float(np.abs(
            v.values - pk_apply(ctx, a_fn, bk, 0, v).values).max())
        if defect > 10.0 * PICARD_TOL:
            converged = False
    return FixedPointState(k=k, v=v, delta_sup=delta, converged=converged,
                           iterations=it)


def _k_order(k_max: int):
    ks = [0]
    for m in range(1, k_max + 1):
        ks.extend((m, -m))
    return ks


def solve_ab(ctx: KernelContext, a_fn: GridFunction,
             b_fn: GridFunction) -> SolveReport:
    """Search windings k for a Picard fixed point (pk_fixed_point) whose
    boundary offset is the lattice constant 2pi i (j - k tau) within the
    _lattice_tols tolerance; the first hit yields u = exp(2pi i k Z + v).

    k = 0 goes first.  If its fixed point converged, its offset
    z0 = delta_0/(2pi i) predicts k* = -round(Im z0 / Im tau), else k* = 0;
    k*, k*+1, k*-1, ..., k* +- K_MAX follow, less winding 0.  The order is
    fixed by the data, so a sequential search with early exit gives the
    answer of a concurrent sweep.  A "no" only means no winding in range
    passed with the fixed point found here; that caveat rides in notes.  A
    stalled winding makes the verdict "inconclusive".
    """
    two_pi_i = 2.0j * np.pi
    tau = ctx.tau
    total_iter = 0
    any_unconverged = False
    trail = []
    k_star = 0
    windings = [0]
    while windings:
        k = windings.pop(0)
        state = pk_fixed_point(ctx, a_fn, b_fn, k)
        total_iter += state.iterations
        if not state.converged:
            any_unconverged = True
            trail.append(f"k={k}: no fixed point in {state.iterations} "
                         f"steps (last update {state.delta_sup:.2e})")
        else:
            integrand = _pk_integrand(ctx, a_fn, b_fn, k, state.v)
            delta_k = -mean_integral(integrand)
            z = delta_k / two_pi_i          # should be j - k*tau
            if k == 0:
                k_star = -round(z.imag / tau.imag)
            tol, tol_note = _lattice_tols(integrand.values, abs(z))
            k_err = abs(z.imag / tau.imag + k)
            j_real = z.real + k * tau.real
            j = round(j_real)
            trail.append(f"k={k}: delta/(2*pi*i)={z:.6g}, k err "
                         f"{k_err:.2e}, j err {abs(j_real - j):.2e}")
            if k_err <= tol and abs(j_real - j) <= tol:
                u = _similarity_solution(ctx, k, state.v)
                rhs = GridFunction(ctx.n, a_fn.values * u.values
                                   + b_fn.values * np.conj(u.values))
                return _certify(
                    ctx, u, rhs, integrand,
                    f"winding k={k} accepted: delta_k/(2*pi*i) = {z:.8g} "
                    f"matches j - k*tau with j={j}; {tol_note}; "
                    f"nu field holds delta_k/(2*pi*i); " + "; ".join(trail),
                    j=int(j), k=k, nu=z, iterations=state.iterations,
                    v=state.v, k_sim=k)
        if k == 0:
            windings = [k_star + d for d in _k_order(K_MAX)
                        if k_star + d != 0]
    verdict = "inconclusive" if any_unconverged else "no"
    caveat = ("Picard iteration stalled for some windings"
              if any_unconverged else
              f"no winding in |k - {k_star}| <= {K_MAX} matched with the "
              "fixed points found here")
    return SolveReport(solvable=verdict, iterations=total_iter,
                       notes=caveat + "; " + "; ".join(trail))


# ------------------------------------------------------------- similarity

def similarity_check(ctx: KernelContext, u: GridFunction, k: int,
                     v: GridFunction) -> tuple[complex, float, float]:
    """Strip the similarity factor exp(2pi i k Z + v) off u; for a genuine
    solution the quotient is a constant c != 0, which is why solutions
    have no zeros."""
    w = u.values * np.exp(-2.0j * np.pi * k * ctx.z_centers - v.values)
    c = complex(np.mean(w))
    if abs(c) < 1e-12:
        raise HypotorusError(
            "similarity quotient is numerically zero; u is degenerate")
    max_dev = float(np.abs(w - c).max() / abs(c))
    min_abs_u = float(np.abs(u.values).min())
    return c, max_dev, min_abs_u
