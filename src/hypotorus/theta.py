"""Third theta function on Z + tau*Z and its logarithmic derivative.

The series used is

    Theta(z) = sum_m exp(i*pi*m^2*tau) * exp(2*pi*i*m*z),

which satisfies Theta(z+1) = Theta(z), Theta(z+tau) = exp(-i*pi*tau -
2*pi*i*z) * Theta(z), and has its only zero in the fundamental cell at
z0 = (1+tau)/2.  Arguments are lattice-reduced before summation and the
quasi-periodicity factors are multiplied back exactly, so evaluation never
overflows for moderate lattice shifts.

Near z0 the logarithmic derivative is the Laurent series of the pole,

    Theta'/Theta(z0 + e) = 1/e - i*pi + sum_j g_{2j+1} e^(2j+1),

from Theta(z0 + e) = i e^(-i*pi*e - i*pi*tau/4) theta_1(pi*e) and the odd
theta_1'/theta_1 (Whittaker & Watson, section 21).  It converges for |e|
below the shortest lattice vector R, the distance to the next zero.

The kernel is K(w) = Theta'/Theta(w + z0) for arguments w = Z(p) - Z(s),
so this module alone knows where the zero is: pole_offset reduces w once to
(e, k), e the offset of w + z0 from the zero in the lattice cell around it,
and theta_log_deriv_raw takes (e, k).

The same identity gives K(w) = -i*pi + pi*theta_1'/theta_1(pi*w), and the
classical series theta_1'/theta_1(z) = cot z + 4 sum_m q^(2m)/(1 - q^(2m))
sin 2mz, q = exp(i*pi*tau), gives K its Fourier series along x between its
pole lines: K(w) = sum_k C_k exp(2*pi*i*k*w), with one set of coefficients
for 0 < Im w < Im tau and another for -Im tau < Im w < 0
(kernel_x_fourier).  An operator on a field whose first integral is x +
phi(y) needs nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (HypotorusError, Lattice, lattice_reduce,
                   reduced_lattice_distance)


THETA_TOL = 1e-14  # series truncation tolerance of every ThetaContext
_POLE_NODES = 128  # samples on |e| = R/2 whose FFT gives the pole's series
# a term g_m e^m of the pole's Laurent series is kept while |g_m| |e|^(m+1),
# its size relative to the 1/e it corrects, exceeds this
_POLE_TOL = np.finfo(float).eps / 8.0


class PoleProximityError(HypotorusError):
    """Logarithmic derivative requested within 1e-13 of a theta zero."""


def truncation_terms(tau: complex, tol: float) -> int:
    """Smallest M so the tail sum_{|m|>M} e^{-pi*Im(tau)*m^2} e^{2*pi*|m|*ymax}
    stays below tol, with ymax = 2*Im(tau).

    Found by direct tail summation.  closed_form_terms gives the cheap upper
    bound; the tests confirm it dominates this value.
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise HypotorusError(f"need Im(tau) > 0, got {tau}")
    if not tol > 0.0:
        raise HypotorusError(f"need tol > 0, got {tol}")
    b = math.pi * tau.imag
    ymax = 2.0 * tau.imag
    m_hi = closed_form_terms(tau, tol) + 64

    def log_term(m: int) -> float:
        return -b * m * m + 2.0 * math.pi * m * ymax + math.log(2.0)

    tail = 0.0
    tails = {}
    for m in range(m_hi, 0, -1):
        lt = log_term(m)
        tail += math.exp(lt) if lt > -745.0 else 0.0
        tails[m - 1] = tail
    for M in range(0, m_hi):
        if tails[M] <= tol:
            return M
    raise HypotorusError("truncation search failed to converge")


def closed_form_terms(tau: complex, tol: float) -> int:
    """Conservative closed-form bound for the same tail criterion."""
    tau = complex(tau)
    ymax = 2.0 * tau.imag
    m = math.ceil(math.sqrt(math.log(1.0 / tol) / (math.pi * tau.imag)))
    return int(m + 2 * math.ceil(ymax / tau.imag) + 2)


def _shortest_vector(tau: complex) -> float:
    """Length of the shortest nonzero vector j + k*tau of the lattice.  For
    each k >= 1 the nearest j is the integer nearest k*Re(tau); the search
    stops once k*Im(tau) alone exceeds the best length found."""
    tau = complex(tau)
    best, k = 1.0, 1
    while k * tau.imag < best:
        x = k * tau.real
        best = min(best, math.hypot(x - round(x), k * tau.imag))
        k += 1
    return best


@dataclass
class ThetaContext:
    """Precomputed series data for one lattice, truncated at THETA_TOL."""

    lattice: Lattice
    m_max: int = field(init=False)
    # Laurent coefficients c_m = e^{i*pi*m^2*tau}, m = 0..m_max
    _laurent: np.ndarray = field(init=False, repr=False)
    # Theta = Q(u + 1/u): the coefficients of Q, highest degree first
    _horner: np.ndarray = field(init=False, repr=False)
    # the shortest lattice vector: the pole's Laurent series converges for
    # |e| < pole_radius, and theta_log_deriv_raw sums it for |e| < R/4
    pole_radius: float = field(init=False)
    # 1, g_1, g_3, ...: the pole's Laurent series is Q(e^2)/e - i*pi with
    # Q(x) = 1 + g_1 x + g_3 x^2 + ... (module docstring)
    _pole_q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m_max = truncation_terms(self.lattice.tau, THETA_TOL)
        m = np.arange(self.m_max + 1)
        self._laurent = np.exp(1j * math.pi * m * m * self.lattice.tau)
        # u^m + u^-m = L_m(t) for t = u + 1/u, with L_0 = 2, L_1 = t and
        # L_{m+1} = t L_m - L_{m-1}; rows hold coefficients, lowest first
        lucas = np.zeros((self.m_max + 1, self.m_max + 1))
        lucas[0, 0], lucas[1, 1] = 2.0, 1.0
        for j in range(1, self.m_max):
            lucas[j + 1, 1:] = lucas[j, :-1]
            lucas[j + 1] -= lucas[j - 1]
        q = self._laurent[1:] @ lucas[1:]
        q[0] += 1.0
        self._horner = q[::-1].copy()
        self._pole_series()

    def _pole_series(self):
        """The pole's Laurent coefficients, from the theta series sampled on
        |e| = R/2, where it is accurate: the FFT of f(e) = Theta'/Theta(z0 +
        e) - 1/e + i*pi gives g_m (R/2)^m, aliased only by terms of order
        2^-_POLE_NODES.  The even ones vanish, as f is odd, and are not
        kept."""
        tau = self.lattice.tau
        self.pole_radius = _shortest_vector(tau)
        rho = self.pole_radius / 2.0
        e = rho * np.exp(2j * math.pi * np.arange(_POLE_NODES) / _POLE_NODES)
        w, _, k = lattice_reduce(self.zero_point + e, tau)
        s0, s1 = _series_pair(self, w)
        f = s1 / s0 - 2j * math.pi * k - 1.0 / e + 1j * math.pi
        m = np.arange(1, _POLE_NODES // 2, 2)
        odd = np.fft.fft(f)[m] / _POLE_NODES / rho ** m
        self._pole_q = np.concatenate([[1.0], odd])

    @property
    def zero_point(self) -> complex:
        return self.lattice.zero_point


def theta_context(tau: complex) -> ThetaContext:
    return ThetaContext(Lattice(complex(tau)))


def _series_pair(ctx: ThetaContext, w):
    """(Theta(w), Theta'(w)) for reduced arguments w, vectorized.

    Theta(w) = 1 + sum_m c_m (u^m + u^-m) with u = e^{2*pi*i*w} is a
    polynomial Q in t = u + 1/u, so one Horner pass in t gives Theta = Q(t)
    and Theta' = 2*pi*i*(u - 1/u) * Q'(t).  The coefficient of t^m in Q is
    c_m plus far smaller terms (c_m decays like e^{-pi*Im(tau)*m^2}), so
    against mpmath its rounding matches the Laurent sum's.
    """
    w = np.asarray(w, dtype=complex)
    u = np.exp(2j * math.pi * w)
    uinv = 1.0 / u
    t = u + uinv
    coef = ctx._horner
    dq = np.full_like(t, coef[0])
    q = t * coef[0]
    q += coef[1]
    for c in coef[2:]:
        dq *= t
        dq += q
        q *= t
        q += c
    u -= uinv
    u *= 2j * math.pi
    dq *= u
    return q, dq


def theta_eval(ctx: ThetaContext, z: complex) -> complex:
    """Theta(z), valid for any z reachable without overflowing the
    quasi-periodicity factor (|k| up to a few dozen for tau = i)."""
    w, j, k = lattice_reduce(z, ctx.lattice.tau)
    s0, _ = _series_pair(ctx, w)
    factor = np.exp(-1j * math.pi * k * k * ctx.lattice.tau
                    - 2j * math.pi * k * w)
    out = factor * s0
    return complex(out) if np.ndim(z) == 0 else out


def theta_log_deriv(ctx: ThetaContext, z) -> complex:
    """Theta'(z)/Theta(z).

    The lattice shift contributes the exact additive -2*pi*i*k, so this is
    stable for arbitrarily large arguments.  Raises PoleProximityError
    within 1e-13 of a zero of Theta.
    """
    w, _, k = lattice_reduce(z, ctx.lattice.tau)
    e = w - ctx.zero_point
    if np.any(reduced_lattice_distance(e, ctx.lattice.tau) < 1e-13):
        raise PoleProximityError("argument within 1e-13 of a theta zero")
    out = theta_log_deriv_raw(ctx, e, k)
    return complex(out) if np.ndim(z) == 0 else out


def pole_offset(ctx: ThetaContext, arg):
    """(e, k) with arg = e + j + k*tau and e in lattice coordinates
    [-1/2, 1/2), so that z0 + e is arg + z0 reduced to the fundamental
    cell: the one reduction of a kernel argument arg = Z(p) - Z(s).  Its
    distance from the lattice is reduced_lattice_distance(e, tau)."""
    w, _, k = lattice_reduce(arg + ctx.zero_point, ctx.lattice.tau)
    return w - ctx.zero_point, k


def theta_log_deriv_raw(ctx: ThetaContext, e, k) -> np.ndarray:
    """Theta'/Theta(z0 + e) - 2*pi*i*k, the kernel value of an argument
    that pole_offset reduced to (e, k).  e has lattice coordinates in
    [-1/2, 1/2), or |e| < R/2 (R = ctx.pole_radius): then the series point
    z0 + e has |Im| <= Im(tau)/2 + R/2, inside the series' truncation range
    2 Im(tau) whenever R <= 3 Im(tau), as for every Im(tau) >= 1/3.  e is
    taken as given, with no second reduction and no pole-distance guard.
    Every kernel value of the operator comes from this function.

    Points with |e| < R/4 take the pole's Laurent series (module
    docstring), one Horner pass in e^2, as many terms as the batch's
    largest |e| needs; the series quotient there would lose about eps/|e|
    of relative accuracy to the rounding of Theta near its zero.  The
    Laurent form reads e as the offset from the exact zero and is
    relative-exact.  All other points take the theta series at z0 + e.
    At e = 0 the value is not finite."""
    e = np.asarray(e, dtype=complex)
    e2abs = (e * e.conj()).real
    near = e2abs < (ctx.pole_radius / 4.0) ** 2
    if near.all():
        out = _pole_laurent(ctx, e, e2abs)
    elif not near.any():
        s0, s1 = _series_pair(ctx, e + ctx.zero_point)
        out = s1 / s0
    else:
        out = np.empty_like(e)
        far = ~near
        s0, s1 = _series_pair(ctx, e[far] + ctx.zero_point)
        out[far] = s1 / s0
        out[near] = _pole_laurent(ctx, e[near], e2abs[near])
    return out - 2j * math.pi * k


def _pole_laurent(ctx: ThetaContext, e: np.ndarray,
                  e2abs: np.ndarray) -> np.ndarray:
    """Theta'/Theta(z0 + e) = Q(e^2) conj(e) / |e|^2 - i*pi for |e| < R/4,
    given e2abs = |e|^2, with the terms of Q that the largest |e| needs:
    each term left out is below _POLE_TOL of 1/e there, and the terms fall
    about geometrically, by (|e|/R)^2 <= 1/16 apiece."""
    # |g_m| |e|^(m+1) for m = 1, 3, ..., from |e|^2
    g = ctx._pole_q[1:]
    size = np.abs(g) * np.max(e2abs) ** np.arange(1, g.size + 1)
    kept = np.flatnonzero(size > _POLE_TOL)
    coef = ctx._pole_q[:kept[-1] + 2] if kept.size else ctx._pole_q[:1]
    e2 = e * e
    q = np.full_like(e, coef[-1])
    for c in coef[-2::-1]:
        q *= e2
        q += c
    q *= e.conj()
    q *= 1.0 / e2abs
    q -= 1j * math.pi
    return q


def kernel_x_fourier(ctx: ThetaContext, k):
    """The x-Fourier coefficients (above, below) of the kernel K(w) =
    Theta'/Theta(w + z0) at the integer frequencies k, so that K(w) =
    sum_k C_k exp(2*pi*i*k*w) with C = above for 0 < Im w < Im tau and C =
    below for -Im tau < Im w < 0.  With q_k = exp(2*pi*i*k*tau):

        above: C_0 = -2*pi*i, C_k = -2*pi*i/(1 - q_k) for k >= 1,
               C_k = 2*pi*i*q_|k|/(1 - q_|k|) for k <= -1;
        below: C_0 = 0, C_k = -2*pi*i*q_k/(1 - q_k) for k >= 1,
               C_k = 2*pi*i/(1 - q_|k|) for k <= -1.

    So below = above * q_k for k != 0, which is K(w + tau) = K(w) - 2*pi*i
    frequency by frequency.  Only q_|k|, of modulus below 1, is formed, so
    no coefficient overflows at any k."""
    k = np.asarray(k)
    q = np.exp(2j * math.pi * np.abs(k) * ctx.lattice.tau)
    q = np.where(k == 0, 0.0, q)  # so that C_0 takes the k >= 1 formulas
    two_pi_i = 2j * math.pi
    pos = k >= 0
    above = np.where(pos, -two_pi_i, two_pi_i * q) / (1.0 - q)
    below = np.where(pos, -two_pi_i * q, two_pi_i) / (1.0 - q)
    return above, below
