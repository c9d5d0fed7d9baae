"""Shared geometric primitives: torus points, the period lattice, grid samples."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class HypotorusError(Exception):
    """Base class for input and numeric failures raised by this package."""


@dataclass(frozen=True)
class TorusPoint:
    """A point of R^2 read modulo the integer lattice Z^2."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise HypotorusError(f"non-finite torus point ({self.x}, {self.y})")

    def reduced(self) -> "TorusPoint":
        return TorusPoint(self.x % 1.0, self.y % 1.0)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def as_point(p) -> TorusPoint:
    """Coerce a TorusPoint, tuple, or complex to TorusPoint."""
    if isinstance(p, TorusPoint):
        return p
    if isinstance(p, complex):
        return TorusPoint(p.real, p.imag)
    return TorusPoint(float(p[0]), float(p[1]))


@dataclass(frozen=True)
class Lattice:
    """The lattice Z + tau*Z with Im(tau) > 0.

    The fundamental parallelogram is {s + t*tau : s, t in [0, 1)}.
    """

    tau: complex

    def __post_init__(self):
        t = complex(self.tau)
        if not (math.isfinite(t.real) and math.isfinite(t.imag)):
            raise HypotorusError("lattice modulus must be finite")
        if t.imag <= 0.0:
            raise HypotorusError(f"lattice modulus needs Im > 0, got {t}")

    @property
    def zero_point(self) -> complex:
        # the unique zero of the theta factor inside the fundamental cell
        return (1.0 + self.tau) / 2.0


def lattice_reduce(z: complex, tau: complex):
    """Split z = w + j + k*tau with w = s + t*tau, s,t in [0,1).

    Returns (w, j, k).  Accepts scalars or numpy arrays for z.
    """
    tau = complex(tau)
    if tau.imag <= 0.0:
        raise HypotorusError(f"lattice modulus needs Im > 0, got {tau}")
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise HypotorusError("lattice_reduce: non-finite argument")
    beta = z.imag / tau.imag
    alpha = z.real - beta * tau.real
    j = np.floor(alpha)
    k = np.floor(beta)
    w = (alpha - j) + (beta - k) * tau
    if w.ndim == 0:
        return complex(w), int(j), int(k)
    return w, j.astype(int), k.astype(int)


def reduced_lattice_distance(w, tau: complex) -> np.ndarray:
    """Distance from w to the lattice, for w already reduced to lattice
    coordinates in [-1, 1) (by lattice_reduce, say), with no second
    reduction: lattice_distance at the real and imaginary parts of w."""
    w = np.asarray(w)
    return lattice_distance(w.real, w.imag, tau)


def lattice_distance(x, y, tau: complex) -> np.ndarray:
    """Distance from x + i*y to the nearest lattice point j + k*tau with
    |k| <= 1, in real arithmetic: for each k the nearest j is the integer
    nearest x - k*Re(tau).  For a point whose lattice coordinates lie in
    [-1/2, 1/2) and |Re(tau)| <= 1/2 that j is within one of 0, so these
    are the nine points j + k*tau with |j|, |k| <= 1."""
    tau = complex(tau)
    d2 = None
    for k in (-1, 0, 1):
        ex = x - k * tau.real
        ex -= np.rint(ex)
        ey = y - k * tau.imag
        ex *= ex
        ex += ey * ey
        d2 = ex if d2 is None else np.minimum(d2, ex)
    return np.sqrt(d2)


@dataclass
class GridFunction:
    """Complex samples on the cell-centered n-by-n grid of the unit square.

    values[i, j] is the sample at ((i + 0.5)/n, (j + 0.5)/n); the first index
    walks x.  Cell centers never meet y in Z or the square's boundary, which
    keeps degenerate circles and the kernel's own singular point off-grid.
    """

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 4:
            raise HypotorusError(f"grid size must be >= 4, got {self.n}")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.n, self.n):
            raise HypotorusError(
                f"grid shape {v.shape} does not match n={self.n}")
        if not np.all(np.isfinite(v)):
            raise HypotorusError("grid values must be finite")
        self.values = v

    @classmethod
    def from_callable(cls, n: int, fn) -> "GridFunction":
        x, y = grid_centers(n)
        return cls(n, np.asarray(fn(x, y), dtype=complex))

    @classmethod
    def zeros(cls, n: int) -> "GridFunction":
        return cls(n, np.zeros((n, n), dtype=complex))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def grid_centers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Meshgrid (x, y) of cell centers, shape (n, n), x along axis 0."""
    c = (np.arange(n) + 0.5) / n
    return np.meshgrid(c, c, indexing="ij")


@dataclass(frozen=True)
class RegularityParams:
    """Exponent bookkeeping for the mapping properties of the kernel operator."""

    q: float
    sigma: float
    p: float
    mu: float
    alpha: float


def regularity_from(q: float, sigma: float) -> RegularityParams:
    """Derive (p, mu, alpha) from the integrability exponent q and the
    degeneracy order sigma.

    p = q/(q-1), mu = sigma/(sigma+1), alpha = (2 - p - mu)/p.  alpha > 0
    exactly when q > 2 + sigma; a nonpositive alpha means the Holder gain
    is lost and the operator bound degenerates.
    """
    if q <= 1.0:
        raise HypotorusError(f"need q > 1, got {q}")
    if sigma < 0.0:
        raise HypotorusError(f"need sigma >= 0, got {sigma}")
    p = q / (q - 1.0)
    mu = sigma / (sigma + 1.0)
    alpha = (2.0 - p - mu) / p
    return RegularityParams(q=q, sigma=sigma, p=p, mu=mu, alpha=alpha)
