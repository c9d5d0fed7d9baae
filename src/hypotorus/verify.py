"""Independent finite-difference checks for the integral solvers.

The vector field L = b d/dx - a d/dy is discretized with second-order
centered differences and periodic wraparound.  Residuals are measured away
from the declared degenerate circles, where solutions are merely Holder
continuous and pointwise difference quotients stop being meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, HypotorusError, grid_centers
from .field import NormalizedField, coeff_grid


@dataclass(frozen=True)
class ResidualReport:
    sup_norm: float
    l2_norm: float
    excluded_fraction: float
    n: int

    def __post_init__(self):
        if self.sup_norm < 0 or self.l2_norm < 0:
            raise HypotorusError("residual norms must be nonnegative")
        if not 0.0 <= self.excluded_fraction < 1.0:
            raise HypotorusError(
                f"excluded fraction out of range: {self.excluded_fraction}")


def apply_l_fd(nf: NormalizedField, u: GridFunction) -> GridFunction:
    """Centered-difference application of L = b d/dx - a d/dy.

    Axis 0 of the grid runs along x, axis 1 along y.  Each axis takes one
    copy of the grid padded by one wrapped cell at either end, so its
    slices [2:] and [:-2] hold the samples one cell ahead and one behind.
    """
    n = u.n
    h = 1.0 / n
    a, b = coeff_grid(nf, n)
    vals = u.values
    px = np.concatenate((vals[-1:], vals, vals[:1]), axis=0)
    py = np.concatenate((vals[:, -1:], vals, vals[:, :1]), axis=1)
    ux = (px[2:] - px[:-2]) / (2.0 * h)
    uy = (py[:, 2:] - py[:, :-2]) / (2.0 * h)
    return GridFunction(n, b * ux - a * uy)


def included_columns(nf: NormalizedField, n: int) -> np.ndarray:
    """Boolean mask over y-rows at torus distance > 4/n from every
    declared degenerate ordinate: computed once per field and n, cached on
    the field next to coeff_grid's grids, and read-only."""
    keep = nf._grids.get(("included_columns", n))
    if keep is None:
        ys = (np.arange(n) + 0.5) / n
        keep = np.ones(n, dtype=bool)
        for comp in nf.components:
            keep &= comp.distance(ys) > 4.0 / n
        keep.flags.writeable = False
        nf._grids[("included_columns", n)] = keep
    return keep


def residual_report(nf: NormalizedField, lhs: GridFunction,
                    rhs: GridFunction) -> ResidualReport:
    """Norms of lhs - rhs over the grid rows included_columns keeps, away
    from degenerate circles.  The l2 norm carries the cell-area weight, so
    a unit-size residual field reports l2 close to 1 regardless of n.
    """
    if lhs.n != rhs.n:
        raise HypotorusError(
            f"grid mismatch in residual: {lhs.n} vs {rhs.n}")
    n = lhs.n
    keep = included_columns(nf, n)
    r = (lhs.values - rhs.values)[:, keep]
    h2 = 1.0 / (n * n)
    return ResidualReport(
        sup_norm=float(np.abs(r).max()) if r.size else 0.0,
        l2_norm=float(np.sqrt(h2 * np.sum(np.abs(r) ** 2))),
        excluded_fraction=float(1.0 - keep.mean()),
        n=n,
    )


def convergence_study(case, sizes) -> list[dict]:
    """Run `case` (a callable n -> ResidualReport) at each grid size and
    tabulate the norms with the empirical decrease ratio between
    consecutive sizes."""
    sizes = list(sizes)
    if any(n < 16 for n in sizes):
        raise HypotorusError("convergence sizes must be >= 16")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise HypotorusError("convergence sizes must increase")
    rows = []
    prev = None
    for n in sizes:
        rep = case(n)
        ratio = None
        if prev is not None and rep.sup_norm > 0:
            ratio = prev.sup_norm / rep.sup_norm
        rows.append({
            "n": n,
            "sup_norm": rep.sup_norm,
            "l2_norm": rep.l2_norm,
            "excluded_fraction": rep.excluded_fraction,
            "ratio": ratio,
        })
        prev = rep
    return rows
