"""Vector fields on the torus given by a closed 1-form a dx + b dy.

A field is specified by coefficient expressions; normalization rescales the
form so the x-period equals 1 and reflects y when needed so the resulting
modulus tau lands in the upper half plane.  The first integral Z is the path
integral of the form from the origin, a global homeomorphism of the torus
onto C / (Z + tau Z) for the fields treated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import exprparser as ep
from .core import HypotorusError, Lattice, as_point, grid_centers

GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GL_ORDER)
LINE_TOL = 1e-10          # integrate_line stops once a doubling moves this
LINE_MAX_PANELS = 4096    # ... and gives up beyond this many panels
PROBE_N = 128             # char_set_info samples Im(a*conj(b)) on this grid


@dataclass(frozen=True)
class SigmaComponent:
    """One declared degenerate circle y = y0 with its vanishing order.  The
    ordinate is reduced into [0, 1) here, once, for every caller."""

    sigma: float
    y0: float
    label: str

    def __post_init__(self):
        # a tiny negative y0 rounds to 1.0 under % 1.0
        object.__setattr__(self, "y0", float(self.y0) % 1.0 % 1.0)

    def distance(self, y) -> np.ndarray:
        """Torus distance from the ordinates y to this circle."""
        return np.abs((np.asarray(y, dtype=float) - self.y0 + 0.5) % 1.0
                      - 0.5)


@dataclass(frozen=True)
class FieldSpec:
    name: str
    a_src: str
    b_src: str
    z_exact_src: str | None
    components: tuple[SigmaComponent, ...]

    # each source is parsed on first use and kept on the spec
    @cached_property
    def a_ast(self):
        return ep.parse_expr(self.a_src)

    @cached_property
    def b_ast(self):
        return ep.parse_expr(self.b_src)

    @cached_property
    def z_exact_ast(self):
        return ep.parse_expr(self.z_exact_src) if self.z_exact_src else None


def parse_sigma_hint(hint: str) -> float | None:
    """The ordinate a hint of the form 'y=0.25' gives; None for any other
    hint."""
    h = hint.replace(" ", "")
    if h.startswith("y="):
        try:
            return float(h[2:])
        except ValueError:
            return None
    return None


def _derived_field(name, z_src, components):
    z = ep.parse_expr(z_src)
    a = ep.to_string(ep.symbolic_diff(z, "x"))
    b = ep.to_string(ep.symbolic_diff(z, "y"))
    return FieldSpec(name, a, b, z_src, components)


@lru_cache(maxsize=None)
def build_field(name: str) -> FieldSpec:
    """Built-in fields, all already normalized (unit x-period, Im tau > 0)."""
    if name == "elliptic":
        return FieldSpec("elliptic", "1", "i", "x + i*y", ())
    if name == "degenerate_sin2":
        return FieldSpec(
            "degenerate_sin2",
            "1",
            "i*sin(pi*y)^2",
            "x + i*(y/2 - sin(2*pi*y)/(4*pi))",
            (SigmaComponent(2.0, 0.0, "y=0"),),
        )
    if name == "analytic_perturbed":
        return _derived_field(
            "analytic_perturbed",
            "x + i*y + 0.05*sin(2*pi*(x+y))",
            (),
        )
    if name == "degenerate_2d":
        return _derived_field(
            "degenerate_2d",
            "x + 0.05*sin(2*pi*x)*sin(pi*y)^2 + i*(y/2 - sin(2*pi*y)/(4*pi))",
            (SigmaComponent(2.0, 0.0, "y=0"),),
        )
    raise HypotorusError(f"unknown builtin field {name!r}")


BUILTIN_NAMES = ("elliptic", "degenerate_sin2", "analytic_perturbed",
                 "degenerate_2d")


# ------------------------------------------------------------- quadrature

def _gl_values(fn, lo, hi) -> np.ndarray:
    """Weighted Gauss-Legendre node values of fn on the panels [lo, hi],
    arrays of one shape: fn gets the nodes with one more axis, of length
    GL_ORDER, and summing the result over that axis gives each panel's
    integral."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    return half[..., None] * _GL_WEIGHTS * fn(nodes)


def integrate_line(fn, lo: float, hi: float, breakpoints=()) -> complex:
    """Composite 16-point Gauss-Legendre with panel doubling until the
    value moves by at most LINE_TOL.  Panels are split at the given
    interior breakpoints (degenerate ordinates) from the start."""
    if hi == lo:
        return 0j
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0
    pts = sorted({lo, hi} | {b for b in breakpoints if lo < b < hi})
    per_unit = max(1, math.ceil(8 * (hi - lo)))
    edges = []
    for a, b in zip(pts[:-1], pts[1:]):
        m = max(1, math.ceil(per_unit * (b - a) / (hi - lo)))
        edges.append(np.linspace(a, b, m + 1)[:-1])
    edges.append(np.array([hi]))
    edges = np.concatenate(edges)
    prev = complex(np.sum(_gl_values(fn, edges[:-1], edges[1:])))
    while len(edges) - 1 <= LINE_MAX_PANELS:
        mids = 0.5 * (edges[:-1] + edges[1:])
        edges = np.sort(np.concatenate([edges, mids]))
        cur = complex(np.sum(_gl_values(fn, edges[:-1], edges[1:])))
        if abs(cur - prev) <= LINE_TOL:
            return sign * cur
        prev = cur
    raise HypotorusError(
        f"line quadrature failed to stabilize below {LINE_TOL} "
        f"with {LINE_MAX_PANELS} panels")


# ----------------------------------------------------------- normalization

@dataclass(frozen=True)
class NormalizedField:
    """A field spec together with its normalization data.

    The normalized coefficients are a_n = a_raw(x, +-y)/c1 and
    b_n = -+b_raw(x, +-y)/c1, the sign and reflection fixed by flip_y; the
    declared circles are reflected with y.
    """

    spec: FieldSpec
    c1: complex
    c2: complex
    flip_y: bool
    lattice: Lattice
    a_ast: ep.ExprAst
    b_ast: ep.ExprAst
    z_exact_ast: ep.ExprAst | None
    components: tuple[SigmaComponent, ...]
    # arrays computed once per grid size, the field's own, so they go with
    # it: coeff_grid's (a, b) under n, verify.included_columns' row mask
    # under ("included_columns", n)
    _grids: dict = field(default_factory=dict, init=False, compare=False,
                         repr=False)

    @property
    def tau(self) -> complex:
        return self.lattice.tau

    def a(self, x, y):
        return ep.eval_expr(self.a_ast, x, y)

    def b(self, x, y):
        return ep.eval_expr(self.b_ast, x, y)

    def sigma_ordinates(self):
        return tuple(c.y0 for c in self.components)


def periods(spec: FieldSpec) -> tuple[complex, complex]:
    """(c1, c2) = (integral of a dx along y=0, integral of b dy along x=0)."""
    a_ast, b_ast = spec.a_ast, spec.b_ast
    ords = tuple(c.y0 for c in spec.components)
    c1 = integrate_line(lambda t: ep.eval_expr(a_ast, t, np.zeros_like(t)),
                        0.0, 1.0)
    c2 = integrate_line(lambda t: ep.eval_expr(b_ast, np.zeros_like(t), t),
                        0.0, 1.0, breakpoints=ords)
    return c1, c2


def normalize(spec: FieldSpec) -> NormalizedField:
    """Rescale by 1/c1 and reflect y if needed so Im(tau) > 0."""
    c1, c2 = periods(spec)
    if abs((c1 * np.conj(c2)).imag) <= 1e-10:
        raise HypotorusError(
            f"periods c1={c1}, c2={c2} do not span: |Im(c1*conj(c2))| <= 1e-10")
    flip = (c2 / c1).imag <= 0.0
    tau = (-c2 if flip else c2) / c1
    sc = ep.const(1.0 / c1)

    def normalize_ast(ast, negate=False):
        if flip:
            ast = ep.subst(ast, "y", ep.neg(ep.var("y")))
        out = ep.mul(sc, ast)
        return ep.neg(out) if negate else out

    z_n = spec.z_exact_ast
    components = spec.components
    if flip:
        components = tuple(
            SigmaComponent(c.sigma, -c.y0, f"{c.label} (reflected)")
            for c in components)
    return NormalizedField(
        spec, c1, c2, flip, Lattice(complex(tau)),
        normalize_ast(spec.a_ast), normalize_ast(spec.b_ast, negate=flip),
        None if z_n is None else normalize_ast(z_n), components)


def _free_of(fld: FieldSpec | NormalizedField, *names: str) -> bool:
    return not any(ep.depends_on(ast, v)
                   for ast in (fld.a_ast, fld.b_ast) for v in names)


def x_invariant(fld: FieldSpec | NormalizedField) -> bool:
    """True when neither coefficient depends on x.  Normalization scales
    the coefficients and may reflect y, so a spec and its normalized field
    agree."""
    return _free_of(fld, "x")


def constant_coefficients(fld: FieldSpec | NormalizedField) -> bool:
    """True when neither coefficient depends on x or on y, so Z is linear
    and Z(p) - Z(s) depends on p - s alone.  A spec and its normalized
    field agree, as for x_invariant."""
    return _free_of(fld, "x", "y")


def coeff_grid(nf: NormalizedField, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) at the n x n cell centers, x along axis 0: evaluated once per
    field and n, cached on the field, and read-only."""
    grids = nf._grids.get(n)
    if grids is None:
        x, y = grid_centers(n)
        grids = (np.asarray(nf.a(x, y), dtype=complex),
                 np.asarray(nf.b(x, y), dtype=complex))
        for g in grids:
            g.flags.writeable = False
        nf._grids[n] = grids
    return grids


# ---------------------------------------------------------- first integral

def first_integral(nf: NormalizedField, p, path: str = "xy") -> complex:
    """Z(p): the form integrated from (0,0) along axis-parallel legs.

    path 'xy' goes through (x, 0); path 'yx' through (0, y).  The two must
    agree because the form is closed; their difference is a quadrature
    diagnostic.
    """
    pt = as_point(p)
    x, y = pt.x, pt.y
    a_ast, b_ast = nf.a_ast, nf.b_ast
    ords = nf.sigma_ordinates()
    shifted = tuple(o + k for o in ords for k in range(-2, 3))
    if path == "xy":
        leg1 = integrate_line(
            lambda t: ep.eval_expr(a_ast, t, np.zeros_like(t)), 0.0, x)
        leg2 = integrate_line(
            lambda t: ep.eval_expr(b_ast, np.full_like(t, x), t), 0.0, y,
            breakpoints=shifted)
    elif path == "yx":
        leg1 = integrate_line(
            lambda t: ep.eval_expr(b_ast, np.zeros_like(t), t), 0.0, y,
            breakpoints=shifted)
        leg2 = integrate_line(
            lambda t: ep.eval_expr(a_ast, t, np.full_like(t, y)), 0.0, x)
    else:
        raise HypotorusError(f"unknown path {path!r}")
    return leg1 + leg2


class ZEvaluator:
    """Fast evaluation of the first integral on and off the sample grid.

    With an exact integral expression, evaluation is direct.  Otherwise the
    cell-center values are accumulated once with per-cell Gauss-Legendre
    panels, and off-center points integrate the form along the short
    straight segment from the nearest memoized center; quasi-periodicity
    extends everything off the unit square exactly.
    """

    def __init__(self, nf: NormalizedField, n: int):
        self.nf = nf
        self.n = n
        self.tau = nf.tau
        self._exact = nf.z_exact_ast
        # centers: Z at the n x n cell centers, shape (n, n), x along axis 0
        if self._exact is not None:
            self._anchor = ep.eval_expr(self._exact, 0.0, 0.0)
            x, y = grid_centers(n)
            self.centers = ep.eval_expr(self._exact, x, y) - self._anchor
        else:
            self._anchor = 0j
            self.centers = self._build_centers()

    def _build_centers(self) -> np.ndarray:
        # Z at a center is the integral of a dx along y = 0 to its abscissa,
        # plus that of b dy up its column: one Gauss-Legendre panel between
        # consecutive centers, the y panels split at declared ordinates
        n = self.n
        a_ast, b_ast = self.nf.a_ast, self.nf.b_ast
        centers = (np.arange(n) + 0.5) / n
        xe = np.concatenate([[0.0], centers])
        x_leg = np.cumsum(np.sum(_gl_values(
            lambda t: ep.eval_expr(a_ast, t, np.zeros_like(t)),
            xe[:-1], xe[1:]), axis=-1))
        ye = np.union1d(xe, [o for o in self.nf.sigma_ordinates()
                             if 0.0 < o < centers[-1]])
        y_panels = np.sum(_gl_values(
            lambda t: ep.eval_expr(b_ast, *np.broadcast_arrays(
                centers[:, None, None], t)),
            ye[:-1], ye[1:]), axis=-1)
        ends = np.searchsorted(ye, centers) - 1  # last panel below each center
        return x_leg[:, None] + np.cumsum(y_panels, axis=1)[:, ends]

    def at(self, x, y) -> np.ndarray:
        """Z at arbitrary points (vectorized)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self._exact is not None:
            return ep.eval_expr(self._exact, x, y) - self._anchor
        jj = np.floor(x)
        kk = np.floor(y)
        xr, yr = x - jj, y - kk
        n = self.n
        ix = np.clip(np.round(xr * n - 0.5).astype(int), 0, n - 1)
        iy = np.clip(np.round(yr * n - 0.5).astype(int), 0, n - 1)
        cx = (ix + 0.5) / n
        cy = (iy + 0.5) / n
        dx = xr - cx
        dy = yr - cy

        def form(t):
            # a dx + b dy along the segment from the center, at parameter t
            px = cx[..., None] + np.multiply.outer(dx, t)
            py = cy[..., None] + np.multiply.outer(dy, t)
            return (ep.eval_expr(self.nf.a_ast, px, py) * dx[..., None]
                    + ep.eval_expr(self.nf.b_ast, px, py) * dy[..., None])

        seg = np.sum(_gl_values(form, 0.0, 1.0), axis=-1)
        return self.centers[ix, iy] + seg + jj + kk * self.tau


# ----------------------------------------------------- characteristic set

@dataclass
class ComponentReport:
    label: str
    declared_sigma: float
    fitted_rate: float | None
    rate_mismatch: bool


@dataclass
class CharReport:
    components: list
    min_abs_off_sigma: float
    sign_fixed: bool


def char_set_info(nf: NormalizedField) -> CharReport:
    """Sample Im(a*conj(b)) on the PROBE_N grid, fit vanishing rates at
    declared circles, and confirm the sign never flips (ellipticity away
    from the circles).  When neither coefficient depends on x, one column
    of the grid holds every value the grid would."""
    x, y = grid_centers(PROBE_N)
    if x_invariant(nf):
        x, y = x[:1], y[:1]
    im = np.asarray((nf.a(x, y) * np.conj(nf.b(x, y))).imag, dtype=float)
    pos = float(im.max())
    neg = float(im.min())
    sign_fixed = not (pos > 1e-12 and neg < -1e-12)

    dist = np.full_like(im, np.inf)
    for c in nf.components:
        dist = np.minimum(dist, c.distance(y))
    off = np.abs(im)[dist > 0.1]
    min_off = float(off.min()) if off.size else float("nan")

    comps = []
    xs = (np.arange(8) + 0.5) / 8
    for c in nf.components:
        ds = 2.0 ** -(np.arange(8) + 3)
        vals = []
        for d in ds:
            v = 0.5 * (np.abs((nf.a(xs, c.y0 + d)
                               * np.conj(nf.b(xs, c.y0 + d))).imag).mean()
                       + np.abs((nf.a(xs, c.y0 - d)
                                 * np.conj(nf.b(xs, c.y0 - d))).imag).mean())
            vals.append(v)
        vals = np.asarray(vals)
        if np.any(vals <= 0):
            comps.append(ComponentReport(c.label, c.sigma, None, True))
            continue
        slope = float(np.polyfit(np.log(ds), np.log(vals), 1)[0])
        comps.append(ComponentReport(
            c.label, c.sigma, slope, abs(slope - c.sigma) > 0.3))
    return CharReport(comps, min_off, sign_fixed)
