import numpy as np
import pytest

from hypotorus import (
    GridFunction,
    HypotorusError,
    apply_l_fd,
    convergence_study,
    residual_report,
)
from hypotorus.field import build_field, normalize
from hypotorus.verify import ResidualReport, included_columns


def test_apply_l_fd_kills_constants(nf_deg_sin2):
    u = GridFunction(32, np.full((32, 32), 3 - 2j))
    out = apply_l_fd(nf_deg_sin2, u)
    assert np.all(out.values == 0)


def test_apply_l_fd_linearity(nf_elliptic):
    rng = np.random.default_rng(51)
    u = GridFunction(16, rng.normal(size=(16, 16)) + 0j)
    w = GridFunction(16, rng.normal(size=(16, 16)) + 0j)
    both = apply_l_fd(nf_elliptic, GridFunction(16, u.values + 2j * w.values))
    sep = apply_l_fd(nf_elliptic, u).values + 2j * apply_l_fd(
        nf_elliptic, w).values
    assert np.allclose(both.values, sep, atol=1e-12)


def test_apply_l_fd_exponential_mode(nf_elliptic):
    # L e^{2 pi i (x+y)} = (i - 1) * 2 pi i * e = -2 pi (1 + i) e
    n = 64
    u = GridFunction.from_callable(
        n, lambda x, y: np.exp(2j * np.pi * (x + y)))
    want = -2 * np.pi * (1 + 1j) * u.values
    got = apply_l_fd(nf_elliptic, u).values
    rel = np.abs(got - want).max() / np.abs(want).max()
    assert rel < 1e-2


def test_apply_l_fd_second_order(nf_deg_sin2):
    # centered differences: error drops by ~4 when h halves
    def err(n):
        u = GridFunction.from_callable(
            n, lambda x, y: np.sin(2 * np.pi * x) + 0j)
        want = GridFunction.from_callable(
            n, lambda x, y: nf_deg_sin2.b(x, y) * 2 * np.pi
            * np.cos(2 * np.pi * x))
        return np.abs(apply_l_fd(nf_deg_sin2, u).values - want.values).max()

    e32, e64 = err(32), err(64)
    assert 3.0 < e32 / e64 < 5.0


def test_residual_report_zero(nf_elliptic):
    u = GridFunction.from_callable(
        16, lambda x, y: np.cos(2 * np.pi * y) + 0j)
    rep = residual_report(nf_elliptic, u, u)
    assert rep.sup_norm == 0 and rep.l2_norm == 0
    assert rep.excluded_fraction == 0.0


def test_residual_report_band(nf_deg_sin2):
    lhs = GridFunction(64, np.ones((64, 64), dtype=complex))
    rhs = GridFunction.zeros(64)
    rep = residual_report(nf_deg_sin2, lhs, rhs)
    # the band 4/64 drops four rows on each side of the circle y=0
    assert rep.excluded_fraction == pytest.approx(8 / 64)
    assert rep.sup_norm == 1.0
    # area-weighted l2 of a unit field over the kept columns
    assert rep.l2_norm == pytest.approx(np.sqrt(56 / 64))


def test_included_columns_mask(nf_deg_sin2):
    keep = included_columns(nf_deg_sin2, 64)
    assert not keep[:4].any() and not keep[-4:].any()
    assert keep[4:-4].all()


def test_included_columns_is_cached_on_the_field(nf_deg_sin2):
    # one read-only mask per field and n, which residual_report reads on
    # every solve; the residual is the same as from a fresh mask
    keep = included_columns(nf_deg_sin2, 48)
    assert included_columns(nf_deg_sin2, 48) is keep
    assert not keep.flags.writeable
    assert nf_deg_sin2._grids[("included_columns", 48)] is keep
    fresh = normalize(build_field("degenerate_sin2"))
    assert ("included_columns", 48) not in fresh._grids
    assert np.array_equal(included_columns(fresh, 48), keep)
    u = GridFunction.from_callable(48, lambda x, y: np.sin(2 * np.pi * y))
    lhs = apply_l_fd(nf_deg_sin2, u)
    rhs = GridFunction.zeros(48)
    r = (lhs.values - rhs.values)[:, keep]
    rep = residual_report(nf_deg_sin2, lhs, rhs)
    assert rep.sup_norm == float(np.abs(r).max())
    assert rep.excluded_fraction == float(1.0 - keep.mean())


def test_residual_report_validation(nf_elliptic):
    with pytest.raises(HypotorusError):
        residual_report(nf_elliptic, GridFunction.zeros(16),
                        GridFunction.zeros(32))
    with pytest.raises(HypotorusError):
        ResidualReport(sup_norm=-1.0, l2_norm=0.0, excluded_fraction=0.0,
                       n=16)
    with pytest.raises(HypotorusError):
        ResidualReport(sup_norm=0.0, l2_norm=0.0, excluded_fraction=1.0,
                       n=16)


def test_convergence_study(nf_elliptic):
    def case(n):
        u = GridFunction.from_callable(
            n, lambda x, y: np.sin(2 * np.pi * x) + 0j)
        want = GridFunction.from_callable(
            n, lambda x, y: nf_elliptic.b(x, y) * 2 * np.pi
            * np.cos(2 * np.pi * x))
        return residual_report(nf_elliptic, apply_l_fd(nf_elliptic, u), want)

    rows = convergence_study(case, [16, 32, 64])
    assert [r["n"] for r in rows] == [16, 32, 64]
    assert rows[0]["ratio"] is None
    assert rows[1]["ratio"] > 3.0 and rows[2]["ratio"] > 3.0
    with pytest.raises(HypotorusError):
        convergence_study(case, [8, 16])
    with pytest.raises(HypotorusError):
        convergence_study(case, [32, 16])
