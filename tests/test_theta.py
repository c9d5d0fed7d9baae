import mpmath
import numpy as np
import pytest

from hypotorus.core import HypotorusError, reduced_lattice_distance
from hypotorus.theta import (PoleProximityError, closed_form_terms,
                             kernel_x_fourier, pole_offset, theta_context,
                             theta_eval, theta_log_deriv, theta_log_deriv_raw,
                             truncation_terms)

TAUS = (1j, 0.5j, 0.3 + 0.8j)


def mp_theta(z, tau):
    # classical third theta function; mpmath's jtheta uses nome q = e^{i pi tau}
    q = mpmath.exp(1j * mpmath.pi * tau)
    v = mpmath.jtheta(3, mpmath.pi * complex(z), q)
    return complex(v)


def test_truncation_terms_frozen():
    assert truncation_terms(1j, 1e-14) == 5
    assert truncation_terms(1j, 1e-4) == 4
    assert truncation_terms(0.5j, 1e-14) == 6
    assert closed_form_terms(1j, 1e-14) == 10
    assert truncation_terms(1j, 1e-14) <= closed_form_terms(1j, 1e-14)


def test_theta_frozen_values():
    ctx = theta_context(1j)
    assert theta_eval(ctx, 0.0) == pytest.approx(1.0864348112133080146,
                                                 rel=1e-14)
    v = theta_eval(ctx, 0.31 + 0.17j)
    assert v == pytest.approx(0.948219359603417576 - 0.103092958290867719j,
                              rel=1e-13)
    ctx2 = theta_context(0.3 + 0.8j)
    v2 = theta_eval(ctx2, 0.31 + 0.17j)
    assert v2 == pytest.approx(1.09970321294207361 - 0.192138698114792723j,
                               rel=1e-13)


def mp_log_deriv_at_offset(e, tau):
    # Theta'/Theta at the exact zero (1 + tau)/2 plus the offset e as given
    q = mpmath.exp(1j * mpmath.pi * tau)
    z = mpmath.pi * ((1 + mpmath.mpc(tau)) / 2 + mpmath.mpc(complex(e)))
    return complex(mpmath.pi * mpmath.jtheta(3, z, q, 1)
                   / mpmath.jtheta(3, z, q))


def cell_offsets(rng, tau, size):
    # offsets from the zero with lattice coordinates in [-1/2, 1/2)
    return (rng.uniform(-0.5, 0.5, size)
            + rng.uniform(-0.5, 0.5, size) * tau)


def test_log_deriv_matches_mpmath():
    # 300 uniform offsets e of the lattice cell around the zero and 200 at
    # distance 1e-8 to 1e-1 from it.  K ~ 1/e there, and the rounding of
    # Theta near its zero makes the relative error of K grow like
    # eps / dist, so the bound is |K - K_mp| * dist <= 4e-15 / dist.
    # Measured: 8.3e-16 / dist for the Horner series, 9.1e-16 / dist for
    # the ratio recurrence it replaced.
    rng = np.random.default_rng(5)
    with mpmath.workdps(30):
        for tau in TAUS:
            ctx = theta_context(tau)
            r = 10.0 ** rng.uniform(-8, -1, 200)
            e = np.concatenate([
                cell_offsets(rng, tau, 300),
                r * np.exp(2j * np.pi * rng.uniform(0, 1, 200))])
            got = theta_log_deriv_raw(ctx, e, 0)
            want = np.array([mp_log_deriv_at_offset(v, tau) for v in e])
            dist = reduced_lattice_distance(e, tau)
            assert np.all(np.abs(got - want) * dist <= 4e-15 / dist)


def test_log_deriv_inside_laurent_disc_is_relative_exact():
    # 200 offsets at 1e-8 <= |e| < R/4, where theta_log_deriv_raw sums the
    # pole's Laurent series.  The theta series quotient loses about
    # eps / |e| of relative accuracy there (2.8e-11 at 1e-6).  The Laurent
    # series reads e as the offset from the exact zero, so the reference
    # is the log-derivative at the exact zero (1 + tau)/2 plus e.
    rng = np.random.default_rng(11)
    with mpmath.workdps(30):
        for tau in TAUS:
            ctx = theta_context(tau)
            r = np.exp(rng.uniform(np.log(1e-8), np.log(ctx.pole_radius / 4),
                                   200))
            e = r * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
            got = theta_log_deriv_raw(ctx, e, 0)
            want = np.array([mp_log_deriv_at_offset(v, tau) for v in e])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_log_deriv_takes_offsets_finer_than_the_zero_point():
    # 1e-14 <= |e| <= 1e-8: z0 + e as a float would keep only the bits of
    # e above the last place of z0 (about 1.1e-16), some 2 to 8 digits, yet
    # the offset itself is valued to full relative accuracy
    rng = np.random.default_rng(13)
    with mpmath.workdps(40):
        for tau in TAUS:
            ctx = theta_context(tau)
            r = 10.0 ** rng.uniform(-14, -8, 100)
            e = r * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
            got = theta_log_deriv_raw(ctx, e, 0)
            want = np.array([mp_log_deriv_at_offset(v, tau) for v in e])
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


def test_kernel_x_fourier_matches_fft():
    # K(t + w) = sum_k C_k exp(2 pi i k (t + w)) along a line between the
    # pole lines: the FFT of 64 kernel values along it gives C_k exp(2 pi i
    # k w), above the real axis and below it
    t = np.arange(64) / 64
    k = np.arange(-6, 7)
    for tau in TAUS:
        ctx = theta_context(tau)
        above, below = kernel_x_fourier(ctx, k)
        for share, coef in ((0.3, above), (0.7, above), (-0.4, below)):
            w = 0.1 + 1j * share * tau.imag
            vals = theta_log_deriv_raw(ctx, *pole_offset(ctx, t + w))
            got = np.fft.fft(vals)[k % 64] / 64
            want = coef * np.exp(2j * np.pi * k * w)
            assert np.max(np.abs(got - want)) <= 1e-14


def test_kernel_x_fourier_shift_law():
    # K(w + tau) = K(w) - 2 pi i: below = above q_k with q_k = exp(2 pi i k
    # tau), and below - above = 2 pi i at k = 0; no coefficient overflows
    # where q_k underflows
    k = np.arange(-300, 301)
    for tau in TAUS + (1.5j,):
        above, below = kernel_x_fourier(theta_context(tau), k)
        assert np.all(np.isfinite(above)) and np.all(np.isfinite(below))
        small = (np.abs(k) <= 6) & (k != 0)
        q = np.exp(2j * np.pi * k[small] * tau)
        assert np.allclose(below[small], above[small] * q, rtol=1e-13,
                           atol=0.0)
        assert below[k == 0] - above[k == 0] == 2j * np.pi


def test_theta_matches_mpmath():
    rng = np.random.default_rng(42)
    for tau in TAUS:
        ctx = theta_context(tau)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert theta_eval(ctx, z) == pytest.approx(mp_theta(z, tau),
                                                       rel=1e-12, abs=1e-12)


def test_period_law():
    rng = np.random.default_rng(0)
    for tau in TAUS:
        ctx = theta_context(tau)
        z = rng.uniform(-2, 2, 50) + 1j * rng.uniform(-2, 2, 50)
        dev = np.abs(theta_eval(ctx, z + 1) - theta_eval(ctx, z))
        assert dev.max() < 1e-10


def test_tau_quasi_period_law():
    rng = np.random.default_rng(1)
    for tau in TAUS:
        ctx = theta_context(tau)
        z = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
        lhs = theta_eval(ctx, z + tau)
        rhs = np.exp(-1j * np.pi * tau - 2j * np.pi * z) * theta_eval(ctx, z)
        assert (np.abs(lhs - rhs) / np.abs(rhs)).max() < 1e-9


def test_zero_at_half_sum_of_periods():
    for tau in TAUS:
        ctx = theta_context(tau)
        z0 = (1 + tau) / 2
        assert abs(theta_eval(ctx, z0)) < 1e-10


def test_nonvanishing_away_from_zero_lattice():
    rng = np.random.default_rng(3)
    ctx = theta_context(1j)
    z0 = (1 + 1j) / 2
    count = 0
    while count < 1000:
        z = complex(rng.uniform(0, 1) + 1j * rng.uniform(0, 1))
        if abs(z - z0) > 0.05:
            assert abs(theta_eval(ctx, z)) > 0
            count += 1


def test_log_deriv_lattice_shift_is_exact():
    ctx = theta_context(0.5j)
    z = 0.37 + 0.21j
    base = theta_log_deriv(ctx, z)
    for j, k in ((1, 0), (-1, 2), (3, -1)):
        shifted = theta_log_deriv(ctx, z + j + k * 0.5j)
        assert shifted == pytest.approx(base - 2j * np.pi * k, rel=1e-12)


def test_log_deriv_guard_near_pole():
    ctx = theta_context(1j)
    z0 = (1 + 1j) / 2
    # perturb well inside the 1e-13 guard radius: exactly 1e-13 lands on
    # the boundary after rounding and the comparison is strict
    with pytest.raises(PoleProximityError):
        theta_log_deriv(ctx, z0 + 1e-14)
    # the raw variant is the quadrature workhorse and stays unguarded
    v = theta_log_deriv_raw(ctx, np.array([1e-4]), k=0)
    assert np.isfinite(v).all()


def test_context_validation():
    with pytest.raises(HypotorusError):
        theta_context(1.0 + 0j)


def test_simple_pole_residue_of_log_deriv():
    # near z0 the logarithmic derivative behaves like 1/(z - z0)
    ctx = theta_context(1j)
    z0 = (1 + 1j) / 2
    for eps in (1e-3, 1e-3j, -7e-4 + 5e-4j):
        v = theta_log_deriv(ctx, z0 + eps)
        assert v * eps == pytest.approx(1.0, abs=5e-3)
