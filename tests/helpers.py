"""Functions that only tests call, kept out of the package's API."""

import os

from hypotorus.core import as_point
from hypotorus.kernel import KernelContext
from hypotorus.theta import theta_log_deriv


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


def use_cpus(monkeypatch, count: int) -> None:
    """Make the process look as if its CPU affinity held count CPUs, which
    sets how many threads an operator build runs its row blocks on."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)
