import pytest

from hypotorus.field import build_field, normalize
from hypotorus.kernel import kernel_context


@pytest.fixture(scope="session")
def nf_elliptic():
    return normalize(build_field("elliptic"))


@pytest.fixture(scope="session")
def nf_deg_sin2():
    return normalize(build_field("degenerate_sin2"))


@pytest.fixture(scope="session")
def nf_deg_2d():
    return normalize(build_field("degenerate_2d"))


@pytest.fixture(scope="session")
def nf_perturbed():
    return normalize(build_field("analytic_perturbed"))


# Contexts cache their operator in one array, which operator_matrix returns:
# the 2-D spectrum of the closed form for constant coefficients and its
# x-Fourier blocks for any other x-invariant field, at any n, the dense
# matrix of an x-dependent one up to n = 80.  The expensive ones are shared
# across the whole run.

@pytest.fixture(scope="session")
def ctx_elliptic_16(nf_elliptic):
    return kernel_context(nf_elliptic, 16)


@pytest.fixture(scope="session")
def ctx_elliptic_32(nf_elliptic):
    return kernel_context(nf_elliptic, 32)


@pytest.fixture(scope="session")
def ctx_elliptic_64(nf_elliptic):
    return kernel_context(nf_elliptic, 64)


@pytest.fixture(scope="session")
def ctx_deg_sin2_64(nf_deg_sin2):
    return kernel_context(nf_deg_sin2, 64)


@pytest.fixture(scope="session")
def ctx_deg_2d_64(nf_deg_2d):
    return kernel_context(nf_deg_2d, 64)
