"""Shared session fixtures: the expensive default scans are computed once."""

import pytest

from gupheun import CouplingConfig, exact_spectrum, spectral_scan


@pytest.fixture(scope="session")
def scan_k2():
    """Default-resolution scan for kappa = 2, ell = 0."""
    return spectral_scan(CouplingConfig(kappa=2.0, ell=0), 1e-5, 0.45, 600, tol=1e-8)


@pytest.fixture(scope="session")
def roots_k2():
    return exact_spectrum(CouplingConfig(kappa=2.0, ell=0), 1e-5, 0.45, 600, tol=1e-8)


@pytest.fixture(scope="session")
def scan_k005():
    """Default-resolution scan for the weakly coupled kappa = 1/20."""
    return spectral_scan(CouplingConfig(kappa=0.05, ell=0), 1e-5, 0.45, 600, tol=1e-8)
