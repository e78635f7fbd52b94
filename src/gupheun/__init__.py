"""Bound states of the attractive inverse-square potential with a minimal length.

The deformed radial problem is solved in terms of confluent Heun functions:
this package evaluates the physical branch on the negative real axis, locates
eigenvalues from the boundary condition at the edge of the physical range,
and compares them with the closed-form geometric tower of shallow levels.
Other names are imported from `gupheun.heun`, `.spectral`, `.radial` or `.specfun`.
"""

from .heun import CouplingConfig
from .radial import default_xi_grid, wavefunction
from .spectral import (
    closed_form_spectrum,
    compare_spectra,
    critical_coupling,
    exact_spectrum,
    spectral_scan,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingConfig",
    "closed_form_spectrum",
    "compare_spectra",
    "critical_coupling",
    "default_xi_grid",
    "exact_spectrum",
    "spectral_scan",
    "wavefunction",
]
