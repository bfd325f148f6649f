"""Numerics for two-dimensional almost-Riemannian structures.

Metric calculus and curve length for Grushin-type frames, geodesic flow
and fronts, gauge-flattened mode spectra with self-adjointness
classification, regularized heat and Schrodinger evolution across the
singular line, and the Martinet mode decomposition.

`import arslab` loads the geometry layers (errors, frames, geodesics),
which need numpy only.  The names of spectral, evolution and martinet,
and those submodules and tridiag, resolve on first access, which imports
scipy.  So the CLI subcommands metric, geodesic and front never load
scipy, and spectrum, classify, martinet and evolve load it on first use.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each layer's __all__ (for errors, its exception classes) lists its names once
from .errors import *
from .frames import *
from .geodesics import *

# public name -> the submodule that defines it (a submodule maps to
# itself); __getattr__ imports it on first access
_LAZY = {
    "tridiag": "tridiag",
    "spectral": "spectral",
    **dict.fromkeys((
        "GaugePotential", "ModeOperator", "SelfAdjointnessReport", "SpectrumLine",
        "assemble_mode_operator", "classify_self_adjoint", "deficiency_index_numeric",
        "eigen_solve", "gauge_transform", "inverse_square_coefficient",
        "richardson_extrapolate", "spectrum_2d"), "spectral"),
    "evolution": "evolution",
    **dict.fromkeys((
        "EvolutionState", "Generator", "TransmissionReport",
        "assemble_generator", "eps_sweep", "gaussian_bump_state", "run_heat",
        "run_schrodinger", "transmission_study", "transmission_verdict",
        "transmitted_fraction"), "evolution"),
    "martinet": "martinet",
    **dict.fromkeys((
        "MartinetCoeffs", "MartinetModeResult", "martinet_laplacian_coeffs",
        "martinet_mode_solve", "mode_potential", "popp_density"), "martinet"),
}

# the eager names (errors, frames, geodesics and theirs), then the lazy ones
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    owner = _LAZY.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{owner}")
    value = module if owner == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
