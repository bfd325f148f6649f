"""Numerics for two-dimensional almost-Riemannian structures.

Metric calculus and curve length for Grushin-type frames, geodesic flow
and fronts, gauge-flattened mode spectra with self-adjointness
classification, regularized heat and Schrodinger evolution across the
singular line, and the Martinet mode decomposition.

`import arslab` loads and exports the geometry layers (errors, frames,
geodesics), which need numpy only.  The layers that need scipy are
plain submodules, imported by name: `from arslab.spectral import
spectrum_2d`, `import arslab.evolution`, `arslab.martinet` and
`arslab.tridiag`.  So the CLI subcommands metric, geodesic and front
never load scipy, and spectrum, classify, martinet and evolve load it
when they run.
"""

__version__ = "0.1.0"

# each layer's __all__ (for errors, its exception classes) lists its names once
from .errors import *
from .frames import *
from .geodesics import *

__all__ = [name for name in globals() if not name.startswith("_")]
