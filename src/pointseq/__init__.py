"""Point-cloud learning with multi-scale region sequences and attention.

The package is self-contained: geometry, the autodiff engine, the network,
training, data handling, and the command line live in the submodules re-
exported here.
"""

import os

# One BLAS thread unless the user chose otherwise: large dense stacks already
# run their tiles on every CPU (see autograd._each_tile), and OpenBLAS's own
# threads, which spin after each call, would compete with them. The variables
# only take effect if NumPy has not been loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from . import autograd, config, data, geometry, model, training  # noqa: E402
from .errors import ConfigError, DataError, ParseError, ShapeError  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "autograd",
    "config",
    "data",
    "geometry",
    "model",
    "training",
    "ConfigError",
    "DataError",
    "ParseError",
    "ShapeError",
    "__version__",
]
