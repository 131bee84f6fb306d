"""Exact total-positivity toolkit: planar networks, minor scans, and the
general-position certificates for the three-block polynomial family."""

from __future__ import annotations

__version__ = "1.0.0"

# Each submodule's __all__ is the one list of what it exports.
from .errors import *
from .scalars import *
from .matrices import *
from .poly import *
from .networks import *
from .three_section import *
from .families import *
from .surface import *
from . import errors, families, matrices, networks, poly, scalars, surface, three_section

__all__ = [
    "__version__",
    *errors.__all__,
    *scalars.__all__,
    *matrices.__all__,
    *poly.__all__,
    *networks.__all__,
    *three_section.__all__,
    *families.__all__,
    *surface.__all__,
]
