"""Exact HOMFLY-PT polynomials of oriented links, their coefficient
polynomials, and exact verifiers for the identities relating them.

The package namespace is the public names of its modules: each module's
``__all__`` lists them once, and the package re-exports them all, with
the `catalog` module itself."""

from .laurent import *
from .links import *
from .skein import *
from .combinatorics import *
from .identities import *
from .report import *
from .rng import *
from . import catalog

__version__ = "0.1.0"

__all__ = (
    laurent.__all__
    + links.__all__
    + skein.__all__
    + combinatorics.__all__
    + identities.__all__
    + report.__all__
    + rng.__all__
    + ["catalog"]
)
