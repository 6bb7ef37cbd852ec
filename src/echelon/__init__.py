"""Exact-arithmetic linear algebra toolkit.

Computes reduced row echelon forms two independent ways: a left-to-right
column sweep that never touches a row, and classical Gauss-Jordan with a
replayable row-operation log. Over Q or GF(p), on top of it come the null
space as a graph over the free coordinates, column span and independence
tests, row equivalence by reduced forms, exact solving, and null_equal, a
null-space test by rank and one inclusion (M = M_K·R, M_K the keeper
columns) that the tests check row equivalence against and that decides
solution equivalence.
"""

from . import errors, gauche, matrices, nullspace, rowops, scalars, systems
from .errors import *
from .gauche import *
from .matrices import *
from .nullspace import *
from .rowops import *
from .scalars import *
from .systems import *

__version__ = "0.1.0"

# each module lists its public names once, in its own __all__
__all__: list[str] = []
__all__ += errors.__all__
__all__ += gauche.__all__
__all__ += matrices.__all__
__all__ += nullspace.__all__
__all__ += rowops.__all__
__all__ += scalars.__all__
__all__ += systems.__all__
