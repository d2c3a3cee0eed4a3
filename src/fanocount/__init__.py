"""fanocount: exact enumerative counts for hypersurfaces and complete
intersections containing linear subspaces or conics, and numerical invariants
of the Fano schemes of complete intersections.

Everything is computed over exact rationals; results are integers produced by
coefficient extraction from sparse symmetric polynomials or by torus
fixed-point sums, and the two routes cross-validate each other.
"""

from .errors import *
from .polycore import *
from .planes import *
from .invariants import *
from .conics import *

__version__ = "0.1.0"
