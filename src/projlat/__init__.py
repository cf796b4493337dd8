"""Projection lattices of finite-dimensional operator algebras.

The package works on direct sums of full complex matrix algebras.  It
computes the lattice operations on projections, the two-projection
canonical form, LS-orthogonality, graph projections over a frame of
order k, and the coordinatization pipeline that turns a projection
lattice isomorphism into the ring isomorphism inducing it, together
with the orthogonality-preserving extension and the inner factorization
of ring isomorphisms.
"""

from . import coordinatize, core, errors, graphs, halmos, lattice
from . import maps, report, ringiso, sampling, serialize, suite

__version__ = "0.1.0"

# Each module's __all__ is the one declaration of its public names.  It
# is read here, before the star imports rebind coordinatize to the
# function of that name.
__all__ = [
    *coordinatize.__all__,
    *core.__all__,
    *errors.__all__,
    *graphs.__all__,
    *halmos.__all__,
    *lattice.__all__,
    *maps.__all__,
    *report.__all__,
    *ringiso.__all__,
    *sampling.__all__,
    *serialize.__all__,
    *suite.__all__,
]

from .coordinatize import *
from .core import *
from .errors import *
from .graphs import *
from .halmos import *
from .lattice import *
from .maps import *
from .report import *
from .ringiso import *
from .sampling import *
from .serialize import *
from .suite import *
