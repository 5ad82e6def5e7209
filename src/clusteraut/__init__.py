"""Exact engine for rank-2 cluster surface automorphisms.

Computes cluster variables of the recurrence y_{n-1} y_{n+1} = y_n^a + 1
(n even) / y_n^b + 1 (n odd), realizes the automorphisms of the associated
affine surface as explicit generator images, implements the abstract
automorphism group, and tracks the boundary geometry of the standard
compactifications in Picard-lattice form.
"""
from ._kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .budget import DEFAULT_MAX_TERMS, current_max_terms, limit
from .errors import *  # noqa: F401,F403
from .poly import LaurentPoly, Params, Y1, Y2, Y3, Y4
from .rings import ZZ, CoeffRing, root_surrogate

__version__ = "0.1.0"
