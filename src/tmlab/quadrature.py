"""Reference-triangle quadrature used throughout assembly.

A single symmetric 6-point rule of polynomial degree 4 on the reference
triangle with vertices (0,0), (1,0), (0,1).  Degree 4 integrates exactly
every product that appears in the consistent mass matrix of piecewise-linear
elements with a piecewise-linearly interpolated weight, and it is the rule
all nonlinear integrals (functional values, load vectors, moments) are
defined with, so that discrete optimality conditions are *exactly* the
stationarity conditions of the discrete functional.
"""

from __future__ import annotations

import numpy as np

# Two symmetric orbits of three points each.  Barycentric coordinates
# (a, a, 1-2a) permuted cyclically; weights sum to 1 and are multiplied by
# the physical triangle area on use.
_A1 = 0.445948490915965
_W1 = 0.223381589678011
_A2 = 0.091576213509771
_W2 = 0.109951743655322

# Barycentric coordinates of the 6 points, shape (6, 3).  Column i is the
# weight of vertex i, so BARY @ vertex_values interpolates a P1 field.
BARY = np.array(
    [
        [_A1, _A1, 1.0 - 2.0 * _A1],
        [_A1, 1.0 - 2.0 * _A1, _A1],
        [1.0 - 2.0 * _A1, _A1, _A1],
        [_A2, _A2, 1.0 - 2.0 * _A2],
        [_A2, 1.0 - 2.0 * _A2, _A2],
        [1.0 - 2.0 * _A2, _A2, _A2],
    ]
)

# Weights (sum to 1; multiply by triangle area).
WEIGHTS = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

NQ = 6

