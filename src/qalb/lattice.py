"""Velocity sets and weights of the supported lattices.

Models are built from the one-dimensional stencil (0, -1, +1) with weights
(2/3, 1/6, 1/6); higher dimensions are tensor products.  Ordering is always
rest velocity first, then remaining velocities lexicographically.  All
quantities are assembled in exact rational arithmetic and exported as float
arrays, so the sum rules hold to the last bit.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

CS2 = Fraction(1, 3)

_W1D = {0: Fraction(2, 3), -1: Fraction(1, 6), 1: Fraction(1, 6)}

# the one table of supported lattices: name -> dimension D, with Q = 3^D
_NAMES = {"D1Q3": 1, "D2Q9": 2, "D3Q27": 3}


def _weight(v):
    """Product of the one-dimensional weights of the components of v."""
    return prod((_W1D[int(c)] for c in v), start=Fraction(1))


@dataclass(frozen=True)
class Lattice:
    name: str
    D: int
    Q: int
    velocities: np.ndarray  # (Q, D) int
    weights: np.ndarray  # (Q,) float
    cs2: float


def build_lattice(name):
    if name not in _NAMES:
        raise ValueError(f"unknown lattice {name!r}; choose from {sorted(_NAMES)}")
    D = _NAMES[name]
    rest = (0,) * D
    others = sorted(v for v in product((-1, 0, 1), repeat=D) if v != rest)
    vels = [rest] + others
    return Lattice(
        name=name,
        D=D,
        Q=len(vels),
        velocities=np.array(vels, dtype=np.int64),
        weights=np.array([float(_weight(v)) for v in vels]),
        cs2=float(CS2),
    )
