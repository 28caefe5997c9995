"""Velocity sets, weights, and mode-coupling tensors.

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

    def weight_fractions(self):
        return tuple(_weight(v) for v in self.velocities)


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


@dataclass(frozen=True)
class ModeCoupling:
    """Linear and quadratic collision tensors of a lattice."""

    L: np.ndarray  # (Q, Q)
    Qt: np.ndarray  # (Q, Q, Q)

    def equilibrium(self, f):
        f = np.asarray(f, dtype=float)
        return self.L @ f + np.einsum("ijk,j,k->i", self.Qt, f, f)


def mode_coupling(model):
    """Build L_ij = w_i (1 + c_i.c_j / cs2) and
    Qt_ijk = w_i (c_i.c_i - D cs2) (c_j.c_k) / (2 cs2^2).

    The quadratic trace coefficient keeps sum_i w_i (c_i.c_i - D cs2) = 0,
    so the columns of L sum to one and Qt sums to zero over its first index.
    Since sum_j c_j = 0, the rows of L sum to Q w_i, not to one.  Qt is the
    trace closure, equal to the BGK equilibrium only on D1Q3.
    """
    # entries depend on (j, k) only through the integer c_j.c_k in -D..D,
    # so each (i, c_j.c_k) pair is rounded from its rational exactly once
    wfr = model.weight_fractions()
    c = model.velocities
    D = model.D
    dots = [Fraction(v) for v in range(-D, D + 1)]
    Ltab = np.array([[float(w * (1 + v / CS2)) for v in dots] for w in wfr])
    trace = [
        w * (int(ci @ ci) - D * CS2) / (2 * CS2 ** 2) for w, ci in zip(wfr, c)
    ]
    Qtab = np.array([[float(t * v) for v in dots] for t in trace])
    gram = c @ c.T + D  # column index of c_j.c_k in the tables
    L = np.take_along_axis(Ltab, gram, axis=1)
    return ModeCoupling(L=L, Qt=Qtab[:, gram])
