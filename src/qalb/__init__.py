"""Quantum-register lattice Boltzmann toolkit.

Classical relaxation references, Carleman linearization of the collision
nonlinearity, truncated bosonic registers with Pauli compilation, the
encoded collision engine, the march and checks that any register shares,
streaming as controlled binary increments, closed-form truncation-error
bounds, and resource estimates, plus the `qalb` command-line driver.
"""

__version__ = "0.1.0"

from . import (
    bounds,
    carleman,
    classical,
    complexity,
    engine,
    errors,
    fock,
    lattice,
    linalg,
    march,
    pauli,
    streaming,
)

__all__ = [
    "__version__",
    "bounds",
    "carleman",
    "classical",
    "complexity",
    "engine",
    "errors",
    "fock",
    "lattice",
    "linalg",
    "march",
    "pauli",
    "streaming",
]
