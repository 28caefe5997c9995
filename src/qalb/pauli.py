"""One-mode operators compiled into Pauli words on the binary encoding.

Letters are written most significant qubit first, so qubit 0 is the
leftmost letter and carries the highest place value of the level index.
Sums are kept canonical: terms sorted by letter string, coefficients
merged, negligible terms dropped.  Every one-mode operator is compiled
the same way: its dense `fock` matrix goes through one dense-to-Pauli
transform, `PauliSum.from_dense`.
"""

from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import DimMismatch, TooLarge

_MAX_DENSE_QUBITS = 14

_DROP_TOL = 1e-12

_LETTERS = ("I", "X", "Y", "Z")

_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _canonical(nqubits, raw):
    merged = {}
    for letters, coeff in raw:
        if len(letters) != nqubits or any(c not in _LETTERS for c in letters):
            raise ValueError(f"bad letter string {letters!r}")
        merged[letters] = merged.get(letters, 0.0) + complex(coeff)
    kept = sorted(
        (s, c) for s, c in merged.items() if abs(c) > _DROP_TOL
    )
    return tuple(kept)


@dataclass(frozen=True)
class PauliSum:
    nqubits: int
    terms: tuple  # ((letters, coeff), ...), canonical

    @classmethod
    def from_terms(cls, nqubits, raw):
        return cls(nqubits=nqubits, terms=_canonical(nqubits, raw))

    @classmethod
    def from_dense(cls, M):
        """Inverse of `pauli_to_dense`: c_P = tr(P M) / 2^k for every word P.

        Written as P = i^|x&z| X^x Z^z (bit j of x and z set where qubit j
        carries X or Z, both where it carries Y), tr(P M) = i^|x&z|
        sum_r (-1)^(z.r) M[r, r^x], so one Walsh-Hadamard transform over r
        of the shifted diagonal M[r, r^x] gives every coefficient sharing
        that x.
        """
        shape = np.shape(M)
        n = shape[0] if len(shape) == 2 and shape[0] == shape[1] else 0
        if n < 2 or n & (n - 1):
            raise DimMismatch(f"expected a 2^k x 2^k matrix, k >= 1: {shape}")
        k = n.bit_length() - 1
        if k > _MAX_DENSE_QUBITS:
            raise TooLarge(
                f"{k} qubits exceed dense limit {_MAX_DENSE_QUBITS}"
            )
        r = np.arange(n)
        w = np.asarray(M)[r, r ^ r[:, None]]  # w[x, r] = M[r, r^x]
        h = 1
        while h < n:  # butterflies on the bit of place value h
            w = w.reshape(n, -1, 2, h)
            w = np.stack((w[:, :, 0] + w[:, :, 1], w[:, :, 0] - w[:, :, 1]), 2)
            h *= 2
        ones = np.bitwise_count(r[:, None] & r) % 4  # |x&z| mod 4
        coeff = np.array([1, 1j, -1, -1j])[ones] * w.reshape(n, n) / n
        places = [n >> (j + 1) for j in range(k)]  # qubit j's place value
        raw = []
        for x, z in zip(*np.nonzero(np.abs(coeff) > _DROP_TOL)):
            letters = "".join(
                "IZXY"[2 * bool(x & v) + bool(z & v)] for v in places
            )
            raw.append((letters, coeff[x, z]))
        return cls.from_terms(k, raw)

    def dagger(self):
        return PauliSum.from_terms(
            self.nqubits, [(s, c.conjugate()) for s, c in self.terms]
        )


def term_stats(ps):
    """(term count, max weight, l1 norm of coefficients)."""
    max_weight = max(
        (len(letters) - letters.count("I") for letters, _ in ps.terms),
        default=0,
    )
    l1 = float(sum(abs(c) for _, c in ps.terms))
    return len(ps.terms), max_weight, l1


def pauli_to_dense(ps):
    if ps.nqubits > _MAX_DENSE_QUBITS:
        raise TooLarge(
            f"{ps.nqubits} qubits exceed dense limit {_MAX_DENSE_QUBITS}"
        )
    dim = 2 ** ps.nqubits
    out = np.zeros((dim, dim), dtype=complex)
    for letters, coeff in ps.terms:
        m = np.array([[1.0 + 0j]])
        for ch in letters:
            m = np.kron(m, _DENSE[ch])
        out += coeff * m
    return out


def a_pauli(cfg):
    """Lowering operator as a Pauli sum on cfg.qubits qubits."""
    return PauliSum.from_dense(fock.a_matrix(cfg))


def q_pauli(cfg):
    return PauliSum.from_dense(fock.q_matrix(cfg))


def p_pauli(cfg):
    return PauliSum.from_dense(fock.p_matrix(cfg))

