"""Pauli-string algebra and ladder operators on the binary encoding.

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

_PROD = {
    ("I", "I"): (1.0, "I"),
    ("I", "X"): (1.0, "X"),
    ("I", "Y"): (1.0, "Y"),
    ("I", "Z"): (1.0, "Z"),
    ("X", "I"): (1.0, "X"),
    ("Y", "I"): (1.0, "Y"),
    ("Z", "I"): (1.0, "Z"),
    ("X", "X"): (1.0, "I"),
    ("Y", "Y"): (1.0, "I"),
    ("Z", "Z"): (1.0, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}

_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1j], [1j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class PauliWord:
    """One tensor-product term: complex coefficient and letter string."""

    coeff: complex
    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in _LETTERS for c in self.letters):
            raise ValueError(f"bad letter string {self.letters!r}")

    @property
    def nqubits(self):
        return len(self.letters)

    @property
    def weight(self):
        return sum(1 for ch in self.letters if ch != "I")

    def dump(self):
        c = complex(self.coeff)
        return f"{c.real:.17g} {c.imag:.17g} {self.letters}"


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
        """Inverse of `to_dense`: c_P = tr(P M) / 2^k for every word P.

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

    @classmethod
    def zero(cls, nqubits):
        return cls(nqubits=nqubits, terms=())

    @property
    def words(self):
        return tuple(PauliWord(coeff=c, letters=s) for s, c in self.terms)

    def _check(self, other):
        if self.nqubits != other.nqubits:
            raise DimMismatch(
                f"qubit counts differ: {self.nqubits} vs {other.nqubits}"
            )

    def __add__(self, other):
        self._check(other)
        return PauliSum.from_terms(
            self.nqubits, list(self.terms) + list(other.terms)
        )

    def __sub__(self, other):
        return self + other * (-1.0)

    def __mul__(self, scalar):
        return PauliSum.from_terms(
            self.nqubits, [(s, c * scalar) for s, c in self.terms]
        )

    __rmul__ = __mul__

    def __matmul__(self, other):
        self._check(other)
        raw = []
        for s1, c1 in self.terms:
            for s2, c2 in other.terms:
                phase = c1 * c2
                letters = []
                for a, b in zip(s1, s2):
                    ph, letter = _PROD[(a, b)]
                    phase *= ph
                    letters.append(letter)
                raw.append(("".join(letters), phase))
        return PauliSum.from_terms(self.nqubits, raw)

    def dagger(self):
        return PauliSum.from_terms(
            self.nqubits, [(s, c.conjugate()) for s, c in self.terms]
        )

    def to_dense(self):
        return pauli_to_dense(self)

    def dump(self):
        """One term per line: coefficient real part, imaginary part,
        letter string."""
        return "\n".join(w.dump() for w in self.words)


def term_stats(ps):
    """(term count, max weight, l1 norm of coefficients)."""
    max_weight = max((w.weight for w in ps.words), default=0)
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


def sigma_plus():
    """(X + iY)/2, the matrix unit mapping level 1 to level 0."""
    return PauliSum.from_terms(1, [("X", 0.5), ("Y", 0.5j)])


def sigma_minus():
    """(X - iY)/2, the matrix unit mapping level 0 to level 1."""
    return PauliSum.from_terms(1, [("X", 0.5), ("Y", -0.5j)])


def a_pauli(cfg):
    """Lowering operator as a Pauli sum on cfg.qubits qubits."""
    return PauliSum.from_dense(fock.a_matrix(cfg))


def q_pauli(cfg):
    return PauliSum.from_dense(fock.q_matrix(cfg))


def p_pauli(cfg):
    return PauliSum.from_dense(fock.p_matrix(cfg))


def compile_number(cfg):
    """Number operator: diagonal, so a sum of {I, Z} words."""
    return PauliSum.from_dense(fock.number_matrix(cfg))
