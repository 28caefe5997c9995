"""Pauli-string algebra and ladder operators on the binary encoding.

Letters are written most significant qubit first, so qubit 0 is the
leftmost letter and carries the highest place value of the level index.
Sums are kept canonical: terms sorted by letter string, coefficients
merged, negligible terms dropped.
"""

from dataclasses import dataclass
from itertools import product
from math import sqrt

import numpy as np

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
    def from_words(cls, nqubits, words):
        return cls.from_terms(nqubits, [(w.letters, w.coeff) for w in words])

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

    def canonical(self):
        return PauliSum.from_terms(self.nqubits, list(self.terms))

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


def _fwht(v):
    v = v.copy()
    n = len(v)
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            for k in range(i, i + h):
                x, y = v[k], v[k + h]
                v[k] = x + y
                v[k + h] = x - y
        h *= 2
    return v


def a_pauli(cfg):
    """Lowering operator as a Pauli sum on cfg.qubits qubits.

    Decrementing the level index clears the last set bit (qubit j) and
    sets every lower-place bit behind it; the sqrt(n) amplitude depends
    only on the bits ahead of j, so it enters as a diagonal factor that is
    expanded exactly over {I, Z} strings by a Walsh-Hadamard transform.
    """
    qc = cfg.qubits
    raw = []
    for j in range(qc):
        npts = 2 ** j
        values = np.array(
            [
                sqrt(2.0 ** (qc - 1 - j) + 2.0 ** (qc - j) * idx)
                for idx in range(npts)
            ]
        )
        coeffs = _fwht(values) / npts
        tail_options = []
        tail_options.append((("X", 0.5), ("Y", 0.5j)))  # qubit j: |0><1|
        for _ in range(j + 1, qc):
            tail_options.append((("X", 0.5), ("Y", -0.5j)))  # |1><0|
        for w in range(npts):
            head = "".join(
                "Z" if (w >> (j - 1 - k)) & 1 else "I" for k in range(j)
            )
            base = coeffs[w]
            if base == 0.0:
                continue
            for picks in product(*tail_options):
                letters = head + "".join(p[0] for p in picks)
                coeff = base
                for p in picks:
                    coeff *= p[1]
                raw.append((letters, coeff))
    return PauliSum.from_terms(qc, raw)


def q_pauli(cfg):
    a = a_pauli(cfg)
    return (a + a.dagger()) * (1.0 / sqrt(2.0))


def p_pauli(cfg):
    a = a_pauli(cfg)
    return (a.dagger() - a) * (1j / sqrt(2.0))


def compile_ladder(cfg):
    """(a, a^dag) as canonical Pauli sums."""
    a = a_pauli(cfg)
    return a, a.dagger()


def compile_qp(cfg):
    """(q, p) as canonical Pauli sums."""
    return q_pauli(cfg), p_pauli(cfg)


def compile_number(cfg):
    """Number operator: the level index read off the qubits in place value,
    n = sum_k 2^(qc-1-k) (I - Z_k)/2."""
    qc = cfg.qubits
    raw = [("I" * qc, (2.0 ** qc - 1.0) / 2.0)]
    for k in range(qc):
        letters = "".join("Z" if j == k else "I" for j in range(qc))
        raw.append((letters, -(2.0 ** (qc - 1 - k)) / 2.0))
    return PauliSum.from_terms(qc, raw)
