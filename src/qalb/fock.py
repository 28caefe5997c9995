"""Truncated bosonic register: ladder matrices, value encoding, spectra.

One mode is stored on `qubits` qubits, giving levels 0..N with
N = 2**qubits - 1.  The lowering operator keeps sqrt(n) on the
superdiagonal (row n-1, column n), so q = (a + a^dag)/sqrt(2) and
p = i (a^dag - a)/sqrt(2) reproduce the canonical pair up to the single
truncation defect in the top corner.  Values are encoded through the
normalized Hermite sequence h_n = He_n / sqrt(n!), which `bounds` reads
for the truncation defect as well.  The spectrum of q comes from
LAPACK's symmetric eigensolver; its eigenvectors have the closed form
h_n(sqrt(2) lam), which the tests keep as an independent check.
"""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import OutOfRange, TooLarge

_MAX_QUBITS_DENSE = 12


@dataclass(frozen=True)
class FockConfig:
    qubits: int

    def __post_init__(self):
        if self.qubits < 1:
            raise ValueError(f"qubits must be >= 1, got {self.qubits}")
        if self.qubits > _MAX_QUBITS_DENSE:
            raise TooLarge(
                f"{self.qubits} qubits per mode exceeds {_MAX_QUBITS_DENSE}"
            )

    @property
    def levels(self):
        return 2 ** self.qubits

    @property
    def N(self):
        return self.levels - 1


def a_matrix(cfg):
    """Lowering operator: a[n-1, n] = sqrt(n)."""
    n = cfg.levels
    a = np.zeros((n, n))
    for k in range(1, n):
        a[k - 1, k] = sqrt(k)
    return a


def number_matrix(cfg):
    return np.diag(np.arange(cfg.levels, dtype=float))


def q_matrix(cfg):
    a = a_matrix(cfg)
    return (a + a.T) / sqrt(2.0)


def P_matrix(cfg):
    """The real matrix P = (a^T - a)/sqrt(2) of p = iP."""
    a = a_matrix(cfg)
    return (a.T - a) / sqrt(2.0)


def p_matrix(cfg):
    return 1j * P_matrix(cfg)


def normalized_he(n, x):
    """h_0..h_n at x, h_k = He_k / sqrt(k!) with He_k the probabilists'
    Hermite polynomial, stacked on a new leading axis.

    From h_{k+1} = (x h_k - sqrt(k) h_{k-1}) / sqrt(k + 1): dividing at
    every step keeps the values O(1) on the encodable range, where He_k
    and k! alone overflow past k = 170.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = x
    for k in range(1, n):
        out[k + 1] = (x * out[k] - sqrt(k) * out[k - 1]) / sqrt(k + 1)
    return out


def encode_value(f, cfg):
    """Normalized truncated position eigenstate carrying the value f.

    Amplitudes are proportional to h_n(sqrt(2) f) = He_n(sqrt(2) f) /
    sqrt(n!), which stay finite at every register size; the state
    satisfies q psi = f psi on all rows except the last, and the amplitude
    ratio psi_1/psi_0 equals sqrt(2) f to within one rounding.
    """
    if not -1.0 <= f <= 1.0:
        raise OutOfRange(f"encoded value must lie in [-1, 1], got {f}")
    amp = normalized_he(cfg.N, sqrt(2.0) * float(f))
    return amp / np.linalg.norm(amp)


def ratio_decode(amps):
    """Encoded values read back from amplitude ratios: amps[..., 1:] over
    the ground amplitude amps[..., :1], over sqrt(2), the inverse of
    encode_value's psi_1/psi_0 = sqrt(2) f.  NaN where the ground amplitude
    is exactly zero; complex amplitudes give complex values.
    """
    amps = np.asarray(amps)
    ground = amps[..., :1]
    vals = np.full(amps[..., 1:].shape, np.nan, np.result_type(amps, float))
    np.divide(amps[..., 1:], ground, out=vals, where=ground != 0.0)
    return vals / sqrt(2.0)


def q_eigensystem(cfg):
    """All eigenpairs of the truncated q: ascending eigenvalues and
    orthonormal eigenvector columns, from LAPACK's symmetric solver.

    Column k is h_n(sqrt(2) lam_k) normalized, up to sign: the same
    normalized Hermite sequence as the value encoding.
    """
    return np.linalg.eigh(q_matrix(cfg))
