"""Truncated oscillator algebra and value encoding."""

import numpy as np
import pytest

from qalb import fock
from qalb.errors import DimMismatch, OutOfRange, TooLarge
from qalb.fock import normalized_he

import oracles


def test_config_levels_and_guards():
    assert fock.FockConfig(3).levels == 8
    with pytest.raises(ValueError):
        fock.FockConfig(0)
    with pytest.raises(TooLarge):
        fock.FockConfig(13)


def test_ladder_action():
    cfg = fock.FockConfig(2)
    a = fock.a_matrix(cfg)
    adag = a.T
    for n in range(1, 4):
        e = np.zeros(4)
        e[n] = 1.0
        assert np.max(np.abs(a @ e - np.sqrt(n) * _basis(4, n - 1))) < 1e-15
    for n in range(3):
        e = np.zeros(4)
        e[n] = 1.0
        assert np.max(np.abs(adag @ e - np.sqrt(n + 1) * _basis(4, n + 1))) < 1e-15
    lo, hi = oracles.zero_vectors(cfg)
    assert np.all(a @ lo == 0.0)
    assert np.all(adag @ hi == 0.0)


def _basis(n, k):
    e = np.zeros(n)
    e[k] = 1.0
    return e


def test_number_operator():
    cfg = fock.FockConfig(3)
    a = fock.a_matrix(cfg)
    adag = a.T
    n_op = fock.number_matrix(cfg)
    assert np.max(np.abs(n_op - adag @ a)) < 1e-14
    assert np.array_equal(np.diag(n_op), np.arange(8.0))


def test_commutator_truncation_defect():
    # [q, p] = i (I - (N+1) |N><N|) under truncation
    for qubits in (1, 2, 3):
        cfg = fock.FockConfig(qubits)
        q, p = fock.q_matrix(cfg), fock.p_matrix(cfg)
        assert np.max(np.abs(q - q.conj().T)) < 1e-15
        assert np.max(np.abs(p - p.conj().T)) < 1e-15
        want = np.eye(cfg.levels, dtype=complex)
        want[-1, -1] -= cfg.levels
        assert np.max(np.abs(oracles.commutator(q, p) - 1j * want)) < 1e-14


def test_commutator_guards():
    with pytest.raises(DimMismatch):
        oracles.commutator(np.zeros((2, 3)), np.zeros((3, 3)))
    with pytest.raises(DimMismatch):
        oracles.commutator(np.eye(2), np.eye(4))


def test_encode_ratio_and_roundtrip():
    cfg = fock.FockConfig(3)
    for f in (-1.0, -0.3, 0.0, 0.17, 0.99):
        psi = fock.encode_value(f, cfg)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        assert abs(psi[1] / psi[0] - np.sqrt(2.0) * f) < 1e-13
        (value,) = fock.ratio_decode(psi[:2])
        assert abs(value - f) < 1e-13
        assert np.imag(value) == 0.0
    with pytest.raises(OutOfRange):
        fock.encode_value(1.5, cfg)


def test_encoded_state_is_truncated_eigenstate():
    cfg = fock.FockConfig(3)
    q = fock.q_matrix(cfg)
    f = 0.42
    psi = fock.encode_value(f, cfg)
    defect = q @ psi - f * psi
    assert np.max(np.abs(defect[:-1])) < 1e-12  # exact except the top row


def test_decode_guard():
    # a zero ground amplitude decodes to NaN, never to a number
    assert np.isnan(fock.ratio_decode(np.array([0.0, 1.0]))).all()
    vals = fock.ratio_decode(np.array([[0.0, 1.0, 2.0], [1.0, 0.5, -1.0]]))
    assert np.isnan(vals[0]).all()
    assert np.array_equal(vals[1], np.array([0.5, -1.0]) / np.sqrt(2.0))


@pytest.mark.parametrize("qubits", [8, 9, 10, 12])
def test_encode_value_on_large_registers(qubits):
    # past level 170, He_n and n! overflow on their own; the normalized
    # sequence does not, so the state stays a truncated eigenstate of q
    cfg = fock.FockConfig(qubits)
    n = np.arange(1, cfg.levels)
    for f in (-1.0, -0.3, 0.0, 0.6, 1.0):
        psi = fock.encode_value(f, cfg)
        assert np.all(np.isfinite(psi))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        # q is tridiagonal: (q psi)_k = (sqrt(k) psi_{k-1}
        # + sqrt(k+1) psi_{k+1}) / sqrt(2); the top row holds the defect
        q_psi = np.zeros(cfg.levels)
        q_psi[:-1] += np.sqrt(n) * psi[1:]
        q_psi[1:] += np.sqrt(n) * psi[:-1]
        q_psi /= np.sqrt(2.0)
        assert np.max(np.abs((q_psi - f * psi)[:-1])) <= 1e-12
        assert abs(psi[1] / psi[0] - np.sqrt(2.0) * f) <= 1e-13


def test_q_eigensystem_matches_dense():
    for qubits in (1, 2, 3, 4, 5, 9):
        cfg = fock.FockConfig(qubits)
        q = fock.q_matrix(cfg)
        vals, vecs = fock.q_eigensystem(cfg)
        ref = np.linalg.eigvalsh(q.real)
        assert np.max(np.abs(vals - ref)) < 1e-10
        assert np.max(np.abs(vals + vals[::-1])) < 1e-10  # symmetric spectrum
        assert np.all(np.isfinite(vecs))
        assert np.max(np.abs(np.linalg.norm(vecs, axis=0) - 1.0)) < 1e-14
        for k in range(cfg.levels):
            r = q.real @ vecs[:, k] - vals[k] * vecs[:, k]
            assert np.max(np.abs(r)) < 1e-9


def _sign_aligned(vecs):
    """Each column flipped so that its largest-magnitude entry is positive."""
    top = np.argmax(np.abs(vecs), axis=0)
    return vecs * np.sign(vecs[top, np.arange(vecs.shape[1])])


@pytest.mark.parametrize("qubits", range(1, 9))
def test_q_eigenvectors_match_hermite_closed_form(qubits):
    # column k is h_n(sqrt(2) lam_k) normalized, up to sign; past 8 qubits
    # h_n's square overflows, so the closed form is checked only up to there
    cfg = fock.FockConfig(qubits)
    vals, vecs = fock.q_eigensystem(cfg)
    ref = normalized_he(cfg.N, np.sqrt(2.0) * vals)
    ref /= np.linalg.norm(ref, axis=0)
    assert np.max(np.abs(_sign_aligned(vecs) - _sign_aligned(ref))) <= 1e-12


@pytest.mark.parametrize("qubits", range(1, 11))
def test_q_eigenvectors_orthonormal(qubits):
    cfg = fock.FockConfig(qubits)
    vals, vecs = fock.q_eigensystem(cfg)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(np.isfinite(vecs))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(cfg.levels))) <= 1e-14
