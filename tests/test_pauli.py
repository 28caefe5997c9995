"""Pauli-string algebra and operator compilation."""

import numpy as np
import pytest

from qalb import fock, pauli
from qalb.errors import DimMismatch, TooLarge


def test_word_validation_and_dump():
    w = pauli.PauliWord(coeff=0.5, letters="XZ")
    assert w.nqubits == 2 and w.weight == 2
    assert w.dump() == "0.5 0 XZ"
    assert pauli.PauliWord(coeff=1.0, letters="IYI").weight == 1
    with pytest.raises(ValueError):
        pauli.PauliWord(coeff=1.0, letters="XQ")
    with pytest.raises(ValueError):
        pauli.PauliWord(coeff=1.0, letters="")


def test_single_qubit_products():
    x = pauli.PauliSum.from_terms(1, [("X", 1.0)])
    y = pauli.PauliSum.from_terms(1, [("Y", 1.0)])
    z = pauli.PauliSum.from_terms(1, [("Z", 1.0)])
    assert (x @ y).terms == (("Z", 1j),)
    assert (y @ x).terms == (("Z", -1j),)
    assert (x @ x).terms == (("I", (1 + 0j)),)
    assert (x @ z + z @ x).terms == ()  # anticommute to zero


def test_sum_canonicalization():
    s = pauli.PauliSum.from_terms(2, [("XI", 1.0), ("XI", -1.0), ("ZZ", 0.25)])
    assert s.terms == (("ZZ", (0.25 + 0j)),)
    words = s.words
    rebuilt = pauli.PauliSum.from_terms(2, [(w.letters, w.coeff) for w in words])
    assert rebuilt == s
    assert s.dump() == "0.25 0 ZZ"


def test_dagger_and_scalar():
    s = pauli.sigma_plus()
    assert s.dagger().terms == pauli.sigma_minus().terms
    doubled = 2.0 * s
    assert doubled.terms == (("X", (1 + 0j)), ("Y", 1j))
    with pytest.raises(DimMismatch):
        s + pauli.PauliSum.zero(2)


def test_dense_round_trip_small():
    s = pauli.PauliSum.from_terms(2, [("XY", 0.5), ("ZI", -1.0)])
    m = pauli.pauli_to_dense(s)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    want = 0.5 * np.kron(x, y) - np.kron(z, np.eye(2))
    assert np.max(np.abs(m - want)) < 1e-15


def test_dense_qubit_limit():
    s = pauli.PauliSum.from_terms(15, [("I" * 15, 1.0)])
    with pytest.raises(TooLarge):
        pauli.pauli_to_dense(s)


def test_single_qubit_position_is_x():
    # a = (X + iY)/2, so q = X/sqrt(2) and p = Y/sqrt(2)
    q, p = pauli.q_pauli(fock.FockConfig(1)), pauli.p_pauli(fock.FockConfig(1))
    assert q.terms == (("X", (1.0 / np.sqrt(2.0) + 0j)),)
    assert p.terms == (("Y", (1.0 / np.sqrt(2.0) + 0j)),)
    assert np.max(np.abs(pauli.pauli_to_dense(p) - fock.p_matrix(fock.FockConfig(1)))) < 1e-15


def test_compiled_operators_match_dense():
    for qubits in (1, 2, 3, 4):
        cfg = fock.FockConfig(qubits)
        a_s = pauli.a_pauli(cfg)
        adag_s = a_s.dagger()
        assert np.max(np.abs(pauli.pauli_to_dense(a_s) - fock.a_matrix(cfg))) < 1e-12
        adag = fock.a_matrix(cfg).conj().T
        assert np.max(np.abs(pauli.pauli_to_dense(adag_s) - adag)) < 1e-12
        q_s, p_s = pauli.q_pauli(cfg), pauli.p_pauli(cfg)
        q, p = fock.q_matrix(cfg), fock.p_matrix(cfg)
        assert np.max(np.abs(pauli.pauli_to_dense(q_s) - q)) < 1e-12
        assert np.max(np.abs(pauli.pauli_to_dense(p_s) - p)) < 1e-12
        n_s = pauli.compile_number(cfg)
        assert np.max(np.abs(pauli.pauli_to_dense(n_s) - fock.number_matrix(cfg))) < 1e-12


def test_compiled_qp_structure():
    # the matrix of q is real and that of p imaginary, so q words carry an
    # even number of Y letters and p words an odd number, coefficients real
    cfg = fock.FockConfig(3)
    q_s, p_s = pauli.q_pauli(cfg), pauli.p_pauli(cfg)
    for w in q_s.words:
        assert w.letters.count("Y") % 2 == 0
        assert abs(complex(w.coeff).imag) < 1e-14
    for w in p_s.words:
        assert w.letters.count("Y") % 2 == 1
        assert abs(complex(w.coeff).imag) < 1e-14


def test_term_budget_qc2():
    cfg = fock.FockConfig(2)
    count, max_weight, l1 = pauli.term_stats(pauli.q_pauli(cfg))
    assert count <= cfg.qubits ** 2
    assert max_weight <= cfg.qubits
    assert l1 <= np.sqrt(2.0 * cfg.levels) * cfg.qubits ** 2
    ident = pauli.PauliSum.from_terms(2, [("II", 3.0)])
    assert pauli.term_stats(ident) == (1, 0, 3.0)


@pytest.mark.parametrize("k", range(1, 6))
def test_from_dense_round_trip(k):
    rng = np.random.default_rng(k)
    shape = (2**k, 2**k)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s = pauli.PauliSum.from_dense(m)
    assert s.nqubits == k
    assert np.max(np.abs(s.to_dense() - m)) <= 1e-13


def test_from_dense_inverts_to_dense():
    s = pauli.PauliSum.from_terms(2, [("XY", 0.5), ("ZI", -1.0)])
    assert pauli.PauliSum.from_dense(s.to_dense()).terms == s.terms


def test_a_pauli_term_counts():
    sums = [pauli.a_pauli(fock.FockConfig(q)) for q in range(1, 6)]
    assert [len(s.terms) for s in sums] == [2, 8, 24, 64, 160]


def test_from_dense_guards():
    for shape in ((2, 4), (3, 3), (6, 6), (1, 1), (4,), (2, 2, 2)):
        with pytest.raises(DimMismatch):
            pauli.PauliSum.from_dense(np.zeros(shape))
    # a zero-strided view: the guard must fire before anything is copied
    huge = np.broadcast_to(np.zeros(1), (2**15, 2**15))
    with pytest.raises(TooLarge):
        pauli.PauliSum.from_dense(huge)
