"""Encoded collision dynamics on per-population registers."""

import numpy as np
import pytest

from qalb import classical, engine, fock, lattice
from qalb.errors import OutOfRange, TauTooSmall, TooLarge

D1Q3 = lattice.build_lattice("D1Q3")
F0 = np.array([0.6, 0.1, 0.3])


def _setup(qubits, tau=1.0, dt=1e-3):
    return engine.make_setup(D1Q3, qubits, tau=tau, dt=dt)


def test_setup_shapes_and_guards():
    s = _setup(2)
    assert s.modes == 3 and s.total_qubits == 6 and s.dim == 64
    with pytest.raises(TauTooSmall):
        engine.make_setup(D1Q3, 2, tau=5e-4, dt=1e-3)
    with pytest.raises(TooLarge):
        engine.make_setup(D1Q3, 5)
    with pytest.raises(TooLarge):
        engine.make_setup(lattice.build_lattice("D2Q9"), 2)


def test_divergence_and_dissipation():
    assert engine.phase_space_divergence(D1Q3, 0.5) == -4.0
    fac = engine.dissipation_factor(10, 1e-3, 1.0, 3, 1)
    assert abs(fac - np.exp(10 * 1e-3 * 2 / 2.0)) < 1e-15


def test_equilibrium_operators_sum_to_identity():
    # the bracket parts beyond w_i cancel when summed over directions
    s = _setup(2)
    total = sum(engine.equilibrium_operator(s, i) for i in range(3))
    assert np.max(np.abs(total - np.eye(s.dim))) < 1e-12


def test_omega_operator_symmetric():
    s = _setup(2)
    for i in range(3):
        om = engine.omega_operator(s, i)
        assert np.max(np.abs(om - om.T)) < 1e-12
        assert np.max(np.abs(om.imag)) == 0.0


def test_hamiltonian_split():
    s = _setup(2)
    H = engine.hamiltonian_nonhermitian(s)
    assert np.max(np.abs(H - H.conj().T)) > 1e-3  # genuinely non-Hermitian
    Hh, div = engine.hamiltonian_hermitized(s)
    assert np.max(np.abs(Hh - Hh.conj().T)) < 1e-12
    assert div == -2.0
    assert np.max(np.abs(Hh - 0.5 * (H + H.conj().T))) < 1e-13


def test_initial_state_decodes():
    s = _setup(3)
    psi = engine.initial_state(s, F0, init="exact")
    vals, ok = engine.decode_state(s, psi)
    assert ok and np.max(np.abs(vals - F0)) < 1e-13
    # translating the vacuum lands at half the encoded value
    psi_t = engine.initial_state(s, F0, init="translation")
    vals_t, ok_t = engine.decode_state(s, psi_t)
    assert ok_t and np.max(np.abs(vals_t - F0 / 2.0)) < 1e-13
    with pytest.raises(ValueError):
        engine.initial_state(s, F0, init="bogus")
    with pytest.raises(OutOfRange):
        engine.initial_state(s, np.array([1.5, -0.3, -0.2]), init="translation")


def test_collision_increments_match_bgk_rate():
    s = _setup(3)
    psi = engine.initial_state(s, F0, init="exact")
    rates = engine.collision_increments(s, psi)
    want = -(F0 - classical.equilibrium(F0, D1Q3)) / s.tau
    assert np.max(np.abs(rates - want)) < 1e-12


def test_certificate_values():
    s2 = _setup(2)
    smax, bound, flagged = engine.certificate(s2, "nonhermitian")
    assert abs(bound - np.exp(1e-3)) < 1e-12
    # the power-iteration estimate is a lower bound on the dense value
    ref = np.linalg.svd(engine.propagator(s2, "nonhermitian"), compute_uv=False)[0]
    assert 1.0 < smax <= ref + 1e-12
    assert ref - smax < 5e-3
    assert not flagged
    smax_h, _, flagged_h = engine.certificate(s2, "hermitized")
    assert abs(smax_h - 1.0) < 1e-9
    assert not flagged_h


def test_evolution_guards():
    s = _setup(2)
    with pytest.raises(ValueError):
        engine.evolve_quantum_0d(s, F0, 2, mode="magic")
    with pytest.raises(ValueError):
        engine.evolve_quantum_0d(s, np.array([0.5, 0.2, 0.2]), 2)
    with pytest.raises(OutOfRange):
        engine.evolve_quantum_0d(s, np.array([1.2, 0.5, -0.7]), 2)
    with pytest.raises(ValueError):
        engine.evolve_quantum_0d(s, np.ones(4) / 4.0, 2)


def test_nonhermitian_short_run_tracks_reference():
    s = _setup(2)
    res = engine.evolve_quantum_0d(s, F0, 50, mode="nonhermitian", init="exact")
    assert res.decoded.shape == (51, 3)
    assert not res.flagged
    assert np.max(np.abs(res.decoded[0] - F0)) < 1e-13
    assert 0.05 < res.rel_err[-1] < 0.25  # frozen band around 0.17
    assert np.max(np.abs(res.classical - classical.evolve_0d(F0, 1.0, 1e-3, 50))) == 0.0


def test_hermitized_preserves_norm_and_mass():
    s = _setup(3)
    res = engine.evolve_quantum_0d(s, F0, 100, mode="hermitized", init="exact")
    ratios = res.norms[1:] / res.norms[:-1]
    assert np.max(np.abs(ratios - 1.0)) < 1e-9
    assert not res.flagged
    # corrected norms reapply the removed dissipation envelope
    t = np.arange(101)
    want = res.norms * np.exp(t * 1e-3)
    assert np.max(np.abs(res.norms_corrected - want)) < 1e-9
    # decoded mass stays within the truncation tail at this horizon
    assert np.max(np.abs(res.mass - 1.0)) < 0.01


def test_relative_error_nan_sentinel():
    errs, zeros = engine.relative_error(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
    assert np.isnan(errs[0]) and errs[1] == 0.0
    assert zeros == 1
