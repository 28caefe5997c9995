"""Encoded collision dynamics on per-population registers."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

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


def _lift(op, mode, setup):
    out = np.eye(1)
    for m in range(setup.modes):
        out = np.kron(out, op if m == mode else np.eye(setup.cfg.levels))
    return out


def _oracle_hamiltonian(setup, mode):
    """Dense complex H = sum_i p_i Omega_i from Kronecker lifts of the
    one-mode q and p, with the equilibrium written out in u_hat."""
    model, cfg = setup.model, setup.cfg
    c = model.velocities.astype(float)
    q = [_lift(fock.q_matrix(cfg), j, setup) for j in range(model.Q)]
    u = [sum(c[j, d] * q[j] for j in range(model.Q)) for d in range(model.D)]
    u_sq = sum(ud @ ud for ud in u)
    eye = np.eye(setup.dim)
    H = np.zeros((setup.dim, setup.dim), dtype=complex)
    for i in range(model.Q):
        cu = sum(c[i, d] * u[d] for d in range(model.D))
        feq = model.weights[i] * (eye + 3.0 * cu + 4.5 * cu @ cu - 1.5 * u_sq)
        H += _lift(fock.p_matrix(cfg), i, setup) @ (-(q[i] - feq) / setup.tau)
    return H if mode == "nonhermitian" else 0.5 * (H + H.conj().T)


def _oracle_propagator(setup, mode):
    return scipy.linalg.expm(-1j * setup.dt * _oracle_hamiltonian(setup, mode))


@pytest.mark.parametrize("qubits", [1, 2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_generator_matches_dense_lift_oracle(qubits, mode):
    s = _setup(qubits)
    want = -1j * s.dt * _oracle_hamiltonian(s, mode)
    G = engine.generator(s, mode)
    assert G.dtype == np.float64
    assert np.max(np.abs(want - s.dt * G)) <= 1e-13
    U = engine.propagator(s, mode)
    assert U.dtype == np.float64
    if mode == "hermitized":
        assert np.max(np.abs(U.T @ U - np.eye(s.dim))) <= 1e-12
    with pytest.raises(ValueError):
        engine.generator(s, "magic")


@pytest.mark.parametrize("qubits", [2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_propagator_matches_scipy_expm(qubits, mode):
    s = _setup(qubits)
    want = scipy.linalg.expm(s.dt * engine.generator(s, mode))
    assert np.max(np.abs(engine.propagator(s, mode) - want)) <= 1e-14


@pytest.mark.parametrize("qubits", [2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_real_march_matches_complex_oracle(qubits, mode):
    s = _setup(qubits)
    steps = 200
    res = engine.evolve_quantum_0d(s, F0, steps, mode=mode, init="exact")
    U = _oracle_propagator(s, mode)
    psi = np.ones(1, dtype=complex)
    for f in F0:
        psi = np.kron(psi, fock.encode_value(f, s.cfg))
    strides = [s.cfg.levels ** (s.modes - 1 - m) for m in range(s.modes)]
    decoded = np.empty((steps + 1, s.modes))
    for t in range(steps + 1):
        decoded[t] = (psi[strides] / psi[0]).real / np.sqrt(2.0)
        psi = U @ psi
    ref = classical.evolve_0d(F0, s.tau, s.dt, steps)
    rel_err = np.max(np.abs(decoded - ref) / np.abs(ref), axis=1)
    assert np.max(np.abs(res.decoded - decoded)) <= 1e-12
    assert np.max(np.abs(res.rel_err - rel_err)) <= 1e-12


def test_hamiltonian_split():
    # H = iG, so H is Hermitian exactly when G is antisymmetric
    s = _setup(2)
    G = engine.generator(s, "nonhermitian")
    assert np.max(np.abs(G + G.T)) > 1e-3  # genuinely non-Hermitian
    Gh = engine.generator(s, "hermitized")
    assert np.array_equal(Gh, -Gh.T)
    assert np.max(np.abs(Gh - 0.5 * (G - G.T))) < 1e-13
    assert engine.phase_space_divergence(s.model, s.tau) == -2.0


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
    # fail-closed: sigma is an upper bound on the dense 2-norm of the oracle
    # propagator, within 1e-6 of it, and the verdict follows from sigma
    for qubits in (1, 2, 3):
        s = _setup(qubits)
        for mode in engine.MODES:
            sigma, bound, flagged = engine.certificate(s, mode)
            svd = np.linalg.norm(_oracle_propagator(s, mode), 2)
            assert abs(bound - np.exp(1e-3)) < 1e-12
            assert svd - 1e-12 <= sigma <= svd + 1e-6
            if mode == "hermitized":
                assert sigma == 1.0  # S is exactly zero
            assert flagged == (sigma > bound * engine.CERTIFICATE_MARGIN)
            # plain Python types, as JSON records of the audit need
            assert type(bound) is float and type(flagged) is bool
            # the qc=3 step grows past the threshold (SVD 1.0116420 against
            # 1.0110105); qc 1-2 stay below it
            assert flagged == (qubits == 3 and mode == "nonhermitian")


@pytest.mark.parametrize("qubits", [1, 2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_certificate_keeps_complex_power_iteration(qubits, mode):
    # 120 iterations of U^dag U from the seeded complex start, in complex
    # arithmetic on the oracle propagator, give a Ritz estimate that reads
    # below ||U||_2; the certificate stays above it and flags whenever it does
    s = _setup(qubits)
    U = _oracle_propagator(s, mode)
    rng = np.random.default_rng(7)
    v = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    v /= np.linalg.norm(v)
    for _ in range(120):
        w = U.conj().T @ (U @ v)
        nw = np.linalg.norm(w)
        v = w / nw
    estimate = np.sqrt(nw)
    sigma, bound, flagged = engine.certificate(s, mode)
    assert estimate <= sigma + 1e-12
    threshold = bound * engine.CERTIFICATE_MARGIN
    if estimate > threshold:
        assert flagged
    # at qc=3 the estimate (1.00936) reads clean below the threshold
    # (1.01101) while the propagator grows past it (SVD 1.01164)
    if qubits == 3 and mode == "nonhermitian":
        assert estimate < threshold and flagged


def _symmetric_cases():
    rng = np.random.default_rng(11)
    cases = [np.zeros((5, 5))]
    for n in (1, 2, 7, 60, 200):
        a = rng.standard_normal((n, n))
        cases.append(a + a.T)
    # a threefold top eigenvalue
    q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    vals = np.concatenate([[2.0, 2.0, 2.0], rng.uniform(-1.0, 1.0, 47)])
    a = (q * vals) @ q.T
    cases.append(0.5 * (a + a.T))
    return cases


def _gershgorin(S):
    d = np.diag(S)
    return np.max(d - np.abs(d) + np.abs(S).sum(axis=1))


def test_lambda_max_bound_is_an_upper_bound():
    for S in _symmetric_cases():
        mu = engine._lambda_max_bound(S)
        top = np.linalg.eigvalsh(S)[-1]
        assert top <= mu <= top + 1e-9 * max(1.0, np.abs(S).sum(axis=1).max())
        assert mu <= _gershgorin(S) + 1e-12 * max(1.0, np.abs(S).max())
    assert engine._lambda_max_bound(np.zeros((5, 5))) == 0.0


def test_lambda_max_bound_grows_delta_when_cholesky_fails(monkeypatch):
    # a converged Ritz value sits within round-off of lambda_max, so only a
    # failed factorization shows that the Cholesky step carries the bound
    S = _symmetric_cases()[4]  # n = 60
    top = np.linalg.eigvalsh(S)[-1]
    plain = engine._lambda_max_bound(S)
    real = np.linalg.cholesky
    calls = []

    def fail_once(M):
        calls.append(M.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced failure")
        return real(M)

    monkeypatch.setattr(np.linalg, "cholesky", fail_once)
    grown = engine._lambda_max_bound(S)
    assert len(calls) == 2
    assert grown > plain >= top

    def fail_always(M):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(np.linalg, "cholesky", fail_always)
    capped = engine._lambda_max_bound(S)
    cap = _gershgorin(S)
    assert cap <= capped <= cap + 1e-12 * np.abs(S).sum(axis=1).max()


def test_generator_built_once_per_mode(monkeypatch):
    # the propagator and the certificate of a mode share one build of dt G
    calls = []
    real = engine.generator

    def counting(setup, mode):
        calls.append(mode)
        return real(setup, mode)

    monkeypatch.setattr(engine, "generator", counting)
    s = _setup(2)
    for mode in engine.MODES:
        engine.propagator(s, mode)
        engine.certificate(s, mode)
        engine.evolve_quantum_0d(s, F0, 3, mode=mode)
    assert sorted(calls) == sorted(engine.MODES)


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


def test_decode_outside_input_domain_flags():
    # a clean certificate does not keep the decoded values bounded: from
    # this start both modes drift past the encodable range within 1500 steps
    s = _setup(2)
    for mode in engine.MODES:
        res = engine.evolve_quantum_0d(s, np.array([0.1, 0.1, 0.8]), 1500, mode)
        assert res.flagged
        assert res.flag_reason == "decoded population outside [-1, 1]"
        assert np.all(np.abs(res.decoded[: res.flag_step]) <= 1.0)
        assert np.any(np.abs(res.decoded[res.flag_step]) > 1.0)


def test_relative_error_nan_sentinel():
    errs, zeros = engine.relative_error(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
    assert np.isnan(errs[0]) and errs[1] == 0.0
    assert zeros == 1


def _injected_setup(U):
    # D1Q3 qc=1 (dim 8) marching a crafted propagator under a clean
    # certificate, so every flag comes from the per-step checks
    s = _setup(1)
    s._cache[("build", "nonhermitian")] = (U, 1.0)
    return s


_GROUND_OFF = np.diag([0.0] + [1.0] * 7)

_INJECTED = [
    ("zero", np.zeros((8, 8)), "vanished norm"),
    ("double", 2.0 * np.eye(8), "norm growth monitor"),
    ("nan", np.full((8, 8), np.nan), "non-finite state"),
    ("ground-off", _GROUND_OFF, "ground amplitude zero"),
    # growth outranks the zero ground amplitude at the same step
    ("ground-off-double", 2.0 * _GROUND_OFF, "norm growth monitor"),
    # every entry stays finite while the norm overflows to inf
    ("overflow", 1e200 * np.eye(8), "norm growth monitor"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "U,reason", [c[1:] for c in _INJECTED], ids=[c[0] for c in _INJECTED]
)
def test_injected_propagator_flags_first_step(U, reason):
    res = engine.evolve_quantum_0d(_injected_setup(U), F0, 3)
    assert res.flagged
    assert (res.flag_step, res.flag_reason) == (1, reason)
    assert res.decoded.shape == (4, 3) and res.norms.shape == (4,)
    assert np.max(np.abs(res.decoded[0] - F0)) < 1e-13


def test_zero_steps_is_unflagged():
    res = engine.evolve_quantum_0d(_setup(1), F0, 0)
    assert not res.flagged
    assert res.flag_step is None and res.flag_reason is None
    assert res.decoded.shape == (1, 3) and res.classical.shape == (1, 3)
    assert res.norms.shape == res.norms_corrected.shape == (1,)


def test_march_memory_stays_below_history():
    # the march keeps per-step records, never the (steps + 1) x dim history,
    # which alone would take 5001 * 512 * 8 bytes = 20 MB here
    s = _setup(3)
    engine.propagator(s, "hermitized")
    tracemalloc.start()
    try:
        engine.evolve_quantum_0d(s, F0, 5000, mode="hermitized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
