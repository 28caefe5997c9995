"""Encoded collision dynamics on per-population registers."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qalb import classical, engine, fock, lattice, linalg
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


def _dense_increments(setup, psi):
    # each mode's term as a dense Kronecker sum, applied to psi
    index = engine._readout_index(setup)
    factors = engine._factors(setup.cfg)
    amps = np.empty(index.size)
    amps[0] = psi[0] ** 2
    for m, s in enumerate(index[1:]):
        term = engine._omega_terms(setup, m, p_mode=m)
        y = engine._kron_sum(term, factors) @ psi
        amps[m + 1] = y[s] * psi[0] - psi[s] * y[0]
    return fock.ratio_decode(amps)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_collision_increments_in_q_basis(qubits):
    s = _setup(qubits)
    psi = engine.initial_state(s, F0, init="exact")
    rates = engine.collision_increments(s, psi)
    if qubits < 4:
        assert np.max(np.abs(rates - _dense_increments(s, psi))) < 1e-12
    else:
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


def test_decode_outside_input_domain_flags(monkeypatch):
    # a clean certificate does not keep the decoded values bounded: from
    # this start both modes drift past the encodable range within 1500 steps
    s = _setup(2)
    f0 = np.array([0.1, 0.1, 0.8])
    for mode in engine.MODES:
        res = engine.evolve_quantum_0d(s, f0, 1500, mode)
        assert res.flagged
        assert res.flag_reason == "decoded population outside [-1, 1]"
        assert np.all(np.abs(res.decoded[: res.flag_step]) <= 1.0)
        assert np.any(np.abs(res.decoded[res.flag_step]) > 1.0)
        ref = _one_step_result(monkeypatch, s, f0, 1500, mode)
        assert res.flag_step == ref.flag_step


def _one_step_march(setup, mode, psi, steps):
    # the plain march on the dense propagator, whatever the path rule says:
    # one U @ psi per state, each state scanned in full
    U = engine.propagator(setup, mode)
    index = engine._readout_index(setup)
    amps = np.empty((steps + 1, index.size))
    norms = np.empty(steps + 1)
    finite = np.empty(steps + 1, dtype=bool)
    for t in range(steps + 1):
        if t:
            psi = U @ psi
        amps[t] = psi[index]
        norms[t] = np.sqrt(psi @ psi)
        finite[t] = np.all(np.isfinite(psi))
    return amps, norms, finite


def _one_step_result(monkeypatch, setup, f0, steps, mode):
    with monkeypatch.context() as m:
        m.setattr(engine, "_march", _one_step_march)
        return engine.evolve_quantum_0d(setup, f0, steps, mode)


@pytest.mark.parametrize("qubits", [2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_blocked_march_matches_one_step_march(monkeypatch, qubits, mode):
    # 1500 steps at K = 16: 93 blocks from products with U^16, the last
    # one partial
    s = _setup(qubits)
    assert engine._block_size(s.dim, 1500) == 16
    res = engine.evolve_quantum_0d(s, F0, 1500, mode)
    ref = _one_step_result(monkeypatch, s, F0, 1500, mode)
    assert np.max(np.abs(res.decoded - ref.decoded)) <= 1e-12
    assert np.max(np.abs(res.norms / ref.norms - 1.0)) <= 1e-12
    assert (res.flagged, res.flag_step, res.flag_reason) == (
        ref.flagged, ref.flag_step, ref.flag_reason
    )


def test_march_within_first_block_is_one_step_march(monkeypatch):
    # with steps + 1 <= K every state comes from U @ psi, as in the plain
    # march, and U^K is never formed
    s = _setup(3)
    ref = _one_step_result(monkeypatch, s, F0, 40, "nonhermitian")

    def refuse(*args):
        raise AssertionError("U^K formed without a later block")

    monkeypatch.setattr(engine, "_block_size", lambda n, steps: steps + 1)
    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    res = engine.evolve_quantum_0d(s, F0, 40, "nonhermitian")
    assert np.array_equal(res.decoded, ref.decoded)


@pytest.mark.parametrize(
    "n,steps,K",
    [(4096, 2, 1), (4096, 1000, 1), (512, 1500, 16), (64, 1500, 16)],
)
def test_block_rule(n, steps, K):
    assert engine._block_size(n, steps) == K


@pytest.mark.parametrize(
    "name,qubits,q_basis",
    [("D1Q3", 1, False), ("D1Q3", 3, False), ("D2Q9", 1, False),
     ("D1Q3", 4, True)],
)
def test_dimension_rule(name, qubits, q_basis):
    # registers up to 512 march on the dense propagator; D1Q3 qc=4 (4096)
    # marches in the q-eigenbasis and never forms it
    model = lattice.build_lattice(name)
    s = engine.make_setup(model, qubits)
    assert (s.dim > engine._DENSE_DIM) == q_basis
    for mode in engine.MODES:
        engine.evolve_quantum_0d(s, model.weights, 2, mode)
        assert (("propagator", mode) in s._cache) != q_basis
    assert ("q_form" in s._cache) == q_basis


@pytest.fixture(scope="module")
def qc4():
    """The D1Q3 qc=4 setup (dt = 1e-3), its dense generators and the dense
    certificate's bound on the largest eigenvalue of the symmetric part of
    dt G, each built once."""
    s = _setup(4)
    G = {mode: engine.generator(s, mode) for mode in engine.MODES}
    A = s.dt * G["nonhermitian"]
    return s, G, engine._lambda_max_bound(0.5 * (A + A.T))


def _dense_generator(setup, mode, qc4):
    if setup.cfg.qubits == 4:
        return qc4[1][mode]
    return engine.generator(setup, mode)


def _from_q_basis(setup, x):
    # W x with W = V (x) V (x) V, written out for the three D1Q3 modes
    V, L = engine._q_form(setup).V, setup.cfg.levels
    X = x.reshape(L, L, L)
    return np.einsum("ai,bj,ck,ijk->abc", V, V, V, X).reshape(-1)


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", engine.MODES)
def test_q_apply_matches_generator(qubits, mode, qc4):
    s = qc4[0] if qubits == 4 else _setup(qubits)
    psi = np.random.default_rng(qubits).standard_normal(s.dim)
    want = s.dt * (_dense_generator(s, mode, qc4) @ psi)
    x = engine._to_q_basis(s, psi)
    assert np.max(np.abs(_from_q_basis(s, x) - psi)) <= 1e-13
    got = _from_q_basis(s, engine._q_apply(s, mode, x))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _dense_mu(setup, qc4):
    if setup.cfg.qubits == 4:
        return qc4[2]
    A = setup.dt * engine.generator(setup, "nonhermitian")
    return engine._lambda_max_bound(0.5 * (A + A.T))


@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_q_basis_bounds_bracket_dense_bound(qubits, qc4):
    s = qc4[0] if qubits == 4 else _setup(qubits)
    weyl, mu = engine._weyl_bound(s), _dense_mu(s, qc4)
    low = engine._rayleigh_bound(s)
    assert weyl >= mu >= low
    # the Lanczos lower bound converges on the top eigenvalue
    assert mu - low <= 1e-8 * mu


@pytest.mark.parametrize(
    "dt,branch",
    [(1e-4, "weyl"), (2e-4, "dense"), (1e-3, "rayleigh")],
)
def test_qc4_certificate_branches(dt, branch, qc4):
    # D1Q3 qc=4 at tau = 1: the lower bound is about 37.2 dt and the Weyl
    # bound about 68.4 dt, against a threshold of dt + ln 1.01
    s = _setup(4, dt=dt)
    weyl, low = engine._weyl_bound(s), engine._rayleigh_bound(s)
    assert abs(weyl / dt - 68.4) < 0.1 and abs(low / dt - 37.2) < 0.1
    sigma, bound, flagged = engine.certificate(s, "nonhermitian")
    threshold = bound * engine.CERTIFICATE_MARGIN
    assert (("A", "nonhermitian") in s._cache) == (branch == "dense")
    if branch != "dense":
        assert sigma == np.exp(weyl)
    assert flagged == (branch == "rayleigh")
    # the dense certificate's verdict on the same step: its bound at
    # dt = 1e-3 scaled to dt, as S scales with dt
    assert flagged == (np.exp(qc4[2] * dt / 1e-3) > threshold)
    assert engine.certificate(s, "hermitized") == (1.0, bound, False)


def test_qc4_march_forms_no_dense_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix formed")

    monkeypatch.setattr(engine, "generator", refuse)
    monkeypatch.setattr(engine, "expm", refuse)
    monkeypatch.setattr(linalg, "expm", refuse)
    s = _setup(4)
    nh = engine.evolve_quantum_0d(s, F0, 2, "nonhermitian")
    assert (nh.flag_step, nh.flag_reason) == (0, "operator-norm certificate")
    h = engine.evolve_quantum_0d(s, F0, 50, "hermitized")
    assert not h.flagged
    assert np.max(np.abs(h.norms[1:] / h.norms[:-1] - 1.0)) <= 1e-12
    assert np.max(h.rel_err) < 1e-5  # 4.4e-6 at step 50


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_q_basis_march_goes_on_past_a_non_finite_state(monkeypatch):
    # a state that overflows is flagged, and the states after it are NaN
    # instead of an error from the next expm_action
    def overflow(apply, x, norm):
        return np.full_like(x, np.inf)

    monkeypatch.setattr(engine, "expm_action", overflow)
    res = engine.evolve_quantum_0d(_setup(4), F0, 3, "hermitized")
    assert (res.flag_step, res.flag_reason) == (1, "non-finite state")
    assert np.all(np.isnan(res.norms[2:])) and np.all(np.isnan(res.decoded[2:]))
    assert np.max(np.abs(res.decoded[0] - F0)) < 1e-13


def test_relative_error_nan_sentinel():
    errs, zeros = engine.relative_error(np.array([1.0, 2.0]), np.array([0.0, 2.0]))
    assert np.isnan(errs[0]) and errs[1] == 0.0
    assert zeros == 1


def _injected_setup(U):
    # D1Q3 qc=1 (dim 8) marching a crafted propagator under its own clean
    # certificate, so every flag comes from the per-step checks
    s = _setup(1)
    s._cache[("propagator", "nonhermitian")] = U
    return s


_GROUND_OFF = np.diag([0.0] + [1.0] * 7)


def _with_entry(i, j, value):
    U = np.eye(8)
    U[i, j] = value
    return U


_INJECTED = [
    ("zero", np.zeros((8, 8)), "vanished norm"),
    ("double", 2.0 * np.eye(8), "norm growth monitor"),
    ("nan", np.full((8, 8), np.nan), "non-finite state"),
    ("ground-off", _GROUND_OFF, "ground amplitude zero"),
    # growth outranks the zero ground amplitude at the same step
    ("ground-off-double", 2.0 * _GROUND_OFF, "norm growth monitor"),
    # every entry stays finite while the norm overflows to inf
    ("overflow", 1e200 * np.eye(8), "norm growth monitor"),
    ("inf-entry", _with_entry(0, 0, np.inf), "non-finite state"),
    ("nan-entry", _with_entry(7, 0, np.nan), "non-finite state"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "U,reason", [c[1:] for c in _INJECTED], ids=[c[0] for c in _INJECTED]
)
def test_injected_propagator_flags_first_step(U, reason):
    # dim 8 at 40 steps gives K = 16: steps 16-40 come from products with
    # U^16, so NaN or overflow inside U^16 itself is marched too
    assert engine._block_size(8, 40) == 16
    res = engine.evolve_quantum_0d(_injected_setup(U), F0, 40)
    assert res.flagged
    assert (res.flag_step, res.flag_reason) == (1, reason)
    assert res.decoded.shape == (41, 3) and res.norms.shape == (41,)
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


def test_march_at_one_state_per_block_copies_no_propagator():
    # K = 1 here, so every later block is a product with U itself: the
    # march holds far less than one 2 MB copy of U or U.T
    s = _setup(3)
    engine.propagator(s, "hermitized")
    assert engine._block_size(s.dim, 200) == 1
    tracemalloc.start()
    try:
        engine.evolve_quantum_0d(s, F0, 200, mode="hermitized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
