"""Encoded collision dynamics on per-population registers."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest
import scipy.linalg

from qalb import classical, engine, fock, lattice, linalg, march
from qalb.errors import OutOfRange, TauTooSmall, TooLarge

D1Q3 = lattice.build_lattice("D1Q3")
F0 = np.array([0.6, 0.1, 0.3])


def _setup(qubits, tau=1.0, dt=1e-3):
    return engine.make_setup(D1Q3, qubits, tau=tau, dt=dt)


def test_setup_shapes_and_guards():
    s = _setup(2)
    assert s.modes == 3 and s.cfg.qubits == 2 and s.dim == 64
    with pytest.raises(TauTooSmall):
        engine.make_setup(D1Q3, 2, tau=5e-4, dt=1e-3)
    with pytest.raises(TooLarge):
        engine.make_setup(D1Q3, 5)
    with pytest.raises(TooLarge):
        engine.make_setup(lattice.build_lattice("D2Q9"), 2)


def test_divergence_and_dissipation():
    # the compensation undoes half the contraction -(Q - D)/tau of the
    # collision flow in population space: D1Q3 at tau = 1 contracts at 2
    divergence = -(D1Q3.Q - D1Q3.D) / 1.0
    fac = engine.dissipation_factor(10, 1e-3, 1.0, D1Q3.Q, D1Q3.D)
    assert abs(fac - np.exp(-10 * 1e-3 * divergence / 2.0)) < 1e-15


def test_omega_operators_sum_to_mass_relaxation():
    # the equilibria sum to the density, which is the identity at unit
    # mass, so sum_i Omega_i = (I - sum_i q_i)/tau
    s = _setup(2, tau=0.7)
    rate, factors = classical.bgk_rate(s.model, s.tau), engine._factors(s.cfg)
    total = sum(
        engine._kron_sum(engine._terms(rate, i), factors) for i in range(3)
    )
    q_sum = sum(_lift(fock.q_matrix(s.cfg), i, s) for i in range(3))
    want = (np.eye(s.dim) - q_sum) / s.tau
    assert np.max(np.abs(total - want)) < 1e-12


def test_terms_build_logistic_generator():
    # any driving dict runs through the same terms: df/dt = -a f + b f^2 on
    # one mode is P(-a q + b q^2)
    cfg = fock.FockConfig(3)
    a, b = 1.0, 0.5
    terms = engine._terms({(1,): [-a], (2,): [b]}, 0, p_mode=0)
    G = engine._kron_sum(terms, engine._factors(cfg))
    q = fock.q_matrix(cfg)
    want = fock.P_matrix(cfg) @ (-a * q + b * q @ q)
    assert np.max(np.abs(G - want)) < 1e-14


@pytest.mark.parametrize(
    "name,qubits", [("D1Q3", 1), ("D1Q3", 2), ("D1Q3", 3), ("D2Q9", 1)]
)
def test_kron_sum_matches_np_kron_bit_for_bit(name, qubits):
    # the broadcast outer product forms the same products as np.kron, in
    # the same order, so the generator sum and each omega keep every bit
    s = engine.make_setup(lattice.build_lattice(name), qubits)
    rate = classical.bgk_rate(s.model, s.tau)
    factors = engine._factors(s.cfg)
    terms = {}
    for i in range(s.modes):
        terms.update(engine._terms(rate, i, p_mode=i))
    want = oracles.kron_sum(terms, factors)
    assert np.array_equal(engine._kron_sum(terms, factors), want)
    omega = engine._terms(rate, 0)
    assert np.array_equal(
        engine._kron_sum(omega, factors), oracles.kron_sum(omega, factors)
    )


def test_kron_sum_of_sparse_factors_matches_np_kron_bit_for_bit():
    # two modes of L = 16 levels: the banded factors P^p q^k and one with
    # twelve scattered nonzeros, whose zero entries the block-sparse sum
    # skips where np.kron multiplies them
    factors = engine._factors(fock.FockConfig(4))
    rng = np.random.default_rng(16)
    scattered = np.zeros(256)
    scattered[rng.choice(256, 12, replace=False)] = rng.standard_normal(12)
    factors["scattered"] = scattered.reshape(16, 16)
    keys = list(factors)
    terms = {
        (keys[a], keys[b]): float(c)
        for a, b, c in zip(
            rng.integers(len(keys), size=24), rng.integers(len(keys), size=24),
            rng.standard_normal(24),
        )
    }
    want = oracles.kron_sum(terms, factors)
    assert np.array_equal(engine._kron_sum(terms, factors), want)


def test_omega_operator_symmetric():
    s = _setup(2)
    rate, factors = classical.bgk_rate(s.model, s.tau), engine._factors(s.cfg)
    for i in range(3):
        om = engine._kron_sum(engine._terms(rate, i), factors)
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


@pytest.mark.parametrize("qubits", [1, 2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_propagator_matches_scipy_expm(qubits, mode):
    # the march leaves U unjoined; asked for, propagator joins it from the
    # sector blocks the march advanced, once
    s = _setup(qubits)
    engine.evolve_quantum_0d(s, F0, 3, mode)
    assert ("propagator", mode) not in s._cache
    want = scipy.linalg.expm(s.dt * engine.generator(s, mode))
    U = engine.propagator(s, mode)
    assert np.max(np.abs(U - want)) <= 1e-14
    assert engine.propagator(s, mode) is U


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
    ref = classical.evolve_0d(F0, D1Q3, s.tau, s.dt, steps)
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


def test_initial_state_decodes():
    s = _setup(3)
    index = engine._readout_index(s)
    psi = engine.initial_state(s, F0, init="exact")
    vals = fock.ratio_decode(psi[index])
    assert psi[0] != 0.0 and np.max(np.abs(vals - F0)) < 1e-13
    # translating the vacuum lands at half the encoded value
    psi_t = engine.initial_state(s, F0, init="translation")
    vals_t = fock.ratio_decode(psi_t[index])
    assert psi_t[0] != 0.0 and np.max(np.abs(vals_t - F0 / 2.0)) < 1e-13
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
    rate = classical.bgk_rate(setup.model, setup.tau)
    for m, s in enumerate(index[1:]):
        y = engine._kron_sum(engine._terms(rate, m, p_mode=m), factors) @ psi
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
    # both modes' propagators and the nonhermitian certificate read the
    # memoized split of one build of the generator sum, and the hermitized
    # certificate builds nothing; repeats and the march build none
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
    assert calls == ["nonhermitian"]


def test_modes_share_one_generator_sum(monkeypatch):
    # at n <= 512 both modes of a setup read one read-only split of one
    # build of the sum, and no A is kept once its propagator exists
    calls = []
    real = engine._factors

    def counting(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(engine, "_factors", counting)
    s = _setup(2)
    for mode in engine.MODES:
        engine.evolve_quantum_0d(s, F0, 3, mode=mode)
        assert ("A", mode) not in s._cache
    assert len(calls) == 1
    for block in engine._generator_blocks(s, "nonhermitian"):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0


def test_hermitized_certificate_builds_nothing(monkeypatch):
    # the hermitized A is exactly antisymmetric, so sigma is 1 at every
    # register size without a build of dt G
    calls = []
    real = engine.generator

    def counting(setup, mode):
        calls.append(mode)
        return real(setup, mode)

    monkeypatch.setattr(engine, "generator", counting)
    s = _setup(2)
    sigma, bound, flagged = engine.certificate(s, "hermitized")
    assert (sigma, flagged) == (1.0, False)
    assert bound == engine.dissipation_factor(1.0, s.dt, s.tau, 3, 1)
    assert calls == []


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
    assert res.flag_step is None
    assert np.max(np.abs(res.decoded[0] - F0)) < 1e-13
    assert 0.05 < res.rel_err[-1] < 0.25  # frozen band around 0.17
    want = classical.evolve_0d(F0, D1Q3, 1.0, 1e-3, 50)
    assert np.max(np.abs(res.classical - want)) == 0.0


def test_hermitized_preserves_norm_and_mass():
    s = _setup(3)
    res = engine.evolve_quantum_0d(s, F0, 100, mode="hermitized", init="exact")
    ratios = res.norms[1:] / res.norms[:-1]
    assert np.max(np.abs(ratios - 1.0)) < 1e-9
    assert res.flag_step is None
    # corrected norms reapply the removed dissipation envelope
    t = np.arange(101)
    want = res.norms * np.exp(t * 1e-3)
    assert np.max(np.abs(res.norms_corrected - want)) < 1e-9
    # decoded mass stays within the truncation tail at this horizon
    assert np.max(np.abs(res.decoded.sum(axis=1) - 1.0)) < 0.01


def test_decode_outside_input_domain_flags(monkeypatch):
    # a clean certificate does not keep the decoded values bounded: from
    # this start both modes drift past the encodable range within 1500 steps
    s = _setup(2)
    f0 = np.array([0.1, 0.1, 0.8])
    for mode in engine.MODES:
        res = engine.evolve_quantum_0d(s, f0, 1500, mode)
        assert res.flag_step is not None
        assert res.flag_reason == "decoded population outside [-1, 1]"
        assert np.all(np.abs(res.decoded[: res.flag_step]) <= 1.0)
        assert np.any(np.abs(res.decoded[res.flag_step]) > 1.0)
        ref = _one_step_result(monkeypatch, s, f0, 1500, mode)
        assert res.flag_step == ref.flag_step


def _one_step_march(par, sectors, psi, index, steps):
    # the plain march on the propagator joined from the sector blocks,
    # whatever the block rule says: one U @ psi per state, each state
    # scanned in full
    U = march.join(par, *sectors)
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
        m.setattr(march, "sector_march", _one_step_march)
        return engine.evolve_quantum_0d(setup, f0, steps, mode)


@pytest.mark.parametrize("qubits", [2, 3])
@pytest.mark.parametrize("mode", engine.MODES)
def test_blocked_march_matches_one_step_march(monkeypatch, qubits, mode):
    # 1500 steps at K = 64 (qc=2) and K = 32 (qc=3): 23 and 46 blocks
    # from products with U^K, the last one partial
    s = _setup(qubits)
    assert march.block_size(s.dim, 1500) == {2: 64, 3: 32}[qubits]
    res = engine.evolve_quantum_0d(s, F0, 1500, mode)
    ref = _one_step_result(monkeypatch, s, F0, 1500, mode)
    assert np.max(np.abs(res.decoded - ref.decoded)) <= 1e-12
    assert np.max(np.abs(res.norms / ref.norms - 1.0)) <= 1e-12
    assert (res.flag_step, res.flag_reason) == (
        ref.flag_step, ref.flag_reason
    )


def _one_step_sector_march(par, sectors, psi, index, steps):
    # the plain march on the two sector blocks of the propagator: one
    # product with each block per state, read out through the rows of the
    # parity basis at index, over all states at once
    even, odd = sectors
    e = len(even)
    states = np.empty((steps + 1, psi.size))
    states[0] = march.to_sectors(par, psi)
    for t in range(1, steps + 1):
        states[t, :e] = even @ states[t - 1, :e]
        states[t, e:] = odd @ states[t - 1, e:]
    norms = np.sqrt(np.einsum("ij,ij->i", states, states))
    finite = np.all(np.isfinite(states), axis=1)
    rows = march.to_sectors(par, np.eye(psi.size)[:, index])
    return states @ rows, norms, finite


def test_march_within_first_block_is_one_step_march(monkeypatch):
    # with steps + 1 <= K every state comes from one product with each
    # sector block, as in the plain march on them, and U^K is never formed
    s = _setup(3)
    with monkeypatch.context() as m:
        m.setattr(march, "sector_march", _one_step_sector_march)
        ref = engine.evolve_quantum_0d(s, F0, 40, "nonhermitian")

    def refuse(*args):
        raise AssertionError("U^K formed without a later block")

    monkeypatch.setattr(march, "block_size", lambda n, steps: steps + 1)
    monkeypatch.setattr(np.linalg, "matrix_power", refuse)
    res = engine.evolve_quantum_0d(s, F0, 40, "nonhermitian")
    assert np.array_equal(res.decoded, ref.decoded)


@pytest.mark.parametrize(
    "n,steps,K",
    [(4096, 2, 1), (4096, 1000, 1), (512, 1500, 32), (64, 1500, 64)],
)
def test_block_rule(n, steps, K):
    assert march.block_size(n, steps) == K


@pytest.mark.parametrize(
    "name,qubits,q_basis",
    [("D1Q3", 1, False), ("D1Q3", 3, False), ("D2Q9", 1, False),
     ("D1Q3", 4, True)],
)
def test_dimension_rule(name, qubits, q_basis):
    # registers up to 512 march on the sector blocks of the dense
    # propagator, which is joined only on request; D1Q3 qc=4 (4096)
    # marches in the q-eigenbasis, and asking it for a propagator raises
    model = lattice.build_lattice(name)
    s = engine.make_setup(model, qubits)
    assert (s.dim > engine._DENSE_DIM) == q_basis
    for mode in engine.MODES:
        engine.evolve_quantum_0d(s, model.weights, 2, mode)
        assert (("sectors", mode) in s._cache) != q_basis
        assert ("propagator", mode) not in s._cache
        if q_basis:
            with pytest.raises(TooLarge):
                engine.propagator(s, mode)
    assert ("q_form" in s._cache) == q_basis
    assert ("G sectors" in s._cache) != q_basis


def _inversion(setup):
    # the Fock-state permutation of the lattice inversion, from the
    # velocities: mode i takes the occupation of the mode with -c_i
    vel = [tuple(v) for v in setup.model.velocities]
    swap = [vel.index(tuple(-np.array(v))) for v in vel]
    levels = (setup.cfg.levels,) * setup.modes
    occupations = np.array(np.unravel_index(np.arange(setup.dim), levels))
    return np.ravel_multi_index(occupations[swap], levels)


@pytest.mark.parametrize(
    "name,qubits,even,odd",
    [("D1Q3", 1, 6, 2), ("D1Q3", 2, 40, 24), ("D1Q3", 3, 288, 224),
     ("D2Q9", 1, 272, 240)],
)
@pytest.mark.parametrize("mode", engine.MODES)
def test_generator_commutes_with_lattice_inversion(name, qubits, even, odd,
                                                   mode):
    # G commutes with the inversion, so in the parity basis it is an even
    # and an odd block, which the engine's split reads and its join undoes
    s = engine.make_setup(lattice.build_lattice(name), qubits)
    G = engine.generator(s, mode)
    pi = _inversion(s)
    size = np.linalg.norm(G)
    assert np.linalg.norm(G[np.ix_(pi, pi)] - G) <= 1e-13 * size
    Bt, e = oracles.parity_basis(pi)
    assert (e, s.dim - e) == (even, odd)
    par = engine._parity(s)
    assert np.max(np.abs(march.to_sectors(par, np.eye(s.dim)) - Bt)) <= 1e-15
    C = Bt @ G @ Bt.T
    between = np.linalg.norm(C[:e, e:]) + np.linalg.norm(C[e:, :e])
    assert between <= 1e-13 * size
    blocks = march.split(par, G)
    assert np.max(np.abs(blocks[0] - C[:e, :e])) <= 1e-13 * size
    assert np.max(np.abs(blocks[1] - C[e:, e:])) <= 1e-13 * size
    assert np.max(np.abs(march.join(par, *blocks) - G)) <= 1e-13 * size


def test_dense_path_forms_no_register_wide_operator(monkeypatch):
    # D1Q3 qc=3 over 1500 steps (K = 32): every expm, matrix power and
    # march product acts on a sector block, 288 or 224 wide, never on the
    # 512-wide register; the readout of Q + 1 amplitudes per state is the
    # one product over all 512 coordinates
    shapes = {"expm": set(), "matrix_power": set(), "matmul": set()}

    def recording(name, real):
        def wrapper(*args, **kwargs):
            operands = args + tuple(kwargs.values())
            shapes[name].update(np.shape(a) for a in operands)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "expm", recording("expm", engine.expm))
    monkeypatch.setattr(
        np.linalg, "matrix_power",
        recording("matrix_power", np.linalg.matrix_power),
    )
    monkeypatch.setattr(np, "matmul", recording("matmul", np.matmul))
    s = _setup(3)
    for mode in engine.MODES:
        engine.evolve_quantum_0d(s, F0, 1500, mode)
    assert shapes["expm"] == {(288, 288), (224, 224)}
    assert shapes["matrix_power"] == {(288, 288), (224, 224), ()}
    assert (32, 288) in shapes["matmul"] and (32, 224) in shapes["matmul"]
    assert not any(512 in shape for shape in shapes["matmul"])


F0_D2Q9 = np.array([0.4, 0.12, 0.1, 0.11, 0.1, 0.03, 0.025, 0.03, 0.085])


@pytest.mark.parametrize("mode", engine.MODES)
def test_d2q9_sector_march_matches_dense_march(monkeypatch, mode):
    # D2Q9 qc=1 (n = 512, four mode pairs) at K = 2: the march on the two
    # sector blocks against one product with the dense U per state, and U,
    # joined from the blocks, against scipy's expm of the whole generator
    s = engine.make_setup(lattice.build_lattice("D2Q9"), 1)
    assert march.block_size(s.dim, 300) == 2
    want = scipy.linalg.expm(s.dt * engine.generator(s, mode))
    assert np.max(np.abs(engine.propagator(s, mode) - want)) <= 1e-14
    res = engine.evolve_quantum_0d(s, F0_D2Q9, 300, mode)
    ref = _one_step_result(monkeypatch, s, F0_D2Q9, 300, mode)
    assert np.max(np.abs(res.decoded - ref.decoded)) <= 1e-12
    assert np.max(np.abs(res.norms / ref.norms - 1.0)) <= 1e-12
    assert (res.flag_step, res.flag_reason) == (
        ref.flag_step, ref.flag_reason
    )


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


_WEYL_CASES = [
    (name, qubits, tau, dt)
    for name, qubit_list in (("D1Q3", (1, 2, 3, 4)), ("D2Q9", (1,)))
    for qubits in qubit_list
    for tau, dt in ((1.0, 1e-3), (0.7, 1e-3), (0.8, 2e-3))
]


@pytest.mark.parametrize("name,qubits,tau,dt", _WEYL_CASES)
def test_weyl_bound_never_under_reads_all_blocks(monkeypatch, name, qubits,
                                                 tau, dt):
    # two certified blocks per mode and the rounding term never read below
    # the bound from every block, and stay within 1e-12 of it
    s = engine.make_setup(lattice.build_lattice(name), qubits, tau=tau, dt=dt)
    want = oracles.weyl_bound_all_blocks(s)
    shapes = []
    real = engine._lambda_max_bound

    def recording(S):
        shapes.append(S.shape)
        return real(S)

    monkeypatch.setattr(engine, "_lambda_max_bound", recording)
    mu = engine._weyl_bound(s)
    assert want <= mu <= want * (1.0 + 1e-12)
    L = s.cfg.levels
    assert shapes == [(2 * s.modes, L, L)]


@pytest.mark.parametrize("tau", [0.7, 1.0])
@pytest.mark.parametrize("dt", [5e-4, 1e-3, 2e-3])
def test_qc4_certificate_stops_lanczos_once_flagged(monkeypatch, tau, dt):
    # the lower bound's run stops once it flags, and the certificate reads
    # the verdict and sigma the fully converged lower bound gives
    ref = _setup(4, tau=tau, dt=dt)
    weyl = math.exp(engine._weyl_bound(ref))
    low = math.exp(engine._rayleigh_bound(ref))
    bound = engine.dissipation_factor(1.0, dt, tau, 3, 1)
    threshold = bound * engine.CERTIFICATE_MARGIN
    assert weyl > threshold and low > threshold  # each case flags
    calls = []
    real = engine._q_apply

    def counting(setup, part, x):
        calls.append(part)
        return real(setup, part, x)

    monkeypatch.setattr(engine, "_q_apply", counting)
    s = _setup(4, tau=tau, dt=dt)
    assert engine.certificate(s, "nonhermitian") == (weyl, bound, True)
    if dt == 1e-3:
        assert calls == ["symmetric"] * len(calls) and len(calls) <= 5


@pytest.mark.parametrize(
    "dt,branch",
    [(1e-4, "weyl"), (2e-4, "dense"), (1e-3, "rayleigh")],
)
def test_qc4_certificate_branches(monkeypatch, dt, branch, qc4):
    # D1Q3 qc=4 at tau = 1: the lower bound is about 37.2 dt and the Weyl
    # bound about 68.4 dt, against a threshold of dt + ln 1.01
    calls = []
    real = engine.generator

    def counting(setup, mode):
        calls.append(mode)
        return real(setup, mode)

    monkeypatch.setattr(engine, "generator", counting)
    s = _setup(4, dt=dt)
    weyl, low = engine._weyl_bound(s), engine._rayleigh_bound(s)
    assert abs(weyl / dt - 68.4) < 0.1 and abs(low / dt - 37.2) < 0.1
    sigma, bound, flagged = engine.certificate(s, "nonhermitian")
    threshold = bound * engine.CERTIFICATE_MARGIN
    # only the dense fallback builds A, and it keeps neither A nor the
    # generator sum: its certificate is memoized
    assert calls == (["nonhermitian"] if branch == "dense" else [])
    assert ("A", "nonhermitian") not in s._cache and "G" not in s._cache
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
    assert h.flag_step is None
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


def _injected_march(U, steps):
    # decoded values, norms and first flag of the D1Q3 qc=1 register
    # (dim 8) marching a crafted operator split by its lattice inversion,
    # through the shared march and check table at the engine's ratio bound
    s = _setup(1)
    par, index = engine._parity(s), engine._readout_index(s)
    psi = engine.initial_state(s, F0)
    amps, norms, finite = march.sector_march(
        par, march.split(par, U), psi, index, steps
    )
    decoded = fock.ratio_decode(amps)
    bound = engine.dissipation_factor(1.0, s.dt, s.tau, 3, 1)
    flag = march.first_flag(
        finite, norms, bound * engine.CERTIFICATE_MARGIN, amps[:, 0], decoded
    )
    return decoded, norms, flag


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
    # dim 8 at 100 steps gives K = 64: steps 64-100 come from products
    # with U^64, so NaN or overflow inside U^64 itself is marched too
    assert march.block_size(8, 100) == 64
    decoded, norms, flag = _injected_march(U, 100)
    assert flag == (1, reason)
    assert decoded.shape == (101, 3) and norms.shape == (101,)
    assert np.max(np.abs(decoded[0] - F0)) < 1e-13


def test_zero_steps_is_unflagged():
    res = engine.evolve_quantum_0d(_setup(1), F0, 0)
    assert res.flag_step is None
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
    assert march.block_size(s.dim, 200) == 1
    tracemalloc.start()
    try:
        engine.evolve_quantum_0d(s, F0, 200, mode="hermitized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
