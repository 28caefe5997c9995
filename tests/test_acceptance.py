"""End-to-end acceptance gates, one test per numbered criterion.

Criterion 7 is split over two tests: the columns of the linear block sum
to 1 and the quadratic block has zero trace over its first index, while
the rows of the linear block sum to Q w_i (sum_j c_j = 0).  Two more tests
check the qc=4 propagators and the 2-step qc=4 march, which advances in the
q-eigenbasis and forms no dense matrix, against them; they reuse the
criterion-5 setup, so each dense qc=4 propagator is formed once, by the
first of them.
"""

import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from qalb import (
    bounds,
    carleman,
    complexity,
    engine,
    fock,
    hermite,
    lattice,
    pauli,
    streaming,
)

D1Q3 = lattice.build_lattice("D1Q3")
F0 = np.array([0.6, 0.1, 0.3])


def test_criterion_01_exact_closure_equivalence():
    t0 = time.perf_counter()
    mc = lattice.mode_coupling(D1Q3)
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10):
        f0 = rng.uniform(0.05, 1.0, size=3)
        f0 /= f0.sum()
        hist = carleman.clb_closed_d1q3(f0, 0.8, 1000)
        f = f0.copy()
        for t in range(1, 1001):
            f = f - 0.8 * (f - mc.equilibrium(f))
            worst = max(worst, float(np.max(np.abs(hist[t, :3] - f))))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: closed map equals nonlinear Euler, "
          f"gap {worst:.2e} over 1000 steps x 10 ICs ({elapsed:.2f}s)")


def test_criterion_02_truncated_commutator():
    t0 = time.perf_counter()
    worst = 0.0
    for qubits in (1, 2, 3):
        cfg = fock.FockConfig(qubits)
        q, p = fock.q_matrix(cfg), fock.p_matrix(cfg)
        want = np.eye(cfg.levels, dtype=complex)
        want[-1, -1] -= cfg.levels
        gap = np.max(np.abs(fock.commutator(q, p) - 1j * want))
        worst = max(worst, float(gap))
    assert worst <= 1e-14
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: [q,p] defect only in the top corner, "
          f"gap {worst:.2e} for qc in 1..3 ({elapsed:.2f}s)")


def test_criterion_03_pauli_compilation_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for qubits in (1, 2, 3):
        cfg = fock.FockConfig(qubits)
        a_s = pauli.a_pauli(cfg)
        adag_s = a_s.dagger()
        q_s, p_s = pauli.q_pauli(cfg), pauli.p_pauli(cfg)
        a = fock.a_matrix(cfg)
        q, p = fock.q_matrix(cfg), fock.p_matrix(cfg)
        for s, dense in (
            (a_s, a),
            (adag_s, a.conj().T),
            (q_s, q),
            (p_s, p),
        ):
            gap = np.max(np.abs(pauli.pauli_to_dense(s) - dense))
            worst = max(worst, float(gap))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 PASS: a, a†, q, p reconstruct densely, "
          f"gap {worst:.2e} for qc in 1..3 ({elapsed:.2f}s)")


def test_criterion_04_streaming_equivalence():
    t0 = time.perf_counter()
    rep1 = streaming.equivalence_check((8,), D1Q3)
    assert rep1.cases == 24 and rep1.passes == 24
    rep2 = streaming.equivalence_check((4, 4), lattice.build_lattice("D2Q9"))
    assert rep2.cases == 144 and rep2.passes == 144
    # the 8-site positive walk wraps 7 -> 0
    lay = streaming.RegisterLayout((8,))
    state = streaming.controlled_stream(
        streaming.basis_state(lay, (7,), (1,)), lay, 0, 1
    )
    hot = int(np.flatnonzero(state)[0])
    assert streaming.decode_index(lay, hot) == ((0,), (1,))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 PASS: register streaming equals index shifts "
          f"({rep1.cases}+{rep2.cases} basis cases, wrap included) ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def quantum_runs():
    """All criterion-5 evolutions, with per-phase wall times."""
    runs = {}
    t0 = time.perf_counter()
    s2 = engine.make_setup(D1Q3, 2)
    runs["nh2"] = engine.evolve_quantum_0d(s2, F0, 50, mode="nonhermitian",
                                           init="exact")
    runs["t_nh2"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    runs["h2"] = engine.evolve_quantum_0d(s2, F0, 1000, mode="hermitized",
                                          init="translation")
    s3 = engine.make_setup(D1Q3, 3)
    runs["h3"] = engine.evolve_quantum_0d(s3, F0, 1000, mode="hermitized",
                                          init="translation")
    runs["t_small_herm"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    s4 = engine.make_setup(D1Q3, 4)
    runs["nh4"] = engine.evolve_quantum_0d(s4, F0, 2, mode="nonhermitian",
                                           init="exact")
    runs["h4"] = engine.evolve_quantum_0d(s4, F0, 1000, mode="hermitized",
                                          init="translation")
    runs["t_qc4"] = time.perf_counter() - t0
    runs["s4"] = s4
    return runs


def test_criterion_05a_nonhermitian_qc4_flags(quantum_runs):
    res = quantum_runs["nh4"]
    assert res.flagged
    assert res.flag_step is not None and res.flag_step <= 2
    assert quantum_runs["t_qc4"] < 600.0
    print(f"ACCEPTANCE 5a PASS: non-Hermitian qc=4 flagged at step "
          f"{res.flag_step} ({res.flag_reason}); qc=4 phase "
          f"{quantum_runs['t_qc4']:.0f}s within budget")


def test_qc4_propagators_match_expm_action(quantum_runs):
    # the dense qc=4 propagators against scipy's action of the exponential
    # on the sparse generator, independent of the Pade degree and the
    # band-limited products
    s4 = quantum_runs["s4"]
    V = np.random.default_rng(4).standard_normal((s4.dim, 3))
    for mode in engine.MODES:
        A = scipy.sparse.csr_array(s4.dt * engine.generator(s4, mode))
        want = scipy.sparse.linalg.expm_multiply(A, V)
        gap = np.max(np.abs(engine.propagator(s4, mode) @ V - want))
        assert gap <= 1e-14 * np.max(np.abs(want))


def test_qc4_short_march_matches_dense_products(quantum_runs):
    # the 2-step qc=4 run marches by the action of the exponential; two
    # products with the dense propagator give the same states
    s4, res = quantum_runs["s4"], quantum_runs["nh4"]
    U = engine.propagator(s4, "nonhermitian")
    psi = engine.initial_state(s4, F0, init="exact")
    for t in range(3):
        values, ok = engine.decode_state(s4, psi)
        assert ok and np.max(np.abs(res.decoded[t] - values)) <= 1e-13
        assert abs(res.norms[t] / np.linalg.norm(psi) - 1.0) <= 1e-13
        psi = U @ psi


def test_criterion_05b_nonhermitian_qc2_tracks(quantum_runs):
    res = quantum_runs["nh2"]
    assert not res.flagged
    assert float(np.nanmax(res.rel_err)) < 0.25
    assert quantum_runs["t_nh2"] < 60.0
    print(f"ACCEPTANCE 5b PASS: non-Hermitian qc=2 relative error peaks at "
          f"{np.nanmax(res.rel_err):.3f} < 0.25 over 50 steps")


def test_criterion_05c_hermitized_norm_preserving(quantum_runs):
    worst = 0.0
    for key in ("h2", "h3", "h4"):
        norms = quantum_runs[key].norms
        worst = max(worst, float(np.max(np.abs(norms[1:] / norms[:-1] - 1.0))))
    assert worst <= 1e-9
    assert quantum_runs["t_small_herm"] < 60.0
    print(f"ACCEPTANCE 5c PASS: Hermitized per-step norm drift {worst:.2e} "
          f"<= 1e-9 for qc in 2..4")


def test_criterion_05d_qc2_outperforms(quantum_runs):
    finals = {k: float(quantum_runs[k].rel_err[-1]) for k in ("h2", "h3", "h4")}
    assert finals["h2"] <= finals["h3"]
    assert finals["h2"] <= finals["h4"]
    print(f"ACCEPTANCE 5d PASS: final Hermitized relative errors qc2 "
          f"{finals['h2']:.3f} <= qc3 {finals['h3']:.3f} and qc4 "
          f"{finals['h4']:.3f}")


def test_criterion_06_logistic_truncation_ladder():
    t0 = time.perf_counter()
    p = carleman.LogisticParams(a=1.0, b=1.0, f0=0.01)
    times, curves = carleman.logistic_order_sweep(p, (1, 2, 3, 4), 0.01, 500)
    ref = carleman.logistic_exact(p, times)
    errs = [float(np.max(np.abs(curves[k] - ref))) for k in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    order1_gap = float(np.max(np.abs(curves[1] - p.f0 * np.exp(-p.a * times))))
    assert order1_gap <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS: truncation errors {errs[0]:.1e} > {errs[1]:.1e} "
          f"> {errs[2]:.1e} > {errs[3]:.1e}; order 1 is the pure exponential "
          f"({order1_gap:.1e})")


def _exact_mode_tensors(name):
    """(weights, L, Qt) of the quadratic closure in exact rationals."""
    m = lattice.build_lattice(name)
    w = m.weight_fractions()
    c = [tuple(int(x) for x in row) for row in m.velocities]
    Q, D = m.Q, m.D
    dot = lambda a, b: sum(x * y for x, y in zip(a, b))
    L = [[w[i] * (1 + 3 * dot(c[i], c[j])) for j in range(Q)] for i in range(Q)]
    Qt = [
        [
            [
                w[i]
                * (Fraction(dot(c[i], c[i])) - Fraction(D, 3))
                * dot(c[j], c[k])
                * Fraction(9, 2)
                for k in range(Q)
            ]
            for j in range(Q)
        ]
        for i in range(Q)
    ]
    return w, L, Qt


def test_criterion_07_sum_rules_exact():
    t0 = time.perf_counter()
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        w, L, Qt = _exact_mode_tensors(name)
        Q = len(w)
        assert sum(w, Fraction(0)) == 1
        for j in range(Q):
            assert sum(L[i][j] for i in range(Q)) == 1
        for j in range(Q):
            for k in range(Q):
                assert sum(Qt[i][j][k] for i in range(Q)) == 0
        # the rational tensors are what the float code rounds from
        mc = lattice.mode_coupling(lattice.build_lattice(name))
        gapL = max(
            abs(mc.L[i, j] - float(L[i][j]))
            for i in range(Q)
            for j in range(Q)
        )
        assert gapL < 1e-15
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("ACCEPTANCE 7 PASS: weight sum, column sums, and quadratic trace "
          "are exactly 1, 1, 0 in rationals; rows sum to Q w_i in the "
          "companion test")


def test_criterion_07_row_sums_exact():
    # sum_j c_j = 0, so row i of L sums to sum_j w_i = Q w_i, which is 1
    # only for uniform weights; w_i is the tensor product of (2/3, 1/6, 1/6)
    w1d = {0: Fraction(2, 3), -1: Fraction(1, 6), 1: Fraction(1, 6)}
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        m = lattice.build_lattice(name)
        Q = m.Q
        iso = [prod(w1d[int(x)] for x in v) for v in m.velocities]
        _, L, _ = _exact_mode_tensors(name)
        for i in range(Q):
            assert sum(L[i][j] for j in range(Q)) == Q * iso[i], (
                f"{name} row {i} does not sum to Q*w_i = {Q} * {iso[i]}"
            )
        # the float block the program builds has the same row sums
        mc = lattice.mode_coupling(m)
        want = np.array([Q * float(x) for x in iso])
        assert np.max(np.abs(mc.L.sum(axis=1) - want)) < 1e-14
    print("ACCEPTANCE 7 PASS: rows of L sum to Q w_i exactly in rationals")


def test_criterion_08_error_bound_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        c0 = float(rng.uniform(0.2, 8.0))
        c1 = float(rng.uniform(5.0, 80.0))
        eps_n = float(rng.uniform(0.01, 0.3))
        s = c0 / c1 + eps_n
        dt = float(rng.uniform(0.05, 0.9)) / (4.0 * c1 * c1 * s)
        p = bounds.ErrorBoundParams(C0=c0, C1=c1, tau=1.0, dt=dt, eps_N=eps_n)
        run = bounds.logistic_map_run(p, 20)
        assert run.real_kappa
        worst = max(worst, float(np.max(np.abs(run.eps - run.eps_raw))))
    assert worst <= 1e-10
    e3 = bounds.epsilon_N(3)
    good = bounds.feasibility_by_variant(3, e3, 1e-6, 1.0)
    bad = bounds.feasibility_by_variant(3, e3, 1.0, 1.0)
    assert all(r.feasible for r in good.values())
    assert not any(r.feasible for r in bad.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 8 PASS: map and raw recursions agree to {worst:.1e}; "
          f"feasible at dt/tau=1e-6, infeasible at 1")


def test_criterion_09_truncated_hermite_identities():
    t0 = time.perf_counter()
    basis = hermite.build_basis(z=1.0, nmax=10)
    rep = hermite.gamma_laguerre_freud_check(basis.gammas, 1.0)
    assert rep.ns == tuple(range(1, 9))  # n <= 8
    assert rep.max_residual <= 1e-8
    xs = np.linspace(-0.9, 0.9, 7)
    worst_low = max(
        float(np.max(hermite.lowering_check(basis, n, xs))) for n in range(1, 9)
    )
    worst_diff = max(
        float(np.max(hermite.diff_recurrence_check(basis, n, xs)))
        for n in range(2, 9)
    )
    assert worst_low <= 1e-7
    assert worst_diff <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 9 PASS: Laguerre-Freud residual {rep.max_residual:.1e}, "
          f"lowering {worst_low:.1e}, differentiated recurrence "
          f"{worst_diff:.1e} ({elapsed:.2f}s)")


def test_criterion_10_complexity_anchors():
    m, _, _ = complexity.lcu_collision_params(3, 3, 1.0)
    assert m == 17
    assert complexity.tier_sums(3, 1.0)[2] == 0.0
    assert complexity.qubits_for_reynolds(1e8) == 60.0
    print("ACCEPTANCE 10 PASS: m(Q=3)=17, S2(Q=3)=0, "
          "qubits_for_reynolds(1e8)=60")
