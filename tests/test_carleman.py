"""Monomial-lift linearization and its truncation behaviour."""

import math
import warnings

import numpy as np
import pytest

from qalb import carleman, classical, lattice
from qalb.errors import NonFinite, OmegaOutOfRange, SingularTime, TooLarge

import oracles

P_SMALL = carleman.LogisticParams(a=1.0, b=1.0, f0=0.01)


def test_params_and_fixed_point():
    p = carleman.LogisticParams(a=2.0, b=0.5, f0=1.0)
    assert p.K == 4.0
    with pytest.raises(ValueError):
        carleman.LogisticParams(a=-1.0, b=1.0, f0=0.1)
    with pytest.raises(ValueError):
        carleman.LogisticParams(a=1.0, b=0.0, f0=0.1)


def test_singular_time():
    assert carleman.singular_time(P_SMALL) == math.inf
    p = carleman.LogisticParams(a=1.0, b=1.0, f0=2.0)
    assert abs(carleman.singular_time(p) - math.log(2.0)) < 1e-15
    # far above the fixed point, a * t_sing approaches K / f0
    p_far = carleman.LogisticParams(a=1.0, b=1.0, f0=1e4)
    assert abs(carleman.singular_time(p_far) * 1e4 - 1.0) < 1e-3


def test_logistic_exact_values():
    assert carleman.logistic_exact(P_SMALL, 0.0) == P_SMALL.f0
    t = np.linspace(0.0, 3.0, 7)
    f = carleman.logistic_exact(P_SMALL, t)
    assert np.all(np.diff(f) < 0.0)  # decays below the fixed point
    # residual of the defining equation under a central difference
    h = 1e-6
    fm = carleman.logistic_exact(P_SMALL, 1.0 - h)
    fp = carleman.logistic_exact(P_SMALL, 1.0 + h)
    f1 = carleman.logistic_exact(P_SMALL, 1.0)
    assert abs((fp - fm) / (2 * h) - (-f1 + f1 * f1)) < 1e-9


def test_logistic_exact_guards():
    with pytest.raises(ValueError):
        carleman.logistic_exact(P_SMALL, -0.1)
    p = carleman.LogisticParams(a=1.0, b=1.0, f0=2.0)
    with pytest.raises(SingularTime) as info:
        carleman.logistic_exact(p, 1.0)
    assert abs(info.value.t_singular - math.log(2.0)) < 1e-12


def test_closed_forms_at_small_a():
    # as a -> 0 the problem is df/dt = b f^2, with blow-up at 1/(b f0) and
    # solution f0 / (1 - b f0 t); log1p and expm1 keep both from cancelling
    p = carleman.LogisticParams(a=1e-300, b=1.0, f0=0.01)
    assert abs(carleman.singular_time(p) - 100.0) <= 1e-15 * 100.0
    t = np.array([0.0, 1.0, 10.0, 50.0, 90.0])
    want = p.f0 / (1.0 - p.b * p.f0 * t)
    got = carleman.logistic_exact(p, t)
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_lift_overflow_raises_without_warning():
    driving = {(1, 0): np.array([-1.0, 0.0]), (0, 2): np.array([0.0, 1.0])}
    system = carleman.linearize(driving, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            system.initial_state([1e200, 1e200])
        chain = carleman.logistic_carleman_chain(P_SMALL, 4)
        with pytest.raises(NonFinite):
            chain.initial_state([1e100])


def test_chain_matrix_frozen():
    sys4 = carleman.logistic_carleman_chain(P_SMALL, 4)
    expected = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, -2.0, 2.0, 0.0],
            [0.0, 0.0, -3.0, 3.0],
            [0.0, 0.0, 0.0, -4.0],
        ]
    )
    assert np.array_equal(sys4.C, expected)
    assert sys4.variables == ((1,), (2,), (3,), (4,))
    assert np.array_equal(sys4.initial_state([0.01]), 0.01 ** np.arange(1, 5))
    with pytest.raises(ValueError):
        carleman.logistic_carleman_chain(P_SMALL, 0)


def test_order_one_is_pure_exponential():
    times, curves = carleman.logistic_order_sweep(P_SMALL, (1,), 0.01, 200)
    assert np.max(np.abs(curves[1] - P_SMALL.f0 * np.exp(-times))) < 1e-14


def test_exact_method_error_decreases_with_order():
    times, curves = carleman.logistic_order_sweep(P_SMALL, (1, 2, 3, 4), 0.01, 500)
    ref = carleman.logistic_exact(P_SMALL, times)
    errs = [np.max(np.abs(curves[k] - ref)) for k in (1, 2, 3, 4)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_euler_method_error_nonincreasing_with_order():
    times, curves = carleman.logistic_order_sweep(
        P_SMALL, (1, 2, 3, 4), 0.01, 100, method="euler"
    )
    ref = carleman.logistic_exact(P_SMALL, times)
    errs = [np.max(np.abs(curves[k] - ref)) for k in (1, 2, 3, 4)]
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))


def test_blowup_proximity_degrades_truncation():
    # same truncation order, initial point moved toward the fixed point
    near = carleman.LogisticParams(a=1.0, b=1.0, f0=0.5)
    _, c_near = carleman.logistic_order_sweep(near, (4,), 0.01, 100)
    _, c_far = carleman.logistic_order_sweep(P_SMALL, (4,), 0.01, 100)
    e_near = abs(c_near[4][-1] - carleman.logistic_exact(near, 1.0))
    e_far = abs(c_far[4][-1] - carleman.logistic_exact(P_SMALL, 1.0))
    assert e_near > 10.0 * e_far


def test_evolve_system_guards():
    sys2 = carleman.logistic_carleman_chain(P_SMALL, 2)
    with pytest.raises(ValueError):
        carleman.evolve_system(sys2, np.ones(3), 0.01, 2)
    with pytest.raises(ValueError):
        carleman.evolve_system(sys2, np.ones(2), 0.01, 2, method="rk4")


@pytest.mark.parametrize("kmax", [1, 4, 1200])
def test_logistic_chain_is_closed_form(kmax):
    # diagonal -k a and superdiagonal k b, bit for bit, sign bits included
    p = carleman.LogisticParams(a=1.3, b=0.4, f0=0.05)
    k = np.arange(1, kmax + 1)
    want = np.diag(-k * p.a) + np.diag(k[:-1] * p.b, 1)
    chain = carleman.logistic_carleman_chain(p, kmax)
    assert np.array_equal(chain.C, want)
    assert np.array_equal(np.signbit(chain.C), np.signbit(want))
    assert chain.variables == tuple((j,) for j in k)


def test_linearize_guards(monkeypatch):
    # the basis size is counted before anything is enumerated: one variable
    # to order 4097, and 27 variables to order 4 (31,464 monomials)
    def enumerated(*args):
        raise AssertionError("monomial basis enumerated past the guard")

    with monkeypatch.context() as m:
        m.setattr(carleman, "monomial_basis", enumerated)
        with pytest.raises(TooLarge, match="has 4097 monomials"):
            carleman.linearize({(1,): np.array([-1.0])}, 4097)
        with pytest.raises(TooLarge, match="has 31464 monomials"):
            carleman.linearize({(1,) + (0,) * 26: np.ones(27)}, 4)
    # ten variables, a degree-10 term, to order 2: 10 + 55 rows
    system = carleman.linearize({(1,) * 10: np.ones(10)}, 2)
    assert system.C.shape == (65, 65)
    # the guard's edge, on a lowered limit: order 10 fits ten rows, 11 not
    monkeypatch.setattr(carleman, "_MAX_DIM", 10)
    assert carleman.logistic_carleman_chain(P_SMALL, 10).C.shape == (10, 10)
    with pytest.raises(TooLarge):
        carleman.logistic_carleman_chain(P_SMALL, 11)
    with pytest.raises(ValueError):
        carleman.linearize({(0,): np.array([1.0])}, 2)
    with pytest.raises(ValueError):
        carleman.linearize({}, 2)
    with pytest.raises(ValueError):
        carleman.linearize({(1,): np.ones(2)}, 2)


def test_monomial_basis_counts():
    basis = carleman.monomial_basis(3, 2)
    assert len(basis) == 3 + 6  # degree-1 plus degree-2 monomials
    assert basis[0] == (1, 0, 0)
    assert len(set(basis)) == len(basis)


def _rate(driving, f):
    return sum(coeff * np.prod(f ** np.array(e)) for e, coeff in driving.items())


def test_bgk_linear_block_is_jacobian_at_origin():
    model = lattice.build_lattice("D1Q3")
    tau = 0.9
    driving = carleman.bgk_driving(model, tau)
    system = carleman.linearize(driving, 2)
    assert len(system.variables) == 9
    h = 1e-6
    jac = np.empty((3, 3))
    for j in range(3):
        d = np.zeros(3)
        d[j] = h
        jac[:, j] = (_rate(driving, d) - _rate(driving, -d)) / (2 * h)
    assert np.max(np.abs(system.C[:3, :3] - jac)) < 1e-6


def test_bgk_driving_matches_relaxation_rate():
    model = lattice.build_lattice("D1Q3")
    mc = oracles.mode_coupling(model)
    driving = carleman.bgk_driving(model, 0.7)
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.uniform(0.05, 0.5, size=3)
        want = -(f - mc.equilibrium(f)) / 0.7
        assert np.max(np.abs(_rate(driving, f) - want)) < 1e-13
    # past 1-D the trace closure of mode_coupling is not the equilibrium, so
    # unit-mass points are checked against the rho-normalized grid formula
    for name in ("D2Q9", "D3Q27"):
        model = lattice.build_lattice(name)
        driving = carleman.bgk_driving(model, 0.7)
        for _ in range(5):
            f = rng.uniform(0.05, 0.5, size=model.Q)
            f /= f.sum()
            want = -(f - classical.equilibrium(f, model)) / 0.7
            assert np.max(np.abs(_rate(driving, f) - want)) < 1e-13


def test_bgk_driving_homogenizes_bgk_rate():
    # the constant w/tau moves onto w/tau sum_j f_j: no constant key is
    # left, the two agree on the simplex, and they part at f = 0
    rng = np.random.default_rng(6)
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        model = lattice.build_lattice(name)
        rate = classical.bgk_rate(model, 0.7)
        driving = carleman.bgk_driving(model, 0.7)
        assert (0,) * model.Q not in driving
        for _ in range(3):
            f = rng.uniform(0.05, 0.5, size=model.Q)
            f /= f.sum()
            gap = _rate(driving, f) - _rate(rate, f)
            assert np.max(np.abs(gap)) < 1e-13
        zero = np.zeros(model.Q)
        assert np.array_equal(_rate(driving, zero), zero)
        assert np.array_equal(_rate(rate, zero), model.weights / 0.7)


@pytest.mark.parametrize("name", ["D2Q9", "D3Q27"])
def test_order_two_bgk_closure_is_exact(name):
    # the momentum is conserved and enters feq only through its square, so
    # the truncated degree-3 feeds cancel and feq stays at its initial value
    model = lattice.build_lattice(name)
    tau, dt, steps = 0.9, 1e-3, 1500
    system = carleman.linearize(carleman.bgk_driving(model, tau), 2)
    f0 = np.random.default_rng(11).uniform(0.05, 0.5, size=model.Q)
    f0 /= f0.sum()
    hist = carleman.evolve_system(system, system.initial_state(f0), dt, steps)
    feq = classical.equilibrium(f0, model)
    t = dt * np.arange(steps + 1)[:, None]
    want = feq + np.exp(-t / tau) * (f0 - feq)
    assert np.max(np.abs(hist[:, : model.Q] - want)) < 1e-11


def test_closed_d1q3_matches_nonlinear_map():
    rng = np.random.default_rng(9)
    mc = oracles.mode_coupling(lattice.build_lattice("D1Q3"))
    for _ in range(5):
        f0 = rng.uniform(0.05, 0.5, size=3)
        f0 /= f0.sum()
        omega = rng.uniform(0.2, 1.8)
        hist = carleman.clb_closed_d1q3(f0, omega, 200)
        f = f0.copy()
        for _ in range(200):
            f = f - omega * (f - mc.equilibrium(f))
        assert np.max(np.abs(hist[-1, :3] - f)) < 1e-12


def test_closed_d1q3_matches_classical_reference():
    # tau = 1/omega and dt = 1 make classical.evolve_0d the same relaxation map
    rng = np.random.default_rng(21)
    for omega in (0.3, 0.9, 1.0, 1.5, 1.95):
        f0 = rng.dirichlet(np.ones(3))
        hist = carleman.clb_closed_d1q3(f0, omega, 200)
        want = classical.evolve_0d(
            f0, lattice.build_lattice("D1Q3"), 1.0 / omega, 1.0, 200
        )
        assert np.max(np.abs(hist[:, :3] - want)) < 1e-12


def test_closed_d1q3_momentum_invariant():
    hist = carleman.clb_closed_d1q3(np.array([0.6, 0.1, 0.3]), 1.0, 50)
    g0 = (0.3 - 0.1) ** 2
    assert np.all(hist[:, 3] == g0)  # last row of the map is the identity


def test_closed_d1q3_guards():
    with pytest.raises(OmegaOutOfRange):
        carleman.clb_closed_d1q3(np.array([0.6, 0.1, 0.3]), 2.0, 5)
    with pytest.raises(ValueError):
        carleman.clb_closed_d1q3(np.array([0.6, 0.1, 0.4]), 1.0, 5)
    with pytest.raises(ValueError):
        carleman.clb_closed_d1q3(np.ones(4) / 4.0, 1.0, 5)
