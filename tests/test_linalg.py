"""Matrix exponential and its action against independent references."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qalb import carleman, engine, lattice, linalg
from qalb.errors import DimMismatch, NonFinite, TooLarge


def test_expm_zero_and_identity():
    assert np.max(np.abs(linalg.expm(np.zeros((4, 4))) - np.eye(4))) < 1e-15
    out = linalg.expm(np.eye(3))
    assert np.max(np.abs(out - np.e * np.eye(3))) < 1e-14


def test_expm_matches_scipy_random():
    rng = np.random.default_rng(5)
    for n in (2, 7, 24, 60):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gap = np.abs(linalg.expm(a) - scipy.linalg.expm(a))
        assert np.max(gap) < 1e-10 * max(1.0, np.max(np.abs(scipy.linalg.expm(a))))


def test_expm_large_norm():
    rng = np.random.default_rng(6)
    a = 40.0 * rng.standard_normal((8, 8))
    ref = scipy.linalg.expm(a)
    assert np.max(np.abs(linalg.expm(a) - ref)) < 1e-8 * np.max(np.abs(ref))


def test_expm_trace_shift_keeps_small_exponentials_accurate():
    # exp(A) = e^mu exp(A - mu I), mu = tr(A) / n: a 1 x 1 matrix is its
    # exponential to rounding (1.7e-9 relative without the shift), and the
    # order-400 logistic chain at dt = 0.01, whose diagonal falls to -4,
    # matches scipy within 1e-14 of its largest entry (5.5e-14 without)
    u = np.finfo(float).eps / 2.0
    got = linalg.expm(np.array([[-9.8]]))[0, 0]
    assert abs(got - np.exp(-9.8)) <= 2.0 * u * np.exp(-9.8)
    p = carleman.LogisticParams(a=1.0, b=1.0, f0=0.5)
    a = carleman.logistic_carleman_chain(p, 400).C * 0.01
    ref = scipy.linalg.expm(a)
    assert np.max(np.abs(linalg.expm(a) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_expm_skew_hermitian_is_unitary():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = h + h.conj().T
    u = linalg.expm(-1j * h)
    assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


@pytest.mark.parametrize("scale", [0.1, 1.0])
@pytest.mark.parametrize("complex_input", [False, True])
def test_expm_leaves_argument_unchanged(scale, complex_input):
    rng = np.random.default_rng(9)
    a = scale * rng.standard_normal((12, 12))
    if complex_input:
        a = a + 1j * scale * rng.standard_normal((12, 12))
    # the large one takes substeps, so the s-th power runs too
    assert (linalg.taylor_degree(linalg.onenorm(a))[1] > 1) == (scale > 0.5)
    before = a.copy()
    linalg.expm(a)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("n, scale", [(12, 0.1), (12, 1.0), (0, 1.0), (12, 0.0)])
def test_expm_result_never_shares_the_argument(n, scale):
    # neither one step (s = 1), n = 0 nor the zero matrix (exp = I) may
    # hand the argument (or a view of it) back
    a = scale * np.random.default_rng(9).standard_normal((n, n))
    out = linalg.expm(a)
    assert out is not a and out.base is not a
    assert not np.shares_memory(out, a)


def _scaled(rng, n, norm, complex_input, band=None):
    a = rng.standard_normal((n, n))
    if complex_input:
        a = a + 1j * rng.standard_normal((n, n))
    if band is not None:
        # lower and upper bandwidths differ, so the pattern is not symmetric
        a = np.tril(np.triu(a, -band), band // 2)
    return a * (norm / np.linalg.norm(a, 1))


def _check_expm(a):
    before = a.copy()
    ref = scipy.linalg.expm(a)
    got = linalg.expm(a)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(a, before)
    inverse = got @ linalg.expm(-a)
    assert np.max(np.abs(inverse - np.eye(len(a)))) <= 1e-12


@pytest.mark.parametrize("m", [3, 5, 7, 9, 12, 13, 17, 30, 55])
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_expm_each_degree_matches_scipy(m, banded, complex_input):
    # just below theta_m the Taylor series has degree m; just above, the
    # degree switches (to s = 2 substeps past theta_55).  expm picks the
    # degree from ||a - mu I||_1, mu = tr(a) / n, so a is made traceless
    # before it is scaled.  The banded case has lower and upper bandwidths
    # that differ, like the Carleman chain.
    rng = np.random.default_rng(m)
    n, band = (60, 3) if banded else (40, None)
    for side in (0.99, 1.01):
        norm = side * linalg._THETA_TAYLOR[m]
        a = _scaled(rng, n, 1.0, complex_input, band)
        a[np.diag_indices(n)] -= np.trace(a) / n
        a *= norm / linalg.onenorm(a)
        shifted = a - np.trace(a) / n * np.eye(n)
        degree = linalg.taylor_degree(linalg.onenorm(shifted))[0]
        assert (degree == m) == (side < 1)
        _check_expm(a)


@pytest.mark.parametrize("norm", [12.0, 30.0])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_expm_with_substeps_matches_scipy(norm, complex_input):
    a = _scaled(np.random.default_rng(14), 40, norm, complex_input)
    assert linalg.taylor_degree(linalg.onenorm(a))[1] > 1
    _check_expm(a)


def test_expm_guards():
    with pytest.raises(DimMismatch):
        linalg.expm(np.zeros((2, 3)))
    with pytest.raises(TooLarge):
        linalg.expm(np.zeros((4097, 4097)))
    bad = np.eye(2)
    for entry in (np.nan, np.inf):
        bad[0, 1] = entry
        with pytest.raises(NonFinite):
            linalg.expm(bad)
    # finite entries whose column sum overflows
    with pytest.raises(NonFinite), np.errstate(over="ignore"):
        linalg.expm(np.full((2, 2), 1e308))


def test_taylor_table_is_scipys():
    # scipy's expm_multiply reads the same theta_m table (Al-Mohy and
    # Higham 2011), so a wrong entry here shows as a mismatch
    from scipy.sparse.linalg._expm_multiply import _theta

    assert linalg._THETA_TAYLOR == _theta


@pytest.mark.parametrize(
    "norm,m,s",
    [(0.0, 0, 1), (0.874142, 17, 1), (0.238535, 12, 1), (9.9, 55, 1),
     (12.0, 40, 2), (30.0, 40, 5)],
)
def test_taylor_degree_takes_fewest_products(norm, m, s):
    assert linalg.taylor_degree(norm) == (m, s)
    if norm:
        best = min(k * np.ceil(norm / t) for k, t in linalg._THETA_TAYLOR.items())
        assert m * s == best


def test_taylor_degree_past_the_smallest_theta():
    # norm / theta_1 overflows, yet a degree and a finite s are chosen
    m, s = linalg.taylor_degree(1e300)
    assert m == 55 and s >= 1e300 / linalg._THETA_TAYLOR[55]


def _action_oracle(A, b):
    return scipy.sparse.linalg.expm_multiply(scipy.sparse.csr_array(A), b)


@pytest.mark.parametrize("mode", ["nonhermitian", "hermitized"])
@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_expm_action_matches_scipy_on_generators(qubits, mode):
    # the D1Q3 collision generators the engine marches with, applied as an
    # operator under their own 1-norm
    s = engine.make_setup(lattice.build_lattice("D1Q3"), qubits)
    A = s.dt * engine.generator(s, mode)
    b = np.random.default_rng(qubits).standard_normal(s.dim)
    before = A.copy(), b.copy()
    want = _action_oracle(A, b)
    got = linalg.expm_action(A.__matmul__, b, linalg.onenorm(A))
    assert got.shape == b.shape and got.dtype == np.float64
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(A, before[0]) and np.array_equal(b, before[1])


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_expm_action_with_substeps_matches_scipy(complex_input):
    # ||A||_1 = 30 takes m = 40 in s = 5 substeps
    rng = np.random.default_rng(12)
    A = _scaled(rng, 40, 30.0, complex_input)
    assert linalg.taylor_degree(linalg.onenorm(A)) == (40, 5)
    b = rng.standard_normal(40)
    if complex_input:
        b = b + 1j * rng.standard_normal(40)
    want = scipy.linalg.expm(A) @ b
    got = linalg.expm_action(A.__matmul__, b, linalg.onenorm(A))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(got - _action_oracle(A, b))) <= 1e-12 * np.max(np.abs(want))


def test_expm_action_empty_and_zero():
    out = linalg.expm_action(np.zeros((0, 0)).__matmul__, np.zeros(0), 0.0)
    assert out.shape == (0,)
    b = np.arange(4.0)
    out = linalg.expm_action(np.zeros((4, 4)).__matmul__, b, 0.0)
    assert np.array_equal(out, b) and not np.shares_memory(out, b)


def test_onenorm_matches_numpy():
    rng = np.random.default_rng(8)
    for shape in ((1, 1), (5, 5), (40, 40), (7, 3)):
        re, im = rng.standard_normal((2,) + shape)
        for a in (re, re + 1j * im):
            want = np.linalg.norm(a, 1)
            assert abs(linalg.onenorm(a) - want) <= 1e-14 * want
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert linalg.onenorm(np.zeros(shape)) == 0.0
    a = np.eye(3)
    a[2, 0] = np.nan
    assert np.isnan(linalg.onenorm(a))
    a[2, 0] = -np.inf
    assert linalg.onenorm(a) == np.inf


def test_expm_action_guards():
    A = np.eye(3)
    for bound in (np.inf, np.nan):
        with pytest.raises(NonFinite):
            linalg.expm_action(A.__matmul__, np.ones(3), bound)
    for entry in (np.inf, np.nan):
        with pytest.raises(NonFinite):
            linalg.expm_action(A.__matmul__, np.array([1.0, entry, 0.0]), 1.0)


def test_expm_action_refuses_too_many_substeps():
    # taylor_degree(1e12) asks for about 1e11 substeps: refused before the
    # operator is applied even once
    calls = []

    def apply(x):
        calls.append(1)
        return x

    assert linalg.taylor_degree(1e12)[1] > linalg._MAX_SUBSTEPS
    with pytest.raises(TooLarge):
        linalg.expm_action(apply, np.ones(3), 1e12)
    assert calls == []
    # the largest bound a CLI run reaches, D1Q3 qc=4 as dt/tau nears 2
    s = engine.make_setup(lattice.build_lattice("D1Q3"), 4, tau=0.5005, dt=1.0)
    norm = engine._q_form(s).norm
    assert linalg.taylor_degree(norm)[1] <= linalg._MAX_SUBSTEPS // 10


def test_expm_action_applies_a_function_under_a_norm_bound():
    # an operator given by its product and a 1-norm bound: a looser bound
    # takes more substeps to the same result
    rng = np.random.default_rng(13)
    A = _scaled(rng, 30, 3.0, False)
    b = rng.standard_normal(30)
    want = scipy.linalg.expm(A) @ b
    norm = linalg.onenorm(A)
    assert linalg.taylor_degree(4.0 * norm)[1] > linalg.taylor_degree(norm)[1]
    for bound in (norm, 4.0 * norm):
        got = linalg.expm_action(lambda x: A @ x, b, bound)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
