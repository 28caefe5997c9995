"""Matrix exponential and its action against independent references."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from qalb import engine, lattice, linalg
from qalb.errors import DimMismatch, NonFinite, TooLarge


# Higham (2005), Table 2.3: the largest 1-norm at which Pade degree m is
# accurate to unit roundoff; written out here so a wrong table in linalg
# shows as a wrong degree
THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}


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
    # both sides of theta_13, so the scaling branch runs for the large one
    assert (np.linalg.norm(a, 1) > THETA[13]) == (scale > 0.5)
    before = a.copy()
    linalg.expm(a)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("n, scale", [(12, 0.1), (12, 1.0), (0, 1.0)])
def test_expm_result_never_shares_the_argument(n, scale):
    # A is copied only to scale it, so neither the unscaled path nor n = 0
    # may hand the argument (or a view of it) back
    a = scale * np.random.default_rng(9).standard_normal((n, n))
    out = linalg.expm(a)
    assert out is not a and out.base is not a
    assert not np.shares_memory(out, a)


def _scaled(rng, n, norm, complex_input, band=None):
    a = rng.standard_normal((n, n))
    if complex_input:
        a = a + 1j * rng.standard_normal((n, n))
    if band is not None:
        # lower and upper bandwidths differ, so both sides of the band count
        a = np.tril(np.triu(a, -band), band // 2)
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize("m", sorted(THETA))
@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_expm_each_degree_matches_scipy(m, banded, complex_input):
    # just below and just above each theta_m, so every degree and every
    # switch between them runs; the banded size is past two row blocks even
    # for A^6, so the band-limited products are blocked
    rng = np.random.default_rng(m)
    n, band = (2 * linalg._ROWS + 37, 3) if banded else (40, None)
    for side in (0.99, 1.01):
        a = _scaled(rng, n, side * THETA[m], complex_input, band)
        before = a.copy()
        ref = scipy.linalg.expm(a)
        got = linalg.expm(a)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.array_equal(a, before)
        inverse = got @ linalg.expm(-a)
        assert np.max(np.abs(inverse - np.eye(n))) <= 1e-12


@pytest.mark.parametrize("m", [7, 9])
@pytest.mark.parametrize("factor", [0.999, 1.25])
def test_expm_degree_boundaries_on_diagonal(m, factor):
    # random matrices stay accurate past a wrong theta; a diagonal at the
    # threshold does not: degree 7 or 9 used 25% past its theta misses
    # exp by 3e-15 or more, the right degree by under 4e-16
    d = factor * THETA[m] * np.array([1.0, -1.0, 0.5, -0.25])
    got = np.diag(linalg.expm(np.diag(d)))
    assert np.max(np.abs(got - np.exp(d)) / np.exp(d)) <= 1e-15


@pytest.mark.parametrize("band", ["0", "1", "n-1", "n", "2n"])
def test_band_matmul_matches_matmul(band):
    n = 2 * linalg._ROWS + 37  # not a multiple of the row block
    b = {"0": 0, "1": 1, "n-1": n - 1, "n": n, "2n": 2 * n}[band]
    rng = np.random.default_rng(3)
    i, j = np.indices((n, n))
    L = np.where(np.abs(i - j) <= b, rng.standard_normal((n, n)), 0.0)
    R = rng.standard_normal((n, n))
    assert linalg._bandwidth(L) == min(b, n - 1)
    want = L @ R
    got = linalg._band_matmul(L, R, b, np.empty_like(R))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bandwidth_reads_the_wider_side():
    a = np.zeros((9, 9))
    assert linalg._bandwidth(a) == 0
    a[8, 3] = 1.0  # lower band 5
    a[1, 3] = -2.0  # upper band 2
    assert linalg._bandwidth(a) == 5
    assert linalg._bandwidth(a.T.astype(complex)) == 5


def test_expm_guards():
    with pytest.raises(DimMismatch):
        linalg.expm(np.zeros((2, 3)))
    with pytest.raises(TooLarge):
        linalg.expm(np.zeros((4097, 4097)))
    bad = np.eye(2)
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        linalg.expm(bad)



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


def _action_oracle(A, B):
    return scipy.sparse.linalg.expm_multiply(scipy.sparse.csr_array(A), B)


@pytest.mark.parametrize("mode", ["nonhermitian", "hermitized"])
@pytest.mark.parametrize("qubits", [1, 2, 3, 4])
def test_expm_action_matches_scipy_on_generators(qubits, mode):
    # the D1Q3 collision generators the engine marches with, on a block of
    # three columns and on one vector
    s = engine.make_setup(lattice.build_lattice("D1Q3"), qubits)
    A = s.dt * engine.generator(s, mode)
    B = np.random.default_rng(qubits).standard_normal((s.dim, 3))
    before = A.copy(), B.copy()
    for operand in (B, B[:, 0]):
        want = _action_oracle(A, operand)
        got = linalg.expm_action(A, operand)
        assert got.shape == operand.shape and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(A, before[0]) and np.array_equal(B, before[1])


@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_expm_action_with_substeps_matches_scipy(complex_input):
    # ||A||_1 = 30 takes m = 40 in s = 5 substeps
    rng = np.random.default_rng(12)
    A = _scaled(rng, 40, 30.0, complex_input)
    assert linalg.taylor_degree(np.linalg.norm(A, 1))[1] > 1
    B = rng.standard_normal((40, 4))
    want = scipy.linalg.expm(A) @ B
    got = linalg.expm_action(A, B)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(got - _action_oracle(A, B))) <= 1e-12 * np.max(np.abs(want))


def test_expm_action_empty_and_zero():
    for shape in ((0,), (0, 3)):
        out = linalg.expm_action(np.zeros((0, 0)), np.zeros(shape))
        assert out.shape == shape
    b = np.arange(4.0)
    out = linalg.expm_action(np.zeros((4, 4)), b)
    assert np.array_equal(out, b) and not np.shares_memory(out, b)


def test_onenorm_matches_numpy():
    rng = np.random.default_rng(8)
    for n in (1, 5, linalg._NORM_ROWS + 3, 3 * linalg._NORM_ROWS):
        re, im = rng.standard_normal((2, n, n))
        for a in (re, re + 1j * im):
            want = np.linalg.norm(a, 1)
            assert abs(linalg.onenorm(a) - want) <= 1e-14 * want
    assert linalg.onenorm(np.zeros((0, 0))) == 0.0


def test_expm_action_guards():
    with pytest.raises(DimMismatch):
        linalg.expm_action(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(DimMismatch):
        linalg.expm_action(np.eye(3), np.zeros(4))
    with pytest.raises(DimMismatch):
        linalg.expm_action(np.eye(3), np.zeros((3, 2, 2)))
    bad = np.eye(3)
    bad[2, 0] = np.inf
    with pytest.raises(NonFinite):
        linalg.expm_action(bad, np.ones(3))
    bad[2, 0] = np.nan
    with pytest.raises(NonFinite):
        linalg.expm_action(bad, np.ones(3))
    with pytest.raises(NonFinite):
        linalg.expm_action(np.eye(3), np.array([1.0, np.nan, 0.0]))


def test_expm_action_applies_a_function_under_a_norm_bound():
    # an operator given by its product and a 1-norm bound: a looser bound
    # takes more substeps to the same result
    rng = np.random.default_rng(13)
    A = _scaled(rng, 30, 3.0, False)
    B = rng.standard_normal((30, 2))
    want = scipy.linalg.expm(A) @ B
    norm = linalg.onenorm(A)
    for bound in (norm, 4.0 * norm):
        for operand in (B, B[:, 0]):
            ref = want if operand.ndim == 2 else want[:, 0]
            got = linalg.expm_action(lambda X: A @ X, operand, bound)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(want))
    with pytest.raises(ValueError):
        linalg.expm_action(lambda X: A @ X, B)
    with pytest.raises(NonFinite):
        linalg.expm_action(lambda X: A @ X, B, np.inf)
    with pytest.raises(NonFinite):
        linalg.expm_action(lambda X: A @ X, np.full(30, np.nan), norm)
