"""Matrix exponential against an independent reference."""

import numpy as np
import pytest
import scipy.linalg

from qalb import linalg
from qalb.errors import ConvergenceFailure, DimMismatch, NonFinite, TooLarge


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
    assert (np.linalg.norm(a, 1) > linalg._THETA13) == (scale > 0.5)
    before = a.copy()
    linalg.expm(a)
    linalg.expm(a, tol=1e-6)
    assert np.array_equal(a, before)


def test_expm_tolerance_check():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    linalg.expm(a, tol=1e-8)  # residual check passes
    with pytest.raises(ConvergenceFailure):
        linalg.expm(a, tol=1e-30)


def test_expm_guards():
    with pytest.raises(DimMismatch):
        linalg.expm(np.zeros((2, 3)))
    with pytest.raises(TooLarge):
        linalg.expm(np.zeros((4097, 4097)))
    bad = np.eye(2)
    bad[0, 1] = np.nan
    with pytest.raises(NonFinite):
        linalg.expm(bad)


def test_one_blas_thread_restores_count():
    lib = linalg._numpy_openblas()
    if lib is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    count = lib.scipy_openblas_get_num_threads64_
    before = count()
    with pytest.raises(RuntimeError):
        with linalg.one_blas_thread():
            assert count() == 1
            raise RuntimeError("leave the block early")
    assert count() == before
