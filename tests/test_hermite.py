"""Window-orthogonal polynomial coefficients and their structure identities."""

from math import factorial, sqrt

import mpmath
import numpy as np
import pytest

from qalb import fock
from qalb.errors import TooLarge

import oracles
from oracles import QuadratureFailure, SingularCoefficient

GAMMAS_Z1 = (
    0.253704101804,
    0.275496070975,
    0.261883160807,
    0.255624777217,
    0.253229587588,
    0.252116862773,
    0.251501652100,
    0.251122467659,
)


@pytest.fixture(scope="module")
def basis():
    return oracles.build_basis(z=1.0, nmax=8)


def test_gamma_frozen_values(basis):
    assert basis.z == 1.0 and basis.nmax == 8
    assert np.max(np.abs(np.array(basis.gammas) - np.array(GAMMAS_Z1))) < 1e-9


def test_basis_validation():
    with pytest.raises(ValueError):
        oracles.TruncatedHermiteBasis(z=-1.0, gammas=(0.2,), nmax=1)
    with pytest.raises(ValueError):
        oracles.TruncatedHermiteBasis(z=1.0, gammas=(0.2, 0.3), nmax=1)
    with pytest.raises(ValueError):
        oracles.TruncatedHermiteBasis(z=1.0, gammas=(-0.2,), nmax=1)
    with pytest.raises(TooLarge):
        oracles.gamma_sequence_oracle(1.0, 21)
    with pytest.raises(ValueError):
        oracles.gamma_sequence_oracle(-1.0, 3)


def test_window_moments():
    m = oracles.window_moments(1.0, 6)
    assert np.all(m[1::2] == 0.0)  # odd moments vanish by symmetry
    assert abs(m[0] - float(mpmath.sqrt(mpmath.pi) * mpmath.erf(1))) < 1e-14
    # the first coefficient is the ratio of the first two even moments
    g = oracles.gamma_sequence_oracle(1.0, 1)
    assert abs(g[0] - m[2] / m[0]) < 1e-13


def test_recurrence_matches_numpy_hermite_families():
    # gamma_k = k/2 scaled by 2^k gives the physicists' H_n; the normalized
    # recurrence gives the probabilists' He_n / sqrt(n!); numpy evaluates
    # both from their own series
    x = np.array([-2.7, -1.0, -0.31, 0.0, 0.5, 1.3, 3.0])
    H = oracles.hermite_h(12, x)
    h = fock.normalized_he(12, x)
    assert H.shape == h.shape == (13, 7)
    for n in range(13):
        coef = np.zeros(n + 1)
        coef[n] = 1.0
        ref = np.polynomial.hermite.hermval(x, coef)
        assert np.max(np.abs(H[n] - ref)) <= 1e-13 * np.max(np.abs(ref))
        ref_e = np.polynomial.hermite_e.hermeval(x, coef) / sqrt(factorial(n))
        assert np.max(np.abs(h[n] - ref_e)) <= 1e-13 * np.max(np.abs(ref_e))
    # a scalar argument gives one column
    assert np.array_equal(oracles.hermite_h(12, x[2]), H[:, 2])


def test_quadrature_failure_surfaced(monkeypatch):
    monkeypatch.setattr(oracles, "_DPS", 3)
    with pytest.raises(QuadratureFailure):
        oracles.gamma_sequence_oracle(1.0, 4)


def test_wide_window_approaches_hermite():
    g = oracles.gamma_sequence_oracle(6.0, 4)
    assert np.max(np.abs(g - np.arange(1, 5) / 2.0)) < 1e-9


def test_poly_parity_and_leading_term(basis):
    xs = np.linspace(-1.0, 1.0, 9)
    for n in range(basis.nmax + 1):
        pn = oracles.poly_eval(basis, n, xs)
        back = oracles.poly_eval(basis, n, -xs)
        assert np.max(np.abs(back - (-1.0) ** n * pn)) < 1e-12
    # monic: the degree-n coefficient is one
    assert abs(oracles.poly_eval(basis, 8, 50.0) / 50.0 ** 8 - 1.0) < 1e-3
    with pytest.raises(ValueError):
        oracles.poly_eval(basis, 9, 0.0)


def test_orthogonality_under_window_weight(basis):
    def ip(m, n):
        return float(
            mpmath.quad(
                lambda x: float(
                    oracles.poly_eval(basis, m, float(x))
                    * oracles.poly_eval(basis, n, float(x))
                )
                * mpmath.e ** (-x * x),
                [-1, 0, 1],
            )
        )

    for m, n in ((0, 1), (0, 2), (1, 3), (2, 3), (2, 4)):
        assert abs(ip(m, n)) < 1e-8
    # norm ratio recovers the recurrence coefficient
    assert abs(ip(3, 3) / ip(2, 2) - basis.gammas[2]) < 1e-8


def test_laguerre_freud_identities(basis):
    rep = oracles.gamma_laguerre_freud_check(basis.gammas, basis.z)
    assert rep.ns == tuple(range(1, 7))
    assert rep.max_residual < 1e-8
    assert np.max(np.abs(np.asarray(rep.form1))) < 1e-8
    assert np.max(np.abs(np.asarray(rep.gform))) < 1e-8
    with pytest.raises(ValueError):
        oracles.gamma_laguerre_freud_check(basis.gammas[:3], basis.z)


def test_laguerre_freud_detects_perturbation(basis):
    gams = list(basis.gammas)
    gams[3] += 1e-3
    rep = oracles.gamma_laguerre_freud_check(tuple(gams), basis.z)
    assert rep.max_residual > 1e-5


def test_lowering_operator(basis):
    xs = np.array([0.3, -0.7])
    for n in (1, 2, 3, 5):
        assert np.max(oracles.lowering_check(basis, n, xs)) < 1e-10
    with pytest.raises(ValueError):
        oracles.lowering_check(basis, 0, xs)


def test_lowering_singular_point(basis):
    # C vanishes where x^2 = z^2 + n + 1/2 - gamma_n - gamma_{n+1}
    x2 = 1.0 + 1.0 + 0.5 - basis.gammas[0] - basis.gammas[1]
    with pytest.raises(SingularCoefficient):
        oracles.lowering_check(basis, 1, [np.sqrt(x2)])


def test_derivative_of_hermite_family():
    # with gamma_k = k/2 the monic family is H_n / 2^n, so P_n' = n P_{n-1}
    gams = np.arange(1.0, 13.0) / 2.0
    xs = np.array([-2.5, -0.7, 0.0, 0.3, 1.9])
    seq = oracles.monic_sequence(gams, 12, xs)
    for n in range(13):
        p, d = oracles._evaluate_with_derivative(gams, n, xs)
        assert np.array_equal(p, seq[n])
        want = n * seq[n - 1] if n else np.zeros_like(xs)
        assert np.max(np.abs(d - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_differentiated_recurrence(basis):
    xs = np.linspace(-0.9, 0.9, 7)
    for n in (2, 3, 4, 5, 6):
        assert np.max(oracles.diff_recurrence_check(basis, n, xs)) < 1e-10
    with pytest.raises(ValueError):
        oracles.diff_recurrence_check(basis, 1, xs)
    # the lowest-order coupling weight is a positive product of gammas
    g = basis.gammas
    assert 2.0 * g[2] * g[1] * g[0] > 0.0
