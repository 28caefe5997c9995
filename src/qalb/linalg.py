"""Matrix exponential, dense and as an action on vectors, from one
truncated Taylor series: degree m and s substeps chosen from the 1-norm by
the theta_m table and fewest-products rule of Al-Mohy and Higham,
"Computing the action of the matrix exponential, with an application to
exponential integrators", SIAM J. Sci. Comput. 33 (2011) 488.

`expm` forms e^mu T_m((A - mu I) / s)^s with mu = tr(A) / n, T_m in about
2 sqrt(m) products (Paterson and Stockmeyer, "On the number of nonscalar
multiplications necessary to evaluate polynomials", SIAM J. Comput. 2
(1973) 60), its s-th power in at most 2 log2(s).  `expm_action` forms
exp(A) b for one vector b from m s products with an operator A, under a
1-norm bound given by the caller.

Self-contained, so the propagator has no behavior hidden behind a library
version; tests check accuracy against scipy and via exp(A) exp(-A) = I.
"""

from functools import lru_cache
from math import factorial, isqrt

import numpy as np

from .errors import DimMismatch, NonFinite, TooLarge

_MAX_DIM = 4096  # largest dense matrix, and so engine's largest register

# Largest 1-norm of A / s for which the degree-m Taylor series of
# exp(A / s) b has backward error at most unit roundoff in double precision:
# m <= 30 from Higham, "Functions of Matrices" (SIAM 2008), Table A.3, and
# m = 35 .. 55 from Al-Mohy and Higham (2011), Table 3.1.
_THETA_TAYLOR = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

_MAX_SUBSTEPS = 10_000  # D1Q3 qc=4 takes 346 as dt/tau nears 2


def expm(A):
    """exp(A) in a new array, as e^mu T_m((A - mu I) / s)^s: T_m the
    degree-m Taylor polynomial, mu = tr(A) / n the trace shift and
    (m, s) = taylor_degree(||A - mu I||_1) (Al-Mohy and Higham 2011, 3.1).
    The shift keeps the series' terms near the size of exp(A), where a
    dominant diagonal would make them far larger.  A is never written.

    With X = (A - mu I) / s and p = ceil(sqrt(m + 1)), T_m(X) is summed by
    Horner's rule in X^p over blocks of p terms, each one vector-matrix
    product of its 1/k! with the stacked X^0 .. X^p:
    p - 1 + (m - 1) // p products.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expm needs a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > _MAX_DIM:
        raise TooLarge(f"matrix dimension {n} exceeds {_MAX_DIM}")
    dtype = complex if np.iscomplexobj(A) else float
    B = A.astype(dtype)  # A - mu I, a copy
    mu = np.trace(B) / n if n else 0.0
    B[np.diag_indices(n)] -= mu
    # a NaN or inf entry makes its column sum, and so the norm, non-finite
    norm = onenorm(B)
    if not np.isfinite(norm):
        raise NonFinite("matrix has a non-finite entry or 1-norm")
    m, s = taylor_degree(norm)
    if m == 0:
        return np.eye(n, dtype=dtype) * np.exp(mu)
    p = isqrt(m) + 1  # ceil(sqrt(m + 1))
    r = (m - 1) // p  # Horner steps; the last block is c_rp .. c_m
    c = np.array([1.0 / factorial(k) for k in range(m + 1)])
    X = np.empty((min(p, m) + 1, n, n), dtype)
    X[0] = np.eye(n)
    np.divide(B, s, out=X[1])
    del B
    for i in range(2, len(X)):
        np.matmul(X[i - 1], X[1], out=X[i])
    flat = X.reshape(len(X), -1)
    R, spare = np.empty_like(X[0]), np.empty_like(X[0])
    np.matmul(c[r * p :], flat[: m + 1 - r * p], out=R.reshape(-1))
    for j in range(r - 1, -1, -1):
        np.matmul(R, X[p], out=spare)
        np.matmul(c[j * p : (j + 1) * p], flat[:p], out=R.reshape(-1))
        R += spare
    R = np.linalg.matrix_power(R, s)
    if mu:
        R *= np.exp(mu)
    return R


def onenorm(A):
    """||A||_1, the largest column sum of |A|: 0 for an empty matrix, NaN or
    inf when an entry is."""
    return float(np.abs(A).sum(axis=0).max(initial=0.0))


@lru_cache
def taylor_degree(norm):
    """(m, s) for exp(A), dense or as an action, with ||A||_1 = norm: the
    degree m of _THETA_TAYLOR and s = ceil(norm / theta_m) substeps with the
    fewest products with A, m s; the smaller m on a tie.  (0, 1) at norm 0,
    where exp(A) = I.  Memoized: a march passes one norm per step."""
    if norm == 0.0:
        return 0, 1
    # s stays a float until chosen: norm / theta_1 overflows past 4e292
    m, s = min(
        ((m, np.ceil(norm / theta)) for m, theta in _THETA_TAYLOR.items()),
        key=lambda ms: ms[0] * ms[1],
    )
    return m, int(s)


def expm_action(apply, b, norm):
    """exp(A) @ b in a new vector, without forming exp(A); b is not written.

    apply returns A @ x for a vector x; norm, an upper bound on ||A||_1, is
    computed once by the caller.  Each of s substeps adds terms
    (A / s)^j F / j! to F for j = 1 .. m, (m, s) = taylor_degree(norm), and
    stops once the last two terms together are at most u ||F||_inf
    (Al-Mohy and Higham 2011, Algorithm 3.2, without the trace shift or
    balancing).  TooLarge, before A is applied, when s > _MAX_SUBSTEPS.
    """
    b = np.asarray(b)
    if not np.isfinite(norm) or not np.all(np.isfinite(b)):
        raise NonFinite("non-finite operand entry or 1-norm bound")
    m, s = taylor_degree(norm)
    if s > _MAX_SUBSTEPS:
        raise TooLarge(f"1-norm bound {norm:.3g} takes {s} substeps")
    F = b.astype(np.result_type(b, np.float64))
    if F.size == 0:
        return F
    u = np.finfo(float).eps / 2.0
    for _ in range(s):
        term, c1 = F, np.abs(F).max()
        for j in range(1, m + 1):
            term = apply(term)
            term *= 1.0 / (s * j)
            c2 = np.abs(term).max()
            F += term
            if c1 + c2 <= u * np.abs(F).max():
                break
            c1 = c2
    return F
