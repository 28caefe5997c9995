"""Matrix exponential, dense and as an action on vectors, from one
truncated Taylor series: degree m and s substeps chosen from the 1-norm by
the theta_m table and fewest-products rule of Al-Mohy and Higham,
"Computing the action of the matrix exponential, with an application to
exponential integrators", SIAM J. Sci. Comput. 33 (2011) 488.

`expm` forms T_m(A / s)^s, T_m in about 2 sqrt(m) products (Paterson and
Stockmeyer, "On the number of nonscalar multiplications necessary to
evaluate polynomials", SIAM J. Comput. 2 (1973) 60), its s-th power in at
most 2 log2(s).  `expm_action` forms exp(A) B from m s products with A.

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

# Rows of |A| summed at a time by onenorm.
_NORM_ROWS = 32


def expm(A):
    """exp(A) in a new array, as T_m(A / s)^s: T_m the degree-m Taylor
    polynomial, (m, s) = taylor_degree(||A||_1).  A is never written.

    With X = A / s and p = ceil(sqrt(m + 1)), T_m(X) is summed by Horner's
    rule in X^p over blocks of p terms, each one vector-matrix product of
    its 1/k! with the stacked X^0 .. X^p: p - 1 + (m - 1) // p products.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expm needs a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > _MAX_DIM:
        raise TooLarge(f"matrix dimension {n} exceeds {_MAX_DIM}")
    A = A.astype(complex if np.iscomplexobj(A) else float, copy=False)
    # a NaN or inf entry makes its column sum, and so the norm, non-finite
    norm = onenorm(A)
    if not np.isfinite(norm):
        raise NonFinite("matrix has a non-finite entry or 1-norm")
    m, s = taylor_degree(norm)
    if m == 0:
        return np.eye(n, dtype=A.dtype)
    p = isqrt(m) + 1  # ceil(sqrt(m + 1))
    r = (m - 1) // p  # Horner steps; the last block is c_rp .. c_m
    c = np.array([1.0 / factorial(k) for k in range(m + 1)])
    X = np.empty((min(p, m) + 1, n, n), A.dtype)
    X[0] = np.eye(n)
    np.divide(A, s, out=X[1])
    for i in range(2, len(X)):
        np.matmul(X[i - 1], X[1], out=X[i])
    flat = X.reshape(len(X), -1)
    R, spare = np.empty_like(X[0]), np.empty_like(X[0])
    np.matmul(c[r * p :], flat[: m + 1 - r * p], out=R.reshape(-1))
    for j in range(r - 1, -1, -1):
        np.matmul(R, X[p], out=spare)
        np.matmul(c[j * p : (j + 1) * p], flat[:p], out=R.reshape(-1))
        R += spare
    return np.linalg.matrix_power(R, s)


def onenorm(A):
    """||A||_1, the largest column sum of |A|, summed _NORM_ROWS rows at a
    time so no full-size |A| is formed.  NaN or inf when an entry is."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    cols = np.zeros(A.shape[1])
    buf = np.empty((min(_NORM_ROWS, n), A.shape[1]))
    ones = np.ones(buf.shape[0])
    for r0 in range(0, n, _NORM_ROWS):
        r1 = min(r0 + _NORM_ROWS, n)
        cols += ones[: r1 - r0] @ np.abs(A[r0:r1], out=buf[: r1 - r0])
    return float(np.max(cols))


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


def expm_action(A, B, norm=None):
    """exp(A) @ B in a new array, for B of shape (n,) or (n, k), without
    forming exp(A).  Neither argument is written.

    A is an (n, n) array, or a function that returns A @ X for an X of B's
    shape; norm is an upper bound on ||A||_1, computed once by the caller
    for an operator applied many times.  It is required for a function and
    is onenorm(A) by default for an array.

    Each of s substeps adds terms (A / s)^j F / j! to F for j = 1 .. m,
    with (m, s) from taylor_degree(norm), and stops once the last two
    terms together are at most u ||F||_inf (Al-Mohy and Higham 2011,
    Algorithm 3.2, without the trace shift or balancing).
    """
    B = np.asarray(B)
    if callable(A):
        if norm is None:
            raise ValueError("expm_action needs a 1-norm bound for a function")
        apply, dtype = A, np.result_type(B, np.float64)
    else:
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimMismatch(
                f"expm_action needs a square matrix, got shape {A.shape}"
            )
        if B.ndim not in (1, 2) or B.shape[0] != A.shape[0]:
            raise DimMismatch(
                f"cannot apply a {A.shape} matrix to an operand of shape "
                f"{B.shape}"
            )
        # a NaN or inf entry makes its column sum, and so the norm, non-finite
        if norm is None:
            norm = onenorm(A)
        apply, dtype = A.__matmul__, np.result_type(A, B, np.float64)
    if not np.isfinite(norm) or not np.all(np.isfinite(B)):
        raise NonFinite(
            "matrix or operand contains non-finite entries, or the matrix "
            "1-norm overflows"
        )
    F = B.astype(dtype)
    if F.size == 0:
        return F
    m, s = taylor_degree(norm)
    u = np.finfo(float).eps / 2.0
    for _ in range(s):
        term, c1 = F, _infnorm(F)
        for j in range(1, m + 1):
            term = apply(term)
            term *= 1.0 / (s * j)
            c2 = _infnorm(term)
            F += term
            if c1 + c2 <= u * _infnorm(F):
                break
            c1 = c2
    return F


def _infnorm(X):
    """||X||_inf of a vector, its largest |entry|, or of an (n, k) block,
    its largest row sum of |X|."""
    A = np.abs(X)
    return float((A if A.ndim == 1 else A.sum(axis=1)).max())
