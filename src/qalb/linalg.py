"""Dense matrix exponential and the action of the exponential on vectors.

`expm` is a Pade approximant of degree 3 to 13 chosen from the 1-norm, with
scaling and squaring past theta_13 (Higham, "The scaling and squaring
method for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26
(2005) 1179).

`expm_action` forms exp(A) B without exp(A): a Taylor series of degree m
applied in s substeps, m and s chosen from the 1-norm, stopped early once
two successive terms are negligible (Al-Mohy and Higham, "Computing the
action of the matrix exponential, with an application to exponential
integrators", SIAM J. Sci. Comput. 33 (2011) 488).  It costs m s products
with A, against the dense build's O(n^3) flops.

Self-contained so the propagator construction has no behavior hidden behind
a library version; accuracy is checked in tests against scipy and via
exp(A) exp(-A) = I.
"""

from functools import lru_cache

import numpy as np

from .errors import DimMismatch, NonFinite, TooLarge

_MAX_DIM = 4096  # largest dense matrix, and so engine's largest register

# Largest 1-norm for which the degree-m approximant is accurate to unit
# roundoff in double precision (Higham 2005, Table 2.3).
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}

# Pade coefficients b_0 .. b_m of each degree, constant term first.
_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0,
        1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}

# Even powers A^2 .. A^(2k) formed for each degree.  Terms above A^(2k) are
# grouped as A^(2k) (...): at degree 13 that avoids A^8 .. A^12, and at
# degree 9 it keeps A^6 and A^8 out of memory for the same five products.
_POWERS = {3: 1, 5: 2, 7: 3, 9: 2, 13: 3}

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
    """exp(A) in a new array, each product one np.matmul into reused
    buffers.  A is never written: it is copied only to convert it to
    float64 or complex128, or to scale it."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expm needs a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > _MAX_DIM:
        raise TooLarge(f"matrix dimension {n} exceeds {_MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix contains non-finite entries")
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    A = A.astype(dtype, copy=False)
    if n == 0:
        return A.copy()
    norm = onenorm(A)
    m = next((k for k, theta in _THETA.items() if norm <= theta), 13)
    s = 0
    if norm > _THETA[13]:
        s = int(np.ceil(np.log2(norm / _THETA[13])))
        A = A / 2.0 ** s
    # At most seven full-size buffers, reused.
    powers = [np.matmul(A, A, out=np.empty_like(A))]
    while len(powers) < _POWERS[m]:
        powers.append(np.matmul(powers[0], powers[-1], out=np.empty_like(A)))
    tmp = np.empty_like(A)
    V = _pade_sum(powers, _B[m][0::2], np.empty_like(A), tmp)
    W = _pade_sum(powers, _B[m][1::2], np.empty_like(A), tmp)
    U = np.matmul(A, W, out=tmp)
    VmU = np.subtract(V, U, out=powers[0])
    V += U
    del powers, W, U, tmp  # the solve allocates three more full-size arrays
    R = np.linalg.solve(VmU, V)
    spare = VmU
    for _ in range(s):
        R, spare = np.matmul(R, R, out=spare), R
    return R


def _pade_sum(powers, c, out, tmp):
    """sum_j c[j] A^(2j) into out, from powers = [A^2, .., A^(2k)], using
    tmp as scratch.  Terms past A^(2k) are grouped as
    A^(2k) (c[k+1] A^2 + c[k+2] A^4 + ...), so no higher power is formed."""
    k = len(powers)
    if len(c) > k + 1:
        np.multiply(powers[0], c[k + 1], out=tmp)
        for P, ck in zip(powers[1:], c[k + 2 :]):
            tmp += np.multiply(P, ck, out=out)
        np.matmul(powers[-1], tmp, out=out)
        out += np.multiply(powers[0], c[1], out=tmp)
    else:
        np.multiply(powers[0], c[1], out=out)
    for P, ck in zip(powers[1:], c[2:]):
        out += np.multiply(P, ck, out=tmp)
    out.reshape(-1)[:: out.shape[0] + 1] += c[0]  # + c0 I, on a view
    return out


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
    """(m, s) for the action of exp(A) with ||A||_1 = norm: the degree m of
    _THETA_TAYLOR and s = ceil(norm / theta_m) substeps that together take
    the fewest products with A, m s; the smaller m on a tie.  (0, 1) at
    norm 0, where exp(A) = I.  Memoized: a march passes one norm per step."""
    if norm == 0.0:
        return 0, 1
    return min(
        ((m, int(np.ceil(norm / theta))) for m, theta in _THETA_TAYLOR.items()),
        key=lambda ms: ms[0] * ms[1],
    )


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
        # a NaN or inf entry makes its column sum, and so the norm,
        # non-finite
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
