"""Dense matrix exponential: Pade approximant of degree 3 to 13 chosen from
the 1-norm, with scaling and squaring past theta_13 (Higham, "The scaling
and squaring method for the matrix exponential revisited", SIAM J. Matrix
Anal. Appl. 26 (2005) 1179).

Self-contained so the propagator construction has no behavior hidden behind
a library version; accuracy is checked in tests against scipy and via
exp(A) exp(-A) = I.
"""

import numpy as np

from .errors import DimMismatch, NonFinite, TooLarge

_MAX_DIM = 4096

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

# Rows per block of a band-limited product.
_ROWS = 256


def expm(A):
    """exp(A) in a new array.  A is never written: it is copied only to
    convert it to float64 or complex128, or to scale it."""
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
    norm = np.linalg.norm(A, 1)
    m = next((k for k, theta in _THETA.items() if norm <= theta), 13)
    s = 0
    if norm > _THETA[13]:
        s = int(np.ceil(np.log2(norm / _THETA[13])))
        A = A / 2.0 ** s
    # At most seven full-size buffers (134 MB each at n = 4096), reused.
    # A^k lies within k times the bandwidth of A, which every product with
    # a power of A on the left uses.
    b = _bandwidth(A)
    powers = [_band_matmul(A, A, b, np.empty_like(A))]
    while len(powers) < _POWERS[m]:
        P = _band_matmul(powers[0], powers[-1], 2 * b, np.empty_like(A))
        powers.append(P)
    tmp = np.empty_like(A)
    V = _pade_sum(powers, _B[m][0::2], b, np.empty_like(A), tmp)
    W = _pade_sum(powers, _B[m][1::2], b, np.empty_like(A), tmp)
    U = _band_matmul(A, W, b, tmp)
    VmU = np.subtract(V, U, out=powers[0])
    V += U
    del powers, W, U, tmp  # the solve allocates three more full-size arrays
    R = np.linalg.solve(VmU, V)
    spare = VmU
    for _ in range(s):
        R, spare = np.matmul(R, R, out=spare), R
    return R


def _bandwidth(A):
    """Smallest b with A[i, j] == 0 wherever |i - j| > b (0 for a zero
    matrix)."""
    mask = A != 0
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return 0
    n = A.shape[1]
    first = mask[rows].argmax(axis=1)
    last = n - 1 - mask[rows, ::-1].argmax(axis=1)
    return int(max(np.max(rows - first), np.max(last - rows)))


def _band_matmul(L, R, b, out):
    """L @ R into out, for L zero outside |i - j| <= b.  Each block of
    _ROWS rows of L multiplies only the rows of R that its band reaches;
    when that window would span R anyway, the one block is all of L and
    this is a single np.matmul."""
    n = L.shape[0]
    step = _ROWS if 2 * b + _ROWS < n else n
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        c0, c1 = max(r0 - b, 0), min(r1 + b, n)
        np.matmul(L[r0:r1, c0:c1], R[c0:c1], out=out[r0:r1])
    return out


def _pade_sum(powers, c, b, out, tmp):
    """sum_j c[j] A^(2j) into out, from powers = [A^2, .., A^(2k)] of an A
    with bandwidth b, using tmp as scratch.  Terms past A^(2k) are grouped
    as A^(2k) (c[k+1] A^2 + c[k+2] A^4 + ...), so no higher power is
    formed."""
    k = len(powers)
    if len(c) > k + 1:
        np.multiply(powers[0], c[k + 1], out=tmp)
        for P, ck in zip(powers[1:], c[k + 2 :]):
            tmp += np.multiply(P, ck, out=out)
        _band_matmul(powers[-1], tmp, 2 * k * b, out)
        out += np.multiply(powers[0], c[1], out=tmp)
    else:
        np.multiply(powers[0], c[1], out=out)
    for P, ck in zip(powers[1:], c[2:]):
        out += np.multiply(P, ck, out=tmp)
    out.reshape(-1)[:: out.shape[0] + 1] += c[0]  # + c0 I, on a view
    return out
