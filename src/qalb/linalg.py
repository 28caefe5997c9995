"""Dense matrix exponential (Pade order 13 with scaling and squaring).

Self-contained so the propagator construction has no behavior hidden behind
a library version; accuracy is checked in tests via exp(A) exp(-A) = I.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

from .errors import ConvergenceFailure, DimMismatch, NonFinite, TooLarge

_MAX_DIM = 4096

_THETA13 = 5.371920351148152

_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


@contextmanager
def one_blas_thread():
    """Run the enclosed BLAS calls on one thread, then restore the count.

    OpenBLAS splits a product evenly over its threads and waits for the
    slowest, so on a small shared host a busy neighbour on one CPU stalls
    the whole product.  One thread is slower on an idle host (a qc=4
    propagator takes about 25 s instead of 15 s on 2 CPUs) but its time
    moves far less when the other CPU is busy.  Results agree with the
    threaded ones to round-off.  The count is process-wide; this is a no-op
    when numpy does not bundle OpenBLAS.
    """
    lib = _numpy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


@cache
def _numpy_openblas():
    """The scipy-openblas64 library that numpy wheels bundle, or None."""
    root = os.path.dirname(np.__file__)
    for pattern in ("../numpy.libs/*openblas64*", ".dylibs/*openblas64*"):
        for path in glob.glob(os.path.join(root, pattern)):
            lib = ctypes.CDLL(path)
            if hasattr(lib, "scipy_openblas_set_num_threads64_"):
                return lib
    return None


def expm(A, tol=None):
    """exp(A).  When tol is given, exp(-A) is built as well and
    ||exp(A) exp(-A) - I||_max must stay below it."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"expm needs a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > _MAX_DIM:
        raise TooLarge(f"matrix dimension {n} exceeds {_MAX_DIM}")
    if not np.all(np.isfinite(A)):
        raise NonFinite("matrix contains non-finite entries")
    dtype = np.complex128 if np.iscomplexobj(A) else np.float64
    A = A.astype(dtype, copy=True)
    if n == 0:
        return A
    norm = np.linalg.norm(A, 1)
    s = 0
    if norm > _THETA13:
        s = int(np.ceil(np.log2(norm / _THETA13)))
        A /= 2.0 ** s
    # Full-size buffers (134 MB each at n = 4096) are reused; the sums keep
    # the order of the plain expressions, so the result is bit-identical.
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    tmp = np.empty_like(A)
    V = _pade_sum(A2, A4, A6, _B[12::-2], np.empty_like(A), tmp)
    W = _pade_sum(A2, A4, A6, _B[13::-2], np.empty_like(A), tmp)
    U = np.matmul(A, W, out=tmp)
    VmU = np.subtract(V, U, out=A2)
    V += U
    del A4, A6, W, U, tmp  # the solve allocates three more full-size arrays
    R = np.linalg.solve(VmU, V)
    spare = VmU
    for _ in range(s):
        R, spare = np.matmul(R, R, out=spare), R
    if tol is not None:
        resid = np.max(np.abs(R @ expm(-A * 2.0 ** s) - np.eye(n)))
        if not resid < tol:
            raise ConvergenceFailure(
                f"inverse check residual {resid} exceeds {tol}"
            )
    return R


def _pade_sum(A2, A4, A6, b, out, tmp):
    """A6 (b0 A6 + b1 A4 + b2 A2) + b3 A6 + b4 A4 + b5 A2 + b6 I into out,
    using tmp as scratch."""
    np.multiply(A6, b[0], out=tmp)
    tmp += np.multiply(A4, b[1], out=out)
    tmp += np.multiply(A2, b[2], out=out)
    np.matmul(A6, tmp, out=out)
    for bk, Ak in zip(b[3:6], (A6, A4, A2)):
        out += np.multiply(Ak, bk, out=tmp)
    out.reshape(-1)[:: out.shape[0] + 1] += b[6]  # + b6 I, on a view
    return out
