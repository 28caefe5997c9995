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
    I = np.eye(n, dtype=dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (
        A6 @ (_B[13] * A6 + _B[11] * A4 + _B[9] * A2)
        + _B[7] * A6
        + _B[5] * A4
        + _B[3] * A2
        + _B[1] * I
    )
    V = (
        A6 @ (_B[12] * A6 + _B[10] * A4 + _B[8] * A2)
        + _B[6] * A6
        + _B[4] * A4
        + _B[2] * A2
        + _B[0] * I
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    if tol is not None:
        resid = np.max(np.abs(R @ expm(-np.asarray(A) * 2.0 ** s) - I))
        if not resid < tol:
            raise ConvergenceFailure(
                f"inverse check residual {resid} exceeds {tol}"
            )
    return R
