"""Independent references the benchmark checks qalb's outputs against.

Nothing here calls into qalb except the one-mode matrices of `qalb.fock`
that the dense oracle lifts with its own Kronecker products.
"""

from math import sqrt

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from numpy.polynomial import hermite as phys_hermite

# D1Q3 and D2Q9 velocity sets and weights, rest direction first, then the
# moving directions in lexicographic order.
D1Q3_C = np.array([[0], [-1], [1]], dtype=float)
D1Q3_W = np.array([2 / 3, 1 / 6, 1 / 6])
D2Q9_C = np.array(
    [[0, 0], [-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0], [1, 1]],
    dtype=float,
)
D2Q9_W = np.array([4 / 9] + [1 / 36, 1 / 9, 1 / 36, 1 / 9, 1 / 9, 1 / 36, 1 / 9, 1 / 36])


def feq(rho, u, c, w):
    """rho w_i (1 + 3 c_i.u + 9/2 (c_i.u)^2 - 3/2 u.u) with the direction
    axis last."""
    cu = u @ c.T
    uu = (u * u).sum(axis=-1)[..., None]
    return rho[..., None] * w * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * uu)


def bgk_collide(f, c, w, lam):
    """f - lam (f - feq(f)) at every site; the direction axis is last."""
    rho = f.sum(axis=-1)
    u = (f @ c) / rho[..., None]
    return f - lam * (f - feq(rho, u, c, w))


def bgk_series(f0, c, w, lam, steps):
    """(steps + 1, Q) one-site relaxation history."""
    out = np.empty((steps + 1, len(f0)))
    out[0] = f0
    for t in range(steps):
        out[t + 1] = bgk_collide(out[t], c, w, lam)
    return out


def roll_stream(f, c):
    """Periodic shift of population i by c_i on a (*grid, Q) field."""
    out = np.empty_like(f)
    axes = tuple(range(f.ndim - 1))
    for i, ci in enumerate(c.astype(int)):
        out[..., i] = np.roll(f[..., i], tuple(ci), axis=axes)
    return out


def moments_total(f, c):
    """Total mass and total momentum of a (*grid, Q) field."""
    flat = f.reshape(-1, f.shape[-1])
    return flat.sum(), (flat @ c).sum(axis=0)


def logistic(a, b, f0, t):
    """df/dt = -a f + b f^2 through g = 1/f, which obeys dg/dt = a g - b."""
    t = np.asarray(t, dtype=float)
    return 1.0 / (b / a + (1.0 / f0 - b / a) * np.exp(a * t))


def relerr_max(decoded, ref):
    """Largest |decoded - ref| / |ref| per row over components with a
    nonzero reference; NaN where no component qualifies."""
    out = np.full(len(ref), np.nan)
    for k in range(len(ref)):
        mask = (ref[k] != 0.0) & ~np.isnan(decoded[k])
        if mask.any():
            out[k] = np.max(np.abs(decoded[k][mask] - ref[k][mask]) / np.abs(ref[k][mask]))
    return out


class RegisterOracle:
    """The D1Q3 collision generator sum_i p_i Omega_i, built sparse from
    one-mode q and p by Kronecker products, with its own value encoding,
    decoding and time stepping.

    Omega_i = -(1/tau) (q_i - w_i (I + 3 c_i u + 9/2 (c_i u)^2 - 3/2 u^2))
    with u = sum_j c_j q_j.  The hermitized generator is (H + H^dag)/2.
    """

    def __init__(self, q1, p1, tau, dt):
        levels = q1.shape[0]
        self.levels = levels
        self.dt = dt
        Q = len(D1Q3_W)
        eye = scipy.sparse.identity(levels, format="csr")

        def lift(op, slot):
            out = scipy.sparse.identity(1, format="csr")
            for m in range(Q):
                out = scipy.sparse.kron(out, op if m == slot else eye, format="csr")
            return out

        q = [lift(scipy.sparse.csr_matrix(q1), i) for i in range(Q)]
        p = [lift(scipy.sparse.csr_matrix(p1), i) for i in range(Q)]
        ident = scipy.sparse.identity(levels**Q, format="csr")
        u = sum(D1Q3_C[j, 0] * q[j] for j in range(Q))
        H = None
        for i in range(Q):
            cu = D1Q3_C[i, 0] * u
            eq = D1Q3_W[i] * (ident + 3.0 * cu + 4.5 * (cu @ cu) - 1.5 * (u @ u))
            term = p[i] @ (-(q[i] - eq) / tau)
            H = term if H is None else H + term
        self.H = {"nonhermitian": H.tocsr(), "hermitized": (0.5 * (H + H.conj().T)).tocsr()}
        self._U = {}

    def encode(self, f0):
        """Product of per-mode states with amplitudes proportional to
        2^(-n/2) H_n(f) / sqrt(n!), physicists' Hermite H_n."""
        n = np.arange(self.levels)
        norm = np.array([sqrt(float(np.prod(np.arange(1, k + 1, dtype=float)))) for k in n])
        psi = np.array([1.0 + 0j])
        for f in f0:
            amp = phys_hermite.hermval(f, np.eye(self.levels)) / norm / 2.0 ** (n / 2.0)
            psi = np.kron(psi, amp / np.linalg.norm(amp))
        return psi

    def decode(self, psi):
        """Mode m reads Re(psi[stride_m] / psi[0]) / sqrt(2)."""
        Q = len(D1Q3_W)
        if psi[0] == 0.0:
            return np.full(Q, np.nan)
        return np.array(
            [(psi[self.levels ** (Q - 1 - m)] / psi[0]).real / sqrt(2.0) for m in range(Q)]
        )

    def march(self, f0, steps, mode):
        """Decoded series (steps + 1, Q) and, per step, the decode's
        condition number |psi| / |psi[0]|: a relative perturbation of the
        state moves a decoded value by up to that factor times
        (1 + |value|).  Small registers reuse a dense propagator; large
        ones apply the exponential to the state."""
        A = -1j * self.dt * self.H[mode]
        psi = self.encode(f0)
        out = np.empty((steps + 1, len(f0)))
        cond = np.empty(steps + 1)
        dense = A.shape[0] <= 512
        if dense and mode not in self._U:
            self._U[mode] = scipy.linalg.expm(A.toarray())
        for t in range(steps + 1):
            if t:
                psi = self._U[mode] @ psi if dense else scipy.sparse.linalg.expm_multiply(A, psi)
            out[t] = self.decode(psi)
            cond[t] = np.linalg.norm(psi) / abs(psi[0]) if psi[0] != 0.0 else np.inf
        return out, cond
