"""Test oracles: derivations the suite checks and no `qalb` run reaches.

- Orthogonal polynomials of the Gaussian weight cut to [-z, z].  The
  recurrence coefficients gamma_n have no closed form on a finite window;
  they come from high-precision moment quadrature and Gram-Schmidt on
  monomials, and they satisfy a family of Laguerre-Freud relations that
  the tests pin down.  As z grows the window stops mattering and
  gamma_n -> n/2, the full-line Hermite value.  The same monic recurrence
  with gamma_n = n/2 gives the physicists' Hermite polynomials.
- The truncated Gauss-Hermite expansion of the Maxwellian that motivates
  the quadratic BGK equilibrium.
- The exact rational weights and the trace-closure mode-coupling
  tensors of a lattice.
- The commutator and the two one-sided null states of the truncated
  ladder operators.
- The engine's lifted-operator sum from np.kron, and its Weyl bound from
  every block of the q-eigenbasis form, as the engine built them before
  it took a broadcast outer product and two blocks per mode.

mpmath, which the quadrature needs, is a test dependency only.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import exp, factorial, pi, sqrt

import mpmath
import numpy as np

from qalb import engine
from qalb.errors import DimMismatch, QalbError, TooLarge
from qalb.lattice import _NAMES, CS2, _weight, build_lattice


class QuadratureFailure(QalbError):
    """Moment quadrature did not reach the requested tolerance."""


class SingularCoefficient(QalbError):
    """Lowering-operator coefficient evaluated too close to a singularity."""


# --- window-restricted Hermite family ---------------------------------

_MAX_N = 20
_DPS = 50  # mpmath working digits of the moment quadrature
_QUAD_TOL = 1e-12  # largest quadrature error estimate accepted


@dataclass(frozen=True)
class TruncatedHermiteBasis:
    """Monic orthogonal family P_{n+1} = x P_n - gamma_n P_{n-1} on the
    window [-z, z]; gammas holds gamma_1..gamma_nmax."""

    z: float
    gammas: tuple
    nmax: int

    def __post_init__(self):
        if self.z <= 0.0:
            raise ValueError(f"z must be positive, got {self.z}")
        if self.nmax < 1:
            raise ValueError(f"nmax must be >= 1, got {self.nmax}")
        if len(self.gammas) != self.nmax:
            raise ValueError(
                f"expected {self.nmax} coefficients, got {len(self.gammas)}"
            )
        if any(g <= 0.0 for g in self.gammas):
            raise ValueError("every gamma_n must be positive")


def _mp_moments(z, kmax):
    """m_0..m_kmax as mpf at the caller's working precision (_DPS)."""
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    zz = mpmath.mpf(z)
    out = []
    for k in range(kmax + 1):
        val, err = mpmath.quad(
            lambda x, k=k: x ** k * mpmath.e ** (-x * x),
            [-zz, 0, zz],
            error=True,
        )
        if abs(err) > _QUAD_TOL:
            raise QuadratureFailure(
                f"moment {k}: quadrature error {err} exceeds {_QUAD_TOL}"
            )
        out.append(val)
    return out


def window_moments(z, kmax):
    """Moments m_k = int_{-z}^{z} x^k e^{-x^2} dx as floats."""
    with mpmath.workdps(_DPS):
        out = _mp_moments(z, kmax)
    return np.array([float(v) for v in out])


def gamma_sequence_oracle(z, nmax):
    """gamma_1..gamma_nmax by brute force: quadrature moments, then
    Gram-Schmidt on the monomials, then norm ratios
    gamma_n = <P_n, P_n> / <P_{n-1}, P_{n-1}>.  The moments stay at the
    working precision; rounding them to floats first would move gamma."""
    if nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {nmax}")
    if nmax > _MAX_N:
        raise TooLarge(f"nmax {nmax} exceeds {_MAX_N}")
    with mpmath.workdps(_DPS):
        moments = _mp_moments(z, 2 * nmax)

        def inner(p, q):
            acc = mpmath.mpf(0)
            for i, pi in enumerate(p):
                if pi == 0:
                    continue
                for j, qj in enumerate(q):
                    if qj == 0:
                        continue
                    acc += pi * qj * moments[i + j]
            return acc

        polys = [[mpmath.mpf(1)]]  # P_0
        norms = [inner(polys[0], polys[0])]
        for k in range(1, nmax + 1):
            mono = [mpmath.mpf(0)] * k + [mpmath.mpf(1)]  # x^k
            cur = list(mono)
            for j, pj in enumerate(polys):
                coef = inner(mono, pj) / norms[j]
                for i, c in enumerate(pj):
                    cur[i] -= coef * c
            polys.append(cur)
            norms.append(inner(cur, cur))
        gams = [float(norms[n] / norms[n - 1]) for n in range(1, nmax + 1)]
    return np.array(gams)


def build_basis(z=1.0, nmax=8):
    """Basis with oracle coefficients; z defaults to the unit window."""
    gams = gamma_sequence_oracle(z, nmax)
    return TruncatedHermiteBasis(
        z=float(z), gammas=tuple(float(g) for g in gams), nmax=int(nmax)
    )


def _gamma(gams, n):
    # gamma_0 multiplies P_{-1} = 0 in the recurrence; 0 is the value
    # under which the Laguerre-Freud identities extend to n = 1.
    if n == 0:
        return 0.0
    if n < 1 or n > len(gams):
        raise ValueError(f"gamma_{n} not available (have 1..{len(gams)})")
    return float(gams[n - 1])


def monic_sequence(gams, n, x):
    """P_0..P_n at x, stacked on a new leading axis, from the monic
    three-term recurrence P_{k+1} = x P_k - gamma_k P_{k-1}; gams holds
    gamma_1.. ."""
    if n > len(gams) + 1:
        raise ValueError(f"need gamma_1..gamma_{n - 1}, got {len(gams)}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + x.shape)
    out[0] = 1.0
    if n >= 1:
        out[1] = x
    for k in range(1, n):
        out[k + 1] = x * out[k] - gams[k - 1] * out[k - 1]
    return out


def hermite_h(n, x):
    """Physicists' H_0..H_n at x: the monic family with gamma_k = k/2,
    scaled by 2^k, which is exact in binary floating point."""
    p = monic_sequence(np.arange(1.0, n + 1) / 2.0, n, x)
    k = np.arange(n + 1).reshape((-1,) + (1,) * (p.ndim - 1))
    return np.ldexp(p, k)


def _evaluate(gams, n, x):
    """P_n(x) from the three-term recurrence; gams holds gamma_1.. ."""
    return monic_sequence(gams, n, x)[n]


def _evaluate_with_derivative(gams, n, x):
    """(P_n, P_n') jointly: P_0..P_n from monic_sequence, and the
    derivative from the differentiated recurrence
    P'_{k+1} = P_k + x P'_k - gamma_k P'_{k-1}, never finite differences."""
    x = np.asarray(x, dtype=float)
    p = monic_sequence(gams, n, x)
    d = np.zeros_like(p)
    d[1:2] = 1.0  # P_1' = 1; no row when n = 0
    for k in range(1, n):
        d[k + 1] = p[k] + x * d[k] - gams[k - 1] * d[k - 1]
    return p[n], d[n]


def poly_eval(basis, n, x):
    """P_n at x (scalar or array) from the basis coefficients."""
    if n < 0 or n > basis.nmax:
        raise ValueError(f"n must lie in 0..{basis.nmax}, got {n}")
    return _evaluate(basis.gammas, n, x)


def laguerre_freud_residual_1(gams, z, n):
    """Residual of z^2/2 = gamma_n (gamma_{n-1} + gamma_n - z^2 + 1/2 - n)
    - gamma_{n+1} (gamma_{n+1} + gamma_{n+2} - z^2 - n - 3/2)."""
    gm1, g, gp1, gp2 = (
        _gamma(gams, n - 1),
        _gamma(gams, n),
        _gamma(gams, n + 1),
        _gamma(gams, n + 2),
    )
    rhs = g * (gm1 + g - z * z + 0.5 - n) - gp1 * (
        gp1 + gp2 - z * z - n - 1.5
    )
    return z * z / 2.0 - rhs


def laguerre_freud_residual_g(gams, z, n):
    """Residual of (n/2 - g_n)(g_n + g_{n+1})(g_n + g_{n-1}) = z^2 g_n^2
    with g_n = n/2 - gamma_n."""
    gn = n / 2.0 - _gamma(gams, n)
    gp = (n + 1) / 2.0 - _gamma(gams, n + 1)
    gm = (n - 1) / 2.0 - _gamma(gams, n - 1)
    return (n / 2.0 - gn) * (gn + gp) * (gn + gm) - z * z * gn * gn


@dataclass
class LaguerreFreudReport:
    ns: tuple
    form1: np.ndarray
    gform: np.ndarray
    max_residual: float


def gamma_laguerre_freud_check(gammas, z):
    """Residuals of both recurrence-coefficient identities on a gamma
    sequence, for every n they can reach (form 1 needs gamma_{n+2})."""
    gams = np.asarray(gammas, dtype=float)
    if len(gams) < 4:
        raise ValueError(f"need at least 4 coefficients, got {len(gams)}")
    ns = tuple(range(1, len(gams) - 1))
    form1 = np.array([laguerre_freud_residual_1(gams, z, n) for n in ns])
    gform = np.array([laguerre_freud_residual_g(gams, z, n) for n in ns])
    return LaguerreFreudReport(
        ns=ns,
        form1=form1,
        gform=gform,
        max_residual=float(
            max(np.max(np.abs(form1)), np.max(np.abs(gform)))
        ),
    )


def lowering_check(basis, n, xs):
    """|U P_n - P_{n-1}| at the sample points, where U = A d/dx - B lowers
    the degree by one.

    A = (x^2 - z^2) / (2 gamma_n C), B = (n - 2 gamma_n) x / (2 gamma_n C)
    with C = x^2 - z^2 + gamma_n + gamma_{n+1} - n - 1/2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    x = np.asarray(xs, dtype=float)
    z = basis.z
    gams = basis.gammas
    g = _gamma(gams, n)
    gp1 = _gamma(gams, n + 1)
    C = x * x - z * z + g + gp1 - n - 0.5
    if np.any(np.abs(C) < 1e-10):
        raise SingularCoefficient(
            "lowering coefficient vanishes at an evaluation point"
        )
    A = (x * x - z * z) / (2.0 * g * C)
    B = (n - 2.0 * g) * x / (2.0 * g * C)
    p, d = _evaluate_with_derivative(gams, n, x)
    return np.abs(A * d - B * p - _evaluate(gams, n - 1, x))


def diff_recurrence_check(basis, n, xs):
    """Residual of (x^2 - z^2) P'_{n+1} = (n+1) P_{n+2} + lam_n P_n
    + tau_n P_{n-2} at the sample points, with
    lam_n = (2 (gamma_n + gamma_{n+1} + gamma_{n+2} - z^2 - 1) - n)
    gamma_{n+1} and tau_n = 2 gamma_{n+1} gamma_n gamma_{n-1}."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    x = np.asarray(xs, dtype=float)
    z = basis.z
    gams = basis.gammas
    g = _gamma(gams, n)
    gp1 = _gamma(gams, n + 1)
    gp2 = _gamma(gams, n + 2)
    gm1 = _gamma(gams, n - 1)
    lam = (2.0 * (g + gp1 + gp2 - z * z - 1.0) - n) * gp1
    tau = 2.0 * gp1 * g * gm1
    _, dp1 = _evaluate_with_derivative(gams, n + 1, x)
    lhs = (x * x - z * z) * dp1
    rhs = (
        (n + 1) * _evaluate(gams, n + 2, x)
        + lam * _evaluate(gams, n, x)
        + tau * _evaluate(gams, n - 2, x)
    )
    return np.abs(lhs - rhs)


# --- Hermite expansion of the Maxwellian -------------------------------


def model_for_dim(D):
    """The unique supported lattice in D dimensions."""
    for name, dim in _NAMES.items():
        if dim == D:
            return build_lattice(name)
    raise ValueError(f"no lattice in {D} dimensions")


def _gaussian(v, RT):
    """(2 pi RT)^(-d/2) exp(-v.v / (2 RT)) for a d-vector v."""
    return (2.0 * pi * RT) ** (-len(v) / 2.0) * exp(
        -float(v @ v) / (2.0 * RT)
    )


def _bracket(c, u, RT, kmax):
    """Product over axes mu of Sum_k (u_mu/s)^k / k! H_k(c_mu/s), with
    s = sqrt(2 RT)."""
    s = sqrt(2.0 * RT)
    b = 1.0
    for mu in range(len(c)):
        H = hermite_h(kmax, c[mu] / s)
        t = u[mu] / s
        b *= sum(t ** k / factorial(k) * float(H[k]) for k in range(kmax + 1))
    return b


def hermite_expansion_point(c, u, RT, kmax):
    """Truncated Hermite expansion of the Maxwellian at one velocity point.

    The exponential weight sits at c, which is also the Hermite argument;
    the flow velocity u enters only through the series coefficients
    (u_mu / sqrt(2 RT))^k / k!.  As kmax -> inf the product converges to
    the drifting Maxwellian by the generating-function identity.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _gaussian(c, RT) * _bracket(c, u, RT, kmax)


def maxwell_boltzmann(c, u, RT):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return _gaussian(c - u, RT)


@dataclass(frozen=True)
class HermiteEquilibrium:
    """Expansion evaluated at each lattice velocity."""

    values: np.ndarray  # prefactor * bracket per direction
    bracket: np.ndarray
    prefactor: np.ndarray


def hermite_equilibrium_expansion(u, RT, kmax):
    """Evaluate the truncated expansion at the matching lattice velocities.

    The lattice is inferred from the dimension of u.  At kmax = 2 and
    RT = 1/3 the bracket collapses to 1 + 3 c.u + 9/2 (c.u)^2 - 3/2 u.u
    up to O(u^3) cross terms, so weights times bracket reproduces the
    quadratic equilibrium at unit density.
    """
    if RT <= 0.0:
        raise ValueError(f"RT must be positive, got {RT}")
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    model = model_for_dim(u.shape[0])
    c = model.velocities.astype(float)
    pref = np.array([_gaussian(ci, RT) for ci in c])
    bracket = np.array([_bracket(ci, u, RT, kmax) for ci in c])
    return HermiteEquilibrium(
        values=pref * bracket, bracket=bracket, prefactor=pref
    )


# --- trace-closure mode coupling ---------------------------------------


@dataclass(frozen=True)
class ModeCoupling:
    """Linear and quadratic collision tensors of a lattice."""

    L: np.ndarray  # (Q, Q)
    Qt: np.ndarray  # (Q, Q, Q)

    def equilibrium(self, f):
        f = np.asarray(f, dtype=float)
        return self.L @ f + np.einsum("ijk,j,k->i", self.Qt, f, f)


def weight_fractions(model):
    """The lattice weights as exact Fractions, in velocity order."""
    return tuple(_weight(v) for v in model.velocities)


def mode_coupling(model):
    """Build L_ij = w_i (1 + c_i.c_j / cs2) and
    Qt_ijk = w_i (c_i.c_i - D cs2) (c_j.c_k) / (2 cs2^2).

    The quadratic trace coefficient keeps sum_i w_i (c_i.c_i - D cs2) = 0,
    so the columns of L sum to one and Qt sums to zero over its first index.
    Since sum_j c_j = 0, the rows of L sum to Q w_i, not to one.  Qt is the
    trace closure, equal to the BGK equilibrium only on D1Q3.
    """
    # entries depend on (j, k) only through the integer c_j.c_k in -D..D,
    # so each (i, c_j.c_k) pair is rounded from its rational exactly once
    wfr = weight_fractions(model)
    c = model.velocities
    D = model.D
    dots = [Fraction(v) for v in range(-D, D + 1)]
    Ltab = np.array([[float(w * (1 + v / CS2)) for v in dots] for w in wfr])
    trace = [
        w * (int(ci @ ci) - D * CS2) / (2 * CS2 ** 2) for w, ci in zip(wfr, c)
    ]
    Qtab = np.array([[float(t * v) for v in dots] for t in trace])
    gram = c @ c.T + D  # column index of c_j.c_k in the tables
    L = np.take_along_axis(Ltab, gram, axis=1)
    return ModeCoupling(L=L, Qt=Qtab[:, gram])


# --- truncated ladder algebra ------------------------------------------


def commutator(A, B):
    A = np.asarray(A)
    B = np.asarray(B)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimMismatch(f"first operand is not square: {A.shape}")
    if B.shape != A.shape:
        raise DimMismatch(f"operand shapes differ: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def zero_vectors(cfg):
    """The two one-sided null states: a kills the ground state and, under
    truncation, a^dag kills the top level."""
    lo = np.zeros(cfg.levels)
    hi = np.zeros(cfg.levels)
    lo[0] = 1.0
    hi[-1] = 1.0
    return lo, hi


def parity_basis(pi):
    """B^T of the parity basis of the involution pi, one row per sector
    coordinate: e_x for each fixed state, then (e_l + e_h)/sqrt 2 for each
    pair l < h = pi[l], then (e_l - e_h)/sqrt 2; with the even sector's
    size."""
    n = len(pi)
    states = np.arange(n)
    fixed, low = states[pi == states], states[pi > states]
    eye = np.eye(n)
    pairs = eye[low], eye[pi[low]]
    rows = (eye[fixed], (pairs[0] + pairs[1]) / np.sqrt(2.0),
            (pairs[0] - pairs[1]) / np.sqrt(2.0))
    return np.concatenate(rows), len(fixed) + len(low)


# --- q-eigenbasis engine operators ------------------------------------


def kron_sum(terms, factors):
    """engine._kron_sum with each Kronecker product from np.kron."""
    if not next(iter(terms)):
        return np.array([[sum(terms.values())]])
    groups = {}
    for keys, coef in terms.items():
        groups.setdefault(keys[0], {})[keys[1:]] = coef
    return sum(
        np.kron(factors[key], kron_sum(rest, factors))
        for key, rest in groups.items()
    )


def weyl_bound_all_blocks(setup):
    """The Weyl bound on the largest eigenvalue of the symmetric part of
    the q-eigenbasis form from all L^(Q - 1) blocks P~ o (d_k - d_j)/2 of
    every mode, each certified by engine._lambda_max_bound: the allowance
    plus the sum over modes of their largest tops, each addition rounded
    up."""
    form = engine._q_form(setup)
    Q, L = setup.modes, setup.cfg.levels
    blocks = []
    for i, di in enumerate(form.d):
        e = np.moveaxis(di.reshape((L,) * Q), i, -1).reshape(-1, L)
        blocks.append(form.Pt * (e[:, None, :] - e[:, :, None]) * 0.5)
    tops = engine._lambda_max_bound(np.concatenate(blocks)).reshape(Q, -1)
    mu = form.allowance
    for top in tops.max(axis=1):
        mu = float(np.nextafter(mu + top, np.inf))
    return mu
