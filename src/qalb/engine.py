"""Encoded collision dynamics on a register of truncated bosonic modes.

Each population f_i rides on its own mode as a position-eigenstate value;
the BGK relaxation becomes the operator
Omega_i = -(1/tau)(q_i - feq_i(u_hat)) with u_hat built from the encoded
populations, and one global generator H = sum_i p_i Omega_i advances every
mode at once.  H is not Hermitian; its symmetrized half-anticommutator
variant trades faithfulness of the increments for unitarity, leaving a
known constant dissipation rate to compensate in post-processing.

With p = iP and P real, -i dt H = dt sum_i P_i Omega_i is real, so the
engine works in real arithmetic throughout: generators, propagators and
states.  Every operator is a sum of Kronecker products of one-mode factors
P^p q^k, assembled from the driving dict classical.bgk_rate, the one
written form of the BGK rate.

Registers of up to 512 amplitudes are marched and certified on dense
matrices in the parity basis of the lattice inversion c -> -c.  Every
velocity set here is closed under it and the BGK equilibrium is
equivariant, so G commutes with the permutation of Fock states that swaps
mode i with the mode of -c_i, and G, its propagator, the propagator's
powers and the certificate's S are each an even and an odd block: 288 +
224 of 512 amplitudes at D1Q3 qc=3, 272 + 240 at D2Q9 qc=1.  A larger
register (D1Q3 at 4 qubits per mode, 4096) works in the joint eigenbasis W
of the truncated q instead: there every Omega_i(q) is diagonal, so
dt G = W (sum_i P~_i D_i) W^T with P~ = V^T P V one L x L matrix.  Its
march advances by the action of the exponential, and its certificate
decides from a Weyl bound and a Lanczos lower bound before it falls back
to the dense one.

The parity basis, the march and the ordered checks are qalb.march's, for
any register: the engine hands it the sector blocks or q-eigenbasis
states, the readout index, the ratio bound bound * CERTIFICATE_MARGIN and
the ground amplitudes, which the decode divides by.
"""

from dataclasses import dataclass, field
from functools import partial, reduce
from math import exp, log
from typing import NamedTuple

import numpy as np

from . import classical, fock, march
from .errors import OutOfRange, TooLarge
from .linalg import _MAX_DIM, expm, expm_action

CERTIFICATE_MARGIN = 1.01

MODES = ("nonhermitian", "hermitized")


def dissipation_factor(T, dt, tau, Q, D):
    """Norm compensation e^{T dt (Q - D) / (2 tau)} after T (array) steps."""
    return np.exp(T * dt * (Q - D) / (2.0 * tau))


def relative_error(quantum, reference):
    """Per-component |q - r| / |r| with NaN where the reference vanishes.

    Returns (errors, zero_count); division by zero is reported, never
    raised.
    """
    q = np.asarray(quantum, dtype=float)
    r = np.asarray(reference, dtype=float)
    out = np.full(q.shape, np.nan)
    mask = r != 0.0
    out[mask] = np.abs(q[mask] - r[mask]) / np.abs(r[mask])
    return out, int(np.count_nonzero(~mask))


@dataclass(frozen=True)
class CollisionSetup:
    """A lattice model bound to per-mode registers and a relaxation clock.

    modes counts the encoded populations (one bosonic mode each).  Each
    mode's sector blocks and certificate, its propagator once asked for,
    and at n <= _DENSE_DIM the parity basis and the parity blocks of the
    generator sum are memoized on the instance.
    """

    model: object
    cfg: fock.FockConfig
    tau: float = 1.0
    dt: float = 1e-3
    _cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        classical.check_tau(self.tau, self.dt)
        if self.dim > _MAX_DIM:
            raise TooLarge(
                f"register dimension {self.dim} exceeds {_MAX_DIM}; "
                f"reduce qubits per mode or the velocity count"
            )

    @property
    def modes(self):
        return self.model.Q

    @property
    def dim(self):
        return self.cfg.levels ** self.model.Q


def make_setup(model, qubits, tau=1.0, dt=1e-3):
    """CollisionSetup with a fresh per-mode register configuration."""
    return CollisionSetup(model=model, cfg=fock.FockConfig(qubits), tau=tau, dt=dt)


def _factors(cfg):
    """One-mode factors P^p q^k keyed by (p, k), p <= 1 and k <= 2, with
    P = fock.P_matrix the real matrix of p = iP."""
    P = fock.P_matrix(cfg)
    q = fock.q_matrix(cfg)
    qk = (np.eye(cfg.levels), q, q @ q)
    return {(p, k): P @ qk[k] if p else qk[k] for p in (0, 1) for k in range(3)}


def _terms(rate, i, p_mode=None):
    """Population i's entries of the driving dict rate, with exponent k on
    mode m keyed as _kron_sum's factor (m == p_mode, k): P multiplies mode
    p_mode."""
    return {
        tuple((int(m == p_mode), k) for m, k in enumerate(e)): float(coef[i])
        for e, coef in rate.items()
    }


def _kron_sum(terms, factors):
    """Dense sum of coef * kron(factors[key_0], ..., factors[key_last]).

    Terms are grouped by their leading key, and each group adds F[a, b] R,
    with F its leading factor and R the sum of its rests, into block (a, b)
    of a zeroed output, for the nonzero entries of F alone; terms on one
    mode are summed as coef * F.  So each entry is the sum of the same
    products, in the same order, as from np.kron(F, R) per group: a
    skipped product is a zero, whose addition changes no value.
    """
    if len(next(iter(terms))) == 1:
        return sum(coef * factors[key] for (key,), coef in terms.items())
    groups = {}
    for keys, coef in terms.items():
        groups.setdefault(keys[0], {})[keys[1:]] = coef
    out = None
    for key, rest in groups.items():
        F, R = factors[key], _kron_sum(rest, factors)
        if out is None:
            out = np.zeros((len(F), len(R), F.shape[1], R.shape[1]))
        a, b = np.nonzero(F)
        out[a, :, b] += F[a, b, None, None] * R
    m, p, n, q = out.shape
    return out.reshape(m * p, n * q)


def generator(setup, mode):
    """Real G with propagator = expm(dt G): sum_i P_i Omega_i, or its
    antisymmetric half (G - G^T)/2 in hermitized mode, built on each call.
    The dense path reads its parity blocks instead (_generator_blocks)."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rate = classical.bgk_rate(setup.model, setup.tau)
    terms = {}
    for i in range(setup.modes):
        terms.update(_terms(rate, i, p_mode=i))
    G = _kron_sum(terms, _factors(setup.cfg))
    return G if mode == "nonhermitian" else 0.5 * (G - G.T)


def _generator_blocks(setup, mode):
    """The even and odd blocks of G in the parity basis, from one
    march.split of the generator sum per setup, memoized read-only at
    n <= _DENSE_DIM, where both modes' propagators and the certificate read
    it.  In hermitized mode they are (g - g^T)/2 for each block g: B is
    orthogonal, so split(G^T) is split(G)^T exactly."""
    blocks = setup._cache.get("G sectors")
    if blocks is None:
        blocks = march.split(_parity(setup), generator(setup, "nonhermitian"))
        if setup.dim <= _DENSE_DIM:
            for g in blocks:
                g.setflags(write=False)
            setup._cache["G sectors"] = blocks
    if mode == "hermitized":
        return tuple(0.5 * (g - g.T) for g in blocks)
    return blocks


def propagator(setup, mode):
    """One-step propagator expm(dt G) = expm(-i dt H), a real matrix in the
    Fock basis, for a register of n <= _DENSE_DIM amplitudes; TooLarge
    above, where the march goes in the q-eigenbasis.  Joined from the
    sector blocks (_sectors) on request and memoized on the setup; the
    march and the certificate never ask for it."""
    if setup.dim > _DENSE_DIM:
        raise TooLarge(f"no dense propagator above {_DENSE_DIM} amplitudes")
    key = ("propagator", mode)
    if key not in setup._cache:
        setup._cache[key] = march.join(
            _parity(setup), *_sectors(setup, mode)
        )
    return setup._cache[key]


def _sectors(setup, mode):
    """The even and odd sector blocks of the propagator, which the march
    advances, memoized on the setup: one expm per block of dt G
    (_generator_blocks)."""
    key = ("sectors", mode)
    if key not in setup._cache:
        setup._cache[key] = tuple(
            expm(setup.dt * g) for g in _generator_blocks(setup, mode)
        )
    return setup._cache[key]


def _parity(setup):
    """The march.Parity of the setup, memoized.  Pi reorders the mode axes
    of a Fock state by the inversion of the lattice's velocities."""
    if "parity" not in setup._cache:
        vel = setup.model.velocities
        inverse = np.nonzero(np.all(vel[None] == -vel[:, None], axis=2))[1]
        L, Q = setup.cfg.levels, setup.modes
        image = np.arange(setup.dim).reshape((L,) * Q).transpose(inverse)
        setup._cache["parity"] = march.parity(image.reshape(-1))
    return setup._cache["parity"]


# Largest register with a dense propagator, marched and certified on dense
# blocks in the parity basis; a larger one (D1Q3 qc=4, n = 4096) goes in the
# q-eigenbasis.  At n = 512 the dense march is the faster past a few steps:
# 200 hermitized D1Q3 steps take 0.04 s against 0.07 s, 1500 take 0.06 s
# against 0.47 s (measured on 2 cores).
_DENSE_DIM = 512

# The sign b of the part sum_i (P~_i D_i + b D_i P~_i) of dt G~, halved
# when b is not 0: G~ itself, its antisymmetric half (G~ - G~^T)/2 and its
# symmetric half, since G~^T = -sum_i D_i P~_i.
_PARTS = {"nonhermitian": 0.0, "hermitized": 1.0, "symmetric": -1.0}


class _QForm(NamedTuple):
    """dt G in the joint eigenbasis W = V (x) ... (x) V of the truncated q:
    dt G = W (sum_i P~_i D_i) W^T."""

    V: np.ndarray  # eigenvectors of the truncated q, one per column
    Pt: np.ndarray  # P~ = V^T P V, antisymmetrized
    d: np.ndarray  # (Q, n): d[i] = dt Omega_i on the joint eigenvalue grid
    norm: float  # sum_i ||P~||_1 max|d_i|, a bound on the 1-norm of each part
    allowance: float  # rounding allowance of an eigenvalue bound
    readout: np.ndarray  # rows of W at _readout_index: ground, then level 1


def _q_form(setup):
    """The _QForm of the setup, memoized.

    Every term of G carries P on exactly one mode and powers of q on the
    others, and q^2 is a polynomial in q, so D_i = Omega_i(q) is diagonal
    in W: entry d_i = dt Omega_i(lam_1, ..., lam_Q) at each tuple of
    eigenvalues, evaluated from the same classical.bgk_rate as the
    Fock-basis generator.  The allowance bounds how far the largest
    eigenvalue of the symmetric part of this form may sit from that of the
    dense A:
    8 (n + L) u norm for the rounding of P~, d and of one product, plus
    2 Q e norm for the orthogonality defect e = ||V^T V - I||_1 of V.
    """
    if "q_form" not in setup._cache:
        cfg, Q = setup.cfg, setup.modes
        L, n = cfg.levels, setup.dim
        lam, V = fock.q_eigensystem(cfg)
        Pt = V.T @ fock.P_matrix(cfg) @ V
        Pt = 0.5 * (Pt - Pt.T)
        powers = (None, lam, lam * lam)  # q^0 factors are skipped
        d = np.zeros((Q,) + (L,) * Q)
        for e, coef in classical.bgk_rate(setup.model, setup.tau).items():
            term = (setup.dt * coef).reshape((Q,) + (1,) * Q)
            for m, k in enumerate(e):
                if k:
                    term = term * powers[k].reshape((L,) + (1,) * (Q - 1 - m))
            d += term
        d = d.reshape(Q, n)
        norm = float(np.abs(Pt).sum(axis=0).max())
        norm *= float(np.abs(d).max(axis=1).sum())
        u = np.finfo(float).eps / 2.0
        defect = float(np.abs(V.T @ V - np.eye(L)).sum(axis=0).max())
        allowance = (8.0 * (n + L) * u + 2.0 * Q * defect) * norm
        rows = [
            reduce(np.kron, [V[int(m == s)] for m in range(Q)])
            for s in range(-1, Q)
        ]
        setup._cache["q_form"] = _QForm(
            V, Pt, d, norm, allowance, np.array(rows)
        )
    return setup._cache["q_form"]


def _along(M, x, axis, L):
    """M applied along one mode axis of x, a vector over (L,) * Q levels:
    one matrix product for the first or the last axis, a stack of them
    for an inner one."""
    rest = x.size // L ** (axis + 1)
    if rest == 1:
        return (x.reshape(-1, L) @ M.T).reshape(x.shape)
    return np.matmul(M, x.reshape(-1, L, rest)).reshape(x.shape)


def _q_apply(setup, part, x):
    """sum_i (P~_i D_i + b D_i P~_i) x, halved when b is not 0, for
    b = _PARTS[part]: Q diagonal scalings and Q products with P~ along
    one axis, and Q more of each for the two-sided parts."""
    form = _q_form(setup)
    b = _PARTS[part]
    L = setup.cfg.levels
    y = np.zeros_like(x)
    for i, di in enumerate(form.d):
        y += _along(form.Pt, di * x, i, L)
        if b:
            z = _along(form.Pt, x, i, L)
            z *= di
            if b > 0:
                y += z
            else:
                y -= z
    if b:
        y *= 0.5
    return y


def _to_q_basis(setup, psi):
    """W^T psi: psi in the joint eigenbasis of the truncated q."""
    V, L = _q_form(setup).V, setup.cfg.levels
    for i in range(setup.modes):
        psi = _along(V.T, psi, i, L)
    return psi


def _weyl_bound(setup):
    """A certified upper bound mu_W on the largest eigenvalue of the
    symmetric part S~ = sum_i S_i of dt G~, by Weyl's inequality.

    S_i = (P~_i D_i - D_i P~_i)/2 is block diagonal over the other modes'
    eigenvalues: L^(Q - 1) blocks X_k = P~ o (e_l - e_j)/2 of size L, with
    e = e_k the row of d_i along mode i at the tuple k.  The BGK rate is
    quadratic, so e = c0(k) + c1(k) lam + c2 lam^2 with c2 the same for
    every k, and X_k = c1(k) B1 + c2 B2 for two fixed matrices.  Its
    largest eigenvalue is convex in c1, so over k it peaks at the row a
    with the smallest or the row b with the largest c1; the slope
    e_(L-1) - e_0 orders the rows by c1.  Only those 2 Q blocks are
    certified, on one stack, by _lambda_max_bound.

    The computed rows are not exactly affine in c1.  With t_k in [0, 1] the
    place of row k's slope between a's and b's,
    X_k = (1 - t_k) X_a + t_k X_b + R_k, R_k = P~ o (r_l - r_j)/2 for
    r = e_k - e_a - t_k (e_b - e_a), so lambda_max(X_k) is at most the
    larger of lambda_max(X_a) and lambda_max(X_b) plus
    ||R_k||_2 <= ||R_k||_1 <= ||P~||_1 (max r - min r)/2.  The rounding
    term E_i = ||P~||_1 (rho_i + 24 u M_i)/2 bounds that for every k, with
    rho_i the largest computed max r - min r and M_i = max|d_i|: 24 u M_i
    covers the rounding of r and of rho_i.  The bound holds for any d, so
    a wrong pick among rows that nearly tie costs tightness, not validity.
    mu_W is the allowance plus, per mode, the larger of its two certified
    tops and E_i, each addition rounded up.
    """
    form, Q, L = _q_form(setup), setup.modes, setup.cfg.levels
    u = np.finfo(float).eps / 2.0
    p_norm = float(np.abs(form.Pt).sum(axis=0).max())
    ends, terms = [], []
    for i, di in enumerate(form.d):
        e = di.reshape(L**i, L, -1)  # e[p, :, s] is one row along mode i
        slope = e[:, -1] - e[:, 0]
        a = np.unravel_index(slope.argmin(), slope.shape)
        b = np.unravel_index(slope.argmax(), slope.shape)
        ea, eb = e[a[0], :, a[1]], e[b[0], :, b[1]]
        t = np.zeros_like(slope)
        if slope[b] > slope[a]:
            t = np.clip((slope - slope[a]) / (slope[b] - slope[a]), 0.0, 1.0)
        r = e - ea[:, None]
        r -= t[:, None] * (eb - ea)[:, None]
        rho = float(np.max(r.max(axis=1) - r.min(axis=1)))
        terms.append(0.5 * p_norm * (rho + 24.0 * u * np.abs(di).max()))
        ends += [ea, eb]
    ends = np.array(ends)
    blocks = form.Pt * (ends[:, None, :] - ends[:, :, None]) * 0.5
    tops = _lambda_max_bound(blocks).reshape(Q, 2).max(axis=1)
    mu = form.allowance
    for top, term in zip(tops, terms):
        mu = float(np.nextafter(mu + top, np.inf))
        mu = float(np.nextafter(mu + term, np.inf))
    return mu


def _rayleigh_bound(setup, target=np.inf):
    """A lower bound on the largest eigenvalue of S~: the Rayleigh
    quotient of the top Ritz vector of a matrix-free Lanczos run, minus
    the allowance.  The run stops once its Ritz value exceeds target
    (_lanczos_top); any vector's quotient bounds the top eigenvalue from
    below, so an early stop changes the cost, never what is certified."""
    form = _q_form(setup)
    apply = partial(_q_apply, setup, "symmetric")
    u = np.finfo(float).eps / 2.0
    y = _lanczos_top(apply, setup.dim, setup.dim * u * form.norm, target)[2]
    return float(y @ apply(y)) / float(y @ y) - form.allowance


def certificate(setup, mode):
    """Fail-closed divergence certificate of the one-step propagator.

    sigma = e^mu, with mu a certified upper bound on the largest eigenvalue
    of S = (A + A^T)/2, A = dt G, is an upper bound on ||expm(A)||_2: the
    logarithmic norm (Soderlind, "The logarithmic norm. History and modern
    theory", BIT 46 (2006) 631).  So the certificate may over-flag, never
    under-flag.  A faithful step must keep its growth within
    e^{dt (Q - D) / (2 tau)}; sigma above that envelope by more than 1
    percent marks the setup as divergent before any state is evolved.  In
    hermitized mode A is exactly antisymmetric, so S is 0 and sigma is
    exactly 1 at every register size, with nothing built.  The certificate
    never forms expm(A).

    In nonhermitian mode at n <= _DENSE_DIM, mu is the larger of the dense
    bounds (_lambda_max_bound) on the even and odd blocks of S in the
    parity basis, the symmetric halves of dt g for the memoized blocks g
    of G (_generator_blocks), so sigma bounds exactly the block-diagonal
    propagator the march advances.  A larger register first tries the
    q-eigenbasis (_q_form) and forms no dense matrix unless neither bound
    decides:
    - clean, with sigma = e^{mu_W}, when the Weyl bound (_weyl_bound, 2 Q
      blocks of size L) keeps e^{mu_W} within the threshold;
    - flagged, with sigma = e^{mu_W}, when a lower bound on the largest
      eigenvalue of S (_rayleigh_bound) already puts e^mu above it, so the
      dense certificate would flag too.  Its Lanczos run stops once the
      Ritz value clears ln(threshold) plus the allowance, a few steps
      where the bound flags by a wide margin;
    - otherwise from the two dense blocks of S, as at n <= _DENSE_DIM.
    So each verdict is the dense certificate's.  Memoized on the setup.
    Returns (sigma, growth_bound, flagged).
    """
    key = ("certificate", mode)
    if key not in setup._cache:
        Q, D = setup.model.Q, setup.model.D
        bound = float(dissipation_factor(1.0, setup.dt, setup.tau, Q, D))
        threshold = bound * CERTIFICATE_MARGIN
        sigma = None
        if mode == "hermitized":
            sigma = 1.0
        elif setup.dim > _DENSE_DIM:
            weyl = exp(_weyl_bound(setup))
            # clean by the upper bound, or flagged by the lower one, whose
            # Lanczos run stops once it clears the threshold by the allowance
            target = log(threshold) + _q_form(setup).allowance
            if weyl <= threshold or (
                exp(_rayleigh_bound(setup, target)) > threshold
            ):
                sigma = weyl
        if sigma is None:
            mu = -np.inf
            for g in _generator_blocks(setup, mode):
                A = setup.dt * g
                S = np.add(A, A.T)
                S *= 0.5
                mu = max(mu, _lambda_max_bound(S))
                del A, S
            sigma = exp(mu)
        setup._cache[key] = (sigma, bound, sigma > threshold)
    return setup._cache[key]


def _lambda_max_bound(S):
    """An upper bound mu on the largest eigenvalue of the real symmetric S,
    or an array of one for each matrix of a stack S of shape (k, n, n),
    certified by a Cholesky factorization of t I - S.

    A Ritz value theta (from Lanczos, with residual r, for one matrix; from
    eigvalsh, with r = 0, for a stack) only places the shift
    t = theta + delta, with delta >= max(r, n u ||S||).  A Cholesky
    factorization that completes in floating point is exact for
    t I - S + E with ||E||_2 <= eta = 2 (n + 1) u tr(t I - S), which covers
    its backward error (Demmel; Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., Thm 10.5) and the rounding of
    t - S_ii; then lambda_max(S) <= t + eta = mu, rounded up.  Where it
    fails, delta grows tenfold.  mu never exceeds the Gershgorin bound,
    which needs no factorization.
    """
    one = S.ndim == 2
    stack = S[None] if one else S
    k, n = stack.shape[:2]
    u = np.finfo(float).eps / 2.0
    diag = np.diagonal(stack, axis1=1, axis2=2)
    rows = np.abs(stack).sum(axis=2)
    norm = rows.max(axis=1)  # ||S||_inf >= ||S||_2
    slack = 2.0 * (n + 1) * u
    cap = np.max(diag - np.abs(diag) + rows, axis=1) + slack * norm
    if one:
        theta, r = _lanczos_top(S.__matmul__, n, n * u * float(norm[0]))[:2]
    else:
        theta, r = np.linalg.eigvalsh(stack)[:, -1], 0.0
    delta = np.maximum(r, n * u * norm)
    mu = np.empty(k)
    todo = np.ones(k, dtype=bool)
    M = np.empty_like(stack)
    while todo.any():
        t = theta + delta
        trial = t + slack * np.abs(t[:, None] - diag).sum(axis=1)
        trial = np.nextafter(trial, np.inf)
        capped = todo & (trial >= cap)
        mu[capped] = cap[capped]
        todo &= ~capped
        if todo.any():
            np.negative(stack, out=M)
            M.reshape(k, -1)[:, :: n + 1] += t[:, None]
            done = todo & _factors_ok(M)
            mu[done] = trial[done]
            todo &= ~done
            delta[todo] *= 10.0
    return float(mu[0]) if one else mu


def _factors_ok(M):
    """Whether each matrix of the stack M has a Cholesky factor: one call
    for the stack, then one per matrix only when that call fails."""
    try:
        np.linalg.cholesky(M)
        return np.ones(len(M), dtype=bool)
    except np.linalg.LinAlgError:
        if len(M) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_factors_ok(m[None]) for m in M])


def _lanczos_top(apply, n, tol, target=np.inf):
    """Largest Ritz value of a symmetric operator of dimension n, given by
    its product apply(v), with its residual norm and unit Ritz vector, from
    at most 300 Lanczos steps with full reorthogonalization and a seeded
    start vector, stopped once the residual is at most tol or the Ritz
    value exceeds target.  With full reorthogonalization the Ritz value
    only rises from step to step, so it exceeds target at the first step
    it can."""
    steps = min(n, 300)
    V = np.empty((steps, n))
    T = np.zeros((steps, steps))
    v = np.random.default_rng(7).standard_normal(n)
    v /= np.linalg.norm(v)
    for k in range(steps):
        V[k] = v
        w = apply(v)
        T[k, k] = v @ w
        basis = V[: k + 1]
        for _ in range(2):  # twice is enough (Parlett)
            w -= basis.T @ (basis @ w)
        beta = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(T[: k + 1, : k + 1])
        theta, r = float(vals[-1]), beta * abs(float(vecs[-1, -1]))
        if r <= tol or theta > target or k + 1 == steps:
            return theta, r, vecs[:, -1] @ basis
        T[k, k + 1] = T[k + 1, k] = beta
        v = w / beta


def initial_state(setup, f0, init="exact"):
    """Real product state over modes: exact value encoding, or the
    translation of the vacuum by expm(-i f p) = expm(f P), which lands at
    half the value."""
    cfg = setup.cfg
    P = fock.P_matrix(cfg)
    psi = np.ones(1)
    for f in f0:
        if init == "exact":
            vec = fock.encode_value(float(f), cfg)
        elif init == "translation":
            if not -1.0 <= f <= 1.0:
                raise OutOfRange(
                    f"encoded value must lie in [-1, 1], got {f}"
                )
            vec = expm(float(f) * P)[:, 0]
        else:
            raise ValueError(f"unknown init {init!r}")
        psi = np.kron(psi, vec)
    return psi


def _readout_index(setup):
    """Flat indices of the ground amplitude, then of each mode's level 1."""
    Q = setup.model.Q
    return np.concatenate(([0], setup.cfg.levels ** np.arange(Q - 1, -1, -1)))


def collision_increments(setup, psi):
    """Decoded rate of change of each population under its own generator
    term -i p_m Omega_m = P_m Omega_m: d/dt (psi_s / psi_0), the ratio
    decode of y_s psi_0 - psi_s y_0 against psi_0^2 with y the term applied
    to psi.  The term is applied in the q-eigenbasis, P~_m D_m on the
    coordinates of psi, and y_0, y_s are read through rows of W.  NaN where
    the ground amplitude is exactly zero."""
    form = _q_form(setup)
    index = _readout_index(setup)
    x = _to_q_basis(setup, psi)
    amps = np.empty(index.size)
    amps[0] = psi[0] ** 2
    for m, s in enumerate(index[1:]):
        y = _along(form.Pt, form.d[m] * x, m, setup.cfg.levels) / setup.dt
        y0, ys = form.readout[[0, m + 1]] @ y
        amps[m + 1] = ys * psi[0] - psi[s] * y0
    return fock.ratio_decode(amps)


def _q_blocks(setup, mode, psi, steps):
    """(states, readout amplitudes) of psi, then of each state the action
    of expm(dt G~) (its hermitized half in hermitized mode) on the one
    before, one state per block, in the q-eigenbasis: linalg.expm_action on
    _q_apply under the 1-norm bound of _q_form, with the amplitudes read
    through rows of W (_QForm.readout).  psi itself is recorded as given.
    A state with a NaN or inf entry is followed by NaN states."""
    apply = partial(_q_apply, setup, mode)
    form = _q_form(setup)
    yield psi[None], psi[None, _readout_index(setup)]
    x = _to_q_basis(setup, psi)
    for _ in range(steps):
        if np.all(np.isfinite(x)):
            x = expm_action(apply, x, form.norm)
        else:
            x = np.full_like(x, np.nan)
        yield x[None], form.readout @ x


def evolve_quantum_0d(setup, f0, steps, mode="nonhermitian", init="exact"):
    """March the encoded register, then decode and check every step.

    The march goes on sector blocks at n <= _DENSE_DIM and in the
    q-eigenbasis above; the certificate's flag outranks every check.

    Preconditions: the populations sum to one and each lies in [-1, 1].
    Divergence never raises; the result carries the first flagged step and
    its reason, and the series keep whatever could still be computed.  A
    decoded population leaving that input domain [-1, 1] is flagged.  In
    hermitized mode the corrected norms reapply the dissipation factor
    that the symmetrization removed; the amplitude-ratio decode is scale
    free, so the decoded series needs no correction.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    Q, D = setup.model.Q, setup.model.D
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (Q,):
        raise ValueError(f"f0 must have shape ({Q},), got {f0.shape}")
    if abs(f0.sum() - 1.0) > 1e-12:
        raise ValueError(f"populations must sum to 1, got {float(f0.sum())!r}")
    if np.any(np.abs(f0) > 1.0):
        raise OutOfRange("each population must lie in [-1, 1]")
    tau, dt = setup.tau, setup.dt
    _, bound, cert_flagged = certificate(setup, mode)
    psi = initial_state(setup, f0, init=init)
    if setup.dim > _DENSE_DIM:
        blocks = _q_blocks(setup, mode, psi, steps)
        amps, norms, finite = march.records(blocks, steps, Q + 1)
    else:
        amps, norms, finite = march.sector_march(
            _parity(setup), _sectors(setup, mode), psi,
            _readout_index(setup), steps,
        )
    decoded = fock.ratio_decode(amps)
    flag_step, flag_reason = march.first_flag(
        finite, norms, bound * CERTIFICATE_MARGIN, amps[:, 0], decoded
    )
    if cert_flagged:
        flag_step, flag_reason = 0, "operator-norm certificate"
    T = np.arange(steps + 1) if mode == "hermitized" else 0
    norms_corr = norms * dissipation_factor(T, dt, tau, Q, D)
    cls = classical.evolve_0d(f0, setup.model, tau, dt, steps)
    errs, _ = relative_error(decoded, cls)
    # fmax skips NaN entries, and an all-NaN row stays NaN without a warning
    rel = np.fmax.reduce(errs, axis=1)
    return march.EvolutionResult(
        times=np.arange(steps + 1) * dt, decoded=decoded, norms=norms,
        norms_corrected=norms_corr, classical=cls, rel_err=rel,
        flag_step=flag_step, flag_reason=flag_reason,
    )
