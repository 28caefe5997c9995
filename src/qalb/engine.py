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
P^p q^k, assembled from classical.equilibrium_terms for each population.

Registers of up to 512 amplitudes are marched and certified on dense
Fock-basis matrices.  A larger one (D1Q3 at 4 qubits per mode, 4096) works
in the joint eigenbasis W of the truncated q instead: there every
Omega_i(q) is diagonal, so dt G = W (sum_i P~_i D_i) W^T with
P~ = V^T P V one L x L matrix.  Its march advances by the action of the
exponential, and its certificate decides from a Weyl bound and a Lanczos
lower bound before it falls back to the dense one.
"""

from dataclasses import dataclass, field
from functools import partial, reduce
from math import exp
from typing import NamedTuple, Optional

import numpy as np

from . import classical, fock
from .errors import OutOfRange, TooLarge
from .linalg import _MAX_DIM, expm, expm_action

CERTIFICATE_MARGIN = 1.01

MODES = ("nonhermitian", "hermitized")


def phase_space_divergence(model, tau):
    """Divergence of the collision flow in population space, -(Q - D)/tau.

    The linear part of the relaxation contracts the Q populations while the
    D conserved momenta are neutral directions.
    """
    return -(model.Q - model.D) / tau


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

    modes counts the encoded populations (one bosonic mode each);
    each mode's propagator and certificate are memoized on the instance.
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
    def total_qubits(self):
        return self.model.Q * self.cfg.qubits

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


def _equilibrium_terms(setup, i, p_mode=None):
    """classical.equilibrium_terms in the q_j, with exponent k on mode m
    keyed as the factor (m == p_mode, k): P multiplies mode p_mode."""
    return {
        tuple((int(m == p_mode), k) for m, k in enumerate(e)): coef
        for e, coef in classical.equilibrium_terms(setup.model, i).items()
    }


def _omega_terms(setup, i, p_mode=None):
    """-(1/tau)(q_i - feq_i(u_hat)) in the form of _equilibrium_terms."""
    feq = _equilibrium_terms(setup, i, p_mode)
    terms = {key: coef / setup.tau for key, coef in feq.items()}
    q_i = tuple((int(m == p_mode), int(m == i)) for m in range(setup.modes))
    terms[q_i] = terms.get(q_i, 0.0) - 1.0 / setup.tau
    return terms


def _kron_sum(terms, factors):
    """Dense sum of coef * kron(factors[key_0], ..., factors[key_last]).

    Terms are grouped by their leading key, so each distinct leading factor
    costs one full-size Kronecker product.
    """
    if not next(iter(terms)):
        return np.array([[sum(terms.values())]])
    groups = {}
    for keys, coef in terms.items():
        groups.setdefault(keys[0], {})[keys[1:]] = coef
    return sum(
        np.kron(factors[key], _kron_sum(rest, factors))
        for key, rest in groups.items()
    )


def equilibrium_operator(setup, i):
    """Operator form of the quadratic equilibrium of population i at unit
    density: w_i (I + 3 c_i.u_hat + 9/2 (c_i.u_hat)^2 - 3/2 u_hat.u_hat)."""
    return _kron_sum(_equilibrium_terms(setup, i), _factors(setup.cfg))


def omega_operator(setup, i):
    """BGK relaxation generator of population i,
    -(1/tau)(q_i - feq_i(u_hat))."""
    return _kron_sum(_omega_terms(setup, i), _factors(setup.cfg))


def generator(setup, mode):
    """Real G with propagator = expm(dt G): sum_i P_i Omega_i, or its
    antisymmetric half (G - G^T)/2 in hermitized mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    terms = {}
    for i in range(setup.modes):
        terms.update(_omega_terms(setup, i, p_mode=i))
    G = _kron_sum(terms, _factors(setup.cfg))
    return G if mode == "nonhermitian" else 0.5 * (G - G.T)


def _dense(setup, mode):
    """A = dt G of one collision mode, built once and memoized on the
    setup: the Fock-basis certificate and propagator both read it."""
    key = ("A", mode)
    if key not in setup._cache:
        setup._cache[key] = setup.dt * generator(setup, mode)
    return setup._cache[key]


def propagator(setup, mode):
    """One-step propagator expm(dt G) = expm(-i dt H), a real matrix,
    memoized on the setup.  It is formed only when asked for: the march
    reads it at n <= _DENSE_DIM, where the certificate is taken first from
    the same build of A; a larger register marches in the q-eigenbasis and
    never calls it."""
    key = ("propagator", mode)
    if key not in setup._cache:
        if setup.dim <= _DENSE_DIM:
            certificate(setup, mode)
        setup._cache[key] = expm(_dense(setup, mode))
    return setup._cache[key]


# Largest register marched and certified on dense Fock-basis matrices; a
# larger one (D1Q3 qc=4, n = 4096) marches and is certified in the
# q-eigenbasis.  At n = 512 the dense march is the faster past a few
# steps: 200 hermitized D1Q3 steps take 0.04 s against 0.07 s, 1500 take
# 0.06 s against 0.47 s (measured on 2 cores).
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
    eigenvalues, evaluated from the same _omega_terms as the Fock-basis
    generator.  The allowance bounds how far the largest eigenvalue of the
    symmetric part of this form may sit from that of the dense A:
    8 (n + L) u norm for the rounding of P~, d and of one product, plus
    2 Q e norm for the orthogonality defect e = ||V^T V - I||_1 of V.
    """
    if "q_form" not in setup._cache:
        cfg, Q = setup.cfg, setup.modes
        L, n = cfg.levels, setup.dim
        lam, V = fock.q_eigensystem(cfg)
        Pt = V.T @ fock.P_matrix(cfg) @ V
        Pt = 0.5 * (Pt - Pt.T)
        powers = (np.ones(L), lam, lam * lam)
        d = np.zeros((Q,) + (L,) * Q)
        for i in range(Q):
            for keys, coef in _omega_terms(setup, i).items():
                term = setup.dt * coef
                for m, (_, k) in enumerate(keys):
                    term = term * powers[k].reshape((L,) + (1,) * (Q - 1 - m))
                d[i] += term
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
    eigenvalues: L^(Q - 1) blocks P~ o (d_k - d_j)/2 of size L.  Each
    block's largest eigenvalue is certified on the stack of blocks by
    _lambda_max_bound; mu_W is the sum over modes of their maxima plus the
    allowance, each addition rounded up.
    """
    form, Q, L = _q_form(setup), setup.modes, setup.cfg.levels
    blocks = []
    for i, di in enumerate(form.d):
        e = np.moveaxis(di.reshape((L,) * Q), i, -1).reshape(-1, L)
        blocks.append(form.Pt * (e[:, None, :] - e[:, :, None]) * 0.5)
    tops = _lambda_max_bound(np.concatenate(blocks)).reshape(Q, -1)
    mu = form.allowance
    for top in tops.max(axis=1):
        mu = float(np.nextafter(mu + top, np.inf))
    return mu


def _rayleigh_bound(setup):
    """A lower bound on the largest eigenvalue of S~: the Rayleigh
    quotient of the top Ritz vector of a matrix-free Lanczos run, minus
    the allowance."""
    form = _q_form(setup)
    apply = partial(_q_apply, setup, "symmetric")
    u = np.finfo(float).eps / 2.0
    y = _lanczos_top(apply, setup.dim, setup.dim * u * form.norm)[2]
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
    exactly 1.  The certificate never forms expm(A).

    At n <= _DENSE_DIM mu comes from the dense S (_lambda_max_bound).  A
    larger register first tries the q-eigenbasis (_q_form) and forms no
    dense matrix unless neither bound decides:
    - clean, with sigma = e^{mu_W}, when the Weyl bound (_weyl_bound)
      keeps e^{mu_W} within the threshold;
    - flagged, with sigma = e^{mu_W}, when a lower bound on the largest
      eigenvalue of S (_rayleigh_bound) already puts e^mu above it, so the
      dense certificate would flag too;
    - otherwise from the dense S, as at n <= _DENSE_DIM.
    So each verdict is the dense certificate's.  Memoized on the setup.
    Returns (sigma, growth_bound, flagged).
    """
    key = ("certificate", mode)
    if key not in setup._cache:
        Q, D = setup.model.Q, setup.model.D
        bound = float(dissipation_factor(1.0, setup.dt, setup.tau, Q, D))
        threshold = bound * CERTIFICATE_MARGIN
        sigma = None
        if setup.dim > _DENSE_DIM:
            if mode == "hermitized":
                sigma = 1.0
            else:
                weyl = exp(_weyl_bound(setup))
                # clean by the upper bound, or flagged by the lower one
                if (weyl <= threshold
                        or exp(_rayleigh_bound(setup)) > threshold):
                    sigma = weyl
        if sigma is None:
            A = _dense(setup, mode)
            S = np.add(A, A.T)
            S *= 0.5
            sigma = exp(_lambda_max_bound(S))
            del S
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


def _lanczos_top(apply, n, tol):
    """Largest Ritz value of a symmetric operator of dimension n, given by
    its product apply(v), with its residual norm and unit Ritz vector, from
    at most 300 Lanczos steps with full reorthogonalization and a seeded
    start vector, stopped once the residual is at most tol."""
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
        if r <= tol or k + 1 == steps:
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


def decode_state(setup, psi):
    """Per-mode value readout from the amplitude ratio against the joint
    ground amplitude.  Returns (values, ok): when the ground amplitude is
    exactly zero the values are NaN and ok is False."""
    return fock.ratio_decode(psi[_readout_index(setup)]), bool(psi[0] != 0.0)


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


def _block_size(n, steps):
    """States per block of the march on a register of dimension n: K = 2^k
    with k = min(4, floor(2 steps / n)), so the k squarings that form U^K
    cost at most twice the march's n^2 flops per step; capped at steps + 1,
    so U^K is formed only when a later block exists."""
    return min(2 ** min(4, 2 * steps // n), steps + 1)


def _dense_blocks(U, psi, steps):
    """psi, U psi, ..., U^steps psi in blocks of K = _block_size(n, steps)
    rows.  The first block applies U once per state; every later block is
    one matrix-matrix product with P = U^K (P is U itself at K = 1), formed
    only when a later block exists.  Blocks are yielded from two buffers
    that are reused."""
    K = _block_size(psi.size, steps)
    block = np.empty((K, psi.size))
    block[0] = psi
    for j in range(1, K):
        np.matmul(U, block[j - 1], out=block[j])
    yield block
    if K > steps:
        return
    P = np.linalg.matrix_power(U, K)
    spare = np.empty_like(block)
    for start in range(K, steps + 1, K):
        rows = min(K, steps + 1 - start)
        # state start + j is P applied to state start - K + j
        np.matmul(block[:rows], P.T, out=spare[:rows])
        block, spare = spare, block
        yield block[:rows]


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


def _march(setup, mode, psi, steps):
    """Readout amplitudes, norms and finiteness of the states psi, U psi,
    ..., U^steps psi, with U = expm(dt G) the propagator of mode, taken a
    block of states at a time; the (steps + 1) x n history is never held.

    At n <= _DENSE_DIM the states come from the blocked march on U
    (_dense_blocks).  A larger register marches in the q-eigenbasis
    (_q_blocks) and never forms U; there the norm is that of the state's
    coordinates, since W is orthogonal.
    """
    if setup.dim > _DENSE_DIM:
        blocks = _q_blocks(setup, mode, psi, steps)
    else:
        index = _readout_index(setup)
        blocks = (
            (states, states[:, index])
            for states in _dense_blocks(propagator(setup, mode), psi, steps)
        )
    amps = np.empty((steps + 1, setup.modes + 1))
    norms = np.empty(steps + 1)
    finite = np.empty(steps + 1, dtype=bool)
    start = 0
    for states, readout in blocks:
        stop = start + len(states)
        amps[start:stop] = readout
        norm = np.sqrt(np.einsum("ij,ij->i", states, states))
        norms[start:stop] = norm
        # a NaN or inf entry makes the sum of squares non-finite, so only
        # those states are scanned; an overflowed norm of finite entries
        # is finite
        fin = np.isfinite(norm)
        fin[~fin] = np.all(np.isfinite(states[~fin]), axis=1)
        finite[start:stop] = fin
        start = stop
    return amps, norms, finite


@dataclass
class EvolutionResult:
    times: np.ndarray
    decoded: np.ndarray  # (steps + 1, Q)
    norms: np.ndarray
    norms_corrected: np.ndarray
    classical: np.ndarray  # the BGK map at the same dt, in closed form
    rel_err: np.ndarray  # max component relative error per step
    mass: np.ndarray
    flagged: bool
    flag_step: Optional[int]
    flag_reason: Optional[str]


def evolve_quantum_0d(setup, f0, steps, mode="nonhermitian", init="exact"):
    """March the encoded register, then decode and check every step.

    The march takes one of two paths, picked only from the register
    dimension n (_DENSE_DIM = 512):
    - n <= 512: blocked on the dense propagator U = expm(dt G): the first
      K states come from one product with U each, every later block of K
      from one matrix-matrix product with U^K.  K = 2^k with
      k = min(4, floor(2 steps / n)), capped at steps + 1; so K = 1 (a
      plain march on U) unless the march is long for its register, and the
      k squarings cost at most twice its flops;
    - n > 512: in the joint eigenbasis W of the truncated q, where the
      state enters once through W^T and each state is the action of the
      exponential on the one before (linalg.expm_action on Q diagonal
      scalings and Q one-axis products with P~ = V^T P V per product), so
      no n x n matrix is formed.
    Both paths feed the same records and checks, after the certificate.

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
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (setup.model.Q,):
        raise ValueError(
            f"f0 must have shape ({setup.model.Q},), got {f0.shape}"
        )
    if abs(f0.sum() - 1.0) > 1e-12:
        raise ValueError(f"populations must sum to 1, got {float(f0.sum())!r}")
    if np.any(np.abs(f0) > 1.0):
        raise OutOfRange("each population must lie in [-1, 1]")
    Q, D = setup.model.Q, setup.model.D
    tau, dt = setup.tau, setup.dt
    _, bound, cert_flagged = certificate(setup, mode)
    psi = initial_state(setup, f0, init=init)
    amps, norms, finite = _march(setup, mode, psi, steps)
    decoded = fock.ratio_decode(amps)
    before, after = norms[:-1], norms[1:]
    ratio_bound = bound * CERTIFICATE_MARGIN
    # checks of steps 1.. in priority order: first failing step, then entry
    with np.errstate(divide="ignore", invalid="ignore"):
        checks = (
            ("non-finite state", ~finite[1:]),
            ("vanished norm", (after == 0.0) | (before == 0.0)),
            ("norm growth monitor", after / before > ratio_bound),
            ("ground amplitude zero", amps[1:, 0] == 0.0),
            ("decoded population outside [-1, 1]",
             np.any(np.abs(decoded[1:]) > 1.0, axis=1)),
        )
    failed = np.array([mask for _, mask in checks])
    flag_step, flag_reason = None, None
    if failed.any():
        t = int(np.argmax(failed.any(axis=0)))
        flag_step, flag_reason = t + 1, checks[int(np.argmax(failed[:, t]))][0]
    if cert_flagged:
        flag_step, flag_reason = 0, "operator-norm certificate"
    T = np.arange(steps + 1) if mode == "hermitized" else 0
    norms_corr = norms * dissipation_factor(T, dt, tau, Q, D)
    cls = classical.evolve_0d(f0, tau, dt, steps)
    errs, _ = relative_error(decoded, cls)
    # fmax skips NaN entries, and an all-NaN row stays NaN without a warning
    rel = np.fmax.reduce(errs, axis=1)
    return EvolutionResult(
        times=np.arange(steps + 1) * dt,
        decoded=decoded,
        norms=norms,
        norms_corrected=norms_corr,
        classical=cls,
        rel_err=rel,
        mass=decoded.sum(axis=1),
        flagged=flag_step is not None,
        flag_step=flag_step,
        flag_reason=flag_reason,
    )
