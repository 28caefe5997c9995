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
"""

from dataclasses import dataclass, field
from math import exp, sqrt
from typing import Optional

import numpy as np

from . import classical, fock
from .errors import OutOfRange, TooLarge
from .linalg import expm

CERTIFICATE_MARGIN = 1.01

MODES = ("nonhermitian", "hermitized")

_DIM_LIMIT = 4096


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
        if self.dim > _DIM_LIMIT:
            raise TooLarge(
                f"register dimension {self.dim} exceeds {_DIM_LIMIT}; "
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
    P = (a^T - a)/sqrt(2) the real matrix of p = iP."""
    a = fock.a_matrix(cfg)
    P = (a.T - a) / sqrt(2.0)
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


def _build(setup, mode):
    """(U, sigma) of one collision mode from a single build of A = dt G:
    sigma = e^mu with mu a certified upper bound on the largest eigenvalue
    of S = (A + A^T)/2, then U = expm(A).  Memoized on the setup."""
    key = ("build", mode)
    if key not in setup._cache:
        A = setup.dt * generator(setup, mode)
        S = np.add(A, A.T)
        S *= 0.5
        sigma = exp(_lambda_max_bound(S))
        del S
        setup._cache[key] = (expm(A), sigma)
    return setup._cache[key]


def propagator(setup, mode):
    """One-step propagator expm(dt G) = expm(-i dt H), a real matrix."""
    return _build(setup, mode)[0]


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
    exactly 1.  Returns (sigma, growth_bound, flagged).
    """
    sigma = _build(setup, mode)[1]
    Q, D = setup.model.Q, setup.model.D
    bound = float(dissipation_factor(1.0, setup.dt, setup.tau, Q, D))
    return sigma, bound, sigma > bound * CERTIFICATE_MARGIN


def _lambda_max_bound(S):
    """An upper bound mu on the largest eigenvalue of the real symmetric S,
    certified by a Cholesky factorization of t I - S.

    Lanczos gives a Ritz value theta with residual r.  A Ritz value lies
    below lambda_max, so it only places the shift t = theta + delta, with
    delta >= max(r, n u ||S||).  A Cholesky factorization that completes in
    floating point is exact for t I - S + E with
    ||E||_2 <= eta = 2 (n + 1) u tr(t I - S), which covers its backward
    error (Demmel; Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., Thm 10.5) and the rounding of t - S_ii; then
    lambda_max(S) <= t + eta = mu.  When it fails, delta grows tenfold.  mu
    never exceeds the Gershgorin bound, which needs no factorization.
    """
    n = S.shape[0]
    u = np.finfo(float).eps / 2.0
    diag = np.diag(S)
    rows = np.abs(S).sum(axis=1)
    norm = float(np.max(rows))  # ||S||_inf >= ||S||_2
    slack = 2.0 * (n + 1) * u
    cap = float(np.max(diag - np.abs(diag) + rows)) + slack * norm
    theta, r = _lanczos_top(S, n * u * norm)
    delta = max(r, n * u * norm)
    M = np.empty_like(S)
    while True:
        t = theta + delta
        mu = t + slack * float(np.sum(np.abs(t - diag)))
        if mu >= cap:
            return cap
        np.negative(S, out=M)
        M.reshape(-1)[:: n + 1] += t
        try:
            np.linalg.cholesky(M)
            return mu
        except np.linalg.LinAlgError:
            delta *= 10.0


def _lanczos_top(S, tol):
    """Largest Ritz value of the symmetric S and its residual norm, from
    at most 300 Lanczos steps with full reorthogonalization and a seeded
    start vector, stopped once the residual is at most tol."""
    n = S.shape[0]
    steps = min(n, 300)
    V = np.empty((steps, n))
    T = np.zeros((steps, steps))
    v = np.random.default_rng(7).standard_normal(n)
    v /= np.linalg.norm(v)
    for k in range(steps):
        V[k] = v
        w = S @ v
        T[k, k] = v @ w
        basis = V[: k + 1]
        for _ in range(2):  # twice is enough (Parlett)
            w -= basis.T @ (basis @ w)
        beta = float(np.linalg.norm(w))
        vals, vecs = np.linalg.eigh(T[: k + 1, : k + 1])
        theta, r = float(vals[-1]), beta * abs(float(vecs[-1, -1]))
        if r <= tol or k + 1 == steps:
            return theta, r
        T[k, k + 1] = T[k + 1, k] = beta
        v = w / beta


def initial_state(setup, f0, init="exact"):
    """Real product state over modes: exact value encoding, or the
    translation of the vacuum by expm(-i f p) = expm(f P), which lands at
    half the value."""
    cfg = setup.cfg
    psi = np.ones(1)
    for f in f0:
        if init == "exact":
            vec = fock.encode_value(float(f), cfg)
        elif init == "translation":
            if not -1.0 <= f <= 1.0:
                raise OutOfRange(
                    f"encoded value must lie in [-1, 1], got {f}"
                )
            vec = expm(float(f) * _factors(cfg)[1, 0])[:, 0]
        else:
            raise ValueError(f"unknown init {init!r}")
        psi = np.kron(psi, vec)
    return psi


def _readout_index(setup):
    """Flat indices of the ground amplitude, then of each mode's level 1."""
    Q = setup.model.Q
    return np.concatenate(([0], setup.cfg.levels ** np.arange(Q - 1, -1, -1)))


def _ratio_decode(amps):
    """Amplitude ratios against the ground amplitude (first on the last axis)
    over sqrt(2), NaN where the ground amplitude is exactly zero."""
    ground = amps[..., :1]
    vals = np.full(amps[..., 1:].shape, np.nan)
    np.divide(amps[..., 1:], ground, out=vals, where=ground != 0.0)
    return vals / sqrt(2.0)


def decode_state(setup, psi):
    """Per-mode value readout from the amplitude ratio against the joint
    ground amplitude.  Returns (values, ok): when the ground amplitude is
    exactly zero the values are NaN and ok is False."""
    return _ratio_decode(psi[_readout_index(setup)]), bool(psi[0] != 0.0)


def collision_increments(setup, psi):
    """Decoded rate of change of each population under its own generator
    term -i p_m Omega_m = P_m Omega_m, read through the derivative of the
    amplitude ratio."""
    Q = setup.model.Q
    dim = setup.cfg.levels
    if psi[0] == 0.0:
        return np.full(Q, np.nan)
    factors = _factors(setup.cfg)
    rates = np.empty(Q)
    for m in range(Q):
        y = _kron_sum(_omega_terms(setup, m, p_mode=m), factors) @ psi
        stride = dim ** (Q - 1 - m)
        num = y[stride] * psi[0] - psi[stride] * y[0]
        rates[m] = num / psi[0] ** 2 / sqrt(2.0)
    return rates


@dataclass
class EvolutionResult:
    times: np.ndarray
    decoded: np.ndarray  # (steps + 1, Q)
    norms: np.ndarray
    norms_corrected: np.ndarray
    classical: np.ndarray  # Euler reference marched at the same dt
    rel_err: np.ndarray  # max component relative error per step
    mass: np.ndarray
    flagged: bool
    flag_step: Optional[int]
    flag_reason: Optional[str]


def _records(psi, index):
    """Readout amplitudes, norm and finiteness: what the march keeps."""
    return psi[index], np.linalg.norm(psi), np.all(np.isfinite(psi))


def evolve_quantum_0d(setup, f0, steps, mode="nonhermitian", init="exact"):
    """March the encoded register, then decode and check every step.

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
    U = propagator(setup, mode)
    _, bound, cert_flagged = certificate(setup, mode)
    psi = initial_state(setup, f0, init=init)
    index = _readout_index(setup)
    amps = np.empty((steps + 1, index.size))
    norms = np.empty(steps + 1)
    finite = np.empty(steps + 1, dtype=bool)
    amps[0], norms[0], finite[0] = _records(psi, index)
    for t in range(1, steps + 1):
        psi = U @ psi
        amps[t], norms[t], finite[t] = _records(psi, index)
    decoded = _ratio_decode(amps)
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
