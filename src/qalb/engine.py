"""Encoded collision dynamics on a register of truncated bosonic modes.

Each population f_i rides on its own mode as a position-eigenstate value;
the BGK relaxation becomes the operator
Omega_i = -(1/tau)(q_i - feq_i(u_hat)) with u_hat built from the encoded
populations, and one global generator H = sum_i p_i Omega_i advances every
mode at once.  H is not Hermitian; its symmetrized half-anticommutator
variant trades faithfulness of the increments for unitarity, leaving a
known constant dissipation rate to compensate in post-processing.
"""

from dataclasses import dataclass, field
from math import exp, sqrt
from typing import Optional

import numpy as np

from . import classical, fock
from .errors import OutOfRange, TauTooSmall, TooLarge
from .linalg import expm

CERTIFICATE_MARGIN = 1.01

MODES = ("nonhermitian", "hermitized")

_DIM_LIMIT = 4096
# beyond this register size, lifted operators are rebuilt instead of cached
_CACHE_DIM = 2048


def phase_space_divergence(model, tau):
    """Divergence of the collision flow in population space, -(Q - D)/tau.

    The linear part of the relaxation contracts the Q populations while the
    D conserved momenta are neutral directions.
    """
    return -(model.Q - model.D) / tau


def dissipation_factor(T, dt, tau, Q, D):
    """Norm compensation e^{T dt (Q - D) / (2 tau)} after T steps."""
    return exp(T * dt * (Q - D) / (2.0 * tau))


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


def _lift(op, mode, Q, dim):
    """Embed a one-mode operator at slot `mode` of a Q-mode register."""
    out = np.array([[1.0 + 0j]]) if np.iscomplexobj(op) else np.array([[1.0]])
    eye = np.eye(dim, dtype=out.dtype)
    for m in range(Q):
        out = np.kron(out, op if m == mode else eye)
    return out


def _sigma_max(U, iters=120, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=U.shape[0]) + 1j * rng.normal(size=U.shape[0])
    v /= np.linalg.norm(v)
    Uh = U.conj().T
    s = 0.0
    for _ in range(iters):
        w = Uh @ (U @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        s = nw
    return float(np.sqrt(s))


@dataclass(frozen=True)
class CollisionSetup:
    """A lattice model bound to per-mode registers and a relaxation clock.

    modes counts the encoded populations (one bosonic mode each); derived
    operators are memoized on the instance for registers small enough to
    keep around.
    """

    model: object
    cfg: fock.FockConfig
    tau: float = 1.0
    dt: float = 1e-3
    _cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self):
        if self.tau <= self.dt / 2.0:
            raise TauTooSmall(
                f"tau must exceed dt/2 = {self.dt / 2.0}, got {self.tau}"
            )
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


def _velocity_operators(setup):
    """Lifted per-axis velocity operators and their square sum."""
    cached = setup._cache.get("u")
    if cached is not None:
        return cached
    Q, D = setup.model.Q, setup.model.D
    dim = setup.cfg.levels
    total = setup.dim
    c = setup.model.velocities.astype(float)
    q1 = fock.q_matrix(setup.cfg)
    u_axes = []
    for d in range(D):
        acc = np.zeros((total, total))
        for j in range(Q):
            if c[j, d] != 0.0:
                acc += c[j, d] * _lift(q1, j, Q, dim)
        u_axes.append(acc)
    u_sq = np.zeros((total, total))
    for d in range(D):
        u_sq += u_axes[d] @ u_axes[d]
    out = (u_axes, u_sq)
    if total <= _CACHE_DIM:
        setup._cache["u"] = out
    return out


def equilibrium_operator(setup, i):
    """Operator form of the quadratic equilibrium of population i at unit
    density: w_i (I + 3 c_i.u_hat + 9/2 (c_i.u_hat)^2 - 3/2 u_hat.u_hat)."""
    Q, D = setup.model.Q, setup.model.D
    total = setup.dim
    c = setup.model.velocities.astype(float)
    u_axes, u_sq = _velocity_operators(setup)
    cu = np.zeros((total, total))
    for d in range(D):
        if c[i, d] != 0.0:
            cu += c[i, d] * u_axes[d]
    return setup.model.weights[i] * (
        np.eye(total) + 3.0 * cu + 4.5 * (cu @ cu) - 1.5 * u_sq
    )


def omega_operator(setup, i):
    """BGK relaxation generator of population i,
    -(1/tau)(q_i - feq_i(u_hat))."""
    Q = setup.model.Q
    dim = setup.cfg.levels
    q_i = _lift(fock.q_matrix(setup.cfg), i, Q, dim)
    return -(q_i - equilibrium_operator(setup, i)) / setup.tau


def hamiltonian_nonhermitian(setup):
    """Faithful generator H = sum_i p_i Omega_i."""
    cached = setup._cache.get("H:nonhermitian")
    if cached is not None:
        return cached
    Q = setup.model.Q
    dim = setup.cfg.levels
    total = setup.dim
    p1 = fock.p_matrix(setup.cfg)
    H = np.zeros((total, total), dtype=complex)
    for i in range(Q):
        H += _lift(p1, i, Q, dim) @ omega_operator(setup, i)
    setup._cache["H:nonhermitian"] = H
    return H


def hamiltonian_hermitized(setup):
    """Symmetrized generator and the constant divergence it splits off.

    (1/2) sum_i (p_i Omega_i + Omega_i p_i) equals (H + H^dag)/2 because
    every Omega_i is real symmetric; the anti-Hermitian remainder of H is
    the phase-space divergence -(Q - D)/tau up to truncation defects.
    """
    cached = setup._cache.get("H:hermitized")
    if cached is None:
        H = hamiltonian_nonhermitian(setup)
        cached = 0.5 * (H + H.conj().T)
        setup._cache["H:hermitized"] = cached
    return cached, phase_space_divergence(setup.model, setup.tau)


def propagator(setup, mode):
    """One-step propagator expm(-i dt H) for the chosen generator."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    key = ("U", mode)
    cached = setup._cache.get(key)
    if cached is not None:
        return cached
    if mode == "nonhermitian":
        H = hamiltonian_nonhermitian(setup)
    else:
        H, _ = hamiltonian_hermitized(setup)
    U = expm(-1j * setup.dt * H)
    setup._cache[key] = U
    if setup.dim > _CACHE_DIM:
        setup._cache.pop("H:nonhermitian", None)
        setup._cache.pop("H:hermitized", None)
    return U


def certificate(setup, mode):
    """Spectral-norm divergence certificate of the one-step propagator.

    A faithful step must keep its largest singular value within
    e^{dt (Q - D) / (2 tau)}; exceeding that envelope by more than 1
    percent marks the setup as divergent before any state is evolved.
    Returns (sigma_max, growth_bound, flagged).
    """
    key = ("cert", mode)
    cached = setup._cache.get(key)
    if cached is not None:
        return cached
    U = propagator(setup, mode)
    smax = _sigma_max(U)
    bound = dissipation_factor(1.0, setup.dt, setup.tau, setup.model.Q, setup.model.D)
    out = (smax, bound, smax > bound * CERTIFICATE_MARGIN)
    setup._cache[key] = out
    return out


def initial_state(setup, f0, init="exact"):
    """Product state over modes: exact value encoding, or the translation
    of the vacuum by expm(-i f p), which lands at half the value."""
    cfg = setup.cfg
    dim = cfg.levels
    psi = np.array([1.0 + 0j])
    for f in f0:
        if init == "exact":
            vec = fock.encode_value(float(f), cfg).astype(complex)
        elif init == "translation":
            if not -1.0 <= f <= 1.0:
                raise OutOfRange(
                    f"encoded value must lie in [-1, 1], got {f}"
                )
            p1 = fock.p_matrix(cfg)
            vac = np.zeros(dim, dtype=complex)
            vac[0] = 1.0
            vec = expm(-1j * float(f) * p1) @ vac
        else:
            raise ValueError(f"unknown init {init!r}")
        psi = np.kron(psi, vec)
    return psi


def decode_state(setup, psi):
    """Per-mode value readout from the amplitude ratio against the joint
    ground amplitude.  Returns (values, ok): when the ground amplitude is
    exactly zero the values are NaN and ok is False."""
    Q = setup.model.Q
    dim = setup.cfg.levels
    if abs(psi[0]) == 0.0:
        return np.full(Q, np.nan), False
    vals = np.empty(Q)
    for m in range(Q):
        stride = dim ** (Q - 1 - m)
        vals[m] = (complex(psi[stride]) / complex(psi[0])).real / sqrt(2.0)
    return vals, True


def collision_increments(setup, psi):
    """Decoded rate of change of each population under its own generator
    term -i p_m Omega_m, read through the derivative of the amplitude
    ratio."""
    Q = setup.model.Q
    dim = setup.cfg.levels
    if abs(psi[0]) == 0.0:
        return np.full(Q, np.nan)
    p1 = fock.p_matrix(setup.cfg)
    rates = np.empty(Q)
    for m in range(Q):
        y = -1j * (_lift(p1, m, Q, dim) @ (omega_operator(setup, m) @ psi))
        stride = dim ** (Q - 1 - m)
        num = y[stride] * psi[0] - psi[stride] * y[0]
        rates[m] = (complex(num) / complex(psi[0]) ** 2).real / sqrt(2.0)
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
    sigma_max: float
    growth_bound: float
    mode: str
    init: str


def evolve_quantum_0d(setup, f0, steps, mode="nonhermitian", init="exact"):
    """March the encoded register and decode after every step.

    Preconditions: the populations sum to one and each lies in [-1, 1].
    Divergence never raises; the result carries the first flagged step and
    its reason, and the series keep whatever could still be computed.  In
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
        raise ValueError(f"populations must sum to 1, got {f0.sum()!r}")
    if np.any(np.abs(f0) > 1.0):
        raise OutOfRange("each population must lie in [-1, 1]")
    Q, D = setup.model.Q, setup.model.D
    tau, dt = setup.tau, setup.dt
    U = propagator(setup, mode)
    smax, bound, cert_flagged = certificate(setup, mode)
    psi = initial_state(setup, f0, init=init)
    flagged = cert_flagged
    flag_step = 0 if flagged else None
    flag_reason = "operator-norm certificate" if flagged else None
    decoded = np.full((steps + 1, Q), np.nan)
    norms = np.empty(steps + 1)
    norms_corr = np.empty(steps + 1)
    vals, ok = decode_state(setup, psi)
    decoded[0] = vals
    norms[0] = np.linalg.norm(psi)
    norms_corr[0] = norms[0]
    ratio_bound = bound * CERTIFICATE_MARGIN
    for t in range(1, steps + 1):
        psi = U @ psi
        n = float(np.linalg.norm(psi))
        factor = (
            dissipation_factor(t, dt, tau, Q, D)
            if mode == "hermitized"
            else 1.0
        )
        norms[t] = n
        norms_corr[t] = n * factor
        reason = None
        if not np.all(np.isfinite(psi)):
            reason = "non-finite state"
        elif n == 0.0 or norms[t - 1] == 0.0:
            reason = "vanished norm"
        elif n / norms[t - 1] > ratio_bound:
            reason = "norm growth monitor"
        vals, ok = decode_state(setup, psi)
        if reason is None and not ok:
            reason = "ground amplitude zero"
        if reason is not None and not flagged:
            flagged = True
            flag_step = t
            flag_reason = reason
        decoded[t] = vals
    cls = classical.evolve_0d(f0, tau, dt, steps)
    rel = np.empty(steps + 1)
    for t in range(steps + 1):
        errs, _ = relative_error(decoded[t], cls[t])
        rel[t] = np.nan if np.all(np.isnan(errs)) else np.nanmax(errs)
    return EvolutionResult(
        times=np.arange(steps + 1) * dt,
        decoded=decoded,
        norms=norms,
        norms_corrected=norms_corr,
        classical=cls,
        rel_err=rel,
        mass=decoded.sum(axis=1),
        flagged=flagged,
        flag_step=flag_step,
        flag_reason=flag_reason,
        sigma_max=smax,
        growth_bound=bound,
        mode=mode,
        init=init,
    )
