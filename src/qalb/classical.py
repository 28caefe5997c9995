"""Reference BGK collision dynamics on the discrete velocity models.

This is the floating-point baseline every encoded evolution is judged
against: the quadratic equilibrium and the BGK rate written once,
single-site relaxation in closed form, and periodic streaming on grids.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import TauTooSmall, ZeroDensity


def check_tau(tau, dt):
    """TauTooSmall unless tau > dt/2, which keeps the relaxation factor
    1 - dt/tau inside (-1, 1)."""
    if not tau > dt / 2.0:
        raise TauTooSmall(f"tau must exceed dt/2 = {dt / 2.0}, got {tau}")


# Sites per block of the grid collide: on D2Q9 a block of 4096 sites keeps
# its populations, its output and its moment temporaries (about 1 MB) in a
# 2 MB L2 cache, where whole-grid products would stream full-size
# temporaries through memory.
_BLOCK_SITES = 4096


def _positive(rho):
    """rho itself; ZeroDensity unless every site is positive."""
    if np.any(rho <= 0.0):
        raise ZeroDensity("density must be positive at every site")
    return rho


def site_moments(f, model):
    """Density and rho-normalized velocity of per-site densities.

    f may carry any number of leading site axes; the direction axis is
    last.  Raises ZeroDensity as soon as any site loses positivity.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != model.Q:
        raise ValueError(f"last axis must have length {model.Q}, got {f.shape}")
    rho = _positive(f.sum(axis=-1))
    u = (f @ model.velocities) / rho[..., None]
    return rho, u


def _pairs(D):
    """Axis pairs a <= b, in the order of the rho u_a u_b moments."""
    return np.triu_indices(D)


def _equilibrium_table(model):
    """The quadratic equilibrium rho w_i (1 + 3 c_i.u + 9/2 (c_i.u)^2 -
    3/2 u.u) as a (Q, 1 + D + D(D+1)/2) table E, linear in the moments
    (rho, j = rho u, rho u_a u_b for a <= b): row i holds w_i times 1,
    3 c_i and 9/2 c_ia c_ib - 3/2 delta_ab, the last doubled for a < b,
    which stands for both orders of the pair."""
    c = model.velocities.astype(float)
    a, b = _pairs(model.D)
    diag = a == b
    quad = (2.0 - diag) * (4.5 * c[:, a] * c[:, b] - 1.5 * diag)
    lin = np.hstack([np.ones((model.Q, 1)), 3.0 * c])
    return model.weights[:, None] * np.hstack([lin, quad])


def _equilibrium(model, rho, u):
    """Site-major equilibrium (..., Q) at density rho and velocity u."""
    a, b = _pairs(model.D)
    j = rho[..., None] * u
    moments = np.concatenate([rho[..., None], j, j[..., a] * u[..., b]], axis=-1)
    return moments @ _equilibrium_table(model).T


def bgk_rate(model, tau):
    """BGK relaxation rate -(1/tau)(f - feq(f)) as a polynomial in the
    populations, with the unit-density equilibrium
    feq_i = w_i (1 + 3 c_i.m + 9/2 (c_i.m)^2 - 3/2 m.m), m = sum_j c_j f_j:
    {exponent tuple over the Q populations: (Q,) coefficient vector}, the
    rate of population i being sum_e rate[e][i] f^e.  The constant w/tau
    stays a constant term."""
    Q = model.Q
    c = model.velocities.astype(float)
    cc = c @ c.T
    rate = {}

    def add(pops, coef):
        e = tuple(pops.count(m) for m in range(Q))
        rate.setdefault(e, np.zeros(Q))
        rate[e] += model.weights * coef

    add((), 1.0)
    for j in range(Q):
        add((j,), 3.0 * cc[:, j])
        for k in range(Q):
            add((j, k), 4.5 * cc[:, j] * cc[:, k] - 1.5 * cc[j, k])
    for coef in rate.values():
        coef /= tau
    for i in range(Q):
        rate[tuple(int(m == i) for m in range(Q))][i] -= 1.0 / tau
    return rate


def equilibrium(f, model):
    """Quadratic equilibrium of f at its own density and velocity.

    The velocity is the rho-normalized moment of f, so rescaling f scales
    the equilibrium by the same factor and Sum_i feq_i reproduces rho.
    """
    return _equilibrium(model, *site_moments(f, model))


@dataclass(frozen=True)
class DistributionField:
    """Distribution field of shape (*grid, Q), stored direction-major.

    data is the (*grid, Q) array callers read.  It is an np.moveaxis view
    of the C-contiguous (Q, *grid) buffer `planes`, so each population is
    one contiguous plane.  Site-major input is copied into that layout
    once, here; fields returned by collide and stream need no copy.  The
    buffer is read-only and holds finite entries: every field is checked,
    except stream's output, which moves the values of a field already
    checked (_streamed).  Direction-major input is used without a copy, so
    its owner must not write to it afterwards.
    """

    model: object
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        m = self.model
        if data.ndim != m.D + 1 or data.shape[-1] != m.Q:
            raise ValueError(
                f"field must have shape (*grid, {m.Q}) with "
                f"{m.D} grid axes, got {data.shape}"
            )
        planes = np.ascontiguousarray(np.moveaxis(data, -1, 0))
        if not np.all(np.isfinite(planes)):
            raise ValueError("field entries must be finite")
        planes.setflags(write=False)
        object.__setattr__(self, "data", np.moveaxis(planes, 0, -1))

    @property
    def planes(self):
        """The C-contiguous (Q, *grid) buffer behind data."""
        return np.moveaxis(self.data, -1, 0)


def _streamed(model, planes):
    """The field on a (Q, *grid) buffer of values moved from a checked
    field, made read-only without a second finiteness scan."""
    planes.setflags(write=False)
    fld = object.__new__(DistributionField)
    object.__setattr__(fld, "model", model)
    object.__setattr__(fld, "data", np.moveaxis(planes, 0, -1))
    return fld


def collide(fld, tau, dt):
    """One BGK relaxation step f <- f - (dt/tau)(f - feq) at every site.

    Density and velocity are invariant; the guard tau > dt/2 keeps the
    relaxation factor 1 - dt/tau inside (-1, 1).  ZeroDensity guards
    positivity.  Works in moment space, on blocks of _BLOCK_SITES sites
    of the direction-major storage: the equilibrium table E splits into
    E_lin over the moments m = C f, C = [1; c^T], and E_q over the
    products rho u_a u_b, so with lam = dt/tau a block relaxes as
    Lf f + Lq (rho u_a u_b), Lf = (1 - lam) I + lam E_lin C and
    Lq = lam E_q: two small matrix products per block, and no full-size
    temporary.  Returns a new field.
    """
    check_tau(tau, dt)
    m = fld.model
    planes = fld.planes
    f = planes.reshape(m.Q, -1)
    lam = dt / tau
    E = _equilibrium_table(m)
    C = np.vstack([np.ones(m.Q), m.velocities.T])
    Lf = (1.0 - lam) * np.eye(m.Q) + lam * (E[:, : m.D + 1] @ C)
    Lq = lam * E[:, m.D + 1 :]
    a, b = _pairs(m.D)
    out = np.empty(planes.shape)
    relaxed = out.reshape(m.Q, -1)
    for start in range(0, f.shape[1], _BLOCK_SITES):
        block = f[:, start : start + _BLOCK_SITES]
        moments = C @ block
        rho = _positive(moments[0])
        u = moments[1:] / rho
        target = relaxed[:, start : start + _BLOCK_SITES]
        np.matmul(Lf, block, out=target)
        target += Lq @ (moments[1 + a] * u[b])
    return DistributionField(m, np.moveaxis(out, 0, -1))


def _periodic_blocks(shift, dims):
    """(destination, source) slice tuples that together move an array of
    shape dims by shift, periodic in every axis: each axis splits into
    the part that moves on and the part that wraps round (empty on a
    resting axis), so there are 2^D blocks."""
    halves = []
    for s, n in zip(shift, dims):
        s = int(s) % n
        moves_on = (slice(s, None), slice(None, n - s))
        wraps = (slice(None, s), slice(n - s, None))
        halves.append((moves_on, wraps))
    for block in product(*halves):
        yield tuple(zip(*block))


def stream(fld):
    """Shift each population along its velocity, periodic in every axis.

    Each plane is copied in its periodic blocks straight into its output
    plane, with no rolled temporary.  Copies move bit patterns untouched,
    so the transport is exact and the global multiset of stored values is
    preserved.  Returns a new field, not scanned again for finite
    entries.
    """
    m = fld.model
    src = fld.planes
    out = np.empty(src.shape)
    for i in range(m.Q):
        for dst, sl in _periodic_blocks(m.velocities[i], src.shape[1:]):
            out[i][dst] = src[i][sl]
    return _streamed(m, out)


def step(fld, tau, dt):
    """Collision followed by streaming."""
    return stream(collide(fld, tau, dt))


def evolve_0d(f0, model, tau, dt, steps):
    """Single-site collisions f <- f - lam (f - feq(f)), lam = dt/tau,
    on the lattice model in closed form: all states, (steps+1, Q).

    BGK conserves rho and rho u, so feq(f_t) = feq(f0) at every step and
    the map is affine: f_t = f0 - lam s_t (f0 - feq(f0)) with
    s_t = Sum_{k<t} (1 - lam)^k, exact for any lam in (0, 2).  s_1 = 1, so
    row 1 is one step of the map bit for bit.
    """
    check_tau(tau, dt)
    f = np.asarray(f0, dtype=float)
    if f.shape != (model.Q,):
        raise ValueError(f"f0 must have shape ({model.Q},), got {f.shape}")
    hist = np.empty((steps + 1, model.Q))
    hist[0] = f
    if steps:
        lam = dt / tau
        s = np.cumsum((1.0 - lam) ** np.arange(steps))
        hist[1:] = f - (lam * s)[:, None] * (f - equilibrium(f, model))
    return hist
