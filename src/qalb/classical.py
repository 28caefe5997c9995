"""Reference BGK collision dynamics on the discrete velocity models.

This is the floating-point baseline every encoded evolution is judged
against: the quadratic equilibrium and the BGK rate written once,
single-site relaxation in closed form, and periodic streaming on grids.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import TauTooSmall, ZeroDensity


def check_tau(tau, dt):
    """TauTooSmall unless tau > dt/2, which keeps the relaxation factor
    1 - dt/tau inside (-1, 1)."""
    if not tau > dt / 2.0:
        raise TauTooSmall(f"tau must exceed dt/2 = {dt / 2.0}, got {tau}")


def _density(f, axis):
    """Sum of f over its direction axis; ZeroDensity unless every site is
    positive."""
    rho = f.sum(axis=axis)
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
    rho = _density(f, -1)
    u = (f @ model.velocities) / rho[..., None]
    return rho, u


def _bgk_polynomial(rho_w, cu, uu):
    """Quadratic equilibrium rho w_i (1 + 3 c.u + 9/2 (c.u)^2 - 3/2 u.u)
    from rho w_i, c_i.u and u.u.  The three broadcast together, so one
    formula serves site-major (..., Q) arrays and single direction planes."""
    return rho_w * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * uu)


def _equilibrium(model, rho, u):
    """Site-major equilibrium (..., Q) at density rho and velocity u."""
    cu = u @ model.velocities.T.astype(float)
    uu = np.einsum("...d,...d->...", u, u)
    return _bgk_polynomial(rho[..., None] * model.weights, cu, uu[..., None])


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
    once, here; fields returned by collide and stream need no copy.
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
        object.__setattr__(self, "data", np.moveaxis(planes, 0, -1))

    @property
    def planes(self):
        """The C-contiguous (Q, *grid) buffer behind data."""
        return np.moveaxis(self.data, -1, 0)


def collide(fld, tau, dt):
    """One BGK relaxation step f <- f - (dt/tau)(f - feq) at every site.

    Density and velocity are invariant; the guard tau > dt/2 keeps the
    relaxation factor 1 - dt/tau inside (-1, 1).  ZeroDensity guards
    positivity.  Works plane by plane on the direction-major storage.
    Returns a new field.
    """
    check_tau(tau, dt)
    m = fld.model
    planes = fld.planes
    f = planes.reshape(m.Q, -1)
    rho = _density(f, 0)
    c = m.velocities.astype(float)
    u = (c.T @ f) / rho
    uu = np.einsum("dn,dn->n", u, u)
    lam = dt / tau
    out = np.empty(planes.shape)
    relaxed = out.reshape(m.Q, -1)
    cu = np.empty(rho.shape)
    for i in range(m.Q):
        np.matmul(c[i], u, out=cu)
        # the fresh feq plane also holds f - feq and its scaled copy
        feq = _bgk_polynomial(rho * m.weights[i], cu, uu)
        np.subtract(f[i], feq, out=feq)
        feq *= lam
        np.subtract(f[i], feq, out=relaxed[i])
    return DistributionField(m, np.moveaxis(out, 0, -1))


def stream(fld):
    """Shift each population along its velocity, periodic in every axis.

    np.roll moves bit patterns untouched, so the transport is exact and
    the global multiset of stored values is preserved.  Returns a new
    field.
    """
    m = fld.model
    src = fld.planes
    out = np.empty(src.shape)
    axes = tuple(range(m.D))
    for i in range(m.Q):
        shift = tuple(int(s) for s in m.velocities[i])
        out[i] = np.roll(src[i], shift, axis=axes)
    return DistributionField(m, np.moveaxis(out, 0, -1))


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
