"""Reference BGK collision dynamics on the discrete velocity models.

This is the floating-point baseline every encoded evolution is judged
against: single-site relaxation, periodic streaming on grids, and the
truncated Gauss-Hermite expansion that motivates the quadratic equilibrium.
"""

from dataclasses import dataclass, field
from math import exp, factorial, pi, sqrt

import numpy as np

from .errors import TauTooSmall, ZeroDensity
from .hermite import hermite_h
from .lattice import build_lattice

_NAME_BY_Q = {3: "D1Q3", 9: "D2Q9", 27: "D3Q27"}
_NAME_BY_D = {1: "D1Q3", 2: "D2Q9", 3: "D3Q27"}


def model_for_q(Q):
    """The unique supported lattice with Q directions."""
    try:
        return build_lattice(_NAME_BY_Q[Q])
    except KeyError:
        raise ValueError(f"no lattice with {Q} directions") from None


def model_for_dim(D):
    """The unique supported lattice in D dimensions."""
    try:
        return build_lattice(_NAME_BY_D[D])
    except KeyError:
        raise ValueError(f"no lattice in {D} dimensions") from None


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


def equilibrium_terms(model, i):
    """Unit-density equilibrium of population i as a polynomial,
    w_i (1 + 3 c_i.m + 9/2 (c_i.m)^2 - 3/2 m.m) with m = sum_j c_j f_j,
    as {exponent tuple over the Q populations: coefficient}."""
    Q = model.Q
    c = model.velocities.astype(float)
    cc = c @ c.T
    w = model.weights[i]
    terms = {}

    def add(pops, coef):
        e = tuple(pops.count(m) for m in range(Q))
        terms[e] = terms.get(e, 0.0) + w * coef

    add((), 1.0)
    for j in range(Q):
        add((j,), 3.0 * cc[i, j])
        for k in range(Q):
            add((j, k), 4.5 * cc[i, j] * cc[i, k] - 1.5 * cc[j, k])
    return terms


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

    @classmethod
    def from_equilibrium(cls, model, rho, u):
        rho = np.asarray(rho, dtype=float)
        u = np.asarray(u, dtype=float)
        return cls(model, _equilibrium(model, rho, u))


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


def evolve_0d(f0, tau, dt, steps):
    """Iterate single-site collisions and return all states, (steps+1, Q).

    The lattice is inferred from the population count.  With moments
    conserved the local equilibrium is a fixed point, so f(t) - feq
    shrinks geometrically by the factor 1 - dt/tau per step.
    """
    check_tau(tau, dt)
    f = np.asarray(f0, dtype=float).copy()
    model = model_for_q(f.shape[-1] if f.ndim else 0)
    if f.shape != (model.Q,):
        raise ValueError(f"f0 must have shape ({model.Q},), got {f.shape}")
    hist = np.empty((steps + 1, model.Q))
    hist[0] = f
    lam = dt / tau
    for t in range(1, steps + 1):
        f = f - lam * (f - equilibrium(f, model))
        hist[t] = f
    return hist


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
