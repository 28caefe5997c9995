"""Carleman embedding of quadratic collision dynamics.

One builder, `linearize`, turns a homogeneous polynomial driving into the
linear generator on its monomials of degree 1..O_c, behind one guard: the
basis must fit the largest dense matrix, linalg._MAX_DIM.  The logistic
scalar problem df/dt = -a f + b f^2 is its one-variable case and the exactly
solvable probe: the monomial chain d(f^k)/dt = -k a f^k + k b f^(k+1)
closes only in the limit, and truncating at a finite order leaves an upper
bidiagonal system whose first component converges to the true solution as
the order grows.  On a vector of populations the homogenized BGK relaxation
closes exactly at order two on every lattice, because the momentum enters
the equilibrium only through a conserved square.
"""

from dataclasses import dataclass, field
from math import comb, inf, log1p

import numpy as np

from . import classical
from .errors import NonFinite, OmegaOutOfRange, SingularTime, TooLarge
from .lattice import build_lattice
from .linalg import _MAX_DIM, expm


@dataclass(frozen=True)
class LogisticParams:
    """Rates and initial value for df/dt = -a f + b f^2."""

    a: float
    b: float
    f0: float

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(
                f"rates must be positive, got a={self.a}, b={self.b}"
            )

    @property
    def K(self):
        """Fixed point a/b separating decay from blow-up."""
        return self.a / self.b


def singular_time(p):
    """Blow-up time of the logistic solution, inf when none exists.

    The solution escapes in finite time only when f0 exceeds the fixed
    point K = a/b; for f0 >> K the product a * t_singular behaves like
    K / f0.
    """
    if p.f0 <= p.K:
        return inf
    return -log1p(-p.K / p.f0) / p.a


def logistic_exact(p, t):
    """Closed-form solution f0 e^{-at} / (1 - (f0/K)(1 - e^{-at})), with
    1 - e^{-at} from expm1, so that it tends to f0 / (1 - b f0 t) as a -> 0."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("time must be non-negative")
    ts = singular_time(p)
    if np.any(t_arr >= ts):
        est = p.K / p.f0 / p.a
        raise SingularTime(
            f"solution blows up at t = {ts:.6g} (small-ratio estimate "
            f"K/(a f0) = {est:.6g}); cannot evaluate at t >= {ts:.6g}",
            t_singular=ts,
        )
    at = p.a * t_arr
    out = p.f0 * np.exp(-at) / (1.0 + (p.f0 / p.K) * np.expm1(-at))
    return float(out) if np.isscalar(t) else out


def _exponents(total, nvars):
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _exponents(total - first, nvars - 1):
            yield (first,) + rest


def monomial_basis(nvars, order):
    """All exponent tuples of total degree 1..order, graded then
    lexicographic with the first variable ranked highest."""
    basis = []
    for deg in range(1, order + 1):
        basis.extend(_exponents(deg, nvars))
    return basis


@dataclass(frozen=True)
class CarlemanSystem:
    """Linear truncation dV/dt = C V on monomials of degree 1..order."""

    variables: tuple  # exponent tuples indexing rows and columns of C
    C: np.ndarray = field(repr=False)

    @property
    def nvars(self):
        return len(self.variables[0])

    def initial_state(self, f0):
        """Monomial lift of a point: V_e(0) = prod_i f0_i^e_i.  Raises
        NonFinite when a monomial overflows."""
        f0 = np.atleast_1d(np.asarray(f0, dtype=float))
        if f0.shape != (self.nvars,):
            raise ValueError(
                f"initial point must have shape ({self.nvars},), got {f0.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            lift = np.prod(f0 ** np.array(self.variables), axis=1)
        if not np.all(np.isfinite(lift)):
            raise NonFinite(f"monomial lift of {f0} overflows")
        return lift


def logistic_carleman_chain(p, kmax):
    """Truncated monomial chain of the logistic problem: `linearize` on one
    variable.

    Variables are f^1..f^kmax; the generator is upper bidiagonal with
    diagonal -k a and superdiagonal k b, the k-th row losing its f^{k+1}
    feed when k = kmax.
    """
    return linearize({(1,): [-p.a], (2,): [p.b]}, kmax)


def evolve_system(system, state0, dt, steps, method="exact"):
    """March dV/dt = C V and return the (steps+1, nvariables) history.

    method "exact" applies the one-step propagator expm(C dt), so the only
    error against the underlying nonlinear problem is the truncation of
    the monomial hierarchy; "euler" uses the first-order update
    V + dt C V and adds time-discretization error on top.
    """
    state = np.asarray(state0, dtype=float)
    n = system.C.shape[0]
    if state.shape != (n,):
        raise ValueError(f"state must have shape ({n},), got {state.shape}")
    if method == "exact":
        step = expm(system.C * dt).__matmul__
    elif method == "euler":
        step = lambda v: v + dt * (system.C @ v)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _orbit(step, state, steps)


def _orbit(step, state, steps):
    """The (steps+1, n) history state, step(state), step(step(state)), ..."""
    hist = np.empty((steps + 1, state.size))
    hist[0] = state
    for k in range(1, steps + 1):
        state = step(state)
        hist[k] = state
    return hist


def logistic_order_sweep(p, orders, dt, steps, method="exact"):
    """Leading-component trajectories of the truncated chain per order.

    Returns (times, dict order -> f(t) series); feeding the curves of
    successive truncation orders to the exact solution exhibits the
    order-by-order error decrease away from the blow-up regime.
    """
    times = np.arange(steps + 1) * dt
    curves = {}
    for kmax in orders:
        system = logistic_carleman_chain(p, kmax)
        state0 = system.initial_state(p.f0)
        curves[kmax] = evolve_system(system, state0, dt, steps, method)[:, 0]
    return times, curves


def linearize(driving, O_c):
    """Carleman generator of a homogeneous polynomial driving on monomials
    of degree 1..O_c.

    driving maps exponent tuples to coefficient vectors: the rate of
    population i is sum over monomials of driving[e][i] * f^e.  Constant
    terms are rejected; homogenize them through the density first.  Rows
    are assembled by the product rule and any monomial pushed beyond
    degree O_c is dropped, which is the truncation.

    The one size guard counts the comb(nvars + O_c, O_c) - 1 monomials
    before enumerating them and raises TooLarge past linalg._MAX_DIM, so
    one variable reaches order 4096, expm's own limit.
    """
    if O_c < 1:
        raise ValueError(f"truncation order must be >= 1, got {O_c}")
    if not driving:
        raise ValueError("driving polynomial is empty")
    nvars = len(next(iter(driving)))
    size = comb(nvars + O_c, O_c) - 1
    if size > _MAX_DIM:
        raise TooLarge(
            f"Carleman basis of order {O_c} has {size} monomials, "
            f"more than {_MAX_DIM}"
        )
    terms = {}
    for e, coeff in driving.items():
        e = tuple(int(x) for x in e)
        if len(e) != nvars:
            raise ValueError("inconsistent exponent tuple lengths")
        if any(x < 0 for x in e):
            raise ValueError(f"negative exponent in {e}")
        if sum(e) == 0:
            raise ValueError(
                "driving must be homogeneous: constant term not allowed"
            )
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (nvars,):
            raise ValueError(f"coefficient vector must have shape ({nvars},)")
        terms[e] = coeff
    basis = monomial_basis(nvars, O_c)
    index = {e: k for k, e in enumerate(basis)}
    n = len(basis)
    C = np.zeros((n, n))
    for row, e in enumerate(basis):
        for i in range(nvars):
            if e[i] == 0:
                continue
            reduced = list(e)
            reduced[i] -= 1
            for m, coeff in terms.items():
                target = tuple(reduced[j] + m[j] for j in range(nvars))
                col = index.get(target)
                if col is not None:
                    C[row, col] += e[i] * coeff[i]
    return CarlemanSystem(variables=tuple(basis), C=C)


def bgk_driving(model, tau):
    """Homogenized BGK rate -(1/tau)(f - feq(f)) as a driving dict.

    classical.bgk_rate at rho = sum_j f_j (He and Luo's incompressible
    form): its constant w/tau joins every degree-1 term, which leaves the
    rate unchanged on the simplex sum_j f_j = 1.
    """
    driving = classical.bgk_rate(model, tau)
    const = driving.pop((0,) * model.Q)
    for e, coef in driving.items():
        if sum(e) == 1:
            coef += const
    return driving


def clb_closed_d1q3(f0, omega, steps):
    """Exact four-variable closure of the D1Q3 relaxation map.

    State (f_rest, f_minus, f_plus, g) with g = (f_plus - f_minus)^2.  The
    momentum is a fixed point of the relaxation, so g never changes and
    the quadratic equilibrium becomes linear in the extended state; one
    linear map reproduces the nonlinear per-step dynamics exactly.  The
    step f + omega (feq - f) is f + omega r(f) with r = bgk_driving at
    tau = 1, whose constants are homogenized through the density, hence the
    unit-mass precondition: column j of the map adds omega r[e_j], and the
    g column is omega r[(0, 0, 2)], since every quadratic term on D1Q3 is a
    multiple of g.
    """
    if not 0.0 < omega < 2.0:
        raise OmegaOutOfRange(f"omega must lie in (0, 2), got {omega}")
    f0 = np.asarray(f0, dtype=float)
    if f0.shape != (3,):
        raise ValueError(f"f0 must have shape (3,), got {f0.shape}")
    if abs(f0.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to 1, got {f0.sum()!r}")
    driving = bgk_driving(build_lattice("D1Q3"), 1.0)
    A = np.eye(4)
    for j, e in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        A[:3, j] += omega * driving[e]
    A[:3, 3] = omega * driving[(0, 0, 2)]
    state = np.array([f0[0], f0[1], f0[2], (f0[2] - f0[1]) ** 2])
    return _orbit(A.__matmul__, state, steps)
