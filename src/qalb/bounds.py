"""Truncation-error bounds and their closed-form logistic evolution.

The per-step encoding defect epsilon_N is the worst value of the first
neglected basis amplitude; the accumulated error obeys
eps(t+1) = (dt/tau)(C1 (eps_N + eps) + C0)^2 once the quadratic bound
coefficients have been inflated to a perfect square.  A linear change of
variables conjugates that recursion to the logistic map, giving the same
series without marching the square.
"""

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import DiscriminantNotClosed, NegativeRadicand, TooLarge
from .hermite import normalized_he

Z_CLAMP = 1e12

VARIANTS = ("inflate_c0", "inflate_a")


# The encodable values [-1, 1], endpoints included, on which the defect
# sup is taken.
_GRID = np.linspace(-1.0, 1.0, 10000)

# The last level whose defect sup is a normal float: it falls below
# np.finfo(float).tiny at N = 2048 and reads exactly 0.0 from N = 2148,
# where a bound would proceed as if the truncation dropped nothing.
_MAX_N = 2047


def epsilon_table(nmax):
    """(values, argmaxes) of the defect sup over a uniform grid on [-1, 1]
    for N = 1..nmax, from one pass of the recurrence.

    The defect of level N is sqrt(N+1) |h_{N+1}(f)| / 2^(N/2+1), with
    h_n = He_n / sqrt(n!) the normalized Hermite sequence of the value
    encoding.
    """
    if nmax < 1:
        raise ValueError(f"N must be >= 1, got {nmax}")
    if nmax > _MAX_N:
        raise TooLarge(
            f"N {nmax} exceeds {_MAX_N}, past which eps_N underflows"
        )
    N = np.arange(1, nmax + 1)
    vals = normalized_he(nmax + 1, _GRID)[2:]
    np.abs(vals, out=vals)
    vals *= np.sqrt(N + 1.0)[:, None]
    scale = [2.0 ** -(n / 2.0 + 1.0) for n in range(1, nmax + 1)]
    vals *= np.array(scale)[:, None]
    k = np.argmax(vals, axis=1)
    return vals[N - 1, k], _GRID[k]


def epsilon_N_detail(N):
    """(value, argmax) of the level-N defect sup; see epsilon_table."""
    vals, args = epsilon_table(N)
    return float(vals[-1]), float(args[-1])


def epsilon_N(N):
    return epsilon_N_detail(N)[0]


def polynomial_coefficients(Q):
    """Raw one-step bound polynomial (a, b, c) for Q populations."""
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    return 6.0 * Q * Q, 12.0 * Q * Q + 3.0 * Q + 1.0, 1.0


def discriminant(a, b, c):
    return b * b - 4.0 * a * c


def inflate_c0(a, b, c):
    """Raise the constant term until the quadratic is a perfect square."""
    return a, b, c + discriminant(a, b, c) / (4.0 * a)


def inflate_a(a, b, c):
    """Raise the leading term until the quadratic is a perfect square."""
    return a + discriminant(a, b, c) / (4.0 * c), b, c


def closed_form_constants(a, b, c, tol=1e-9):
    """(C1, C0) with a f^2 + b f + c = (C1 f + C0)^2; the discriminant must
    already be closed."""
    if abs(discriminant(a, b, c)) > tol:
        raise DiscriminantNotClosed(
            f"discriminant {discriminant(a, b, c)} exceeds {tol}"
        )
    return sqrt(a), sqrt(c)


def bound_coefficients(Q, variant):
    """(C0, C1) dominating the raw polynomial by a perfect square.

    variant inflate_c0 keeps the leading term and raises the constant;
    inflate_a does the opposite.  Either way the returned pair satisfies
    (C1 x + C0)^2 = a' x^2 + b x + c' with a closed discriminant, hence
    dominates a x^2 + b x + c for x >= 0.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    a, b, c = polynomial_coefficients(Q)
    infl = inflate_c0 if variant == "inflate_c0" else inflate_a
    C1, C0 = closed_form_constants(*infl(a, b, c))
    return C0, C1


def kappa_roots(C0, C1, eps_N):
    """Stationary shifts (-1 +/- sqrt(1 + 4 s)) / 2 with s = C0/C1 + eps_N."""
    s = C0 / C1 + eps_N
    rad = 1.0 + 4.0 * s
    if rad < 0.0:
        raise NegativeRadicand(f"radicand 1 + 4s = {rad} is negative")
    r = sqrt(rad)
    # 2s/(1+r) is the cancellation-free form of (-1+r)/2
    return 2.0 * s / (1.0 + r), (-1.0 - r) / 2.0


@dataclass(frozen=True)
class ErrorBoundParams:
    """Bound coefficients plus the derived logistic-map constants.

    kappa holds both roots of kappa^2 + kappa - (C0/C1 + eps_N) = 0; Z0
    is the starting point of the conjugated map, chosen so that the
    recovered eps(0) is exactly zero.
    """

    C0: float
    C1: float
    tau: float
    dt: float
    eps_N: float
    kappa: tuple = field(init=False)
    Z0: float = field(init=False)

    def __post_init__(self):
        if self.C0 < 0.0 or self.C1 <= 0.0:
            raise ValueError(
                f"need C0 >= 0 and C1 > 0, got C0={self.C0}, C1={self.C1}"
            )
        if not 0.0 <= self.eps_N <= 1.0:
            raise ValueError(f"eps_N must lie in [0, 1], got {self.eps_N}")
        if self.tau <= 0.0 or self.dt <= 0.0:
            raise ValueError("tau and dt must be positive")
        object.__setattr__(
            self, "kappa", kappa_roots(self.C0, self.C1, self.eps_N)
        )
        km = _map_kappa(self.alpha, self.s)
        z0 = -self.alpha * km / 2.0 if km == km else np.nan
        object.__setattr__(self, "Z0", z0)

    @property
    def s(self):
        return self.C0 / self.C1 + self.eps_N

    @property
    def alpha(self):
        return self.C1 * sqrt(self.dt / self.tau)


def _map_kappa(alpha, s):
    """Conjugacy root of alpha k^2 + k + alpha s = 0 that vanishes with
    alpha; NaN when the radicand goes negative (dt/tau too large).

    Written as -2 alpha s / (1 + sqrt(1 - 4 alpha^2 s)) so small alpha
    loses nothing to cancellation.
    """
    rad = 1.0 - 4.0 * alpha * alpha * s
    if rad < 0.0:
        return np.nan
    return -2.0 * alpha * s / (1.0 + sqrt(rad))


def error_recursion(C0, C1, eps_N, dt, tau, steps):
    """March eps(t+1) = (dt/tau)(C1 (eps_N + eps) + C0)^2 from eps(0) = 0."""
    out = np.empty(steps + 1)
    out[0] = 0.0
    lam = dt / tau
    for t in range(steps):
        out[t + 1] = lam * (C1 * (eps_N + out[t]) + C0) ** 2
    return out


@dataclass
class LogisticErrorSeries:
    eps: np.ndarray
    Z: np.ndarray
    eps_raw: np.ndarray  # direct recursion alongside, for cross-checking
    alpha: float
    s: float
    kappa: float  # conjugacy root actually driving the map
    r: float  # logistic coefficient -2 kappa alpha
    real_kappa: bool
    clamped: bool


def logistic_map_run(params, steps):
    """Evolve the error through the logistic conjugacy.

    The map kappa solves alpha kappa^2 + kappa + alpha s = 0 with
    alpha = C1 sqrt(dt/tau) and s = C0/C1 + eps_N; then
    Z(t+1) = -2 kappa alpha Z (1 - Z) from Z(0) = -alpha kappa / 2 and
    eps(t) = (2 kappa / C1) sqrt(tau/dt) (Z - 1/2) - s, which starts at
    exactly zero.  The raw recursion is carried alongside.  A complex
    kappa (dt/tau too large) or a runaway Z is flagged, never raised.
    """
    C0, C1 = params.C0, params.C1
    dt, tau, eps_N = params.dt, params.tau, params.eps_N
    raw = error_recursion(C0, C1, eps_N, dt, tau, steps)
    alpha = params.alpha
    s = params.s
    kappa = _map_kappa(alpha, s)
    if kappa != kappa:
        nan = np.full(steps + 1, np.nan)
        return LogisticErrorSeries(
            eps=nan,
            Z=nan.copy(),
            eps_raw=raw,
            alpha=alpha,
            s=s,
            kappa=np.nan,
            r=np.nan,
            real_kappa=False,
            clamped=False,
        )
    r = -2.0 * kappa * alpha
    Z = np.empty(steps + 1)
    eps = np.empty(steps + 1)
    Z[0] = params.Z0
    clamped = False
    scale = (2.0 * kappa / C1) * sqrt(tau / dt)
    eps[0] = scale * (Z[0] - 0.5) - s
    for t in range(steps):
        z = r * Z[t] * (1.0 - Z[t])
        if abs(z) > Z_CLAMP:
            z = Z_CLAMP if z > 0 else -Z_CLAMP
            clamped = True
        Z[t + 1] = z
        eps[t + 1] = scale * (z - 0.5) - s
    return LogisticErrorSeries(
        eps=eps,
        Z=Z,
        eps_raw=raw,
        alpha=alpha,
        s=s,
        kappa=kappa,
        r=r,
        real_kappa=True,
        clamped=clamped,
    )


@dataclass
class FeasibilityReport:
    C0: float
    C1: float
    s: float
    lower: float
    mid: float
    upper: float
    margin_low: float
    margin_high: float
    feasible: bool


def feasibility(C0, C1, dt, tau, eps_N):
    """Window check sqrt(dt/tau)(C0 + C1 eps_N) <= (1+sqrt(1+4s))/2 <
    sqrt(tau/dt)/C1 - 1, with both margins reported."""
    if C0 < 0.0 or C1 <= 0.0 or dt <= 0.0 or tau <= 0.0 or eps_N < 0.0:
        raise ValueError("feasibility inputs must be positive")
    s = C0 / C1 + eps_N
    lower = sqrt(dt / tau) * (C0 + C1 * eps_N)
    mid = (1.0 + sqrt(1.0 + 4.0 * s)) / 2.0
    upper = sqrt(tau / dt) / C1 - 1.0
    return FeasibilityReport(
        C0=C0,
        C1=C1,
        s=s,
        lower=lower,
        mid=mid,
        upper=upper,
        margin_low=mid - lower,
        margin_high=upper - mid,
        feasible=lower <= mid < upper,
    )


def feasibility_by_variant(Q, eps_N, dt, tau):
    """Feasibility of both square completions side by side."""
    return {
        variant: feasibility(*bound_coefficients(Q, variant), dt, tau, eps_N)
        for variant in VARIANTS
    }
