"""Truncation-tail sizes, inflated quadratic bounds, and the defect map."""

import math

import mpmath
import numpy as np
import pytest

from qalb import bounds
from qalb.errors import DiscriminantNotClosed, TooLarge


def test_epsilon_frozen_values():
    # analytic suprema: He_2 peaks at 0, He_3 at the endpoints, He_4 at 0
    assert abs(bounds.epsilon_N(1) - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-7
    assert abs(bounds.epsilon_N(2) - 1.0 / (2.0 * math.sqrt(2.0))) < 1e-7
    assert abs(bounds.epsilon_N(3) - math.sqrt(3.0) / 8.0) < 1e-7
    _, args = bounds.epsilon_table(3)
    assert abs(abs(args[1]) - 1.0) < 1e-3
    assert abs(args[2]) < 1e-3


@pytest.mark.parametrize("N", [1, 2, 3, 20, 170, 171, 300])
def test_epsilon_matches_high_precision(N):
    # sqrt(N+1) |He_{N+1}(x)| / (sqrt((N+1)!) 2^(N/2+1)) at 50 digits, at
    # the argmax the float evaluation returns; past N = 170 (N+1)! is out
    # of float range, so a float formula built on it reads 0 or NaN
    vals, args = bounds.epsilon_table(N)
    val, arg = vals[-1], args[-1]
    n = N + 1
    with mpmath.workdps(50):
        x = mpmath.mpf(arg)
        he = mpmath.hermite(n, x / mpmath.sqrt(2)) / mpmath.sqrt(2) ** n
        ref = mpmath.sqrt(n) * abs(he) / (
            mpmath.sqrt(mpmath.factorial(n)) * mpmath.power(2, N / 2 + 1)
        )
    assert val > 0.0
    assert abs(val - float(ref)) <= 1e-12 * float(ref)


def test_epsilon_decays_with_level():
    vals = [bounds.epsilon_N(n) for n in range(1, 12)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert vals[-1] < 0.1 * vals[0]
    with pytest.raises(ValueError):
        bounds.epsilon_N(0)


def test_epsilon_table_stops_at_last_normal_level(monkeypatch):
    # eps_N is a normal float through N = 2047 and underflows past it, so a
    # longer table is refused before the recurrence allocates anything
    vals, _ = bounds.epsilon_table(2047)
    assert vals.shape == (2047,)
    assert np.all(vals >= np.finfo(float).tiny)

    def unreachable(*args):
        raise AssertionError("the table was allocated")

    monkeypatch.setattr(bounds, "normalized_he", unreachable)
    with pytest.raises(TooLarge):
        bounds.epsilon_table(2048)


def test_polynomial_coefficients_and_discriminant():
    a, b, c = bounds.polynomial_coefficients(3)
    assert (a, b, c) == (54.0, 118.0, 1.0)
    assert bounds.discriminant(a, b, c) == 118.0 ** 2 - 4.0 * 54.0
    assert bounds.discriminant(a, b, c) == 13708.0
    for Q in (3, 9, 27):
        aa, bb, cc = bounds.polynomial_coefficients(Q)
        assert aa == 6.0 * Q * Q
        assert bb == 12.0 * Q * Q + 3.0 * Q + 1.0
        assert cc == 1.0
    with pytest.raises(ValueError):
        bounds.polynomial_coefficients(0)


def test_inflations_close_the_square():
    a, b, c = bounds.polynomial_coefficients(3)
    with pytest.raises(DiscriminantNotClosed):
        bounds.closed_form_constants(a, b, c)
    a1, b1, c1 = bounds.inflate_c0(a, b, c)
    assert (a1, b1) == (a, b) and c1 == b * b / (4.0 * a)
    assert abs(bounds.discriminant(a1, b1, c1)) < 1e-9
    a2, b2, c2 = bounds.inflate_a(a, b, c)
    assert (b2, c2) == (b, c) and a2 == b * b / (4.0 * c)
    assert abs(bounds.discriminant(a2, b2, c2)) < 1e-9


def test_bound_coefficients_frozen():
    c0a, c1a = bounds.bound_coefficients(3, "inflate_a")
    assert (c0a, c1a) == (1.0, 59.0)
    c0c, c1c = bounds.bound_coefficients(3, "inflate_c0")
    assert abs(c0c - math.sqrt(3481.0 / 54.0)) < 1e-12
    assert abs(c1c - math.sqrt(54.0)) < 1e-12
    # both factorizations keep the middle coefficient: 2 C0 C1 = b
    assert abs(2.0 * c0a * c1a - 118.0) < 1e-9
    assert abs(2.0 * c0c * c1c - 118.0) < 1e-9
    with pytest.raises(ValueError):
        bounds.bound_coefficients(3, "inflate_b")


def test_inflated_square_dominates():
    a, b, c = bounds.polynomial_coefficients(3)
    g = np.linspace(0.0, 1.0, 101)
    raw = a * g * g + b * g + c
    for variant in bounds.VARIANTS:
        c0, c1 = bounds.bound_coefficients(3, variant)
        square = (c1 * g + c0) ** 2
        assert np.all(square >= raw - 1e-9)


def test_kappa_roots_closed_cases():
    plus, minus = bounds.kappa_roots(0.0, 1.0, 0.0)  # s = 0
    assert plus == 0.0 and minus == -1.0
    plus2, minus2 = bounds.kappa_roots(2.0, 1.0, 0.0)  # s = 2
    assert abs(plus2 - 1.0) < 1e-15 and abs(minus2 + 2.0) < 1e-15
    # roots of x^2 + x - s for a generic s
    plus3, minus3 = bounds.kappa_roots(0.3, 2.0, 0.05)
    s = 0.3 / 2.0 + 0.05
    for r in (plus3, minus3):
        assert abs(r * r + r - s) < 1e-15


def test_error_bound_params_invariants():
    p = bounds.ErrorBoundParams(C0=1.0, C1=59.0, tau=1.0, dt=1e-6, eps_N=0.05)
    assert abs(p.s - (1.0 / 59.0 + 0.05)) < 1e-15
    assert abs(p.alpha - 59.0 * 1e-3) < 1e-15
    for r in p.kappa:
        assert abs(r * r + r - p.s) < 1e-12
    assert np.isfinite(p.Z0) and p.Z0 > 0.0
    with pytest.raises(ValueError):
        bounds.ErrorBoundParams(C0=1.0, C1=0.0, tau=1.0, dt=1e-6, eps_N=0.05)
    with pytest.raises(ValueError):
        bounds.ErrorBoundParams(C0=1.0, C1=1.0, tau=1.0, dt=1e-6, eps_N=1.5)
    with pytest.raises(ValueError):
        bounds.ErrorBoundParams(C0=1.0, C1=1.0, tau=-1.0, dt=1e-6, eps_N=0.1)


def test_map_run_starts_at_zero_and_grows():
    p = bounds.ErrorBoundParams(C0=1.0, C1=59.0, tau=1.0, dt=1e-6, eps_N=0.05)
    run = bounds.logistic_map_run(p, 50)
    assert run.real_kappa and not run.clamped
    assert run.eps[0] == 0.0
    assert run.eps[1] > 0.0
    assert np.all(np.diff(run.eps) >= 0.0)  # climbs to the stable fixed point
    assert run.eps[-1] < 1.0


def test_map_and_raw_recursion_agree():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10):
        c0 = float(rng.uniform(0.2, 8.0))
        c1 = float(rng.uniform(5.0, 80.0))
        eps_n = float(rng.uniform(0.01, 0.3))
        s = c0 / c1 + eps_n
        # keep 4 alpha^2 s below one so the conjugacy root stays real
        dt = float(rng.uniform(0.05, 0.9)) / (4.0 * c1 * c1 * s)
        p = bounds.ErrorBoundParams(C0=c0, C1=c1, tau=1.0, dt=dt, eps_N=eps_n)
        run = bounds.logistic_map_run(p, 20)
        assert run.real_kappa
        gap = np.max(np.abs(run.eps - run.eps_raw))
        worst = max(worst, gap)
    assert worst < 1e-10


def test_raw_recursion_first_steps_by_hand():
    p = bounds.ErrorBoundParams(C0=2.0, C1=10.0, tau=1.0, dt=1e-4, eps_N=0.1)
    run = bounds.logistic_map_run(p, 2)
    lam = 1e-4
    e1 = lam * (10.0 * (0.1 + 0.0) + 2.0) ** 2
    e2 = lam * (10.0 * (0.1 + e1) + 2.0) ** 2
    assert abs(run.eps_raw[1] - e1) < 1e-15
    assert abs(run.eps_raw[2] - e2) < 1e-15


def test_complex_kappa_flagged_not_raised():
    # dt/tau of order one pushes 4 alpha^2 s past 1 for the large variant
    p = bounds.ErrorBoundParams(C0=1.0, C1=59.0, tau=1.0, dt=1.0, eps_N=0.05)
    run = bounds.logistic_map_run(p, 5)
    assert not run.real_kappa
    assert np.all(np.isnan(run.Z))
    assert np.all(np.isnan(run.eps))
    assert np.all(np.isfinite(run.eps_raw))  # raw marching still works


def test_feasibility_window():
    rep = bounds.feasibility(1.0, 59.0, 1e-6, 1.0, 0.05)
    assert rep.feasible and rep.margin_low > 0.0 and rep.margin_high > 0.0
    assert rep.lower <= rep.mid < rep.upper
    rep_bad = bounds.feasibility(1.0, 59.0, 1.0, 1.0, 0.05)
    assert not rep_bad.feasible
    # shrinking the step can only widen both margins
    margins = []
    for dt in (1e-2, 1e-4, 1e-6):
        r = bounds.feasibility(1.0, 59.0, dt, 1.0, 0.05)
        margins.append((r.margin_low, r.margin_high))
    assert margins[0][0] < margins[1][0] < margins[2][0]
    assert margins[0][1] < margins[1][1] < margins[2][1]


def test_feasibility_by_variant():
    table = bounds.feasibility_by_variant(3, 0.05, 1e-6, 1.0)
    assert set(table) == set(bounds.VARIANTS)
    assert all(r.feasible for r in table.values())
    table_bad = bounds.feasibility_by_variant(3, 0.05, 1.0, 1.0)
    assert not any(r.feasible for r in table_bad.values())
