"""BGK collision, periodic streaming, and the Hermite route to equilibrium."""

import tracemalloc

import mpmath
import numpy as np
import pytest

from qalb import classical, lattice
from qalb.errors import TauTooSmall, ZeroDensity

import oracles

D1Q3 = lattice.build_lattice("D1Q3")
D2Q9 = lattice.build_lattice("D2Q9")


def test_equilibrium_frozen_d1q3():
    f = np.array([0.6, 0.1, 0.3])  # rho = 1, u = 0.2
    eq = classical.equilibrium(f, D1Q3)
    assert np.max(np.abs(eq - np.array([0.94 / 1.5, 0.52 / 6.0, 1.72 / 6.0]))) < 1e-15


def test_bgk_rate_matches_relaxation_at_unit_mass():
    # the driving dict is -(f - feq(f))/tau wherever the density is one, and
    # it keeps the constant w/tau as its own term
    rng = np.random.default_rng(2)
    tau = 0.7
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        m = lattice.build_lattice(name)
        rate = classical.bgk_rate(m, tau)
        assert np.array_equal(rate[(0,) * m.Q], m.weights / tau)
        f = rng.uniform(0.05, 0.5, size=m.Q)
        f /= f.sum()
        got = sum(coef * np.prod(f ** np.array(e)) for e, coef in rate.items())
        want = -(f - classical.equilibrium(f, m)) / tau
        assert np.max(np.abs(got - want)) < 1e-14


def test_equilibrium_carries_density():
    rng = np.random.default_rng(1)
    f = rng.uniform(0.1, 1.0, size=9)
    eq = classical.equilibrium(f, D2Q9)
    rho, u = classical.site_moments(f, D2Q9)
    rho2, u2 = classical.site_moments(eq, D2Q9)
    assert abs(rho2 - rho) < 1e-12 * rho
    assert np.max(np.abs(u2 - u)) < 1e-12


def test_site_moments_guards():
    with pytest.raises(ZeroDensity):
        classical.site_moments(np.zeros(3), D1Q3)
    with pytest.raises(ValueError):
        classical.site_moments(np.ones(4), D1Q3)


def test_model_lookup():
    assert oracles.model_for_dim(2).name == "D2Q9"
    with pytest.raises(ValueError):
        oracles.model_for_dim(4)


def test_collide_conserves_moments():
    rng = np.random.default_rng(2)
    data = rng.uniform(0.05, 1.0, size=(4, 4, 9))
    fld = classical.DistributionField(D2Q9, data)
    rho0, u0 = classical.site_moments(fld.data, D2Q9)
    after = classical.collide(fld, 0.7, 0.1)
    rho1, u1 = classical.site_moments(after.data, D2Q9)
    assert np.max(np.abs(rho1 - rho0)) < 1e-12
    assert np.max(np.abs(u1 - u0)) < 1e-12
    assert np.array_equal(fld.data, data)  # input untouched


def test_collide_tau_guard():
    fld = classical.DistributionField(D1Q3, np.ones((4, 3)))
    with pytest.raises(TauTooSmall):
        classical.collide(fld, 0.05, 0.1)
    with pytest.raises(TauTooSmall):
        classical.collide(fld, float("nan"), 0.1)


def test_collide_zero_density_guard():
    data = np.ones((4, 3))
    data[2] = 0.0
    fld = classical.DistributionField(D1Q3, data)
    with pytest.raises(ZeroDensity):
        classical.collide(fld, 0.7, 0.1)


def test_collide_fixed_point():
    feq = classical._equilibrium(
        D2Q9, np.full((3, 3), 1.2), np.full((3, 3, 2), 0.04)
    )
    data = classical.DistributionField(D2Q9, feq)
    out = classical.collide(data, 0.9, 0.3)
    assert np.max(np.abs(out.data - data.data)) < 1e-13


def test_stream_exact_and_periodic():
    rng = np.random.default_rng(3)
    fld = classical.DistributionField(D2Q9, rng.uniform(0.1, 1.0, size=(4, 8, 9)))
    cur = fld
    for _ in range(8):
        cur = classical.stream(cur)
    assert np.array_equal(cur.data, fld.data)  # lcm of dims cycles back bitwise
    once = classical.stream(fld)
    for i in range(9):
        assert sorted(once.data[..., i].ravel()) == sorted(fld.data[..., i].ravel())


def _reference_step(f, model, tau, dt):
    """Site-major BGK update, then np.roll of each population."""
    c = model.velocities.astype(float)
    rho = f.sum(axis=-1)
    u = (f @ c) / rho[..., None]
    cu = u @ c.T
    uu = (u * u).sum(axis=-1)[..., None]
    feq = rho[..., None] * model.weights * (1 + 3 * cu + 4.5 * cu**2 - 1.5 * uu)
    post = f - (dt / tau) * (f - feq)
    out = np.empty_like(post)
    for i, ci in enumerate(model.velocities):
        shift = tuple(int(s) for s in ci)
        out[..., i] = np.roll(post[..., i], shift, axis=tuple(range(model.D)))
    return out


@pytest.mark.parametrize(
    "name, grid",
    [
        ("D1Q3", (64,)),
        ("D2Q9", (16, 12)),
        ("D3Q27", (6, 5, 4)),
        # more sites than one collide block, the last block partial
        ("D2Q9", (97, 89)),
        ("D3Q27", (19, 17, 15)),
    ],
)
def test_step_matches_site_major_reference(name, grid):
    m = lattice.build_lattice(name)
    rng = np.random.default_rng(4)
    data = m.weights * rng.uniform(0.8, 1.2, size=(*grid, m.Q))
    kept = data.copy()
    fld, want = classical.DistributionField(m, data), data
    for _ in range(5):
        fld = classical.step(fld, 0.8, 1.0)
        want = _reference_step(want, m, 0.8, 1.0)
    assert np.max(np.abs(fld.data - want)) < 1e-14
    mass = data.sum()
    momentum = data.reshape(-1, m.Q) @ m.velocities
    after = fld.data.reshape(-1, m.Q) @ m.velocities
    assert abs(fld.data.sum() - mass) < 1e-12 * mass
    assert np.max(np.abs(after.sum(axis=0) - momentum.sum(axis=0))) < 1e-12 * mass
    assert np.array_equal(data, kept)  # input untouched


def test_collide_guards_reach_the_last_block():
    data = np.full((97, 89, 9), 1.0 / 9.0)
    for sites in (97 * 89, 19 * 17 * 15):  # the multi-block reference grids
        assert sites > classical._BLOCK_SITES and sites % classical._BLOCK_SITES
    data[-1, -1] = 0.0
    with pytest.raises(ZeroDensity):
        classical.collide(classical.DistributionField(D2Q9, data), 0.8, 1.0)
    data[-1, -1] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            classical.collide(classical.DistributionField(D2Q9, data), 0.8, 1.0)


def test_collide_allocates_no_full_size_temporary():
    # the output is one field's bytes; a full-size temporary adds another
    data = D2Q9.weights * np.random.default_rng(7).uniform(0.8, 1.2, (256, 256, 9))
    fld = classical.DistributionField(D2Q9, data)
    classical.collide(fld, 0.8, 1.0)  # warm
    tracemalloc.start()
    try:
        classical.collide(fld, 0.8, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * data.nbytes


def test_step_keeps_direction_major_planes():
    rng = np.random.default_rng(5)
    data = D2Q9.weights * rng.uniform(0.8, 1.2, size=(16, 12, 9))
    out = classical.step(classical.DistributionField(D2Q9, data), 0.8, 1.0)
    assert out.data.shape == (16, 12, 9)
    assert np.moveaxis(out.data, -1, 0).flags.c_contiguous
    planes = np.ascontiguousarray(np.moveaxis(data, -1, 0))
    again = classical.step(
        classical.DistributionField(D2Q9, np.moveaxis(planes, 0, -1)), 0.8, 1.0
    )
    assert np.array_equal(out.data, again.data)


def test_step_guards():
    data = np.full((4, 4, 9), 1.0 / 9.0)
    with pytest.raises(TauTooSmall):
        classical.step(classical.DistributionField(D2Q9, data), 0.4, 1.0)
    data[1, 2] = 0.0
    with pytest.raises(ZeroDensity):
        classical.step(classical.DistributionField(D2Q9, data), 0.8, 1.0)
    data[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        classical.DistributionField(D2Q9, data)
    # a density that overflows gives a non-finite relaxed field
    data[1, 2] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            classical.step(classical.DistributionField(D2Q9, data), 0.8, 1.0)


def test_step_scans_only_the_collided_field(monkeypatch):
    # stream moves the values of a checked field, so a step scans only the
    # collide output for finite entries
    fld = classical.DistributionField(D2Q9, np.full((4, 4, 9), 1.0 / 9.0))
    shapes = []
    real = np.isfinite

    def counted(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    classical.step(fld, 0.8, 1.0)
    assert shapes == [(9, 4, 4)]


def test_fields_are_read_only():
    # stream skips the scan because no field's values can change after
    # they were checked: outside input, collide's and stream's output
    fld = classical.DistributionField(D2Q9, np.full((4, 4, 9), 1.0 / 9.0))
    collided = classical.collide(fld, 0.8, 1.0)
    for f in (fld, collided, classical.stream(collided)):
        for view in (f.data, f.planes):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = np.nan


def test_evolve_0d_shape_and_first_step():
    f0 = np.array([0.6, 0.1, 0.3])
    hist = classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 20)
    assert hist.shape == (21, 3)
    expected = f0 - 0.1 * (f0 - classical.equilibrium(f0, D1Q3))
    assert np.array_equal(hist[1], expected)


def test_evolve_0d_relaxes_to_equilibrium():
    f0 = np.array([0.6, 0.1, 0.3])
    hist = classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 300)
    gap0 = np.max(np.abs(hist[0] - classical.equilibrium(hist[0], D1Q3)))
    gap = np.max(np.abs(hist[-1] - classical.equilibrium(hist[-1], D1Q3)))
    assert gap < 1e-12 < gap0
    assert np.max(np.abs(hist.sum(axis=1) - 1.0)) < 1e-12


def test_evolve_0d_guards():
    with pytest.raises(ValueError):
        classical.evolve_0d(np.ones(5), D1Q3, 1.0, 0.1, 3)
    with pytest.raises(TauTooSmall):
        classical.evolve_0d(np.ones(3) / 3.0, D1Q3, 0.04, 0.1, 3)


def _relaxation_40_digits(f0, lam, model, ts):
    """feq + (1 - lam)^t (f0 - feq) at steps ts, with feq and the power at
    40 digits, rounded to floats at the end."""
    with mpmath.workdps(40):
        f = [mpmath.mpf(float(x)) for x in f0]
        c = [[mpmath.mpf(int(x)) for x in row] for row in model.velocities]
        rho = sum(f)
        u = [sum(f[j] * c[j][d] for j in range(model.Q)) / rho
             for d in range(model.D)]
        uu = sum(x * x for x in u)
        feq = []
        for i in range(model.Q):
            cu = sum(c[i][d] * u[d] for d in range(model.D))
            w = mpmath.mpf(float(model.weights[i]))
            feq.append(rho * w * (1 + 3 * cu + 4.5 * cu * cu - 1.5 * uu))
        x = 1 - mpmath.mpf(lam)
        return np.array([[float(feq[i] + x ** t * (f[i] - feq[i]))
                          for i in range(model.Q)] for t in ts])


@pytest.mark.parametrize("lam", [1e-3, 0.05, 0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("name", ["D1Q3", "D2Q9", "D3Q27"])
def test_evolve_0d_matches_relaxation_at_40_digits(name, lam):
    model = lattice.build_lattice(name)
    f0 = np.random.default_rng(model.Q).dirichlet(np.ones(model.Q))
    hist = classical.evolve_0d(f0, model, 1.0, lam, 300)
    ts = list(range(0, 301, 7)) + [300]
    ref = _relaxation_40_digits(f0, lam, model, ts)
    assert np.max(np.abs(hist[ts] - ref)) < 2e-15


def test_evolve_0d_long_run_at_40_digits():
    f0 = np.array([0.6, 0.1, 0.3])
    hist = classical.evolve_0d(f0, D1Q3, 1.0, 1e-3, 100_000)
    ts = list(range(0, 100_001, 997)) + [100_000]
    ref = _relaxation_40_digits(f0, 1e-3, D1Q3, ts)
    assert np.max(np.abs(hist[ts] - ref)) < 5e-15


@pytest.mark.parametrize("lam", [1e-3, 0.5, 1.5, 1.9])
def test_evolve_0d_matches_iterated_map(lam):
    f = np.random.default_rng(4).dirichlet(np.ones(9))
    hist = classical.evolve_0d(f, D2Q9, 1.0, lam, 200)
    for t in range(1, 201):
        f = f - lam * (f - classical.equilibrium(f, D2Q9))
        assert np.max(np.abs(hist[t] - f)) < 5e-14


def test_evolve_0d_evaluates_equilibrium_once(monkeypatch):
    calls = []
    equilibrium = classical.equilibrium

    def counted(f, model):
        calls.append(1)
        return equilibrium(f, model)

    monkeypatch.setattr(classical, "equilibrium", counted)
    f0 = np.array([0.6, 0.1, 0.3])
    classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 0)
    assert len(calls) == 0
    classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 50)
    assert len(calls) <= 1


def test_evolve_0d_density_guard_starts_at_step_one():
    f0 = np.array([0.2, -0.5, 0.1])  # rho = -0.2
    assert np.array_equal(classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 0), [f0])
    with pytest.raises(ZeroDensity):
        classical.evolve_0d(f0, D1Q3, 1.0, 0.1, 1)


def test_hermite_bracket_matches_quadratic_equilibrium():
    # in one dimension the kmax = 2 bracket has no dropped cross terms
    for u in (0.0, 0.1, -0.25):
        exp = oracles.hermite_equilibrium_expansion(np.array([u]), 1.0 / 3.0, 2)
        c = D1Q3.velocities[:, 0].astype(float)
        quad = 1.0 + 3.0 * c * u + 4.5 * (c * u) ** 2 - 1.5 * u * u
        assert np.max(np.abs(exp.bracket - quad)) < 1e-13


def test_hermite_expansion_converges_to_maxwellian():
    u = np.array([0.15])
    target = np.array(
        [oracles.maxwell_boltzmann(c, u, 1.0 / 3.0) for c in D1Q3.velocities]
    )
    errs = []
    for kmax in (1, 2, 4, 8):
        exp = oracles.hermite_equilibrium_expansion(u, 1.0 / 3.0, kmax)
        errs.append(np.max(np.abs(exp.values - target)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8


def test_hermite_expansion_rest_state():
    exp = oracles.hermite_equilibrium_expansion(np.zeros(2), 0.4, 6)
    assert np.array_equal(exp.values, exp.prefactor)  # bracket is identically 1
    with pytest.raises(ValueError):
        oracles.hermite_equilibrium_expansion(np.zeros(1), -0.1, 2)
    with pytest.raises(ValueError):
        oracles.hermite_equilibrium_expansion(np.zeros(1), 0.3, -1)


def test_hermite_point_agrees_with_lattice_route():
    u = np.array([0.1, -0.05])
    exp = oracles.hermite_equilibrium_expansion(u, 1.0 / 3.0, 3)
    for i, c in enumerate(D2Q9.velocities):
        v = oracles.hermite_expansion_point(c.astype(float), u, 1.0 / 3.0, 3)
        assert abs(v - exp.values[i]) < 1e-14
