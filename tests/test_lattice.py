"""Velocity sets, weights, and the quadratic mode-coupling form."""

from fractions import Fraction

import numpy as np
import pytest

from qalb import classical, lattice

import oracles


def test_d1q3_ordering_and_weights():
    m = lattice.build_lattice("D1Q3")
    assert m.D == 1 and m.Q == 3
    assert m.velocities.tolist() == [[0], [-1], [1]]  # rest first, then lexicographic
    assert oracles.weight_fractions(m) == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
    assert m.cs2 == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_d2q9_counts_and_weights():
    m = lattice.build_lattice("D2Q9")
    assert m.Q == 9 and m.velocities.shape == (9, 2)
    assert m.velocities[0].tolist() == [0, 0]
    fr = oracles.weight_fractions(m)
    assert fr[0] == Fraction(4, 9)
    # axis directions carry 1/9, diagonals 1/36
    for c, w in zip(m.velocities, fr):
        n = int(np.abs(c).sum())
        assert w == {0: Fraction(4, 9), 1: Fraction(1, 9), 2: Fraction(1, 36)}[n]


def test_d3q27_weight_classes():
    m = lattice.build_lattice("D3Q27")
    assert m.Q == 27
    classes = {0: Fraction(8, 27), 1: Fraction(2, 27), 2: Fraction(1, 54), 3: Fraction(1, 216)}
    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    for c, w in zip(m.velocities, oracles.weight_fractions(m)):
        n = int(np.abs(c).sum())
        assert w == classes[n]
        counts[n] += 1
    assert counts == {0: 1, 1: 6, 2: 12, 3: 8}


def test_weights_sum_exactly_to_one():
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        m = lattice.build_lattice(name)
        assert sum(oracles.weight_fractions(m), Fraction(0)) == 1


def test_unknown_lattice_rejected():
    with pytest.raises(ValueError):
        lattice.build_lattice("D2Q5")


def test_d1q3_linear_block_frozen():
    m = lattice.build_lattice("D1Q3")
    mc = oracles.mode_coupling(m)
    expected = np.array(
        [
            [2 / 3, 2 / 3, 2 / 3],
            [1 / 6, 2 / 3, -1 / 3],
            [1 / 6, -1 / 3, 2 / 3],
        ]
    )
    assert np.max(np.abs(mc.L - expected)) < 1e-15


def test_d1q3_quadratic_block_frozen():
    m = lattice.build_lattice("D1Q3")
    mc = oracles.mode_coupling(m)
    c = np.array([0.0, -1.0, 1.0])
    cc = np.outer(c, c)
    assert np.max(np.abs(mc.Qt[0] - (-cc))) < 1e-15
    assert np.max(np.abs(mc.Qt[1] - 0.5 * cc)) < 1e-15
    assert np.max(np.abs(mc.Qt[2] - 0.5 * cc)) < 1e-15


def test_mode_coupling_rounds_each_entry_from_its_rational():
    # per-entry reference: the builder shares one rounding per (i, c_j.c_k)
    third = Fraction(1, 3)
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        m = lattice.build_lattice(name)
        w = oracles.weight_fractions(m)
        c = [tuple(int(x) for x in v) for v in m.velocities]
        dot = lambda a, b: sum(x * y for x, y in zip(a, b))
        L = [[float(wi * (1 + dot(ci, cj) / third)) for cj in c]
             for wi, ci in zip(w, c)]
        Qt = [
            [
                [
                    float(wi * (dot(ci, ci) - m.D * third) * dot(cj, ck)
                          / (2 * third ** 2))
                    for ck in c
                ]
                for cj in c
            ]
            for wi, ci in zip(w, c)
        ]
        mc = oracles.mode_coupling(m)
        assert np.array_equal(mc.L, L)
        assert np.array_equal(mc.Qt, Qt)


def test_column_sums_and_quadratic_trace():
    # entries come from exact rationals; the float sums round only once
    for name in ("D1Q3", "D2Q9", "D3Q27"):
        m = lattice.build_lattice(name)
        mc = oracles.mode_coupling(m)
        assert np.max(np.abs(mc.L.sum(axis=0) - 1.0)) < 1e-14
        assert np.max(np.abs(mc.Qt.sum(axis=0))) < 1e-14


def test_row_sums_follow_weights():
    # rows sum to Q * w_i, not to 1
    for name in ("D1Q3", "D2Q9"):
        m = lattice.build_lattice(name)
        mc = oracles.mode_coupling(m)
        assert np.max(np.abs(mc.L.sum(axis=1) - m.Q * m.weights)) < 1e-14


def test_mode_coupling_equilibrium_matches_d1q3():
    m = lattice.build_lattice("D1Q3")
    mc = oracles.mode_coupling(m)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.uniform(0.05, 0.5, size=3)
        f /= f.sum()
        gap = np.abs(mc.equilibrium(f) - classical.equilibrium(f, m))
        assert np.max(gap) < 1e-14


def test_mode_coupling_equilibrium_differs_d2q9():
    # the quadratic closure reproduces the equilibrium only in one dimension
    m = lattice.build_lattice("D2Q9")
    mc = oracles.mode_coupling(m)
    f = np.full(9, 1.0 / 9.0)
    f[1] += 0.05
    f[5] -= 0.05
    gap = np.abs(mc.equilibrium(f) - classical.equilibrium(f, m))
    assert np.max(gap) > 1e-6
