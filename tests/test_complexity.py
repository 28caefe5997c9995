"""Resource-count formulas and their fixed regression points."""

import math
import time

import pytest

from qalb import complexity


def _inputs(**kw):
    base = dict(G=256, D=2, T=10, Q=9, tau=1.0, b=6, N=3)
    base.update(kw)
    return complexity.ComplexityInputs(**base)


def test_input_guards():
    _inputs()
    with pytest.raises(ValueError):
        _inputs(Q=8)  # must be 3^D
    with pytest.raises(ValueError):
        _inputs(G=0)
    with pytest.raises(ValueError):
        _inputs(tau=0.0)
    with pytest.raises(ValueError, match="position register"):
        _inputs(G=1)  # log2 G = 0 qubits
    # refused before 3**D is formed, which would not finish
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="3\\*\\*D"):
        _inputs(D=10**9)
    assert time.perf_counter() - t0 < 1.0


def test_tier_sums():
    s0, s1, s2 = complexity.tier_sums(3, 1.0)
    assert (s0, s1) == (1.0, 6.0)
    assert s2 == 0.0  # the quadratic tier cancels exactly at Q = 3
    _, _, s2_9 = complexity.tier_sums(9, 1.0)
    assert s2_9 > 0.0
    s0h, _, _ = complexity.tier_sums(3, 0.5)
    assert s0h == 2.0
    with pytest.raises(ValueError):
        complexity.tier_sums(0, 1.0)


def test_lcu_collision_params_frozen():
    m, L, S = complexity.lcu_collision_params(3, 3, 1.0)
    assert m == 17  # Q^2 + 2Q + 2
    assert L == 68
    k = math.sqrt(8.0) * 4.0
    assert abs(S - 3.0 * k * (1.0 + 6.0 * k)) < 1e-9
    m9, L9, S9 = complexity.lcu_collision_params(9, 3, 1.0)
    assert (m9, L9) == (101, 404)
    assert S9 > S
    with pytest.raises(ValueError):
        complexity.lcu_collision_params(3, 0, 1.0)


def test_rows_frozen_point():
    rows = {r.label: r for r in complexity.complexity_rows(_inputs())}
    assert set(rows) == {
        "X*",
        "X**",
        "X***",
        "X",
        "X & X*",
        "X & X***",
        "X & X(nonunitary)",
    }
    r = rows["X*"]
    assert r.qubits == 17.0
    assert abs(r.ancillas - 7.1699250014423122) < 1e-12
    assert r.gates == 207360.0
    assert abs(r.gates_with_log - 1190311.9021996097) < 1e-6
    assert rows["X**"].ancillas is None
    assert abs(rows["X**"].qubits - 15.169925001442312) < 1e-12
    assert rows["X**"].gates == 1280.0
    assert rows["X***"].qubits == 2304.0
    assert rows["X***"].gates == 30720.0
    assert rows["X***"].gates_with_log == 30720.0  # no LCU step, no factor
    assert rows["X"].qubits == 36.0
    assert rows["X"].gates == 5904900000.0
    assert abs(rows["X"].gates_with_log - 47025624006.851791) < 1e-3
    assert rows["X & X*"].gates == 5904900000.0 + 207360.0
    assert rows["X & X***"].gates == 5904900000.0 + 10 * 9 * 256.0
    assert rows["X & X(nonunitary)"].gates == 256.0 * 5904900000.0


def test_rows_monotone_in_problem_size():
    rows = {r.label: r for r in complexity.complexity_rows(_inputs())}
    for kw in (dict(G=512), dict(T=20), dict(b=12), dict(N=7)):
        bigger = {r.label: r for r in complexity.complexity_rows(_inputs(**kw))}
        for label in rows:
            assert bigger[label].gates_with_log >= rows[label].gates_with_log
    # moving up a dimension raises every count as well
    three_d = {
        r.label: r
        for r in complexity.complexity_rows(_inputs(D=3, Q=27, G=4096))
    }
    for label in rows:
        assert three_d[label].gates >= rows[label].gates


def test_qubits_for_reynolds():
    assert abs(complexity.qubits_for_reynolds(1e8) - 60.0) < 1e-12
    assert abs(complexity.qubits_for_reynolds(1e20) - 150.0) < 1e-12
    assert complexity.qubits_for_reynolds(1.0) == 0.0
    with pytest.raises(ValueError):
        complexity.qubits_for_reynolds(0.5)


def test_reynolds_quote_report():
    rep = complexity.reynolds_quote_report()
    assert len(rep) == 2
    assert rep[0]["consistent"] is True
    # the quoted 120-qubit figure disagrees with the formula and stays flagged
    assert rep[1]["consistent"] is False
    assert abs(rep[1]["formula"] - 150.0) < 1e-12


def test_log_factor_behaviour():
    inp = _inputs()
    rows = {r.label: r for r in complexity.complexity_rows(inp)}
    for r in rows.values():
        assert r.gates_with_log >= r.gates
    assert "big-O" in complexity.DISCLAIMER
