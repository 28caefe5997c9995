"""Qubit-register streaming permutations against index arithmetic."""

from itertools import product

import numpy as np
import pytest

from qalb import lattice, streaming
from qalb.errors import IndexOutOfRange

D1Q3 = lattice.build_lattice("D1Q3")
D2Q9 = lattice.build_lattice("D2Q9")
D3Q27 = lattice.build_lattice("D3Q27")


def test_direction_codes():
    assert streaming.direction_code(0) == 0b10
    assert streaming.direction_code(1) == 0b11
    assert streaming.direction_code(-1) == 0b01
    with pytest.raises(ValueError):
        streaming.direction_code(2)
    lay = streaming.RegisterLayout((2, 2))
    assert streaming.site_index(lay, (0, 0), (1, -1)) == 0b00_1101
    assert streaming.decode_index(lay, 0b00_1101) == ((0, 0), (1, -1))
    with pytest.raises(ValueError):
        streaming.decode_index(lay, 0b00_1100)  # reserved


def test_direction_table():
    table = {
        tuple(v): tuple(streaming.direction_code(c) for c in v)
        for v in D2Q9.velocities.tolist()
    }
    assert table[(1, 0)] == (0b11, 0b10)
    assert table[(-1, -1)] == (0b01, 0b01)
    assert len(table) == 9
    assert 0b00 not in {c for codes in table.values() for c in codes}


def test_gate_step_validation():
    g = streaming.GateStep(target=3, controls=((1, 1), (2, 0)))
    assert g.dump() == "X 3 | controls: (1,1) (2,0)"
    with pytest.raises(ValueError):
        streaming.GateStep(target=1, controls=((1, 1),))
    with pytest.raises(ValueError):
        streaming.GateStep(target=0, controls=((1, 2),))


def test_gate_from_control_list_hashes_and_applies():
    lay = streaming.RegisterLayout((8,))
    listed = streaming.GateStep(target=0, controls=[[1, 1], (np.int64(2), 1)])
    assert listed.controls == ((1, 1), (2, 1))
    assert hash(listed) == hash(streaming.GateStep(0, ((1, 1), (2, 1))))
    assert _moved(lay, [listed], 0b011_00) == 0b111_00


def test_increment_circuit_structure():
    gates = streaming.increment_circuit(3, 1)
    assert len(gates) == 3
    assert [g.target for g in gates] == [0, 1, 2]  # most significant first
    assert gates[0].controls == ((1, 1), (2, 1))
    assert gates[2].controls == ()
    down = streaming.increment_circuit(3, -1, offset=2, extra_controls=((9, 1),))
    assert [g.target for g in down] == [2, 3, 4]
    assert down[0].controls == ((9, 1), (3, 0), (4, 0))
    with pytest.raises(ValueError):
        streaming.increment_circuit(0, 1)
    with pytest.raises(ValueError):
        streaming.increment_circuit(3, 2)


def _moved(layout, steps, index):
    """Basis index that a one-hot state at `index` lands on."""
    state = np.zeros(layout.dim)
    state[index] = 1.0
    return int(np.flatnonzero(streaming.apply_circuit(state, layout, steps))[0])


def test_increment_wraps():
    # three position bits, then the two code bits the gates ignore
    lay = streaming.RegisterLayout((8,))
    gates = streaming.increment_circuit(3, 1)
    assert _moved(lay, gates, 0b111_00) == 0b000_00
    assert _moved(lay, gates, 0b011_00) == 0b100_00
    down = streaming.increment_circuit(3, -1)
    assert _moved(lay, down, 0b000_00) == 0b111_00
    for x in range(8):
        up = _moved(lay, gates, x << 2)
        assert up == ((x + 1) % 8) << 2
        assert _moved(lay, down, up) == x << 2


def test_layout_properties():
    lay = streaming.RegisterLayout((8, 4))
    assert lay.position_bits == (3, 2)
    assert lay.position_offsets == (0, 3)
    assert lay.direction_offsets == (5, 7)
    assert lay.total_qubits == 9
    assert lay.dim == 512
    with pytest.raises(ValueError):
        streaming.RegisterLayout((6,))
    with pytest.raises(ValueError):
        streaming.RegisterLayout(())


def test_axis_block_codes():
    lay = streaming.RegisterLayout((8,))
    up = streaming.axis_block(lay, 0, 1)
    assert len(up) == 3  # one MCX per position bit
    base = lay.direction_offsets[0]
    for g in up:
        assert (base, 1) in g.controls and (base + 1, 1) in g.controls
    down = streaming.axis_block(lay, 0, -1)
    for g in down:
        assert (base, 0) in g.controls and (base + 1, 1) in g.controls
    with pytest.raises(IndexOutOfRange):
        streaming.axis_block(lay, 1, 1)


def test_site_round_trip():
    for dims, model in [((8,), D1Q3), ((4, 4), D2Q9), ((4, 4, 4), D3Q27)]:
        lay = streaming.RegisterLayout(dims)
        seen = set()
        for site in product(*(range(n) for n in dims)):
            for v in model.velocities.tolist():
                index = streaming.site_index(lay, site, v)
                assert streaming.decode_index(lay, index) == (site, tuple(v))
                seen.add(index)
        assert len(seen) == int(np.prod(dims)) * model.Q
        outside = (dims[0],) + (0,) * (lay.ndim - 1)
        with pytest.raises(ValueError):
            streaming.site_index(lay, outside, (0,) * lay.ndim)
        with pytest.raises(ValueError):
            streaming.decode_index(lay, lay.dim)


@pytest.mark.parametrize("dims, model", [((4, 4), D2Q9), ((4, 4, 4), D3Q27)])
def test_site_index_of_arrays_matches_scalars(dims, model):
    lay = streaming.RegisterLayout(dims)
    sites = np.indices(dims)
    for v in model.velocities.tolist():
        index = streaming.site_index(lay, sites, v)
        assert index.shape == dims
        for site in product(*(range(n) for n in dims)):
            assert index[site] == streaming.site_index(lay, site, v)
    for axis in range(lay.ndim):
        for bad in (-1, dims[axis]):
            outside = sites.copy()
            outside[(axis,) + (0,) * lay.ndim] = bad
            with pytest.raises(ValueError):
                streaming.site_index(lay, outside, (0,) * lay.ndim)


def test_site_index_array_guards_int64_overflow():
    # 62 position qubits and one two-bit code: 64 qubits, whose top index
    # a Python int holds and an int64 array does not
    lay = streaming.RegisterLayout((2**62,))
    assert lay.total_qubits == 64
    assert streaming.site_index(lay, (2**62 - 1,), (1,)) == 2**64 - 1
    with pytest.raises(ValueError):
        streaming.site_index(lay, (np.arange(4),), (1,))


def test_site_length_must_match_grid():
    lay = streaming.RegisterLayout((4, 4))
    for site, velocity in [((1,), (0,)), ((1, 2, 3), (0, 0, 0)),
                           ((1, 2), (0,)), ((1,), (0, 0))]:
        with pytest.raises(ValueError):
            streaming.site_index(lay, site, velocity)
        with pytest.raises(ValueError):
            streaming.basis_state(lay, site, velocity)


def test_controlled_stream_moves_only_matching_code():
    lay = streaming.RegisterLayout((8,))
    plus = streaming.basis_state(lay, (5,), (1,))
    rest = streaming.basis_state(lay, (5,), (0,))
    minus = streaming.basis_state(lay, (5,), (-1,))
    out = streaming.controlled_stream(plus + rest + minus, lay, 0, 1)
    out = streaming.controlled_stream(out, lay, 0, -1)
    want = (
        streaming.basis_state(lay, (6,), (1,))
        + streaming.basis_state(lay, (5,), (0,))
        + streaming.basis_state(lay, (4,), (-1,))
    )
    assert np.array_equal(out, want)


def test_stream_state_demo_case():
    lay = streaming.RegisterLayout((4,))
    state = streaming.basis_state(lay, (1,), (-1,))
    out = streaming.stream_state(state, lay)
    hot = int(np.flatnonzero(out)[0])
    assert streaming.decode_index(lay, hot) == ((0,), (-1,))


def test_axis_order_commutes():
    lay = streaming.RegisterLayout((4, 4))
    rng = np.random.default_rng(12)
    state = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    a = streaming.controlled_stream(
        streaming.controlled_stream(state, lay, 0, 1), lay, 1, 1
    )
    b = streaming.controlled_stream(
        streaming.controlled_stream(state, lay, 1, 1), lay, 0, 1
    )
    assert np.array_equal(a, b)


def test_apply_circuit_is_permutation():
    lay = streaming.RegisterLayout((8,))
    rng = np.random.default_rng(13)
    state = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    out = streaming.stream_state(state, lay)
    assert abs(np.linalg.norm(out) - np.linalg.norm(state)) < 1e-13
    assert sorted(np.abs(out)) == pytest.approx(sorted(np.abs(state)))


def test_apply_circuit_guards():
    lay = streaming.RegisterLayout((4,))
    with pytest.raises(ValueError):
        streaming.apply_circuit(np.zeros(7), lay, [])
    for bad in ([streaming.GateStep(target=99, controls=())],
                [streaming.GateStep(target=0, controls=((99, 1),))]):
        for _ in range(2):  # a failed compile is not cached
            with pytest.raises(IndexOutOfRange):
                streaming.apply_circuit(np.zeros(lay.dim), lay, bad)


def test_compiled_map_is_cached_and_read_only():
    lay = streaming.RegisterLayout((4, 4))
    steps = tuple(streaming.stream_circuit(lay))
    src = streaming._source_index(lay, steps)
    assert streaming._source_index(lay, steps) is src
    with pytest.raises(ValueError):
        src[0] = 1
    rng = np.random.default_rng(15)
    state = rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim)
    assert np.array_equal(
        streaming.apply_circuit(state, lay, list(steps)),
        streaming.apply_circuit(state, lay, steps),
    )


def test_warm_stream_builds_no_gate_list(monkeypatch):
    lay = streaming.RegisterLayout((8, 8))
    state = np.random.default_rng(16).standard_normal(lay.dim) + 0j
    want = streaming.stream_state(state, lay)
    moved = streaming.controlled_stream(state, lay, 1, -1)
    # bit for bit what freshly built gate lists give
    fresh = streaming.apply_circuit(state, lay, streaming.stream_circuit(lay))
    assert np.array_equal(want, fresh)
    fresh = streaming.apply_circuit(state, lay, streaming.axis_block(lay, 1, -1))
    assert np.array_equal(moved, fresh)
    calls = []

    def counted(name, build):
        def wrapper(*args):
            calls.append(name)
            return build(*args)
        return wrapper

    for name in ("stream_circuit", "axis_block"):
        monkeypatch.setattr(streaming, name, counted(name, getattr(streaming, name)))
    assert np.array_equal(streaming.stream_state(state, lay), want)
    assert np.array_equal(streaming.controlled_stream(state, lay, 1, -1), moved)
    assert calls == []


def test_equivalence_exhaustive_1d():
    report = streaming.equivalence_check((8,), D1Q3)
    assert report.cases == 24
    assert report.passes == 24
    assert all(c == p for c, p in report.per_direction.values())


def test_equivalence_exhaustive_2d():
    report = streaming.equivalence_check((4, 4), D2Q9)
    assert report.cases == 144
    assert report.passes == 144


def test_equivalence_exhaustive_3d():
    report = streaming.equivalence_check((4, 4, 4), D3Q27)
    assert report.cases == 1728
    assert report.passes == 1728
    assert len(report.per_direction) == 27


_STREAM_CIRCUIT = streaming.stream_circuit


def _drop_last_gate(layout):
    return _STREAM_CIRCUIT(layout)[:-1]


def _swap_axis0_signs(layout):
    """Axis 0 increments on the negative code and decrements on the
    positive one; other axes are left as they are."""
    up = streaming.axis_block(layout, 0, 1)
    down = streaming.axis_block(layout, 0, -1)
    code_up, code_down = up[0].controls[:2], down[0].controls[:2]
    gates = [
        streaming.GateStep(g.target, code_down + g.controls[2:]) for g in up
    ] + [
        streaming.GateStep(g.target, code_up + g.controls[2:]) for g in down
    ]
    for d in range(1, layout.ndim):
        gates += streaming.axis_block(layout, d, 1)
        gates += streaming.axis_block(layout, d, -1)
    return gates


@pytest.mark.parametrize(
    "broken, fails",
    [
        (_drop_last_gate, lambda v: v[-1] == -1),
        (_swap_axis0_signs, lambda v: v[0] != 0),
    ],
    ids=["drop-last-gate", "swap-axis0-signs"],
)
@pytest.mark.parametrize("dims, model", [((8,), D1Q3), ((4, 4), D2Q9)])
def test_equivalence_catches_broken_circuit(
    monkeypatch, broken, fails, dims, model
):
    # the true circuit's cached map must not answer for a broken one
    assert streaming.equivalence_check(dims, model).all_pass
    monkeypatch.setattr(streaming, "stream_circuit", broken)
    report = streaming.equivalence_check(dims, model)
    assert report.passes < report.cases
    sites = int(np.prod(dims))
    for v, counts in report.per_direction.items():
        assert counts == (sites, 0 if fails(v) else sites)


def _apply_gate_by_gate(state, layout, steps):
    """Reference: one full copy of the state per gate."""
    n = layout.total_qubits
    idx = np.arange(layout.dim)
    out = np.asarray(state, dtype=complex).copy()
    for g in steps:
        mask = np.ones(layout.dim, dtype=bool)
        for q, s in g.controls:
            mask &= ((idx >> (n - 1 - q)) & 1) == s
        flipped = idx ^ (1 << (n - 1 - g.target))
        nxt = out.copy()
        nxt[mask] = out[flipped[mask]]
        out = nxt
    return out


@pytest.mark.parametrize("dims", [(8,), (4, 4)])
def test_apply_circuit_matches_gate_by_gate(dims):
    lay = streaming.RegisterLayout(dims)
    rng = np.random.default_rng(14)
    circuits = [
        streaming.stream_circuit(lay),
        streaming.axis_block(lay, lay.ndim - 1, 1),
        streaming.axis_block(lay, 0, -1),
        streaming.increment_circuit(lay.total_qubits - 1, 1, offset=1),
    ]
    for steps in circuits:
        re, im = rng.standard_normal((2, lay.dim))
        state = re + 1j * im
        out = streaming.apply_circuit(state, lay, steps)
        assert np.array_equal(out, _apply_gate_by_gate(state, lay, steps))


def test_equivalence_dimension_guard():
    with pytest.raises(ValueError):
        streaming.equivalence_check((8,), D2Q9)
