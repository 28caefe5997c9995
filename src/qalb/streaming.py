"""Streaming as reversible bit arithmetic on position registers.

Each axis carries ceil(log2 N) position bits plus a two-bit direction
code: 10 stationary, 11 positive, 01 negative, 00 reserved and rejected.
Motion is a ripple increment or decrement of the position bits,
conditioned on the axis code, so one gate list shifts every population of
a power-of-two grid at once and wraps periodically for free.  States live
on the full register as amplitude vectors; the gates only permute basis
indices, so applying them is exact index arithmetic, never floating-point
mixing.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import IndexOutOfRange

CODE_STATIONARY = "10"
CODE_POSITIVE = "11"
CODE_NEGATIVE = "01"
CODE_RESERVED = "00"

_COMPONENT_CODE = {0: CODE_STATIONARY, 1: CODE_POSITIVE, -1: CODE_NEGATIVE}


def direction_code(component):
    """Two-bit code of one velocity component."""
    try:
        return _COMPONENT_CODE[int(component)]
    except KeyError:
        raise ValueError(f"velocity component must be -1, 0, or 1, "
                         f"got {component}") from None


def encode_direction(velocity):
    """Concatenated per-axis codes, axis 0 first."""
    return "".join(direction_code(c) for c in velocity)


def decode_direction(code):
    """Velocity vector from a concatenated code string."""
    if len(code) % 2 != 0:
        raise ValueError(f"code length must be even, got {len(code)}")
    comps = []
    for k in range(0, len(code), 2):
        pair = code[k : k + 2]
        if pair == CODE_RESERVED:
            raise ValueError("code 00 is reserved and carries no velocity")
        for comp, c in _COMPONENT_CODE.items():
            if c == pair:
                comps.append(comp)
                break
        else:
            raise ValueError(f"invalid code pair {pair!r}")
    return tuple(comps)


def direction_table(model):
    """Velocity vector -> per-axis two-bit codes for every direction."""
    table = {}
    for i in range(model.Q):
        v = tuple(int(c) for c in model.velocities[i])
        table[v] = tuple(direction_code(c) for c in v)
    return table


@dataclass(frozen=True)
class GateStep:
    """One multi-controlled X: flip `target` when every (qubit, state)
    control matches."""

    target: int
    controls: tuple

    def __post_init__(self):
        qubits = [q for q, _ in self.controls]
        if self.target in qubits or len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubit in gate on {self.target}")
        if any(s not in (0, 1) for _, s in self.controls):
            raise ValueError("control states must be 0 or 1")

    def dump(self):
        ctrl = " ".join(f"({q},{s})" for q, s in self.controls)
        return f"X {self.target} | controls: {ctrl}"


def dump_circuit(gates):
    return "\n".join(g.dump() for g in gates)


def increment_circuit(nbits, sign, offset=0, extra_controls=()):
    """Ripple +1 or -1 on an nbits register, most significant bit first.

    Exactly nbits gates: bit k flips when all lower-place bits are 1 (for
    +1) or all 0 (for -1); emitting high targets first means every gate
    still sees the pre-step values of its controls.  Overflow wraps, which
    is exactly periodic streaming.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if nbits < 1:
        raise ValueError(f"nbits must be >= 1, got {nbits}")
    state = 1 if sign == 1 else 0
    gates = []
    for k in range(nbits):
        controls = tuple(extra_controls) + tuple(
            (offset + j, state) for j in range(k + 1, nbits)
        )
        gates.append(GateStep(target=offset + k, controls=controls))
    return gates


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit map of a streaming register.

    Most significant first: the per-axis position blocks, then the
    per-axis two-bit direction codes, then any payload qubits.  Payload
    amplitudes ride along untouched; grid sizes must be powers of two so
    binary overflow realizes the periodic wrap.
    """

    grid_dims: tuple
    payload_qubits: int = 0

    def __post_init__(self):
        dims = tuple(int(n) for n in self.grid_dims)
        if not dims:
            raise ValueError("grid must have at least one axis")
        for n in dims:
            if n < 2 or n & (n - 1) != 0:
                raise ValueError(f"grid sizes must be powers of two, got {n}")
        if self.payload_qubits < 0:
            raise ValueError("payload qubit count must be non-negative")
        object.__setattr__(self, "grid_dims", dims)

    @property
    def ndim(self):
        return len(self.grid_dims)

    @property
    def position_bits(self):
        return tuple(int(n).bit_length() - 1 for n in self.grid_dims)

    @property
    def position_offsets(self):
        offs = []
        acc = 0
        for c in self.position_bits:
            offs.append(acc)
            acc += c
        return tuple(offs)

    @property
    def direction_offsets(self):
        acc = sum(self.position_bits)
        return tuple(acc + 2 * d for d in range(self.ndim))

    @property
    def payload_offset(self):
        return sum(self.position_bits) + 2 * self.ndim

    @property
    def total_qubits(self):
        return self.payload_offset + self.payload_qubits

    @property
    def dim(self):
        return 2 ** self.total_qubits


def axis_block(layout, axis, sign):
    """Gates moving one axis by +1 or -1, conditioned on its code."""
    if not 0 <= axis < layout.ndim:
        raise IndexOutOfRange(f"axis {axis} outside {layout.ndim} axes")
    code = CODE_POSITIVE if sign == 1 else CODE_NEGATIVE
    base = layout.direction_offsets[axis]
    controls = tuple((base + k, int(code[k])) for k in range(2))
    return increment_circuit(
        layout.position_bits[axis],
        sign,
        offset=layout.position_offsets[axis],
        extra_controls=controls,
    )


def stream_circuit(layout):
    """Gate list shifting every axis by its direction code.

    Per axis: the increment conditioned on code 11 followed by the
    decrement conditioned on code 01.  The two blocks touch disjoint code
    states and different axes touch disjoint bits, so axis order is
    immaterial.
    """
    gates = []
    for d in range(layout.ndim):
        gates.extend(axis_block(layout, d, 1))
        gates.extend(axis_block(layout, d, -1))
    return gates


def _source_index(layout, steps):
    """Basis index each output amplitude of a GateStep list comes from.

    Each gate is a controlled permutation of basis indices: amplitudes
    swap between an index and the same index with the target bit flipped
    whenever the controls match.  Qubit 0 is the most significant index
    bit.
    """
    n = layout.total_qubits
    idx = np.arange(layout.dim)
    src = idx.copy()
    for g in steps:
        if not 0 <= g.target < n:
            raise IndexOutOfRange(f"target {g.target} outside register {n}")
        mask = np.ones(layout.dim, dtype=bool)
        for q, s in g.controls:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"control {q} outside register {n}")
            mask &= ((idx >> (n - 1 - q)) & 1) == s
        flipped = idx ^ (1 << (n - 1 - g.target))
        src[mask] = src[flipped[mask]]
    return src


def apply_circuit(state, layout, steps):
    """Run a GateStep list on an amplitude vector; returns a new vector."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (layout.dim,):
        raise ValueError(
            f"state must have shape ({layout.dim},), got {state.shape}"
        )
    return state[_source_index(layout, steps)]


def controlled_stream(state, layout, axis, sign):
    """Shift one axis of an encoded state by one site, conditioned on the
    matching direction code; all other amplitudes are untouched."""
    return apply_circuit(state, layout, axis_block(layout, axis, sign))


def stream_state(state, layout):
    """One full streaming step: every axis, both signs."""
    return apply_circuit(state, layout, stream_circuit(layout))


def apply_to_bits(steps, bits):
    """Run the gate list on a classical bit vector; returns a new list.

    This is the scalar shadow of apply_circuit, handy for exhaustive
    basis sweeps.
    """
    out = list(bits)
    n = len(out)
    for g in steps:
        if not 0 <= g.target < n:
            raise IndexOutOfRange(f"target {g.target} outside register {n}")
        fire = True
        for q, s in g.controls:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"control {q} outside register {n}")
            if out[q] != s:
                fire = False
                break
        if fire:
            out[g.target] ^= 1
    return out


def _bits_of(x, nbits):
    return [(x >> (nbits - 1 - k)) & 1 for k in range(nbits)]


def _int_of(bits):
    v = 0
    for b in bits:
        v = (v << 1) | b
    return v


def encode_site(layout, site, velocity):
    """Bit vector of a (site, direction) basis state, payload grounded."""
    bits = []
    for d, x in enumerate(site):
        if not 0 <= x < layout.grid_dims[d]:
            raise ValueError(f"site {site} outside grid {layout.grid_dims}")
        bits.extend(_bits_of(int(x), layout.position_bits[d]))
    for c in velocity:
        bits.extend(int(ch) for ch in direction_code(c))
    bits.extend([0] * layout.payload_qubits)
    return bits


def decode_site(layout, bits):
    """(site, code string) back from a bit vector; payload bits ignored."""
    site = []
    k = 0
    for c in layout.position_bits:
        site.append(_int_of(bits[k : k + c]))
        k += c
    code = "".join(str(b) for b in bits[k : k + 2 * layout.ndim])
    return tuple(site), code


def basis_state(layout, site, velocity):
    """One-hot amplitude vector of a (site, direction) basis state."""
    state = np.zeros(layout.dim, dtype=complex)
    state[_int_of(encode_site(layout, site, velocity))] = 1.0
    return state


@dataclass
class EquivalenceReport:
    cases: int
    passes: int
    per_direction: dict  # velocity tuple -> (cases, passes)

    @property
    def all_pass(self):
        return self.passes == self.cases


def equivalence_check(grid_dims, model):
    """Exhaustively compare the circuit against periodic index shifts.

    The full stream circuit is compiled to its index map once; every
    (site, direction) basis index must land on the index of
    (site + velocity) mod dims with the direction code untouched.
    """
    layout = RegisterLayout(tuple(grid_dims))
    if layout.ndim != model.D:
        raise ValueError(
            f"grid has {layout.ndim} axes but the model has {model.D}"
        )
    src = _source_index(layout, stream_circuit(layout))
    sites = list(product(*(range(n) for n in layout.grid_dims)))
    per_direction = {}
    for i in range(model.Q):
        v = tuple(int(c) for c in model.velocities[i])
        passes = 0
        for site in sites:
            want = tuple(
                (x + c) % n for x, c, n in zip(site, v, layout.grid_dims)
            )
            start = _int_of(encode_site(layout, site, v))
            passes += int(src[_int_of(encode_site(layout, want, v))] == start)
        per_direction[v] = (len(sites), passes)
    return EquivalenceReport(
        cases=sum(c for c, _ in per_direction.values()),
        passes=sum(p for _, p in per_direction.values()),
        per_direction=per_direction,
    )
