"""Streaming as reversible bit arithmetic on position registers.

Each axis carries ceil(log2 N) position bits plus a two-bit direction
code, held as an int: 0b10 stationary, 0b11 positive, 0b01 negative, 0b00
reserved and rejected.  Motion is a ripple increment or decrement of the
position bits, conditioned on the axis code, so one gate list shifts every
population of a power-of-two grid at once and wraps periodically for free.
A register state is one integer basis index, qubit 0 its most significant
bit; `site_index` and `decode_index` map it to and from (site, velocity).
States live on the full register as amplitude vectors; the gates only
permute basis indices, so applying them is exact index arithmetic, never
floating-point mixing.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import IndexOutOfRange

_COMPONENT_CODE = {0: 0b10, 1: 0b11, -1: 0b01}
_CODE_COMPONENT = {code: comp for comp, code in _COMPONENT_CODE.items()}


def direction_code(component):
    """Two-bit code of one velocity component."""
    try:
        return _COMPONENT_CODE[int(component)]
    except KeyError:
        raise ValueError(f"velocity component must be -1, 0, or 1, "
                         f"got {component}") from None


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
        # a tuple of int pairs, so every gate hashes as a key of the
        # compiled-map cache
        object.__setattr__(
            self, "controls", tuple((int(q), int(s)) for q, s in self.controls)
        )

    def dump(self):
        ctrl = " ".join(f"({q},{s})" for q, s in self.controls)
        return f"X {self.target} | controls: {ctrl}"


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
    code = direction_code(sign)
    base = layout.direction_offsets[axis]
    controls = ((base, code >> 1), (base + 1, code & 1))
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


# A compiled map costs 8 bytes per basis state (0.5 MB at 16 qubits); a few
# are in use at a time: one per layout for the full step, one per axis block.
@lru_cache(maxsize=8)
def _source_index(layout, steps):
    """Basis index each output amplitude of a tuple of GateSteps comes from.

    Each gate is a controlled permutation of basis indices: amplitudes
    swap between an index and the same index with the target bit flipped
    whenever the controls match.  Qubit 0 is the most significant index
    bit.  The map is cached per (layout, gates) and returned read-only.
    """
    n = layout.total_qubits
    idx = np.arange(layout.dim)
    src = idx.copy()
    for g in steps:
        if not 0 <= g.target < n:
            raise IndexOutOfRange(f"target {g.target} outside register {n}")
        care = want = 0
        for q, s in g.controls:
            if not 0 <= q < n:
                raise IndexOutOfRange(f"control {q} outside register {n}")
            care |= 1 << (n - 1 - q)
            want |= s << (n - 1 - q)
        hit = np.flatnonzero((idx & care) == want)
        src[hit] = src[hit ^ (1 << (n - 1 - g.target))]
    src.flags.writeable = False
    return src


def apply_circuit(state, layout, steps):
    """Run a GateStep list on an amplitude vector; returns a new vector."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (layout.dim,):
        raise ValueError(
            f"state must have shape ({layout.dim},), got {state.shape}"
        )
    return state[_source_index(layout, tuple(steps))]


# Gate tuples are built and validated once per layout (and axis and sign),
# so a repeated step goes straight to the compiled-map lookup.
@lru_cache(maxsize=8)
def _stream_gates(layout):
    return tuple(stream_circuit(layout))


@lru_cache(maxsize=16)
def _axis_gates(layout, axis, sign):
    return tuple(axis_block(layout, axis, sign))


def controlled_stream(state, layout, axis, sign):
    """Shift one axis of an encoded state by one site, conditioned on the
    matching direction code; all other amplitudes are untouched."""
    return apply_circuit(state, layout, _axis_gates(layout, axis, sign))


def stream_state(state, layout):
    """One full streaming step: every axis, both signs."""
    return apply_circuit(state, layout, _stream_gates(layout))


def site_index(layout, site, velocity):
    """Basis index of a (site, direction) state, payload grounded.

    `site` holds one coordinate per axis, each an int or an integer array
    (as from `np.indices(layout.grid_dims)`); ints give a Python int,
    arrays an int64 index array of their broadcast shape.
    """
    if len(site) != layout.ndim or len(velocity) != layout.ndim:
        raise ValueError(f"site {site} and velocity {velocity} need "
                         f"{layout.ndim} components each")
    index = 0
    for x, n, nbits in zip(site, layout.grid_dims, layout.position_bits):
        x = int(x) if np.ndim(x) == 0 else np.asarray(x)
        if np.any((x < 0) | (x >= n)):
            raise ValueError(f"site {site} outside grid {layout.grid_dims}")
        index = (index << nbits) | x
    if np.ndim(index) and layout.total_qubits > 63:
        raise ValueError(f"a {layout.total_qubits}-qubit index overflows int64")
    for c in velocity:
        index = (index << 2) | direction_code(c)
    return index << layout.payload_qubits


def decode_index(layout, index):
    """(site, velocity) of a basis index; payload bits ignored."""
    if not 0 <= index < layout.dim:
        raise ValueError(f"index {index} outside register of {layout.dim}")
    n = layout.total_qubits

    def field(offset, width):
        return (index >> (n - offset - width)) & ((1 << width) - 1)

    site = tuple(
        field(o, w) for o, w in zip(layout.position_offsets, layout.position_bits)
    )
    codes = [field(o, 2) for o in layout.direction_offsets]
    if 0b00 in codes:
        raise ValueError("code 00 is reserved and carries no velocity")
    return site, tuple(_CODE_COMPONENT[c] for c in codes)


def basis_state(layout, site, velocity):
    """One-hot amplitude vector of a (site, direction) basis state."""
    state = np.zeros(layout.dim, dtype=complex)
    state[site_index(layout, site, velocity)] = 1.0
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
    src = _source_index(layout, tuple(stream_circuit(layout)))
    sites = np.indices(layout.grid_dims)
    dims = np.reshape(layout.grid_dims, (-1,) + (1,) * layout.ndim)
    per_direction = {}
    for i in range(model.Q):
        v = tuple(int(c) for c in model.velocities[i])
        want = (sites + np.reshape(v, dims.shape)) % dims
        start = site_index(layout, sites, v)
        passes = np.count_nonzero(src[site_index(layout, want, v)] == start)
        per_direction[v] = (start.size, int(passes))
    return EquivalenceReport(
        cases=sum(c for c, _ in per_direction.values()),
        passes=sum(p for _, p in per_direction.values()),
        per_direction=per_direction,
    )
