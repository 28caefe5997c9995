"""Resource bookkeeping: qubit, ancilla, and gate counts per variant.

Every figure is the leading-order term with all big-O constants set to 1;
the log/log-log factor of the truncated-Taylor LCU simulation is reported
separately and dropped by default.  Nothing here estimates hardware-level
resources.
"""

from dataclasses import dataclass
from math import ceil, log2, log10, sqrt

DISCLAIMER = "leading-order terms; all big-O constants set to 1"

# Headline qubit figures the formula is usually quoted alongside; the
# second one disagrees with the formula itself and is flagged, not fixed.
QUOTED_QUBITS = ((1e8, 60.0), (1e20, 120.0))


@dataclass(frozen=True)
class ComplexityInputs:
    """Problem-size knobs: lattice volume G, dimension D, timesteps T,
    populations Q, relaxation time tau, decimal precision b, Fock
    truncation N."""

    G: int
    D: int
    T: int
    Q: int
    tau: float
    b: int
    N: int

    def __post_init__(self):
        for name in ("G", "D", "T", "Q", "b", "N"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.G < 2:
            raise ValueError(
                f"G must be >= 2 so the position register holds at least "
                f"one qubit (log2 G), got G={self.G}"
            )
        # 3**D > 2**D > Q here, so a huge D is refused before 3**D is formed
        if self.D > self.Q.bit_length() or self.Q != 3 ** self.D:
            raise ValueError(
                f"Q must be 3**D for the supported lattices, "
                f"got Q={self.Q}, D={self.D}"
            )


def tier_sums(Q, tau):
    """Per-order coefficient tiers of the collision combination:
    S_0 = 1/tau, S_1 = 2Q/tau, S_2 = -(1/tau) Q (9/2 - (3/2) Q); the
    quadratic tier cancels exactly at Q = 3."""
    if Q < 1 or tau <= 0.0:
        raise ValueError("need Q >= 1 and tau > 0")
    return 1.0 / tau, 2.0 * Q / tau, -(1.0 / tau) * Q * (4.5 - 1.5 * Q)


def lcu_collision_params(Q, N, tau):
    """(m, L, S) for the collision Hamiltonian as a combination of
    unitaries: m monomials, L Pauli words, S the coefficient l1 sum.

    S stacks the tier sums against powers of the single-operator
    coefficient sum k = sqrt(2(N+1)) ceil(log2(N+1))^2, with Q operators
    per order: S = Q k (S_0 + S_1 k + S_2 k^2).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    s0, s1, s2 = tier_sums(Q, tau)
    m = Q * Q + 2 * Q + 2
    blk = ceil(log2(N + 1)) ** 2
    L = m * blk
    k = sqrt(2.0 * (N + 1)) * blk
    S = Q * k * (s0 + s1 * k + s2 * k * k)
    return m, L, S


def _log_factor(S, T, b):
    """log2(ST/eps) / log2 log2(ST/eps) with eps = 10^-b; 1 when the
    argument is too small for the double log."""
    x = log2(S * T * 10.0 ** b)
    if x <= 2.0:
        return 1.0
    return x / log2(x)


@dataclass(frozen=True)
class ComplexityRow:
    """One variant: label, qubit count, LCU ancillas (None when the
    construction uses none), and gate count with and without the
    simulation log factor."""

    label: str
    qubits: float
    ancillas: float
    gates: float
    gates_with_log: float


def complexity_rows(inputs):
    """Evaluate every table row on the given inputs.

    Labels: X* embeds the lattice position, X** streams on the binary
    position register, X*** swaps density registers, X is the unitary
    collision; combined rows join collision with a streaming variant,
    the last one with non-unitary streaming.
    """
    G, D, T, Q = inputs.G, inputs.D, inputs.T, inputs.Q
    tau, b, N = inputs.tau, inputs.b, inputs.N
    lg = log2(G)
    ltb = log2(T + b)
    lg2c = ceil(lg * lg)
    _, _, S_coll = lcu_collision_params(Q, N, tau)
    fac_coll = _log_factor(S_coll, T, b)
    fac_embed = _log_factor(Q * D, T, b)
    coll_gates = T ** 5 * (1.0 / tau) * Q ** 5
    rows = []

    def add(label, qubits, ancillas, gates, factor):
        rows.append(
            ComplexityRow(
                label=label,
                qubits=float(qubits),
                ancillas=None if ancillas is None else float(ancillas),
                gates=float(gates),
                gates_with_log=float(gates * factor),
            )
        )

    add(
        "X*",
        lg + Q,
        log2(Q * D * ceil(lg)),
        T * Q ** 2 * D ** 2 * lg2c,
        fac_embed,
    )
    add("X**", log2(Q * G) + 2 * D, None, T * D * lg * lg, 1.0)
    add("X***", G * Q, None, 3.0 * T * (Q - 1) / 2.0 * G, 1.0)
    add("X", Q * ltb, log2(Q * ltb), coll_gates, fac_coll)
    add(
        "X & X*",
        lg + Q * max(lg, ltb),
        log2(Q * D * ceil(lg)),
        T * Q ** 2 * D ** 2 * lg2c + coll_gates,
        fac_coll,
    )
    add(
        "X & X***",
        min(G, T + lg) * Q * ltb,
        log2(Q * ltb),
        coll_gates + T * Q * G,
        fac_coll,
    )
    add(
        "X & X(nonunitary)",
        Q * ltb + lg + 2 * D,
        log2(Q * ltb),
        G * coll_gates,
        fac_coll,
    )
    return rows


def qubits_for_reynolds(Re):
    """Minimum qubit estimate (15/2) log10(Re) for a target Reynolds
    number."""
    if Re < 1.0:
        raise ValueError(f"Re must be >= 1, got {Re}")
    return 7.5 * log10(Re)


def reynolds_quote_report():
    """Formula value next to the quoted headline figure for each regime;
    agreement within half a qubit is flagged per row, never patched."""
    out = []
    for Re, quoted in QUOTED_QUBITS:
        formula = qubits_for_reynolds(Re)
        out.append(
            {
                "Re": Re,
                "formula": formula,
                "quoted": quoted,
                "consistent": abs(formula - quoted) <= 0.5,
            }
        )
    return out
