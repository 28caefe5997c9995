"""The march and the checks that any register shares.

A register whose step U commutes with an involution Pi of its basis states
is marched in the parity basis of Pi (Parity), where U is an even and an
odd block.  The march keeps each state's readout amplitudes, norm and
finiteness, never the history of states, and one ordered check table turns
those records into the first flagged step and its reason.
"""

from dataclasses import dataclass
from math import sqrt
from typing import NamedTuple, Optional

import numpy as np


class Parity(NamedTuple):
    """The parity basis B = [E O] of an involution Pi of basis states, an
    orthogonal matrix: E holds e_x for each fixed state x, then
    (e_l + e_h)/sqrt 2 for each swapped pair l < h = Pi l (the even
    sector), O holds (e_l - e_h)/sqrt 2 (the odd one).  B^T x are the
    sector coordinates of x."""

    order: np.ndarray  # fixed states, then each pair's l, then its h
    fixed: int  # number of fixed states
    pairs: int  # number of swapped pairs: the odd sector's size


def parity(image):
    """The Parity of the involution Pi with Pi x = image[x].  Raises
    ValueError unless image is an involution of range(n)."""
    states = np.arange(image.size)
    inside = np.all((image >= 0) & (image < image.size))
    if not (inside and np.array_equal(image[image], states)):
        raise ValueError(f"{image} is not an involution of range({image.size})")
    low = states[states < image]
    fixed = states[states == image]
    order = np.concatenate((fixed, low, image[low]))
    return Parity(order, fixed.size, low.size)


_R2 = sqrt(0.5)


def to_sectors(par, x):
    """B^T x along the first axis of x: its sector coordinates."""
    f, k = par.fixed, par.pairs
    y = x[par.order]
    low, high = y[f : f + k], y[f + k :]
    return np.concatenate((y[:f], (low + high) * _R2, (low - high) * _R2))


def split(par, M):
    """The even and odd diagonal blocks of B^T M B, from the fixed (F),
    pair-low (L) and pair-high (H) blocks of M.  For M that commutes with
    Pi the blocks between the sectors vanish up to round-off, so these two
    are the operator M acts as."""
    f, k = par.fixed, par.pairs
    A = M.take(par.order, axis=0).take(par.order, axis=1)
    F, L, H = slice(0, f), slice(f, f + k), slice(f + k, None)
    same = A[L, L] + A[H, H]
    swap = A[L, H] + A[H, L]
    even = np.block([
        [A[F, F], (A[F, L] + A[F, H]) * _R2],
        [(A[L, F] + A[H, F]) * _R2, (same + swap) * 0.5],
    ])
    return even, (same - swap) * 0.5


def join(par, even, odd):
    """The matrix B diag(even, odd) B^T in the original basis."""
    f = par.fixed
    top, side, pairs = even[:f, f:] * _R2, even[f:, :f] * _R2, even[f:, f:]
    same, swap = (pairs + odd) * 0.5, (pairs - odd) * 0.5
    A = np.block([
        [even[:f, :f], top, top],
        [side, same, swap],
        [side, swap, same],
    ])
    position = np.argsort(par.order)
    return A.take(position, axis=0).take(position, axis=1)


def block_size(n, steps):
    """States per block of the march on a register of dimension n: K = 2^k
    with k = min(6, floor(2 steps / n)), so the k squarings that form U^K
    cost at most twice the march's n^2 flops per step; capped at steps + 1,
    so U^K is formed only when a later block exists.  Wider blocks gain
    nothing past K = 64: 1500 steps of both modes take 3.4 ms at K = 16,
    1.7 ms at K = 64 and 1.7 ms at K = 128 at n = 64, and 4.7, 2.1 and
    2.3 ms at n = 8 (2 cores)."""
    return min(2 ** min(6, 2 * steps // n), steps + 1)


def dense_blocks(sectors, x, steps):
    """x, U x, ..., U^steps x for U = diag(even, odd), the two sectors, in
    blocks of K = block_size(n, steps) states (rows), n = x.size: both
    sectors advance in step, each on its own run of the columns.  The
    first block applies U once per state; every later block is one
    matrix-matrix product per sector with its K-th power (the sector block
    itself at K = 1), formed only when a later block exists.  Blocks are
    yielded from two buffers that are reused."""
    K = block_size(x.size, steps)
    e = len(sectors[0])
    runs = (slice(0, e), slice(e, x.size))
    block = np.empty((K, x.size))
    block[0] = x
    for j in range(1, K):
        for U, run in zip(sectors, runs):
            np.matmul(U, block[j - 1, run], out=block[j, run])
    yield block
    if K > steps:
        return
    powers = [np.linalg.matrix_power(U, K) for U in sectors]
    spare = np.empty_like(block)
    for start in range(K, steps + 1, K):
        rows = min(K, steps + 1 - start)
        # state start + j is U^K applied to state start - K + j
        for P, run in zip(powers, runs):
            np.matmul(block[:rows, run], P.T, out=spare[:rows, run])
        block, spare = spare, block
        yield block[:rows]


def sector_march(par, sectors, psi, index, steps):
    """records of psi, U psi, ..., U^steps psi for U = B diag(*sectors)
    B^T, marched on the sector coordinates B^T psi (dense_blocks).  The
    amplitudes at index come through rows of B: (s + a)/sqrt 2 and
    (s - a)/sqrt 2 at a swapped pair, for s the even and a the odd
    coordinate."""
    onehot = np.zeros((psi.size, index.size))
    onehot[index, np.arange(index.size)] = 1.0
    rows = to_sectors(par, onehot)
    blocks = (
        (states, states @ rows)
        for states in dense_blocks(sectors, to_sectors(par, psi), steps)
    )
    return records(blocks, steps, index.size)


def records(blocks, steps, width):
    """Readout amplitudes (width per state), norms and finiteness of steps
    + 1 states, from blocks of (states, readout amplitudes), one row of
    coordinates per state in an orthogonal basis, so a row's norm is its
    state's.  The (steps + 1) x n history is never held."""
    amps = np.empty((steps + 1, width))
    norms = np.empty(steps + 1)
    finite = np.empty(steps + 1, dtype=bool)
    start = 0
    for states, readout in blocks:
        stop = start + len(states)
        amps[start:stop] = readout
        norm = np.sqrt(np.einsum("ij,ij->i", states, states))
        norms[start:stop] = norm
        # a NaN or inf entry makes the sum of squares non-finite, so only
        # those states are scanned; an overflowed norm of finite entries
        # is finite
        fin = np.isfinite(norm)
        fin[~fin] = np.all(np.isfinite(states[~fin]), axis=1)
        finite[start:stop] = fin
        start = stop
    return amps, norms, finite


def first_flag(finite, norms, ratio_bound, ground, decoded):
    """(step, reason) of the first step past 0 that fails a check, named by
    the first failing entry of the table, or (None, None): finite and norms
    as from records, ratio_bound the largest norm ratio of one step, ground
    the amplitudes the decode divides by and decoded its values."""
    before, after = norms[:-1], norms[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        checks = (
            ("non-finite state", ~finite[1:]),
            ("vanished norm", (after == 0.0) | (before == 0.0)),
            ("norm growth monitor", after / before > ratio_bound),
            ("ground amplitude zero", ground[1:] == 0.0),
            ("decoded population outside [-1, 1]",
             np.any(np.abs(decoded[1:]) > 1.0, axis=1)),
        )
    failed = np.array([mask for _, mask in checks])
    if not failed.any():
        return None, None
    t = int(np.argmax(failed.any(axis=0)))
    return t + 1, checks[int(np.argmax(failed[:, t]))][0]


@dataclass
class EvolutionResult:
    times: np.ndarray
    decoded: np.ndarray  # (steps + 1, Q)
    norms: np.ndarray
    norms_corrected: np.ndarray
    classical: np.ndarray  # the BGK map at the same dt, in closed form
    rel_err: np.ndarray  # max component relative error per step
    mass: np.ndarray
    flagged: bool
    flag_step: Optional[int]
    flag_reason: Optional[str]
