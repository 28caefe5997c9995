"""The shared march, parity basis and check table on registers that are
not the engine's: closed forms stand in for the propagator."""

import numpy as np
import oracles
import pytest

from qalb import fock, march


def _rotation(theta):
    # turns coordinates 1 and 2 by theta and keeps coordinate 0
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


@pytest.mark.parametrize("steps,K", [(1, 1), (100, 64)])
def test_rotation_with_empty_odd_sector(steps, K):
    # under the identity permutation every state is fixed: the even sector
    # is the whole register and the odd one is empty.  The ratio decode of
    # a rotation that keeps the ground amplitude turns (0.3, 0.4) by t theta
    assert march.block_size(3, steps) == K
    theta = 0.05
    par = march.parity(np.arange(3))
    even, odd = march.split(par, _rotation(theta))
    assert np.array_equal(even, _rotation(theta)) and odd.shape == (0, 0)
    psi = np.array([1.0, 0.3 * np.sqrt(2.0), 0.4 * np.sqrt(2.0)])
    index = np.arange(3)
    amps, norms, finite = march.sector_march(
        par, (even, odd), psi, index, steps
    )
    t = np.arange(steps + 1)
    want = np.array([_rotation(k * theta) @ psi for k in t])
    assert np.max(np.abs(amps - want)) <= 1e-13
    assert np.max(np.abs(norms - np.linalg.norm(psi))) <= 1e-13
    assert finite.all()
    decoded = fock.ratio_decode(amps)
    turned = np.column_stack((
        0.3 * np.cos(t * theta) - 0.4 * np.sin(t * theta),
        0.3 * np.sin(t * theta) + 0.4 * np.cos(t * theta),
    ))
    assert np.max(np.abs(decoded - turned)) <= 1e-13
    assert march.first_flag(finite, norms, 1.01, amps[:, 0], decoded) == (
        None, None
    )
    # the same turn with a 2 percent growth per step fails the ratio bound
    grown = tuple(1.02 * b for b in (even, odd))
    amps, norms, finite = march.sector_march(par, grown, psi, index, steps)
    decoded = fock.ratio_decode(amps)
    assert march.first_flag(finite, norms, 1.01, amps[:, 0], decoded) == (
        1, "norm growth monitor"
    )


def _swap_step(t, a, x):
    # exp(t A) x for A = [[0, a, a], [-a, 0, 0], [-a, 0, 0]], which commutes
    # with the swap of states 1 and 2: a turn by sqrt(2) a t of state 0 and
    # the sum s = (x1 + x2)/sqrt 2, with the difference d kept
    w = np.sqrt(2.0) * a * t
    s, d = (x[1] + x[2]) / np.sqrt(2.0), (x[1] - x[2]) / np.sqrt(2.0)
    x0, s = x[0] * np.cos(w) + s * np.sin(w), s * np.cos(w) - x[0] * np.sin(w)
    return np.array([x0, (s + d) / np.sqrt(2.0), (s - d) / np.sqrt(2.0)])


@pytest.mark.parametrize("steps,K", [(1, 1), (100, 64)])
def test_swapped_pair_register(steps, K):
    # one fixed state and one swapped pair: a 2 x 2 even block that turns
    # and a 1 x 1 odd block that keeps the difference of the pair
    assert march.block_size(3, steps) == K
    a = 0.03
    U = np.column_stack([_swap_step(1, a, e) for e in np.eye(3)])
    par = march.parity(np.array([0, 2, 1]))
    assert (par.fixed, par.pairs) == (1, 1)
    even, odd = march.split(par, U)
    assert even.shape == (2, 2) and np.max(np.abs(odd - 1.0)) <= 1e-15
    psi = np.array([0.5, 0.7, -0.2])
    index = np.array([0, 2])
    amps, norms, finite = march.sector_march(
        par, (even, odd), psi, index, steps
    )
    want = np.array([_swap_step(t, a, psi) for t in range(steps + 1)])
    assert np.max(np.abs(amps - want[:, index])) <= 1e-13
    assert np.max(np.abs(norms - np.linalg.norm(psi))) <= 1e-13
    assert finite.all()


def test_split_join_round_trip_on_random_involution():
    # 4 random pairs among 11 states, the other 3 fixed, and an operator
    # that commutes with the swap, built from a random matrix alone
    rng = np.random.default_rng(23)
    n = 11
    image = np.arange(n)
    chosen = rng.permutation(n)[:8].reshape(4, 2)
    image[chosen[:, 0]], image[chosen[:, 1]] = chosen[:, 1], chosen[:, 0]
    X = rng.standard_normal((n, n))
    M = X + X[np.ix_(image, image)]
    par = march.parity(image)
    Bt, e = oracles.parity_basis(image)
    assert (par.fixed, par.pairs, e) == (3, 4, 7)
    x = rng.standard_normal((n, 2))
    assert np.max(np.abs(march.to_sectors(par, x) - Bt @ x)) <= 1e-15 * n
    C = Bt @ M @ Bt.T
    assert np.max(np.abs(C[:e, e:])) + np.max(np.abs(C[e:, :e])) <= 1e-13
    even, odd = march.split(par, M)
    assert np.max(np.abs(even - C[:e, :e])) <= 1e-13
    assert np.max(np.abs(odd - C[e:, e:])) <= 1e-13
    assert np.max(np.abs(march.join(par, even, odd) - M)) <= 1e-13


@pytest.mark.parametrize(
    "image",
    [[1, 2, 0], [1, 0, 5], [-4, 1, 2]],
    ids=["cycle", "out-of-range", "negative"],
)
def test_parity_refuses_a_non_involution(image):
    with pytest.raises(ValueError, match="not an involution"):
        march.parity(np.array(image))
