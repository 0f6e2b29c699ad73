"""XOR games on GHZ-type states: their quantum value on the phase torus.

With g = parity a game is an XOR game: P(win | q) = (1 + s_q E_q) / 2, with
s_q = (-1)^f(q) and E_q the correlation of the players' +-1 outcomes, so the
win probability is 1/2 + 2^-(n+1) sum_q s_q E_q, a full-correlation Bell
functional with two +-1 observables per player (g's complement flips every
s_q).  Over every state and every such pair of observables, in any
dimension, its maximum is

    1/2 + 2^-(n+1) max over delta in [0, 2pi)^n of |S(delta)|,
    S(delta) = sum_q s_q e^{i q.delta},

and GHZ with equatorial measurements reaches it (Werner & Wolf, PRA 64,
032112, 2001; Zukowski & Brukner, PRL 88, 210401, 2002).  On
(|0...0> + e^{i chi} |1...1>) / sqrt 2, players who measure at azimuths
alpha_k(q_k) give E_q = cos(chi - sum_k alpha_k(q_k)), and delta_k =
alpha_k(1) - alpha_k(0).  The classical value is the same maximum over
delta in {0, pi}^n, the largest Walsh coefficient.  Neither closed form
holds for any other g, such as the W game's, nor on other states.

``xor_games`` says which games of a ``GainKernel`` are such games, from
the kernel's own tables (its states, g-hat and signs), and ``optimize``
finds the best delta of each and returns its equatorial strategy: a few
coordinate sweeps from every start, then Newton steps from each game's
best few.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .quantum import TWO_PI, GainKernel, _form_index

#: Coordinate-ascent sweeps that every torus start takes, then Newton steps
#: that each game's ``_POLISHED`` starts of largest swept |S| take.
_SWEEPS = 4
_NEWTON_STEPS = 5
_POLISHED = 4


@functools.cache
def _supersets(n: int) -> np.ndarray:
    """(2**n, 2**n) complex 0/1: entry (q, m) is 1 when question q has every bit of m.

    Terms @ this matrix give, in column m, the sum of the terms of every
    such q: column 0 is S itself, column 2**(n-1-k) is S_k, the terms where
    player k has question 1, and the column of two players' bits sums
    where both have 1 (read-only).
    """
    q = np.arange(1 << n)
    table = ((q[:, None] & q[None, :]) == q[None, :]).astype(complex)
    table.flags.writeable = False
    return table


def xor_games(kernel: GainKernel, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (count,) torus mask, and the (T, 2**n) signs s_q and (T,) phases chi of its games.

    A game of ``kernel`` takes the torus path when its g is parity or its
    complement and its state is GHZ-type: exactly two non-zero amplitudes,
    of equal modulus, on |0...0> and |1...1>, with any relative phase chi.
    The kernel's g-hat tells the g: parity's is 2**(n-1) on the empty set,
    -2**(n-1) on the set of all players and 0 elsewhere, its complement's
    +2**(n-1) on both, and no other g has g-hat 0 off those two sets with
    g-hat(all players) != 0.  Then s_q = (-1)^(f(q) ^ c), with c = 1 for
    the complement, which is sign(g-hat(all players)) times the kernel's
    signs 2 f(q) - 1.  Each state is read once, and g is tested once.
    """
    states, g_hat = kernel.states, kernel.g_hat
    ends = states[:, [0, -1]]
    ghz = ((np.count_nonzero(states, axis=1) == 2) & ends.all(axis=1)
           & (np.abs(np.abs(ends[:, 0]) - np.abs(ends[:, 1])) <= 1e-12))
    xor = g_hat[-1] != 0 and not g_hat[1:-1].any()
    game = np.arange(count)
    on = ghz[game % len(ghz)] & xor
    # player 0's layout of the kernel's signs is the order of questions
    signs = np.sign(g_hat[-1]) * kernel.signs[0].reshape(-1, g_hat.size)
    chi = np.angle(ends[:, 1] * ends[:, 0].conj())
    return on, signs[game[on] % len(signs)], chi[game[on] % len(chi)]


def _terms(signs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """(R, 2**n) terms s_q e^{i q.delta} of S(delta) for (R, 2**n) signs and (R, n) deltas.

    e^{i q.delta} is the product of e^{i delta_k} over the players with
    question 1, so the exp runs on the (R, n) deltas only.
    """
    rows, n = delta.shape
    factors = np.exp(1j * delta)
    phases = np.empty((rows, 1 << n), dtype=complex)
    phases[:, 0] = 1.0
    for k in range(n):
        # the entries set so far are every 2**(n-k)-th; player k's question 1 is 2**(n-1-k) on
        pairs = phases.reshape(rows, 1 << k, 2, -1)[:, :, :, 0]
        pairs[:, :, 1] = pairs[:, :, 0] * factors[:, k:k + 1]
    return signs * phases


def _solve(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with system[r] @ x[r] = rhs[r] for (R, n, n) systems, by Gauss-Jordan elimination.

    No pivoting and no exception: a row whose system is singular, or
    nearly, gets an inf or NaN solution, which ``_polish`` rejects
    as a step like any other step that does not raise |S|, unannounced.
    (LAPACK's batched solve raises for the whole batch on one singular system.)
    """
    n = system.shape[1]
    table = np.concatenate([system, rhs[:, :, None]], axis=2)
    for k in range(n):
        row = table[:, k] / table[:, k, k:k + 1]
        table = table - table[:, :, k:k + 1] * row[:, None, :]
        table[:, k] = row
    return table[:, :, n]


def _sweep(signs: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_SWEEPS`` coordinate-ascent sweeps of |S(delta)| from (R, n) starts.

    Returns the deltas and their terms, turned in place.  A coordinate step writes
    S = A + e^{i delta_k} B, with A the terms where player k has question
    0, and sets delta_k = arg A - arg B, which lines both up and never
    lowers |S|.  A few sweeps over every player find a basin, where they
    may creep.  Every operation treats each row on its own (no sum across
    rows), so a row's result does not depend on the other rows; likewise
    in ``_polish``.
    """
    rows, n = delta.shape
    supersets = _supersets(n)
    # per player, the columns of S and of S_k
    columns = [supersets[:, [0, 1 << (n - 1 - k)]] for k in range(n)]
    delta = delta.copy()
    terms = _terms(signs, delta)
    for _ in range(_SWEEPS):
        for k in range(n):
            total, ones = (terms[:, None, :] @ columns[k])[:, 0].T
            step = np.angle((total - ones) * ones.conj())
            delta[:, k] += step
            # the terms where player k has question 1 turn by e^{i step}
            terms.reshape(rows, 1 << k, 2, -1)[:, :, 1] *= np.exp(1j * step)[:, None, None]
    return delta, terms


def _polish(signs: np.ndarray, delta: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_NEWTON_STEPS`` damped Newton steps on |S|^2 from swept (R, n) deltas and their terms.

    Returns the deltas and their S.  A step solves (mu I - H) step = grad
    and is taken by a row only where it raises |S|.  mu starts tiny, so a
    step near a maximum is Newton's, and grows fourfold on each failure,
    which shortens the step towards one along the gradient.
    """
    n = delta.shape[1]
    supersets = _supersets(n)
    single = [1 << (n - 1 - k) for k in range(n)]
    both = np.bitwise_or.outer(single, single)
    sums = (terms[:, None, :] @ supersets)[:, 0]
    value = np.abs(sums[:, 0])
    damping = np.full(delta.shape[0], 1e-9)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            s, sk = sums[:, :1], sums[:, single]
            # gradient and Hessian of |S|^2: dS/d delta_k = i S_k, d2S/d delta_k d delta_l = -S_kl
            grad = -2.0 * (s.conj() * sk).imag
            hess = (2.0 * (sk[:, :, None] * sk[:, None, :].conj()).real
                    - 2.0 * (s[:, :, None].conj() * sums[:, both]).real)
            trial = delta + _solve(damping[:, None, None] * np.eye(n) - hess, grad)
            trial_sums = (_terms(signs, trial)[:, None, :] @ supersets)[:, 0]
            trial_value = np.abs(trial_sums[:, 0])
            up = trial_value > value
            delta = np.where(up[:, None], trial, delta)
            sums = np.where(up[:, None], trial_sums, sums)
            value = np.where(up, trial_value, value)
            damping = np.where(up, np.maximum(damping / 4.0, 1e-9), 4.0 * (damping + 1.0))
    return delta, sums[:, 0]


def _walsh_vertex(signs: np.ndarray) -> np.ndarray:
    """(G, n) deltas in {0, pi}^n of each game's largest |S|: the best classical point.

    On the vertex pi*m, S is the Walsh coefficient sum_q s_q (-1)^(q.m),
    and there |S| may peak so flatly that an ascent from elsewhere creeps
    up to it, so every game also starts there.  The sums are of +-1s, so
    they are exact.
    """
    n = signs.shape[1].bit_length() - 1
    # (n, 2**n): row k is player k's bit of every question
    bits = (np.arange(1 << n)[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1
    walsh = signs @ _form_index(n)[0]
    return np.pi * bits[:, np.abs(walsh).argmax(axis=1)].T


def _delta_of(angles: np.ndarray) -> np.ndarray:
    """(..., n, 2, 3) angles -> (..., n): each player's delta = alpha(1) - alpha(0).

    A gate answers 0 on the state u with <u| its first row, so the
    player's +-1 observable has <0|A|1> = -sin(theta) e^{i lam}, whose
    phase is -alpha: the azimuth of its equatorial part.
    """
    theta, lam = angles[..., 0], angles[..., 2]
    return np.angle(np.sin(theta[..., 0]) * np.sin(theta[..., 1])
                    * np.exp(1j * (lam[..., 0] - lam[..., 1])))


def _angles(delta: np.ndarray, total: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """(G, n) deltas, their S and each state's phase chi -> (G, n, 2, 3) equatorial angles.

    Observables alpha_k(q) = alpha_k(0) + q delta_k with sum_k alpha_k(0)
    = chi - arg S give sum_q s_q E_q = |S|.  The gate of azimuth alpha has
    theta = pi/2, phi = 0 and lam = -alpha - pi.
    """
    alpha = np.zeros(delta.shape + (2,))
    alpha[:, 0, 0] = chi - np.angle(total)
    alpha[:, :, 1] = alpha[:, :, 0] + delta
    angles = np.zeros(delta.shape + (2, 3))
    angles[..., 0] = np.pi / 2
    angles[..., 2] = -alpha - np.pi
    return angles


def _leading(game: np.ndarray, value: np.ndarray, keep: int) -> np.ndarray:
    """Indices, in row order, of each game's ``keep`` rows of largest ``value`` (all, if fewer).

    ``game`` does not decrease.  Of rows of equal value, the earlier leads:
    the sort is stable, and it keeps the games in place, so entry i of
    ``order`` is a row of game[i], at place i - (game[i]'s first row).
    """
    order = np.lexsort((-value, game))
    return np.sort(order[np.arange(game.size) - np.searchsorted(game, game) < keep])


def optimize(
    signs: np.ndarray,
    chi: np.ndarray,
    seeds: Sequence[int],
    restarts: int,
    extra_starts: Sequence[Sequence[np.ndarray]],
) -> np.ndarray:
    """(G, n, 2, 3) angles of the best equatorial strategy of each game.

    ``signs`` (G, 2**n) and ``chi`` (G,) are ``xor_games`` results.  Game j
    starts from ``restarts`` deltas drawn uniformly from [0, 2pi)^n by
    ``seeds[j]``, then from its best Walsh vertex, then from the deltas of
    its warm starts.  Every start takes ``_sweep``; then the game's
    ``_POLISHED`` starts of largest swept |S| take ``_polish``, and its
    strategy is that of the polished start with the largest |S|.
    """
    n = signs.shape[1].bit_length() - 1
    warm = np.array([len(extras) for extras in extra_starts], dtype=int)
    counts = restarts + 1 + warm
    game = np.repeat(np.arange(len(counts)), counts)
    # each start's place among its game's: random, then the vertex, then warm
    place = np.arange(game.size) - np.repeat(np.cumsum(counts) - counts, counts)
    delta = np.empty((game.size, n))
    delta[place < restarts] = np.concatenate(
        [np.random.default_rng(seed).uniform(0.0, TWO_PI, (restarts, n)) for seed in seeds])
    delta[place == restarts] = _walsh_vertex(signs)
    if warm.any():
        angles = np.array([start for extras in extra_starts for start in extras], dtype=float)
        delta[place > restarts] = _delta_of(angles.reshape(-1, n, 2, 3))
    delta, terms = _sweep(signs[game], delta)
    polished = _leading(game, np.abs(terms.sum(axis=1)), _POLISHED)
    delta, total = _polish(signs[game[polished]], delta[polished], terms[polished])
    best = _leading(game[polished], np.abs(total), 1)
    return _angles(delta[best], total[best], chi)
