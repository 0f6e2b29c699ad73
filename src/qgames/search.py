"""Best classical and quantum strategies, batch searches, and gap metrics.

The classical optimum is exact: all 2**(2n) deterministic strategies are
enumerated.  The quantum optimum is a multi-start see-saw ascent over every
player's measurements, except for XOR games on GHZ-type states, whose
value is a maximum over the players' phase differences (the torus path).
The see-saw runs on the Bloch vectors of the players' answer-0 vectors,
against each game's Pauli correlation tensor (``GainKernel``): starts are
turned into Bloch vectors once, each sweep of a block's rows is one kernel
call, and each game's best restart goes back into gate angles once.  Its
slow tails are accelerated by a safeguarded SQUAREM step on those vectors
(Varadhan & Roland 2008; see ``_see_saw``).
Every reported quantum gain is the re-evaluated win probability of the
returned strategy, so it is always an achievable lower bound.

Batch searches play every function against one ``g`` on one state.  They
split the functions into contiguous tasks of at most ``_TASK_ROWS`` start
rows, or of one game.  Each task runs the restarts of all its see-saw games
as one block of rows in lockstep, each row with its own game's sign table;
a row that stops leaves the block.  Its games on the torus path never enter
the block.  Worker processes take whole tasks.  Every game is seeded from
(master seed, function index), and no game's result depends on the other
games of its task, which makes results independent of worker count and
schedule.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .boolfn import GameEquation, TruthTable
from . import torus
from .quantum import FOUR_PI, GainKernel, QuantumStrategy, StateVector
from .quantum import _angles_from_bloch, _bloch, _unit_bloch

logger = logging.getLogger(__name__)

#: Fixed default master seed so reproduction runs are deterministic out of the box.
DEFAULT_SEED = 1729

#: Strict threshold on (quantum - classical) for a game to count as advantaged.
GAP_THRESHOLD = 0.01


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic per-player answers encoded in 2n bits.

    Player 1's pair is most significant; within a pair the answer to
    question 0 is the more significant bit.
    """

    n: int
    encoding: int

    def __post_init__(self):
        if not 0 <= self.encoding < (1 << (2 * self.n)):
            raise ValueError(f"encoding needs exactly {2 * self.n} bits")

    def answer(self, player: int, question_bit: int) -> int:
        shift = 2 * (self.n - 1 - player) + (1 - (question_bit & 1))
        return (self.encoding >> shift) & 1

    def answers(self, question: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.answer(i, q) for i, q in enumerate(question))

    @classmethod
    def from_answer_bits(cls, pairs: Sequence[tuple[int, int]]) -> "ClassicalStrategy":
        enc = 0
        for h0, h1 in pairs:
            enc = (enc << 2) | ((h0 & 1) << 1) | (h1 & 1)
        return cls(len(pairs), enc)


@dataclass(frozen=True)
class OptimizerConfig:
    """Optimizer settings.

    ``restarts`` random starts run per game, from ``seed`` (a search
    derives each game's seed from it).  For the see-saw, ``max_evals``
    caps the best-response updates of one restart, rounded up to whole
    sweeps: a sweep over every (player, question bit) is 2n updates, so a
    restart runs at most ceil(max_evals / 2n) sweeps.  It stops early once
    a sweep raises its gain by less than ``tol``.  A sweep from a SQUAREM
    trial point counts like any other, and is tested against ``tol`` too
    unless its trial failed.  The torus path
    (XOR games on GHZ-type states) reads ``restarts`` and the seed only:
    every start takes a fixed number of sweeps, and each game's best
    swept start a fixed number of Newton steps.
    """

    restarts: int = 20
    max_evals: int = 5000
    tol: float = 1e-6
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.restarts <= 0 or self.max_evals <= 0 or not 0 < self.tol < math.inf:
            raise ValueError("restarts, max_evals and tol must all be positive and finite")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass
class GameResult:
    """Outcome of one game: exact classical optimum and best-found quantum gain."""

    equation: GameEquation
    classical_gain: float | None
    quantum_gain: float | None
    quantum_strategy: QuantumStrategy | None
    gap: float | None
    state: str
    seed: int

    def to_json_dict(self) -> dict:
        strategy = None
        if self.quantum_strategy is not None:
            strategy = {"angles": self.quantum_strategy.reduced_angles().tolist()}
        return {
            "f": self.equation.f.to_text(),
            "g": self.equation.g.to_text(),
            "classical": self.classical_gain,
            "quantum": self.quantum_gain,
            "gap": self.gap,
            "strategy": strategy,
            "state": self.state,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "GameResult":
        strategy = None
        if record.get("strategy") is not None:
            strategy = QuantumStrategy(np.array(record["strategy"]["angles"]))
        eq = GameEquation(TruthTable.from_text(record["f"]), TruthTable.from_text(record["g"]))
        return cls(eq, record["classical"], record["quantum"], strategy, record["gap"],
                   record["state"], record["seed"])


# --- Classical search -----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _answer_words(g: TruthTable) -> np.ndarray:
    """Read-only (2**2n,) intp words (no cast in take): bit q of word s is g(s's answers to q)."""
    n = g.arity
    strategies = np.arange(1 << (2 * n))[:, None]
    questions = np.arange(1 << n)[None, :]
    answers = np.zeros((1 << (2 * n), 1 << n), dtype=np.int64)
    for i in range(n):
        qbit = (questions >> (n - 1 - i)) & 1
        hbit = (strategies >> (2 * (n - 1 - i) + (1 - qbit))) & 1
        answers |= hbit << (n - 1 - i)
    words = (g.values()[answers] << questions).sum(axis=1).astype(np.intp)
    words.flags.writeable = False
    return words


@functools.cache
def _popcounts() -> np.ndarray:
    """Set bits of every 16-bit word, built by doubling in uint8 (read-only)."""
    counts = np.zeros(1 << 16, dtype=np.uint8)
    for k in range(16):
        np.add(counts[:1 << k], 1, out=counts[1 << k:2 << k])
    counts.flags.writeable = False
    return counts


@functools.cache
def _strategies(n: int) -> np.ndarray:
    """Every deterministic strategy of n players, by encoding (read-only; frozen, so shared)."""
    table = np.array([ClassicalStrategy(n, s) for s in range(1 << (2 * n))], dtype=object)
    table.flags.writeable = False
    return table


def _classical_values(g: TruthTable, functions: Sequence[TruthTable]) -> list[float]:
    """``classical_best(GameEquation(f, g))[0]`` of every f: one xor and popcount for all."""
    size = 1 << g.arity
    words = _answer_words(g) ^ np.array([f.bits for f in functions])[:, None]
    return ((size - _popcounts().take(words).min(axis=1)) / size).tolist()


def classical_best(eq: GameEquation) -> tuple[float, list[ClassicalStrategy]]:
    """Exhaustive exact optimum over all deterministic strategies.

    Returns the best gain (an integer multiple of 2**-n) and every
    maximizing strategy in increasing encoding order.

    Strategy s wins question q when g(its answers to q) equals f(q).  Bit q
    of ``g``'s cached answer word s is g(answers of s to q), and bit q of
    ``f.bits`` is f(q), so s loses exactly on the set bits of
    ``word ^ f.bits``: one xor and a popcount table lookup score all
    2**(2n) strategies, and the fewest mismatches give the maximizers.
    The strategies returned are shared, frozen objects.
    """
    n = eq.arity
    size = 1 << n
    mismatches = _popcounts().take(_answer_words(eq.g) ^ eq.f.bits)
    fewest = mismatches[mismatches.argmin()]
    return (size - int(fewest)) / size, _strategies(n)[mismatches == fewest].tolist()


# --- Quantum search -------------------------------------------------------------

#: Rows of one see-saw block, at most: ``_optimize_games`` runs its see-saw
#: rows in consecutive blocks of this many.  ``_split_tasks`` gives a search
#: task at most this many start rows (or one game, if that has more), so a
#: task is one block.  At the default 20 restarts a task holds 64 games; at
#: n = 4 a block's start angles, Bloch rows and results take about 1 KB a
#: row, so a block holds about 1.3 MB whatever ``--restarts`` or the number
#: of games is.  On see-saw traffic (the 300-function stratified subsample,
#: seed 7, of the 2,191 classes, parity ``g``, 20 restarts, one worker;
#: 2 vCPUs, numpy 2.4; ten alternating runs), 640, 1280 and 2560 rows took
#: medians of 0.61, 0.55 and 0.58 s on ``w4`` and 0.31, 0.27 and 0.28 s on
#: ``mp``; 640 beat 1280 in 1 of 10 runs on each, 2560 in 1 on ``w4`` and
#: 6 on ``mp``.
_TASK_ROWS = 1280


#: SQUAREM on the see-saw's slow tail (Varadhan & Roland, Scand. J. Stat. 35,
#: 335, 2008): a row's sweeps run in cycles of three, and the third starts
#: from the extrapolated point when the second rose by more than
#: ``_TAIL_RATIO`` times the first.  The step length alpha is at most
#: ``_ALPHA_CAP``; alpha = -1 gives the plain point.  With 0.3 and -1, at 20
#: restarts and seeds 1-5, the GHZ game took 10-13 sweeps instead of
#: 10-24 on ``mp`` and ``c1``, and 43-70 instead of 298-472 on ``l_a4`` at
#: a = 100, where it now ends within 1.6e-6 of its long-run value instead
#: of 2.3e-5; the ``l_a2_0_3p1`` sweep's a = 1 point took 40-61 sweeps
#: instead of 144-227.
_TAIL_RATIO = 0.3
_ALPHA_CAP = -1.0


def _extrapolated(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The SQUAREM-S3 point of three successive (T, n, 2, 4) Bloch rows, made unit.

    Over each row's 2n stacked Bloch vectors, r = x1 - x0, v = x2 - 2 x1 + x0,
    alpha = min(-|r| / |v|, ``_ALPHA_CAP``) and x' = x0 - 2 alpha r + alpha^2 v
    (x' = x2 where v = 0).  Each Bloch vector of x' is then scaled to unit
    length, and one of length 0 becomes +z, as in a best response.
    """
    rows = x0.shape[0]
    r, v = x1 - x0, x2 - 2.0 * x1 + x0
    flat_r, flat_v = r.reshape(rows, 1, -1), v.reshape(rows, 1, -1)
    # one dot product per row, so that no row's step depends on the others
    rr = (flat_r @ flat_r.swapaxes(1, 2)).reshape(rows, 1, 1, 1)
    vv = (flat_v @ flat_v.swapaxes(1, 2)).reshape(rows, 1, 1, 1)
    alpha = np.minimum(-np.sqrt(rr / np.where(vv > 0, vv, np.inf)), _ALPHA_CAP)
    return _unit_bloch(x0 - 2.0 * alpha * r + alpha**2 * v)[0]


def _see_saw(
    kernel: GainKernel, starts: np.ndarray, game: np.ndarray, max_sweeps: int, tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched see-saw ascent from (R, n, 2, 4) start Bloch rows.

    Returns each row's final Bloch rows and the see-saw's own gain of them
    (from its last step, not re-evaluated).  Row r plays game ``game[r]``
    of the kernel, on that game's state.  A sweep replaces both question
    bits' rows of player 1 by their best response, then of player 2, and
    so on: 2n updates, none of which can lower a row's gain, and the last
    one gives the sweep's gain.  Each sweep of all live rows is one
    kernel call (``GainKernel.sweep``), in place.  A row stops when a
    sweep raises its gain by less than ``tol`` or after ``max_sweeps``
    sweeps.  The rows run in lockstep: all start together, and a row that
    stops is written out and leaves, so every live row has swept as often
    as the others.  Only a sweep where some row stops writes outputs and
    compacts the live rows.

    A slow tail is accelerated by SQUAREM (Varadhan & Roland 2008) on the
    rows themselves.  The sweeps, counted from the start, run in cycles of
    three.  The first two are plain, x0 -> x1 -> x2 with gains g0, g1, g2.
    From the second cycle on, if g2 - g1 > ``_TAIL_RATIO`` (g1 - g0), the
    row moves to the extrapolated point x' (``_extrapolated``) and the
    third sweep runs from x' to x3; otherwise the third sweep is plain.
    (The first cycle runs from a random start, before any slow tail: on
    the paper's games, trials there saved no sweeps.)  A row keeps x3 only
    if g3 > g2, and otherwise goes back to x2 and its gain without
    stopping.  A trial sweep counts as a sweep, and trial rows ride the
    regular sweep of all live rows.  Only sweeps 3c + 1 and 3c + 2 keep a
    copy of the rows they start from, x0 and x1, and only sweep 3c + 2
    runs the tail test.

    Every kernel step treats each row on its own, so a row's path does not
    depend on the other rows it runs with, whatever their number.
    """
    out, out_gains = np.empty_like(starts), np.empty(starts.shape[0])
    rows, row_game = np.arange(starts.shape[0]), game
    live = starts.copy()
    gains = kernel.bloch_gains(live, game)
    # per row: the rise of its last sweep; x0 and x1, its rows after sweeps 3c
    # and 3c + 1, which a trial after sweep 3c + 2 reads; the rows on trial,
    # and the plain point x2 that each goes back to
    rise = np.zeros(rows.size)
    x0 = x1 = trial = plain = None
    for sweep in range(1, max_sweeps + 1):
        # a cycle is two plain sweeps and one that may start from x'; the first
        # cycle, not yet on the tail, is all plain
        phase = sweep % 3 if sweep > 3 else 0
        if phase == 1:
            x0 = live.copy()
        elif phase == 2:
            x1 = live.copy()
        new_gains = kernel.sweep(live, row_game)
        new_rise = new_gains - gains
        if trial is not None:
            worse = ~(new_gains[trial] > gains[trial])
            back = trial[worse]
            live[back] = plain[worse]
            # a failed trial is no sign that the row has converged
            new_gains[back], new_rise[back] = gains[back], np.inf
            trial = None
        stop = (new_rise < tol) | (sweep == max_sweeps)
        if stop.any():
            out[rows[stop]], out_gains[rows[stop]] = live[stop], new_gains[stop]
            keep = ~stop
            if not keep.any():
                break
            rows, live, new_gains, new_rise, rise = (
                rows[keep], live[keep], new_gains[keep], new_rise[keep], rise[keep])
            row_game = game[rows]
            if phase:
                x0 = x0[keep]
            if phase == 2:
                x1 = x1[keep]
        if phase == 2:
            tail = np.flatnonzero(new_rise > _TAIL_RATIO * rise)
            if tail.size:
                trial, plain = tail, live[tail]
                live[trial] = _extrapolated(x0[trial], x1[trial], plain)
        gains, rise = new_gains, new_rise
    return out, out_gains


def _optimize_games(
    states: StateVector | Sequence[StateVector],
    eqs: GameEquation | Sequence[GameEquation],
    seeds: Sequence[int],
    cfg: OptimizerConfig,
    extra_starts: Sequence[Sequence[np.ndarray]] | None = None,
) -> list[tuple[float, QuantumStrategy]]:
    """``optimize_quantum`` for several games: the best strategy of each and its gain.

    Game j plays ``eqs[j]`` on ``states[j]``; a single state or equation is
    shared by every game, and the equations share one g (ValueError
    otherwise: one ``GainKernel`` holds every game).  It draws its starts
    from ``seeds[j]`` and adds the warm starts ``extra_starts[j]`` after them.

    The input picks each game's path.  An XOR game on a GHZ-type state,
    which ``torus.xor_games`` reads off the kernel's g-hat, signs and
    states, takes the torus path, ``torus.optimize``, which reads only
    ``cfg.restarts``; ``max_evals`` and ``tol`` are see-saw settings.
    Every other game takes the see-saw: the restarts of all of them, in
    game order, run in consecutive blocks of at most ``_TASK_ROWS`` rows,
    so a block may split a game.  Each solver picks a game's best start by
    its own score (the torus value, the see-saw's gain), the first of the
    largest (``torus._leading``), and one kernel call then evaluates every
    game's returned angles afresh: that is the game's gain.  Each game's
    result is bit-identical to running it alone.
    """
    count = len(seeds)
    extra_starts = extra_starts or [()] * count
    kernel = GainKernel(states, eqs)
    on, signs, chi = torus.xor_games(kernel, count)
    on_torus, seesaw = np.flatnonzero(on), np.flatnonzero(~on)
    dim = 6 * kernel.n
    best = np.empty((count, kernel.n, 2, 3))
    if on_torus.size:
        best[on_torus] = torus.optimize(
            signs, chi, [seeds[j] for j in on_torus], cfg.restarts,
            [extra_starts[j] for j in on_torus])
    if seesaw.size:
        starts, counts = [], []
        for j in seesaw:
            rng = np.random.default_rng(seeds[j])
            starts.extend(rng.uniform(0.0, FOUR_PI, (cfg.restarts, dim)))
            starts.extend(np.asarray(s, dtype=float).reshape(dim) for s in extra_starts[j])
            counts.append(cfg.restarts + len(extra_starts[j]))
        game = np.repeat(seesaw, counts)
        start_rows = _bloch(np.array(starts).reshape(len(starts), kernel.n, 2, 3))
        max_sweeps = -(-cfg.max_evals // (2 * kernel.n))
        final, row_gains = np.empty_like(start_rows), np.empty(game.size)
        for lo in range(0, game.size, _TASK_ROWS):
            block = slice(lo, lo + _TASK_ROWS)
            final[block], row_gains[block] = _see_saw(
                kernel, start_rows[block], game[block], max_sweeps, cfg.tol)
        best[seesaw] = _angles_from_bloch(final[torus._leading(game, row_gains)])
    gains = kernel.gains(best.reshape(count, -1), np.arange(count))
    return [(float(gain), QuantumStrategy(angles)) for gain, angles in zip(gains, best)]


def optimize_quantum(
    psi: StateVector,
    eq: GameEquation,
    cfg: OptimizerConfig | None = None,
    extra_starts: Sequence[np.ndarray] = (),
) -> tuple[float, QuantumStrategy]:
    """The best strategy found for one game, and its win probability.

    An XOR game (``g`` parity or its complement) on a GHZ-type state takes
    the torus path: ``cfg.restarts`` seeded starts of an ascent over each
    player's phase difference (``torus.optimize``), which returns
    equatorial gates and reaches the game's quantum value.  Every other
    game takes the multi-start see-saw: each restart draws a start
    uniformly from [0, 4pi)^{6n}, turns it into Bloch rows and runs the
    see-saw of ``_see_saw``, with its SQUAREM step on slow tails; the
    restarts run in lockstep, in blocks of at most ``_TASK_ROWS``.  A
    restart stops when one sweep (2n best-response updates) raises its
    gain by less than ``cfg.tol``, or after ceil(``cfg.max_evals`` / 2n)
    sweeps.  ``extra_starts`` adds warm starts after the random restarts
    (used for sweep chaining).  The returned angles have phi = 0, and the
    returned gain is the win probability of the returned strategy,
    re-evaluated from its angles, never taken from the optimizer state.
    """
    cfg = cfg or OptimizerConfig()
    return _optimize_games(psi, eq, [cfg.seed], cfg, [extra_starts])[0]


# --- Batch search over a function space ------------------------------------------

def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def derive_task_seed(master_seed: int, index: int) -> int:
    """Stable per-game seed (``index``: function or grid point); same for any split or order."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _run_task(
    g: TruthTable,
    psi: StateVector,
    cfg: OptimizerConfig,
    state_descriptor: str,
    start: int,
    functions: Sequence[TruthTable],
) -> list[GameResult]:
    """The games of functions ``start``, ``start + 1``, ... against g, solved together.

    One ``_optimize_games`` call runs them: the restarts of its see-saw
    games form one block (unless one game has more than ``_TASK_ROWS``),
    and its torus games never enter it.

    A failure is raised again as a RuntimeError that names the task's
    function indices and seeds.
    """
    seeds = [derive_task_seed(cfg.seed, start + j) for j in range(len(functions))]
    try:
        eqs = [GameEquation(f, g) for f in functions]
        classical = _classical_values(g, functions)
        quantum = _optimize_games(psi, eqs, seeds, cfg)
    except Exception as exc:
        raise RuntimeError(
            f"search task over functions {start}-{start + len(functions) - 1} failed "
            f"(master seed {cfg.seed}, game seeds {seeds}): {exc!r}"
        ) from exc
    return [
        GameResult(eq, classical_gain, quantum_gain, strategy, quantum_gain - classical_gain,
                   state_descriptor, seed)
        for eq, seed, classical_gain, (quantum_gain, strategy)
        in zip(eqs, seeds, classical, quantum)
    ]


def _split_tasks(total: int, workers: int, restarts: int) -> list[tuple[int, int]]:
    """Near-equal contiguous [lo, hi) ranges of ``total`` functions for ``workers`` processes.

    Each range holds at most ``_TASK_ROWS`` start rows (``restarts`` a
    function) or one function, and there are at least ``workers`` ranges
    when there are that many functions.
    """
    games = max(1, _TASK_ROWS // restarts)
    count = max(-(-total // games), min(workers, total))
    return [(total * i // count, total * (i + 1) // count) for i in range(count)]


def search_space(
    g: TruthTable,
    psi: StateVector,
    cfg: OptimizerConfig,
    functions: Iterable[TruthTable],
    workers: int | None = None,
    state_descriptor: str = "custom",
    progress: Callable[[int, int], None] | None = None,
) -> list[GameResult]:
    """One GameResult per candidate f, in input order.

    The functions are split into contiguous tasks (``_split_tasks``), each
    run by one ``_optimize_games`` call, whose see-saw restarts form one
    block of rows; with ``workers`` > 1 the tasks are shared out across
    processes.  Every game is seeded from (cfg.seed, index), and its
    result does not depend on the other games of its task, so the output
    is identical for any worker count.  ``progress`` (done, total) is
    called from the coordinating process once per game, as each task
    finishes.
    """
    if g.arity != psi.n:
        raise ValueError(f"g has arity {g.arity} but the state has {psi.n} qubits")
    tables = list(functions)
    total = len(tables)
    workers = workers or usable_cpus()
    ranges = _split_tasks(total, workers, cfg.restarts)
    starts = [lo for lo, _ in ranges]
    parts = [tables[lo:hi] for lo, hi in ranges]
    results: list[GameResult] = []
    t0 = time.perf_counter()

    def finish(task_results: list[GameResult]):
        for result in task_results:
            results.append(result)
            done = len(results)
            if progress is not None:
                progress(done, total)
            elif done == total or done % 250 == 0:
                rate = done / max(time.perf_counter() - t0, 1e-9)
                logger.info(
                    "search progress: %d/%d functions, %.1f games/s, ETA %.0f s",
                    done, total, rate, (total - done) / rate,
                )

    run = functools.partial(_run_task, g, psi, cfg, state_descriptor)
    if workers <= 1 or len(ranges) <= 1:
        for task_results in map(run, starts, parts):
            finish(task_results)
    else:
        # the workers get the caller's own objects, pickled, so no state is re-normalized
        with ProcessPoolExecutor(max_workers=min(workers, len(ranges))) as pool:
            for task_results in pool.map(run, starts, parts):
                finish(task_results)
    return results


def game_score(results: Sequence[GameResult]) -> float:
    """Fraction of games whose quantum-classical gap strictly exceeds 1%."""
    if not results:
        raise ValueError("game_score needs a non-empty result list")
    hits = sum(1 for r in results if r.gap > GAP_THRESHOLD)
    return hits / len(results)


def average_gap(results: Sequence[GameResult]) -> float:
    """Mean gap over the games that qualify for the game score."""
    if not results:
        raise ValueError("average_gap needs a non-empty result list")
    gaps = [r.gap for r in results if r.gap > GAP_THRESHOLD]
    if not gaps:
        raise ValueError("no result exceeds the gap threshold")
    return sum(gaps) / len(gaps)


def stratified_subsample(
    functions: Sequence[TruthTable], size: int, seed: int
) -> list[TruthTable]:
    """Deterministic stratified pick: one seeded draw per contiguous stratum.

    Functions are taken in sorted table order and divided into ``size``
    near-equal strata; the seeded generator picks one member per stratum.
    """
    tables = sorted(functions, key=lambda t: (t.arity, t.bits))
    if size >= len(tables):
        return tables
    if size <= 0:
        raise ValueError("subsample size must be positive")
    rng = np.random.default_rng(np.random.SeedSequence((seed, len(tables), size)))
    edges = np.linspace(0, len(tables), size + 1).astype(int)
    return [tables[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:])]
