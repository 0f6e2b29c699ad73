"""Best classical and quantum strategies, batch searches, and gap metrics.

The classical optimum is exact: all 2**(2n) deterministic strategies are
enumerated.  The quantum optimum is a multi-start see-saw ascent over every
player's measurements; every reported quantum gain is the re-evaluated win
probability of the returned strategy, so it is always an achievable lower
bound.

Batch searches play every function against one ``g`` on one state.  They
split the functions into contiguous tasks, and each task runs the restarts
of all its games through one refilled see-saw pool: a fixed number of
rows, each with its own game's win mask, where a row that stops makes room
for the next waiting restart.  Worker processes take whole tasks.  Every
game is seeded from (master seed, function index), and no game's result
depends on the other games of its task, which makes results independent of
worker count and schedule.
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
from .quantum import (
    FOUR_PI,
    GainKernel,
    QuantumStrategy,
    StateVector,
    _build_gate_stack,
)

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
    """See-saw settings.

    ``restarts`` random starts run per game; ``max_evals`` caps the
    best-response updates of one restart, where a sweep over every
    (player, question bit) is 2n updates; a restart stops early once a
    sweep raises its gain by less than ``tol``.
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
    elapsed_ms: float | None = None

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
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "GameResult":
        strategy = None
        if record.get("strategy") is not None:
            strategy = QuantumStrategy(np.array(record["strategy"]["angles"]))
        eq = GameEquation(TruthTable.from_text(record["f"]), TruthTable.from_text(record["g"]))
        return cls(eq, record["classical"], record["quantum"], strategy, record["gap"],
                   record["state"], record["seed"], record.get("elapsed_ms"))


# --- Classical search -----------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _answer_words(g: TruthTable) -> np.ndarray:
    """(2**2n,) uint16 words: bit q of word s is g(strategy s's answers to q) (read-only)."""
    n = g.arity
    strategies = np.arange(1 << (2 * n))[:, None]
    questions = np.arange(1 << n)[None, :]
    answers = np.zeros((1 << (2 * n), 1 << n), dtype=np.int64)
    for i in range(n):
        qbit = (questions >> (n - 1 - i)) & 1
        hbit = (strategies >> (2 * (n - 1 - i) + (1 - qbit))) & 1
        answers |= hbit << (n - 1 - i)
    words = (g.values()[answers] << questions).sum(axis=1).astype(np.uint16)
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
def _strategies(n: int) -> tuple[ClassicalStrategy, ...]:
    """Every deterministic strategy of n players, indexed by encoding (frozen, so shared)."""
    return tuple(ClassicalStrategy(n, s) for s in range(1 << (2 * n)))


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
    strategies = _strategies(n)
    return (size - int(fewest)) / size, [
        strategies[s] for s in np.flatnonzero(mismatches == fewest).tolist()
    ]


# --- Quantum search -------------------------------------------------------------

def _angles_from_gates(gates: np.ndarray) -> np.ndarray:
    """(..., 2, 2) gates -> (..., 3) angles with phi = 0 and the same win probabilities.

    Only the first row matters: the second is fixed up to a phase, which
    no win probability sees.  The row's phase is chosen so that cos(t/2) >= 0.
    """
    r0, r1 = gates[..., 0, 0], gates[..., 0, 1]
    # -e^{i lam} has the phase of r1 * conj(r0); any lam will do when sin(t/2) = 0
    turn = -r1 * np.where(r0 == 0, 1.0, r0.conj())
    lam = np.where(turn == 0, 0.0, np.angle(turn))
    theta = 2.0 * np.arctan2(np.abs(r1), np.abs(r0))
    return np.stack([theta, np.zeros_like(theta), lam], axis=-1)


#: Rows of a see-saw pool: ``_see_saw`` runs at most this many restarts at
#: once, and a restart that stops makes room for the next waiting one, so a
#: search task's best responses run on full batches until its last
#: restarts drain.  On the 300-function GHZ4 subsample at one worker
#: (2 vCPUs, numpy 2.4), pools of 60, 120, 240 and 480 rows took 0.46,
#: 0.43, 0.45 and 0.46 s.  ``TestChunkedSearch`` needs a pool below 150
#: rows, so that its 10 games at 30 restarts fill more than two pools.
_CHUNK_ROWS = 120


def _see_saw(
    kernel: GainKernel, gates: np.ndarray, game: np.ndarray, max_updates: int, tol: float,
    capacity: int = _CHUNK_ROWS,
) -> np.ndarray:
    """Batched see-saw ascent from (R, n, 2, 2, 2) start gates; returns the final gates.

    Row r plays game ``game[r]`` of the kernel, on that game's state.  A
    sweep replaces both question bits' gates of player 1 by their best
    response (``GainKernel.best_response``), then of player 2, and so on:
    2n updates, none of which can lower a row's gain.  A row stops when a
    sweep raises its gain by less than ``tol`` or when it has made
    ``max_updates`` updates of its own.  A row whose budget ends inside a
    sweep gets back its start-of-sweep gates from its budget on; as a
    player's new gates depend only on the others', they are bit for bit
    those of ``max_updates`` single updates.

    At most ``capacity`` rows run at once.  At each sweep boundary, where
    every running row is back in layout 0, the rows that stopped leave and
    the next waiting rows take their slots through ``amplitudes``.  Every
    kernel step treats each row on its own, so a row's path does not
    depend on the other rows it runs with, whatever their number.
    """
    total = gates.shape[0]
    sweep = 2 * kernel.n

    def start(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        amps = kernel.amplitudes(gates[rows], game[rows])
        return gates[rows], amps, kernel.gains_of(amps, game[rows])

    out = np.empty_like(gates)
    admitted = min(capacity, total)
    rows = np.arange(admitted)
    live, amps, gains = start(rows)
    updates = np.zeros(rows.size, dtype=int)
    while rows.size:
        row_game = game[rows]
        left = max_updates - updates
        capped = np.flatnonzero(left < sweep)
        kept = live[capped]
        for k in range(kernel.n):
            amps, live[:, k] = kernel.best_response(amps, live[:, k], k, row_game)
        if capped.size:
            # update 2k + q of a sweep is player k's question-q gate
            update = np.arange(sweep).reshape(1, kernel.n, 2, 1, 1)
            past = update >= left[capped].reshape(-1, 1, 1, 1, 1)
            live[capped] = np.where(past, kept, live[capped])
        updates += sweep
        new_gains = kernel.gains_of(amps, row_game)
        stop = (updates >= max_updates) | (new_gains - gains < tol)
        out[rows[stop]] = live[stop]
        gains = new_gains
        slots = np.flatnonzero(stop)[:total - admitted]
        if slots.size:
            rows[slots] = np.arange(admitted, admitted + slots.size)
            admitted += slots.size
            live[slots], amps[slots], gains[slots] = start(rows[slots])
            updates[slots] = 0
            stop[slots] = False
        keep = ~stop
        rows, live, amps, gains, updates = (
            rows[keep], live[keep], amps[keep], gains[keep], updates[keep]
        )
    return out


def _optimize_games(
    states: StateVector | Sequence[StateVector],
    eqs: GameEquation | Sequence[GameEquation],
    seeds: Sequence[int],
    cfg: OptimizerConfig,
    extra_starts: Sequence[Sequence[np.ndarray]] | None = None,
) -> list[tuple[float, QuantumStrategy]]:
    """``optimize_quantum`` for several games, run through one see-saw pool.

    Game j plays ``eqs[j]`` on ``states[j]``; a single state or equation is
    shared by every game.  It draws its restarts from ``seeds[j]`` and adds
    the warm starts ``extra_starts[j]`` after them.  Each game's result is
    bit-identical to running it alone.
    """
    kernel = GainKernel(states, eqs)
    dim = 6 * kernel.n
    starts, counts = [], []
    for seed, extras in zip(seeds, extra_starts or [()] * len(seeds)):
        rng = np.random.default_rng(seed)
        starts.extend(rng.uniform(0.0, FOUR_PI, (cfg.restarts, dim)))
        starts.extend(np.asarray(s, dtype=float).reshape(dim) for s in extras)
        counts.append(cfg.restarts + len(extras))
    game = np.repeat(np.arange(len(seeds)), counts)
    start_gates = _build_gate_stack(np.array(starts).reshape(len(starts), kernel.n, 2, 3))
    angles = _angles_from_gates(
        _see_saw(kernel, start_gates, game, cfg.max_evals, cfg.tol)
    )
    # the gains of the returned angles, evaluated afresh: never the optimizer state;
    # a pool's rows at a time, so that memory stays bounded by the pool
    flat = angles.reshape(len(starts), dim)
    gains = np.concatenate([
        kernel.gains(flat[lo:lo + _CHUNK_ROWS], game[lo:lo + _CHUNK_ROWS])
        for lo in range(0, len(starts), _CHUNK_ROWS)
    ])
    results = []
    for lo, count in zip(np.cumsum([0] + counts[:-1]), counts):
        best = lo + int(np.argmax(gains[lo:lo + count]))
        results.append((float(gains[best]), QuantumStrategy(angles[best])))
    return results


def optimize_quantum(
    psi: StateVector,
    eq: GameEquation,
    cfg: OptimizerConfig | None = None,
    extra_starts: Sequence[np.ndarray] = (),
) -> tuple[float, QuantumStrategy]:
    """Multi-start see-saw ascent over every player's measurements.

    Each restart draws a start uniformly from [0, 4pi)^{6n}, turns it into
    gates and runs the see-saw of ``_see_saw``; all restarts run as one
    batch.  A restart stops when one sweep (2n best-response updates)
    raises its gain by less than ``cfg.tol``, or after ``cfg.max_evals``
    updates.  ``extra_starts`` adds warm starts after the random restarts
    (used for sweep chaining).  The returned angles have phi = 0, and the
    returned gain is the win probability of the returned strategy,
    re-evaluated from its angles, never taken from the optimizer state.
    """
    cfg = cfg or OptimizerConfig()
    return _optimize_games(psi, eq, [cfg.seed], cfg, [extra_starts])[0]


# --- Batch search over a function space ------------------------------------------

#: Start rows of one search task, at most, unless one game has more: a
#: task's restarts share one see-saw pool, which runs part-empty only while
#: the task's last restarts drain.  At the default 20 restarts a task holds
#: 64 games; at n = 4 the task's start gates and results take about 2.7 KB
#: a row, so a task holds about 3.5 MB whatever ``--restarts`` is.
_TASK_ROWS = 1280


def derive_task_seed(master_seed: int, index: int) -> int:
    """Stable per-task seed; independent of execution order and worker count."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _run_task(
    g: TruthTable,
    psi: StateVector,
    cfg: OptimizerConfig,
    state_descriptor: str,
    start: int,
    functions: Sequence[TruthTable],
) -> list[GameResult]:
    """The games of functions ``start``, ``start + 1``, ... against g, in one see-saw pool.

    A failure is raised again as a RuntimeError that names the task's
    function indices and seeds.
    """
    seeds = [derive_task_seed(cfg.seed, start + j) for j in range(len(functions))]
    try:
        eqs = [GameEquation(f, g) for f in functions]
        classical = [classical_best(eq)[0] for eq in eqs]
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
    run in one see-saw pool; with ``workers`` > 1 the tasks are shared out
    across processes.  Every game is seeded from (cfg.seed, index), and its
    result does not depend on the other games of its task, so the output
    is identical for any worker count.  ``progress`` (done, total) is
    called from the coordinating process once per game, as each task
    finishes.
    """
    if g.arity != psi.n:
        raise ValueError(f"g has arity {g.arity} but the state has {psi.n} qubits")
    tables = list(functions)
    total = len(tables)
    workers = workers or os.cpu_count() or 1
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
