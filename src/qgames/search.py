"""Best classical and quantum strategies, batch searches, and gap metrics.

The classical optimum is exact: all 2**(2n) deterministic strategies are
enumerated.  The quantum optimum is a multi-start see-saw ascent over every
player's measurements; every reported quantum gain is the re-evaluated win
probability of the returned strategy, so it is always an achievable lower
bound.

Batch searches play every function against one ``g`` on one state, so
they run fixed chunks of consecutive games through one see-saw batch, each
row with its own game's win mask; worker processes take whole chunks.
Every game is seeded from (master seed, function index), and no game's
result depends on the other games of its chunk, which makes results
independent of worker count and schedule.
"""

from __future__ import annotations

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


@dataclass
class GameResult:
    """Outcome of one game: exact classical optimum and best-found quantum gain."""

    equation: GameEquation
    classical_gain: float
    classical_strategy: ClassicalStrategy | None
    quantum_gain: float
    quantum_strategy: QuantumStrategy | None
    gap: float
    state: str
    config: OptimizerConfig | None
    seed: int
    elapsed_ms: float | None = None

    def to_json_dict(self, include_timing: bool = False) -> dict:
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
            "elapsed_ms": self.elapsed_ms if include_timing else None,
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "GameResult":
        strategy = None
        if record.get("strategy") is not None:
            strategy = QuantumStrategy(np.array(record["strategy"]["angles"]))
        return cls(
            equation=GameEquation(
                TruthTable.from_text(record["f"]), TruthTable.from_text(record["g"])
            ),
            classical_gain=record["classical"],
            classical_strategy=None,
            quantum_gain=record["quantum"],
            quantum_strategy=strategy,
            gap=record["gap"],
            state=record["state"],
            config=None,
            seed=record["seed"],
            elapsed_ms=record.get("elapsed_ms"),
        )


# --- Classical search -----------------------------------------------------------

def _answer_index_table(n: int) -> np.ndarray:
    """(2**2n, 2**n) matrix: answer index produced by strategy s on question q."""
    strategies = np.arange(1 << (2 * n))[:, None]
    questions = np.arange(1 << n)[None, :]
    answers = np.zeros((1 << (2 * n), 1 << n), dtype=np.int64)
    for i in range(n):
        qbit = (questions >> (n - 1 - i)) & 1
        hbit = (strategies >> (2 * (n - 1 - i) + (1 - qbit))) & 1
        answers |= hbit << (n - 1 - i)
    return answers


_ANSWER_TABLE_CACHE: dict[int, np.ndarray] = {}


def classical_best(eq: GameEquation) -> tuple[float, list[ClassicalStrategy]]:
    """Exhaustive exact optimum over all deterministic strategies.

    Returns the best gain (an integer multiple of 2**-n) and every
    maximizing strategy in increasing encoding order.
    """
    n = eq.arity
    if n not in _ANSWER_TABLE_CACHE:
        _ANSWER_TABLE_CACHE[n] = _answer_index_table(n)
    answers = _ANSWER_TABLE_CACHE[n]
    size = 1 << n
    wins = (eq.g.values()[answers] == eq.f.values()[None, :]).sum(axis=1)
    best = int(wins.max())
    maximizers = np.flatnonzero(wins == best)
    return best / size, [ClassicalStrategy(n, int(s)) for s in maximizers]


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


def _see_saw(
    kernel: GainKernel, gates: np.ndarray, game: np.ndarray, max_updates: int, tol: float
) -> np.ndarray:
    """Batched see-saw ascent from (R, n, 2, 2, 2) start gates; returns the final gates.

    Row r plays game ``game[r]`` of the kernel.  A sweep replaces both
    question bits' gates of player 1 by their best response
    (``GainKernel.best_response``), then of player 2, and so on: 2n
    updates, none of which can lower a row's gain.  A row stops when a
    sweep raises its gain by less than ``tol`` or when it has made
    ``max_updates`` updates; rows that stop leave the batch.  Every kernel
    step treats each row on its own, so a row's path does not depend on
    the other rows of the batch.
    """
    out = np.empty_like(gates)
    rows = np.arange(gates.shape[0])
    gates = gates.copy()
    amps = kernel.amplitudes(gates)
    gains = kernel.gains_of(amps, game)
    updates = 0
    while rows.size:
        for k in range(kernel.n):
            bits = min(2, max_updates - updates)
            if bits <= 0:
                break
            updates += bits
            amps, gates[:, k] = kernel.best_response(amps, gates[:, k], k, game, bits)
        if updates >= max_updates:
            out[rows] = gates
            break
        new_gains = kernel.gains_of(amps, game)
        stop = new_gains - gains < tol
        out[rows[stop]] = gates[stop]
        keep = ~stop
        rows, gates, amps, gains, game = (
            rows[keep], gates[keep], amps[keep], new_gains[keep], game[keep]
        )
    return out


def _optimize_games(
    psi: StateVector,
    eqs: Sequence[GameEquation],
    seeds: Sequence[int],
    cfg: OptimizerConfig,
    extra_starts: Sequence[np.ndarray] = (),
) -> list[tuple[float, QuantumStrategy]]:
    """``optimize_quantum`` for several games on one state, run as one see-saw batch.

    Game j draws its restarts from ``seeds[j]``; each game's result is
    bit-identical to running it alone.
    """
    dim = 6 * psi.n
    extras = [np.asarray(s, dtype=float).reshape(dim) for s in extra_starts]
    starts = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        starts.extend(rng.uniform(0.0, FOUR_PI, dim) for _ in range(cfg.restarts))
        starts.extend(extras)
    per_game = cfg.restarts + len(extras)
    game = np.repeat(np.arange(len(eqs)), per_game)
    kernel = GainKernel(psi, eqs)
    start_gates = _build_gate_stack(np.array(starts).reshape(len(starts), psi.n, 2, 3))
    angles = _angles_from_gates(_see_saw(kernel, start_gates, game, cfg.max_evals, cfg.tol))
    # the gains of the returned angles, evaluated afresh: never the optimizer state
    gains = kernel.gains(angles.reshape(len(starts), dim), game).reshape(len(eqs), per_game)
    best = np.argmax(gains, axis=1)
    return [
        (float(gains[j, b]), QuantumStrategy(angles[j * per_game + b])) for j, b in enumerate(best)
    ]


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
    if psi.n != eq.arity:
        raise ValueError(f"state has {psi.n} qubits but the equation arity is {eq.arity}")
    cfg = cfg or OptimizerConfig()
    return _optimize_games(psi, [eq], [cfg.seed], cfg, extra_starts)[0]


# --- Batch search over a function space ------------------------------------------

#: Rows of one search see-saw batch: a search runs its games in chunks of
#: ``_CHUNK_ROWS // restarts`` consecutive functions (at least one), six at
#: the default 20 restarts.  On a 12-game GHZ4 search, 80, 120 and 240 rows
#: per batch ran 430-480, 460-520 and 500-600 games per second; peak memory
#: grows with the batch, by about 0.7 MB from 120 to 240 rows.  Above 149
#: rows, ``TestChunkedSearch``'s 10 games at 30 restarts fit in two chunks
#: and no longer cover a game in a middle chunk.
_CHUNK_ROWS = 120


def derive_task_seed(master_seed: int, index: int) -> int:
    """Stable per-task seed; independent of execution order and worker count."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _run_chunk(
    g: TruthTable,
    psi: StateVector,
    cfg: OptimizerConfig,
    state_descriptor: str,
    start: int,
    f_bits: Sequence[int],
) -> list[GameResult]:
    """The games of functions ``start``, ``start + 1``, ... against g, in one see-saw batch.

    Each game's ``elapsed_ms`` is its even share of the chunk's wall time.
    """
    t0 = time.perf_counter()
    eqs = [GameEquation(TruthTable(g.arity, bits), g) for bits in f_bits]
    seeds = [derive_task_seed(cfg.seed, start + j) for j in range(len(eqs))]
    classical = [classical_best(eq) for eq in eqs]
    quantum = _optimize_games(psi, eqs, seeds, cfg)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0 / len(eqs)
    return [
        GameResult(
            equation=eq,
            classical_gain=classical_gain,
            classical_strategy=maximizers[0],
            quantum_gain=quantum_gain,
            quantum_strategy=strategy,
            gap=quantum_gain - classical_gain,
            state=state_descriptor,
            config=cfg,
            seed=seed,
            elapsed_ms=elapsed_ms,
        )
        for eq, seed, (classical_gain, maximizers), (quantum_gain, strategy)
        in zip(eqs, seeds, classical, quantum)
    ]


_WORKER_CONTEXT: dict = {}


def _worker_init(g_text: str, amplitudes: np.ndarray, cfg: OptimizerConfig, descriptor: str):
    _WORKER_CONTEXT["search"] = (
        TruthTable.from_text(g_text), StateVector(amplitudes), cfg, descriptor
    )


def _worker_chunk(task: tuple[int, list[int]]) -> list[GameResult]:
    return _run_chunk(*_WORKER_CONTEXT["search"], *task)


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

    Consecutive functions run in fixed chunks that share one see-saw
    batch; with ``workers`` > 1 the chunks are split across processes.
    Every game is seeded from (cfg.seed, index), and its result does not
    depend on the other games of its chunk, so the output is identical for
    any worker count.  ``progress`` (done, total) is called from the
    coordinating process once per game, as each chunk finishes.
    """
    if g.arity != psi.n:
        raise ValueError(f"g has arity {g.arity} but the state has {psi.n} qubits")
    tables = list(functions)
    total = len(tables)
    size = max(1, _CHUNK_ROWS // cfg.restarts)
    tasks = [(lo, [t.bits for t in tables[lo:lo + size]]) for lo in range(0, total, size)]
    workers = workers or os.cpu_count() or 1
    results: list[GameResult] = []
    t0 = time.perf_counter()

    def finish(chunk: list[GameResult]):
        for result in chunk:
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

    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            finish(_run_chunk(g, psi, cfg, state_descriptor, *task))
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(g.to_text(), psi.amplitudes, cfg, state_descriptor),
        ) as pool:
            for chunk in pool.map(_worker_chunk, tasks):
                finish(chunk)
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
