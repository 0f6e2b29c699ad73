"""Best classical and quantum strategies, batch searches, and gap metrics.

The classical optimum is exact: all 2**(2n) deterministic strategies are
enumerated.  The quantum optimum is a multi-start see-saw ascent over every
player's measurements; every reported quantum gain is the re-evaluated win
probability of the returned strategy, so it is always an achievable lower
bound.

Batch searches derive one seed per function from (master seed, function
index), which makes results independent of worker count and schedule.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .boolfn import GameEquation, TruthTable
from .quantum import (
    FOUR_PI,
    GainKernel,
    QuantumStrategy,
    StateVector,
    _build_gate_stack,
    win_probability,
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
    f_vals = np.array([eq.f.value(q) for q in range(size)])
    g_vals = np.array([eq.g.value(a) for a in range(size)])
    wins = (g_vals[answers] == f_vals[None, :]).sum(axis=1)
    best = int(wins.max())
    maximizers = np.flatnonzero(wins == best)
    return best / size, [ClassicalStrategy(n, int(s)) for s in maximizers]


# --- Quantum search -------------------------------------------------------------

def _best_response_gates(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gates whose answer-0 projector maximizes <u|D|u> for D = [[c + h, b], [b*, c - h]].

    The top eigenvector of D is u = (cos t/2, e^{-i w} sin t/2) up to a
    phase, with t = atan2(|b|, h) and w the phase of b (any w will do when
    b = 0).  The returned gate has conj(u) as its first row, so it answers
    0 on exactly u.
    """
    t = np.arctan2(np.abs(b), h) / 2.0
    c, s = np.cos(t), np.sin(t)
    w = np.exp(1j * np.angle(b))
    return np.stack([c, w * s, s, -w * c], axis=-1).reshape(h.shape + (2, 2))


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


def _see_saw(kernel: GainKernel, gates: np.ndarray, max_updates: int, tol: float) -> np.ndarray:
    """Batched see-saw ascent from (R, n, 2, 2, 2) start gates; returns the final gates.

    With every other player's gates fixed, the win probability is linear in
    one player's answer-0 projector for one question bit, so its best
    rank-1 response is the top eigenvector of a 2x2 Hermitian operator
    (Werner & Wolf 2001; Liang & Doherty 2007).  A sweep replaces both
    question bits' gates of player 1, then of player 2, and so on: 2n
    updates, none of which can lower a row's gain.  A row stops when a
    sweep raises its gain by less than ``tol`` or when it has made
    ``max_updates`` updates; rows that stop leave the batch.
    """
    out = np.empty_like(gates)
    rows = np.arange(gates.shape[0])
    gates = gates.copy()
    amps = kernel.amplitudes(gates)
    gains = kernel.gains_of(amps)
    updates = 0
    while rows.size:
        for k in range(kernel.n):
            bits = min(2, max_updates - updates)
            if bits <= 0:
                break
            updates += bits
            partial = kernel.partial_amplitudes(amps, gates[:, k], k)
            new = _best_response_gates(*kernel.response_operator(partial, k))
            if bits == 1:
                new[:, 1] = gates[:, k, 1]
            gates[:, k] = new
            amps = kernel.amplitudes_from_partial(partial, new)
        new_gains = kernel.gains_of(amps)
        stop = (new_gains - gains < tol) | (updates >= max_updates)
        out[rows[stop]] = gates[stop]
        keep = ~stop
        rows, gates, amps, gains = rows[keep], gates[keep], amps[keep], new_gains[keep]
    return out


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
    returned gain is re-evaluated from the returned strategy, never taken
    from the optimizer state.
    """
    if psi.n != eq.arity:
        raise ValueError(f"state has {psi.n} qubits but the equation arity is {eq.arity}")
    cfg = cfg or OptimizerConfig()
    kernel = GainKernel(psi, eq)
    dim = 6 * psi.n
    rng = np.random.default_rng(cfg.seed)
    starts = [rng.uniform(0.0, FOUR_PI, dim) for _ in range(cfg.restarts)]
    starts.extend(np.asarray(s, dtype=float).reshape(dim) for s in extra_starts)
    start_gates = _build_gate_stack(np.array(starts).reshape(len(starts), psi.n, 2, 3))
    angles = _angles_from_gates(_see_saw(kernel, start_gates, cfg.max_evals, cfg.tol))
    best = int(np.argmax(kernel.gains(angles.reshape(len(starts), dim))))
    strategy = QuantumStrategy(angles[best])
    return win_probability(psi, strategy, eq), strategy


# --- Batch search over a function space ------------------------------------------

def derive_task_seed(master_seed: int, index: int) -> int:
    """Stable per-task seed; independent of execution order and worker count."""
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


def _run_game(
    f: TruthTable,
    g: TruthTable,
    psi: StateVector,
    cfg: OptimizerConfig,
    state_descriptor: str,
    task_seed: int,
) -> GameResult:
    t0 = time.perf_counter()
    eq = GameEquation(f, g)
    classical_gain, maximizers = classical_best(eq)
    quantum_gain, strategy = optimize_quantum(psi, eq, replace(cfg, seed=task_seed))
    return GameResult(
        equation=eq,
        classical_gain=classical_gain,
        classical_strategy=maximizers[0],
        quantum_gain=quantum_gain,
        quantum_strategy=strategy,
        gap=quantum_gain - classical_gain,
        state=state_descriptor,
        config=cfg,
        seed=task_seed,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    )


_WORKER_CONTEXT: dict = {}


def _worker_init(g_text: str, amplitudes: np.ndarray, cfg: OptimizerConfig, descriptor: str):
    _WORKER_CONTEXT["g"] = TruthTable.from_text(g_text)
    _WORKER_CONTEXT["psi"] = StateVector(amplitudes)
    _WORKER_CONTEXT["cfg"] = cfg
    _WORKER_CONTEXT["descriptor"] = descriptor


def _worker_task(args: tuple[int, int, int]) -> tuple[int, GameResult]:
    index, f_bits, task_seed = args
    ctx = _WORKER_CONTEXT
    g: TruthTable = ctx["g"]
    f = TruthTable(g.arity, f_bits)
    result = _run_game(f, g, ctx["psi"], ctx["cfg"], ctx["descriptor"], task_seed)
    return index, result


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

    Tasks are independent and seeded from (cfg.seed, index), so the output
    is identical for any worker count.  ``progress`` (done, total) is called
    from the coordinating process.
    """
    if g.arity != psi.n:
        raise ValueError(f"g has arity {g.arity} but the state has {psi.n} qubits")
    tables = list(functions)
    total = len(tables)
    tasks = [(i, t.bits, derive_task_seed(cfg.seed, i)) for i, t in enumerate(tables)]
    workers = workers or os.cpu_count() or 1
    results: list[GameResult | None] = [None] * total

    def note_progress(done: int):
        if progress is not None:
            progress(done, total)
        elif done == total or done % 250 == 0:
            logger.info("search progress: %d/%d functions", done, total)

    if workers <= 1 or total <= 1:
        _worker_init(g.to_text(), psi.amplitudes, cfg, state_descriptor)
        for i, f_bits, task_seed in tasks:
            _, results[i] = _worker_task((i, f_bits, task_seed))
            note_progress(i + 1)
    else:
        chunk = max(1, total // (workers * 8))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(g.to_text(), psi.amplitudes, cfg, state_descriptor),
        ) as pool:
            done = 0
            for index, result in pool.map(_worker_task, tasks, chunksize=chunk):
                results[index] = result
                done += 1
                note_progress(done)
    return results  # type: ignore[return-value]


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
