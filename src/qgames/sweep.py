"""Parameter-landscape sweeps over the four-qubit families.

A sweep builds the family state at every grid point (real-valued axes;
complex values enter through the fixed parameters), optimizes the quantum
strategy with a per-point derived seed, and records the gain.  Along the
primary axis the previous point's best angles are added as one extra warm
start, which removes optimizer noise from landscape plots; rows of a 2D
sweep are independent chains.  A sweep runs in one process: the see-saw
rows of step i of every chain run together in lockstep, each chain on its
own state.  A GHZ-type point of an XOR game takes the torus path instead,
which plays no warm starts: they feed see-saw points only.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .boolfn import GameEquation
from .quantum import (
    FAMILY_PARAM_NAMES,
    FamilyId,
    QuantumStrategy,
    check_family_params,
    make_family_state,
    random_family_params,
)
from .search import OptimizerConfig, _optimize_games, derive_task_seed


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("swept axes need at least 2 steps")
        if not self.start < self.stop:
            raise ValueError("axis range must be non-empty (start < stop)")
        if not math.isfinite(self.start) or not math.isfinite(self.stop):
            raise ValueError("axis range must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    family: FamilyId
    axes: tuple[SweepAxis, ...]
    equation: GameEquation
    fixed: dict[str, complex] = field(default_factory=dict)
    config: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep uses one or two axes")
        # a parameter swept twice, or both swept and fixed, is a repeat
        check_family_params(self.family, [ax.param for ax in self.axes] + list(self.fixed))
        if not all(cmath.isfinite(value) for value in self.fixed.values()):
            raise ValueError(f"fixed parameters must be finite, got {self.fixed}")


@dataclass(frozen=True)
class SweepPoint:
    coords: tuple[float, ...]
    valid: bool
    gain: float | None
    strategy: QuantumStrategy | None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    seed: int
    points: tuple[SweepPoint, ...]

    def gains_grid(self) -> np.ndarray:
        """Gains as a (steps0,) or (steps1, steps0) array; NaN where invalid."""
        shape = tuple(ax.steps for ax in reversed(self.spec.axes))
        flat = np.array([p.gain if p.valid else np.nan for p in self.points])
        return flat.reshape(shape)

    def to_csv(self) -> str:
        n = self.spec.equation.arity
        header = [ax.param for ax in self.spec.axes] + ["gain", "valid"]
        for i in range(1, n + 1):
            for q in (0, 1):
                header += [f"theta_{i}_{q}", f"phi_{i}_{q}", f"lambda_{i}_{q}"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for point in self.points:
            row = [repr(float(c)) for c in point.coords]
            if point.valid:
                row += [repr(float(point.gain)), "1"]
                row += [repr(float(a)) for a in point.strategy.reduced_angles().reshape(-1)]
            else:
                row += ["", "0"] + [""] * (6 * n)
            writer.writerow(row)
        return buf.getvalue()

    def sidecar_dict(self) -> dict:
        cfg = self.spec.config
        return {
            "family": self.spec.family.value,
            "axes": [
                {"param": ax.param, "start": ax.start, "stop": ax.stop, "steps": ax.steps}
                for ax in self.spec.axes
            ],
            "fixed": {k: [complex(v).real, complex(v).imag] for k, v in self.spec.fixed.items()},
            "f": self.spec.equation.f.to_text(),
            "g": self.spec.equation.g.to_text(),
            "config": {"restarts": cfg.restarts, "max_evals": cfg.max_evals, "tol": cfg.tol},
            "seed": self.seed,
        }


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the gain landscape on the grid, in deterministic raster order.

    Each value of the second axis (one chain for a 1D sweep) is a
    warm-start chain along the primary axis.  Step i of every chain is one
    ``_optimize_games`` call, each chain on its own state, in this process;
    a point's result does not depend on the other chains of its step.
    Degenerate grid points (zero state) are recorded as invalid and
    skipped: their chain carries its warm start on to its next point.
    """
    cfg = spec.config
    axis0 = spec.axes[0]
    rows = (None,) if len(spec.axes) == 1 else tuple(float(v) for v in spec.axes[1].values())
    chains: list[list[SweepPoint]] = [[] for _ in rows]
    warm: list[np.ndarray | None] = [None] * len(rows)
    for i, value in enumerate(axis0.values()):
        batch, states = [], []
        for j, row_value in enumerate(rows):
            params = dict(spec.fixed)
            coords = (float(value),)
            if row_value is not None:
                params[spec.axes[1].param] = row_value
                coords += (row_value,)
            params[axis0.param] = value
            try:
                states.append(make_family_state(spec.family, params))
            except ValueError:
                chains[j].append(SweepPoint(coords, False, None, None))
                continue
            batch.append((j, coords))
        if not batch:
            continue
        found = _optimize_games(
            states,
            spec.equation,
            [derive_task_seed(cfg.seed, j * axis0.steps + i) for j, _ in batch],
            cfg,
            [[] if warm[j] is None else [warm[j]] for j, _ in batch],
        )
        for (j, coords), (gain, strategy) in zip(batch, found):
            warm[j] = strategy.angles.reshape(-1)
            chains[j].append(SweepPoint(coords, True, gain, strategy))
    points = tuple(point for chain in chains for point in chain)
    return SweepResult(spec=spec, seed=cfg.seed, points=points)


@dataclass(frozen=True)
class FamilyReport:
    """Gains over seeded parameter draws for one family.

    ``best_gain`` is the best gain over the draws, all taken from the
    support of ``random_family_params`` (modulus in [0.2, 2]); it is not
    the family's supremum, which may lie outside that support or in a
    corner of it that few draws hit.
    """

    family: FamilyId
    best_gain: float
    average_gain: float | None
    draw_gains: tuple[float, ...]
    draw_params: tuple[dict[str, complex], ...]


def family_report(
    family: FamilyId,
    eq: GameEquation,
    draws: int,
    cfg: OptimizerConfig | None = None,
) -> FamilyReport:
    """Best and average optimized gain over seeded random parameter draws.

    The draws come from ``random_family_params``, so ``best_gain`` is the
    best gain over draws from its support (modulus in [0.2, 2], any
    phase), not the family's supremum; that may need parameters outside
    the support, as the GHZ limits of L_abc2, L_a2b2 and L_a2_0_3p1 do.

    All draws are one ``_optimize_games`` call, each on its own state; its
    see-saw rows run in blocks of at most ``_TASK_ROWS``, so the see-saw's
    working arrays stay bounded at any number of draws.
    Parameter-free families are evaluated once; their average is reported
    as not applicable (None).
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    cfg = cfg or OptimizerConfig()
    parametric = bool(FAMILY_PARAM_NAMES[family])
    params_used: list[dict[str, complex]] = []
    states, seeds = [], []
    for k in range(draws if parametric else 1):
        params_seed, draw_seed = np.random.SeedSequence((cfg.seed, k)).generate_state(2)
        params = random_family_params(family, int(params_seed)) if parametric else {}
        params_used.append(params)
        states.append(make_family_state(family, params))
        seeds.append(int(draw_seed))
    gains = [gain for gain, _ in _optimize_games(states, eq, seeds, cfg)]
    return FamilyReport(
        family=family,
        best_gain=max(gains),
        average_gain=(sum(gains) / len(gains)) if parametric else None,
        draw_gains=tuple(gains),
        draw_params=tuple(params_used),
    )
