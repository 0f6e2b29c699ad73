"""Parameter-landscape sweeps over the four-qubit families.

A sweep builds the family state at every grid point (real-valued axes;
complex values enter through the fixed parameters), optimizes the quantum
strategy with a per-point derived seed, and records the gain.  Along the
primary axis the previous point's best angles are added as one extra warm
start, which removes optimizer noise from landscape plots; rows of a 2D
sweep are independent chains.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .boolfn import GameEquation
from .quantum import FAMILY_PARAM_NAMES, FamilyId, QuantumStrategy, make_family_state, random_family_params
from .search import OptimizerConfig, derive_task_seed, optimize_quantum


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
    fixed: dict[str, complex] | None = None
    config: OptimizerConfig | None = None
    output_path: str | None = None

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("a sweep uses one or two axes")
        names = FAMILY_PARAM_NAMES[self.family]
        swept = [ax.param for ax in self.axes]
        if len(set(swept)) != len(swept):
            raise ValueError("swept parameters must be distinct")
        fixed = self.fixed or {}
        for p in swept:
            if p not in names:
                raise ValueError(f"family {self.family.value} has no parameter {p!r}")
            if p in fixed:
                raise ValueError(f"parameter {p!r} is both swept and fixed")
        for p, value in fixed.items():
            if p not in names:
                raise ValueError(f"family {self.family.value} has no parameter {p!r}")
            if not cmath.isfinite(value):
                raise ValueError(f"fixed parameter {p!r} must be finite")
        remaining = [p for p in names if p not in swept and p not in fixed]
        if remaining:
            raise ValueError(f"parameters {remaining} are neither swept nor fixed")


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
        fixed = self.spec.fixed or {}
        cfg = self.spec.config or OptimizerConfig()
        return {
            "family": self.spec.family.value,
            "axes": [
                {"param": ax.param, "start": ax.start, "stop": ax.stop, "steps": ax.steps}
                for ax in self.spec.axes
            ],
            "fixed": {k: [complex(v).real, complex(v).imag] for k, v in fixed.items()},
            "f": self.spec.equation.f.to_text(),
            "g": self.spec.equation.g.to_text(),
            "config": {"restarts": cfg.restarts, "max_evals": cfg.max_evals, "tol": cfg.tol},
            "seed": self.seed,
        }


def _sweep_chain(
    spec: SweepSpec, row_coord: float | None, row_index: int, cfg: OptimizerConfig
) -> list[SweepPoint]:
    """Sweep the primary axis for one fixed secondary value, chaining warm starts."""
    axis0 = spec.axes[0]
    fixed = dict(spec.fixed or {})
    if row_coord is not None:
        fixed[spec.axes[1].param] = row_coord
    points: list[SweepPoint] = []
    warm: np.ndarray | None = None
    for i, value in enumerate(axis0.values()):
        params = dict(fixed)
        params[axis0.param] = value
        coords = (float(value),) if row_coord is None else (float(value), float(row_coord))
        flat_index = row_index * axis0.steps + i
        try:
            psi = make_family_state(spec.family, params)
        except ValueError:
            points.append(SweepPoint(coords, False, None, None))
            continue
        point_cfg = replace(cfg, seed=derive_task_seed(cfg.seed, flat_index))
        extra = [warm] if warm is not None else []
        gain, strategy = optimize_quantum(psi, spec.equation, point_cfg, extra_starts=extra)
        warm = strategy.angles.reshape(-1)
        points.append(SweepPoint(coords, True, gain, strategy))
    return points


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Evaluate the gain landscape on the grid, in deterministic raster order.

    The warm-start chain serializes the primary axis; rows of a 2D sweep are
    independent chains and run across ``workers`` processes when asked.
    Degenerate grid points (zero state) are recorded as invalid and skipped
    by the chain; the sweep always completes, whatever the worker count.
    """
    cfg = spec.config or OptimizerConfig()
    points: list[SweepPoint] = []
    if len(spec.axes) == 1:
        points.extend(_sweep_chain(spec, None, 0, cfg))
    else:
        rows = [(float(v), j) for j, v in enumerate(spec.axes[1].values())]
        if workers > 1 and len(rows) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for chain in pool.map(
                    _sweep_chain, [spec] * len(rows), [v for v, _ in rows],
                    [j for _, j in rows], [cfg] * len(rows),
                ):
                    points.extend(chain)
        else:
            for row_value, j in rows:
                points.extend(_sweep_chain(spec, row_value, j, cfg))
    return SweepResult(spec=spec, seed=cfg.seed, points=tuple(points))


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

    Parameter-free families are evaluated once; their average is reported
    as not applicable (None).
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    cfg = cfg or OptimizerConfig()
    parametric = bool(FAMILY_PARAM_NAMES[family])
    gains: list[float] = []
    params_used: list[dict[str, complex]] = []
    count = draws if parametric else 1
    for k in range(count):
        seeds = np.random.SeedSequence((cfg.seed, k)).generate_state(2)
        params = random_family_params(family, int(seeds[0])) if parametric else {}
        psi = make_family_state(family, params)
        draw_cfg = replace(cfg, seed=int(seeds[1]))
        gain, _ = optimize_quantum(psi, eq, draw_cfg)
        gains.append(gain)
        params_used.append(params)
    return FamilyReport(
        family=family,
        best_gain=max(gains),
        average_gain=(sum(gains) / len(gains)) if parametric else None,
        draw_gains=tuple(gains),
        draw_params=tuple(params_used),
    )
