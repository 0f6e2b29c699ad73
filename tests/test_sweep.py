"""Family parameter sweeps and random-draw family reports."""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from qgames.boolfn import ANSWER_VARS, QUESTION_VARS, GameEquation, parse_table
from qgames.quantum import FamilyId, GainKernel, make_family_state, make_named_state
from qgames import torus
from qgames.search import OptimizerConfig, derive_task_seed, optimize_quantum
from qgames.sweep import FamilyReport, SweepAxis, SweepSpec, family_report, run_sweep


def ghz_game_equation():
    return GameEquation(
        parse_table("xyz + xy!w + xz!w + yz!w + w!x!y!z", QUESTION_VARS[4]),
        parse_table("a^b^c^d", ANSWER_VARS[4]),
    )


FAST = OptimizerConfig(restarts=6, max_evals=3000, seed=3)
TSIRELSON = math.cos(math.pi / 8) ** 2


def _assert_points_equal_single_optimizations(spec, result):
    """Every valid point is the optimization of its own state, seeded from its raster
    index and warm-started from the last valid point of its chain, bit for bit."""
    steps0 = spec.axes[0].steps
    fixed = dict(spec.fixed)
    for j, b in enumerate(spec.axes[1].values()):
        warm = []
        for i, a in enumerate(spec.axes[0].values()):
            point = result.points[j * steps0 + i]
            if not point.valid:
                continue
            psi = make_family_state(spec.family, fixed | {spec.axes[0].param: a,
                                                          spec.axes[1].param: b})
            cfg = replace(spec.config, seed=derive_task_seed(spec.config.seed, j * steps0 + i))
            gain, strategy = optimize_quantum(psi, spec.equation, cfg, extra_starts=warm)
            assert point.gain == gain
            assert np.array_equal(point.strategy.angles, strategy.angles)
            warm = [strategy.angles.reshape(-1)]


class TestSpecValidation:
    def test_axis_needs_at_least_two_steps(self):
        with pytest.raises(ValueError):
            SweepAxis("a", 0.0, 1.0, 1)

    def test_axis_range_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SweepAxis("a", 1.0, 1.0, 5)
        with pytest.raises(ValueError):
            SweepAxis("a", 2.0, 1.0, 5)

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            SweepAxis("a", 0.0, float("inf"), 3)
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_ABC2,
                axes=(SweepAxis("a", 0.0, 1.0, 2),),
                fixed={"b": float("nan"), "c": 0.0},
                equation=ghz_game_equation(),
            )

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_A4,
                axes=(SweepAxis("b", 0.0, 1.0, 3),),
                equation=ghz_game_equation(),
            )

    def test_swept_and_fixed_conflict(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_A2B2,
                axes=(SweepAxis("a", 0.0, 1.0, 3),),
                fixed={"a": 1.0, "b": 0.0},
                equation=ghz_game_equation(),
            )

    def test_parameter_swept_twice(self):
        with pytest.raises(ValueError, match="each once"):
            SweepSpec(
                family=FamilyId.L_A2B2,
                axes=(SweepAxis("a", 0.0, 1.0, 3), SweepAxis("a", 0.0, 1.0, 3)),
                fixed={"b": 0.5},
                equation=ghz_game_equation(),
            )

    def test_unassigned_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_ABC2,
                axes=(SweepAxis("a", 0.0, 1.0, 3),),
                fixed={"b": 1.0},
                equation=ghz_game_equation(),
            )

    def test_parameter_free_family_cannot_be_swept(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_0_7P1,
                axes=(SweepAxis("a", 0.0, 1.0, 3),),
                equation=ghz_game_equation(),
            )

    def test_at_most_two_axes(self):
        with pytest.raises(ValueError):
            SweepSpec(
                family=FamilyId.L_ABC2,
                axes=(
                    SweepAxis("a", 0.0, 1.0, 2),
                    SweepAxis("b", 0.0, 1.0, 2),
                    SweepAxis("c", 0.0, 1.0, 2),
                ),
                equation=ghz_game_equation(),
            )


class TestRunSweep:
    def test_1d_sweep_shape_and_bounds(self):
        spec = SweepSpec(
            family=FamilyId.L_A2B2,
            axes=(SweepAxis("a", 0.4, 1.2, 3),),
            fixed={"b": 0.3},
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        assert len(result.points) == 3
        assert [p.coords[0] for p in result.points] == [0.4, pytest.approx(0.8), 1.2]
        for p in result.points:
            assert p.valid
            assert 0.0 <= p.gain <= 1.0

    def test_invalid_points_flagged_not_skipped(self):
        spec = SweepSpec(
            family=FamilyId.G_ABCD,
            axes=(SweepAxis("a", -1.0, 1.0, 3),),
            fixed={"b": 0.0, "c": 0.0, "d": 0.0},
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        flags = [p.valid for p in result.points]
        assert flags == [True, False, True]  # a=0 gives the zero vector
        assert result.points[1].gain is None
        # its CSV row: a, an empty gain, valid 0, then 24 empty angle fields
        lines = result.to_csv().splitlines()
        assert lines[2] == "0.0,,0" + "," * 24
        assert [line.split(",")[2] for line in lines[1:]] == ["1", "0", "1"]

    def test_2d_sweep_raster_order(self):
        spec = SweepSpec(
            family=FamilyId.L_A2B2,
            axes=(SweepAxis("a", 0.5, 1.0, 2), SweepAxis("b", 0.2, 0.4, 2)),
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        coords = [p.coords for p in result.points]
        assert coords == [(0.5, 0.2), (1.0, 0.2), (0.5, 0.4), (1.0, 0.4)]
        grid = result.gains_grid()
        assert grid.shape == (2, 2)
        assert not np.isnan(grid).any()

    def test_reproducible_csv_bytes(self):
        spec = SweepSpec(
            family=FamilyId.L_A4,
            axes=(SweepAxis("a", 0.5, 2.0, 3),),
            equation=ghz_game_equation(),
            config=FAST,
        )
        a = run_sweep(spec).to_csv()
        b = run_sweep(spec).to_csv()
        assert a == b
        header = a.splitlines()[0].split(",")
        assert header[:3] == ["a", "gain", "valid"]
        assert header[3] == "theta_1_0"
        assert len(header) == 3 + 24

    def test_csv_fields_parse_as_floats(self):
        spec = SweepSpec(
            family=FamilyId.L_A4,
            axes=(SweepAxis("a", 0.5, 2.0, 2),),
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        rows = list(csv.reader(io.StringIO(result.to_csv())))[1:]
        assert len(rows) == 2
        for row, point in zip(rows, result.points):
            values = [float(field) for field in row]
            assert values[0] == point.coords[0]
            assert values[1] == point.gain
            assert values[3:] == point.strategy.reduced_angles().reshape(-1).tolist()

    def test_2d_points_equal_single_warm_started_optimizations(self):
        # the b = 0 chain has the zero state at a = 0, in its middle
        spec = SweepSpec(
            family=FamilyId.G_ABCD,
            axes=(SweepAxis("a", -1.0, 1.0, 3), SweepAxis("b", 0.0, 0.5, 2)),
            fixed={"c": 0.0, "d": 0.0},
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        assert [p.valid for p in result.points] == [True, False, True, True, True, True]
        _assert_points_equal_single_optimizations(spec, result)

    def test_a_sweep_through_the_ghz_point_equals_single_optimizations(self):
        # a = d = 1, b = c = 0 is GHZ, so the last step of the b = 0 chain
        # takes the torus path in the same call as the see-saw point beside it
        spec = SweepSpec(
            family=FamilyId.G_ABCD,
            axes=(SweepAxis("a", 0.0, 1.0, 3), SweepAxis("b", 0.0, 0.5, 2)),
            fixed={"c": 0.0, "d": 1.0},
            equation=ghz_game_equation(),
            config=FAST,
        )
        result = run_sweep(spec)
        on_torus = [bool(torus.xor_games(GainKernel(make_family_state(FamilyId.G_ABCD, {
            "a": a, "b": b, "c": 0.0, "d": 1.0}), spec.equation), 1)[0][0])
            for a, b in (p.coords for p in result.points)]
        assert on_torus == [False, False, True, False, False, False]
        assert result.points[2].gain == pytest.approx(TSIRELSON, abs=1e-12)
        _assert_points_equal_single_optimizations(spec, result)

    def test_sidecar_captures_spec_and_seed(self):
        spec = SweepSpec(
            family=FamilyId.L_ABC2,
            axes=(SweepAxis("a", 0.5, 1.5, 2),),
            fixed={"b": 0.5, "c": 0.25 + 0.5j},
            equation=ghz_game_equation(),
            config=FAST,
        )
        sidecar = run_sweep(spec).sidecar_dict()
        assert sidecar["family"] == "l_abc2"
        assert sidecar["axes"][0]["steps"] == 2
        assert sidecar["fixed"]["c"] == [0.25, 0.5]
        assert sidecar["seed"] == FAST.seed

    def test_named_state_coincidence(self):
        # G_abcd at a=d=1, b=c=0 is the GHZ state; the sweep point must agree
        # with the directly optimized named state within optimizer noise.
        spec = SweepSpec(
            family=FamilyId.G_ABCD,
            axes=(SweepAxis("a", 0.5, 1.0, 2),),
            fixed={"b": 0.0, "c": 0.0, "d": 1.0},
            equation=ghz_game_equation(),
            config=OptimizerConfig(restarts=10, seed=21),
        )
        result = run_sweep(spec)
        direct, _ = optimize_quantum(
            make_named_state("ghz4"), ghz_game_equation(), OptimizerConfig(restarts=10, seed=22)
        )
        assert result.points[-1].gain == pytest.approx(direct, abs=2e-6)


class TestFamilyReport:
    def test_parameter_free_family_single_evaluation(self):
        report = family_report(FamilyId.L_0_3P1_0_3P1, ghz_game_equation(), draws=4, cfg=FAST)
        assert isinstance(report, FamilyReport)
        assert report.average_gain is None
        assert len(report.draw_gains) == 1
        assert report.best_gain == pytest.approx(0.7499, abs=3e-3)

    def test_parametric_family_draw_count_and_average(self):
        report = family_report(FamilyId.L_A4, ghz_game_equation(), draws=3, cfg=FAST)
        assert len(report.draw_gains) == 3
        assert report.best_gain == max(report.draw_gains)
        assert report.average_gain == pytest.approx(sum(report.draw_gains) / 3)
        assert len(report.draw_params) == 3
        for params in report.draw_params:
            assert set(params) == {"a"}
            assert 0.2 <= abs(params["a"]) <= 2.0

    def test_draws_equal_single_optimizations(self):
        report = family_report(FamilyId.L_A4, ghz_game_equation(), draws=3, cfg=FAST)
        for k, (gain, params) in enumerate(zip(report.draw_gains, report.draw_params)):
            draw_seed = int(np.random.SeedSequence((FAST.seed, k)).generate_state(2)[1])
            alone, _ = optimize_quantum(
                make_family_state(FamilyId.L_A4, params), ghz_game_equation(),
                replace(FAST, seed=draw_seed),
            )
            assert gain == alone

    def test_deterministic(self):
        a = family_report(FamilyId.L_A4, ghz_game_equation(), draws=2, cfg=FAST)
        b = family_report(FamilyId.L_A4, ghz_game_equation(), draws=2, cfg=FAST)
        assert a.draw_gains == b.draw_gains

    def test_l_a4_default_seed_regression_pin(self):
        # measured once with the default config/seed; a reference draw
        # reported 0.6985 for this family, so the magnitude agrees
        report = family_report(FamilyId.L_A4, ghz_game_equation(), draws=4,
                               cfg=OptimizerConfig())
        assert report.best_gain == pytest.approx(0.7507, abs=2e-3)

    def test_draw_validation(self):
        with pytest.raises(ValueError):
            family_report(FamilyId.L_A4, ghz_game_equation(), draws=0, cfg=FAST)
