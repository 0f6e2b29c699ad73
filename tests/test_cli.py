"""End-to-end command-line tests: subcommands, exit codes, run records."""

import json
import os

import pytest

from qgames.cli import USAGE_ERROR, VALIDATION_ERROR, load_results_jsonl, load_run_record, main


@pytest.fixture
def out(tmp_path):
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


def read_stdout(capsys):
    return json.loads(capsys.readouterr().out)


class TestReduce:
    def test_writes_functions_and_stage_counts(self, out, capsys):
        target = out / "fns.txt"
        code = run_cli(
            "reduce", "--arity", "2", "--all-relevant",
            "--output", str(target), "--output-dir", str(out / "runs"),
        )
        assert code == 0
        summary = read_stdout(capsys)
        assert summary["stage_counts"]["full_space"] == 16
        assert summary["stage_counts"]["after_output_flip"] == 8
        lines = target.read_text().splitlines()
        assert len(lines) == summary["stage_counts"]["after_relevance_filter"]
        # hand-enumerated: 16 functions fold to NOR-class (2:1) and XOR (2:6)
        assert lines == ["2:1", "2:6"]

    def test_rerun_is_byte_identical(self, out, capsys):
        a = out / "a.txt"
        b = out / "b.txt"
        run_cli("reduce", "--arity", "3", "--all-relevant", "--output", str(a),
                "--output-dir", str(out / "runs"))
        run_cli("reduce", "--arity", "3", "--all-relevant", "--output", str(b),
                "--output-dir", str(out / "runs"))
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_arity4_counts(self, out, capsys):
        code = run_cli("reduce", "--arity", "4", "--all-relevant",
                       "--output", str(out / "f4.txt"), "--output-dir", str(out / "runs"))
        assert code == 0
        counts = read_stdout(capsys)["stage_counts"]
        assert counts["full_space"] == 65536
        assert counts["after_output_flip"] == 32768
        assert counts["after_variant_dedup"] == 2288
        assert counts["after_relevance_filter"] == 2191

    def test_invalid_arity_is_usage_error(self, out):
        with pytest.raises(SystemExit) as err:
            run_cli("reduce", "--arity", "7", "--output-dir", str(out / "runs"))
        assert err.value.code == USAGE_ERROR


class TestEval:
    def test_chsh_both_modes(self, out, capsys):
        code = run_cli(
            "eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--mode", "both",
            "--output-dir", str(out / "runs"),
        )
        assert code == 0
        record = read_stdout(capsys)
        assert record["classical"] == 0.75
        assert record["quantum"] == pytest.approx(0.8536, abs=2e-3)
        assert record["gap"] == pytest.approx(record["quantum"] - 0.75)
        assert record["f"] == "2:8"

    def test_classical_mode_skips_optimizer(self, out, capsys):
        code = run_cli(
            "eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--mode", "classical",
            "--output-dir", str(out / "runs"),
        )
        assert code == 0
        record = read_stdout(capsys)
        assert record["classical"] == 0.75
        assert record["quantum"] is None
        assert record["strategy"] is None

    def test_expression_error_is_usage_error(self, out):
        code = run_cli("eval", "--state", "epr", "--f", "x)", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == USAGE_ERROR

    def test_unknown_state_is_validation_error(self, out):
        code = run_cli("eval", "--state", "nope", "--f", "xy", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_arity_mismatch_is_validation_error(self, out):
        code = run_cli("eval", "--state", "ghz4", "--f", "2:8", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_three_player_game(self, out, capsys):
        code = run_cli("eval", "--state", "ghz3", "--f", "xyz", "--g", "a^b^c",
                       "--mode", "both", "--output-dir", str(out / "runs"))
        assert code == 0
        record = read_stdout(capsys)
        assert record["classical"] == 0.875  # answer 000 wins unless xyz=111
        assert record["quantum"] >= record["classical"] - 2e-3
        assert record["f"] == "3:80"

    def test_table_literals_accepted(self, out, capsys):
        code = run_cli("eval", "--state", "epr", "--f", "2:8", "--g", "2:6",
                       "--mode", "classical", "--output-dir", str(out / "runs"))
        assert code == 0
        assert read_stdout(capsys)["classical"] == 0.75

    def test_run_record_written(self, out, capsys):
        run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b",
                "--mode", "classical", "--output-dir", str(out / "runs"))
        capsys.readouterr()
        run_dirs = list((out / "runs").iterdir())
        assert len(run_dirs) == 1
        record = load_run_record(run_dirs[0] / "record.json")
        assert record.subcommand == "eval"
        assert record.outputs == [str(run_dirs[0] / "result.json")]
        assert (run_dirs[0] / "result.json").exists()

    def test_unknown_flag_is_usage_error(self, out):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--frobnicate")
        assert err.value.code == USAGE_ERROR

    def test_nan_state_is_validation_error_without_nan_output(self, out, capsys):
        code = run_cli("eval", "--state", "[[NaN,0],[0,0],[0,0],[1,0]]", "--f", "xy",
                       "--g", "a^b", "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        captured = capsys.readouterr()
        assert "NaN" not in captured.out + captured.err

    def test_nan_tol_is_validation_error(self, out):
        code = run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--tol", "nan",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR


@pytest.fixture
def functions_file(tmp_path):
    path = tmp_path / "fns2.txt"
    run_cli("reduce", "--arity", "2", "--all-relevant", "--keep-complements",
            "--output", str(path), "--output-dir", str(tmp_path / "runs"))
    return path


class TestSearchAndScore:
    def test_search_results_and_summary(self, out, functions_file, capsys):
        results_path = out / "results.jsonl"
        code = run_cli(
            "search", "--state", "epr", "--g", "a^b", "--functions", str(functions_file),
            "--restarts", "4", "--output", str(results_path),
            "--output-dir", str(out / "runs"), "--workers", "1",
        )
        assert code == 0
        results, summary = load_results_jsonl(results_path)
        assert summary["count"] == len(results) == 3
        assert summary["top_gaps"][0]["gap"] == pytest.approx(0.1036, abs=2e-3)
        for r in results:
            assert r.elapsed_ms is None  # timing excluded for byte-determinism

    def test_worker_count_invariance(self, out, functions_file, capsys):
        a = out / "w1.jsonl"
        b = out / "w2.jsonl"
        run_cli("search", "--state", "epr", "--g", "a^b", "--functions", str(functions_file),
                "--restarts", "4", "--output", str(a), "--output-dir", str(out / "runs"),
                "--workers", "1")
        run_cli("search", "--state", "epr", "--g", "a^b", "--functions", str(functions_file),
                "--restarts", "4", "--output", str(b), "--output-dir", str(out / "runs"),
                "--workers", "2")
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_missing_functions_file(self, out):
        code = run_cli("search", "--state", "epr", "--g", "a^b",
                       "--functions", str(out / "missing.txt"),
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_score_report(self, out, functions_file, capsys):
        code = run_cli(
            "score", "--state", "epr", "--g", "a^b", "--functions", str(functions_file),
            "--restarts", "4", "--output-dir", str(out / "runs"), "--workers", "1",
        )
        assert code == 0
        report = read_stdout(capsys)
        assert report["count"] == 3
        assert 0.0 <= report["game_score"] <= 1.0
        assert report["max_gap"]["gap"] == pytest.approx(0.1036, abs=2e-3)

    def test_sample_flag_subsamples(self, out, functions_file, capsys):
        code = run_cli(
            "search", "--state", "epr", "--g", "a^b", "--functions", str(functions_file),
            "--restarts", "2", "--sample", "2", "--output", str(out / "s.jsonl"),
            "--output-dir", str(out / "runs"), "--workers", "1",
        )
        assert code == 0
        results, summary = load_results_jsonl(out / "s.jsonl")
        assert summary["count"] == len(results) == 2


class TestSweepCommand:
    def write_spec(self, path, **overrides):
        spec = {
            "family": "l_a2b2",
            "axes": [{"param": "a", "start": 0.4, "stop": 1.2, "steps": 2}],
            "fixed": {"b": 0.3},
            "f": "xyz + xy!w + xz!w + yz!w + w!x!y!z",
            "g": "a^b^c^d",
            "config": {"restarts": 4, "max_evals": 2000},
        }
        spec.update(overrides)
        path.write_text(json.dumps(spec))
        return path

    def test_sweep_writes_csv_and_sidecar(self, out, capsys):
        spec_path = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"))
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == 0
        info = read_stdout(capsys)
        assert info["points"] == 2
        csv_text = (out / "sweep.csv").read_text()
        assert csv_text.splitlines()[0].startswith("a,gain,valid,theta_1_0")
        sidecar = json.loads((out / "sweep.json").read_text())
        assert sidecar["family"] == "l_a2b2"
        assert sidecar["fixed"]["b"] == [0.3, 0.0]

    def test_empty_range_is_validation_error_without_partial_file(self, out):
        spec_path = self.write_spec(
            out / "bad.json",
            axes=[{"param": "a", "start": 1.0, "stop": 1.0, "steps": 5}],
            output=str(out / "bad.csv"),
        )
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "bad.csv").exists()

    def test_unknown_family_rejected(self, out):
        spec_path = self.write_spec(out / "fam.json", family="g_xyzw")
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_sidecar_round_trips_as_a_spec(self, out, capsys):
        spec_path = self.write_spec(out / "spec.json", output=str(out / "first.csv"))
        assert run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs")) == 0
        sidecar = json.loads((out / "first.json").read_text())
        sidecar["output"] = str(out / "second.csv")
        (out / "again.json").write_text(json.dumps(sidecar))
        assert run_cli("sweep", "--spec", str(out / "again.json"),
                       "--output-dir", str(out / "runs")) == 0
        capsys.readouterr()
        assert (out / "first.csv").read_bytes() == (out / "second.csv").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, out, capsys):
        config = out / "config.json"
        config.write_text(json.dumps({
            "state": "epr", "f": "xy", "g": "a^b", "mode": "classical",
            "output_dir": str(out / "runs-from-config"), "seed": 5,
        }))
        code = run_cli("eval", "--config", str(config))
        assert code == 0
        record = read_stdout(capsys)
        assert record["classical"] == 0.75
        assert record["seed"] == 5
        assert (out / "runs-from-config").exists()

        code = run_cli("eval", "--config", str(config), "--seed", "9")
        assert code == 0
        assert read_stdout(capsys)["seed"] == 9

    def test_missing_config_file(self, out):
        code = run_cli("eval", "--config", str(out / "none.json"))
        assert code == VALIDATION_ERROR

    def test_workers_below_one_is_validation_error(self, out, functions_file):
        config = out / "config.json"
        config.write_text(json.dumps({"workers": 0}))
        for flags in (["--workers", "-3"], ["--workers", "0"], ["--config", str(config)]):
            for argv in (["eval", "--state", "epr", "--f", "xy", "--g", "a^b"],
                         ["search", "--state", "epr", "--functions", str(functions_file),
                          "--g", "a^b", "--output", str(out / "results.jsonl")]):
                runs = out / "rejected-runs"
                assert run_cli(*flags, *argv, "--output-dir", str(runs)) == VALIDATION_ERROR
                assert not runs.exists()
        assert not (out / "results.jsonl").exists()


class TestRunStore:
    def test_distinct_run_ids_for_identical_invocations(self, out, capsys):
        for _ in range(2):
            run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b",
                    "--mode", "classical", "--output-dir", str(out / "runs"))
        capsys.readouterr()
        run_dirs = list((out / "runs").iterdir())
        assert len(run_dirs) == 2
        assert len({d.name for d in run_dirs}) == 2
