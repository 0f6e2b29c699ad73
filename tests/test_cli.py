"""End-to-end command-line tests: subcommands, exit codes, run records."""

import datetime
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qgames
from qgames import cli
from qgames.cli import USAGE_ERROR, VALIDATION_ERROR, load_results_jsonl, load_run_record, main
from qgames.quantum import StateVector, parse_state_literal
from qgames.search import DEFAULT_SEED, GameResult, OptimizerConfig, usable_cpus

#: The keys of one game's record in ``result.json`` and ``results.jsonl``.
RESULT_KEYS = {"f", "g", "classical", "quantum", "gap", "strategy", "state", "seed"}


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

    def test_a_missing_operand_is_usage_error(self, out, capsys):
        code = run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a +",
                       "--output-dir", str(out / "runs"))
        assert code == USAGE_ERROR
        assert "expected a variable, constant, '!' or '(' (at position 3)" in capsys.readouterr().err

    def test_unknown_state_is_validation_error(self, out):
        code = run_cli("eval", "--state", "nope", "--f", "xy", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_arity_mismatch_is_validation_error(self, out):
        code = run_cli("eval", "--state", "ghz4", "--f", "2:8", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_table_literal_that_to_text_never_writes_is_validation_error(self, out):
        code = run_cli("eval", "--state", "ghz4", "--f", "4:0x6996", "--g", "a^b^c^d",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()

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

    def test_rerun_is_byte_identical(self, out, capsys):
        argv = ("eval", "--state", "w4", "--f", "wx+wy+wz+xy+xz+yz",
                "--g", "!abcd + a!bcd + ab!cd + abc!d", "--seed", "5", "--restarts", "4")
        for name in ("a", "b"):
            assert run_cli(*argv, "--output-dir", str(out / name)) == 0
        capsys.readouterr()
        assert set(json.loads(_eval_result(out / "a"))) == RESULT_KEYS
        assert _eval_result(out / "a") == _eval_result(out / "b")

    @pytest.mark.parametrize("elapsed_ms", (None, 12.0))
    def test_records_with_the_old_timing_key_still_load(self, out, capsys, elapsed_ms):
        # files written while a game's record held its wall time, ``elapsed_ms``
        assert run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b",
                       "--output-dir", str(out / "runs")) == 0
        record = read_stdout(capsys)
        old = record | {"elapsed_ms": elapsed_ms}
        result_json = out / "result.json"
        result_json.write_text(json.dumps(old, indent=2) + "\n")
        results_jsonl = out / "results.jsonl"
        summary = {"count": 1, "game_score": 1.0}
        results_jsonl.write_text(json.dumps(old) + "\n" + json.dumps(summary) + "\n")
        (from_jsonl,), loaded_summary = load_results_jsonl(results_jsonl)
        assert loaded_summary == summary
        from_json = GameResult.from_json_dict(json.loads(result_json.read_text()))
        for result in (from_jsonl, from_json):
            assert result.to_json_dict() == record

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

    def test_small_amplitudes_are_a_state(self, out, capsys):
        code = run_cli("eval", "--state", "[[1e-10,0],[0,0],[0,0],[1e-10,0]]", "--f", "xy",
                       "--g", "a^b", "--restarts", "4", "--output-dir", str(out / "runs"))
        assert code == 0
        assert read_stdout(capsys)["quantum"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-6)

    def test_zero_amplitudes_are_a_validation_error(self, out, capsys):
        code = run_cli("eval", "--state", "[[0,0],[0,0]]", "--f", "x", "--g", "a",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert "zero vector" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["[1,2]", '[["a",0],[0,0]]', "[[null,0],[1,0]]",
                                         "[[true,0],[0,0],[0,0],[0,false]]"])
    def test_malformed_amplitude_literal_is_validation_error(self, out, literal):
        code = run_cli("eval", "--state", literal, "--f", "xy", "--g", "a^b",
                       "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("f, table", [("!" * 5001 + "x", "2:3"),
                                          ("(" * 3000 + "x" + ")" * 3000, "2:C")],
                             ids=["negations", "parentheses"])
    def test_a_deeply_nested_expression_is_evaluated(self, out, capsys, f, table):
        code = run_cli("eval", "--state", "epr", "--f", f, "--g", "a^b", "--mode", "classical",
                       "--output-dir", str(out / "runs"))
        assert code == 0
        assert read_stdout(capsys)["f"] == table

    def test_deeply_nested_amplitude_literal_is_validation_error(self, out):
        code = run_cli("eval", "--state", "[" * 50000 + "]" * 50000, "--f", "xy",
                       "--g", "a^b", "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_a_long_flat_expression_is_evaluated(self, out, capsys):
        code = run_cli("eval", "--state", "epr", "--f", " + ".join(["xy"] * 3000),
                       "--g", "a^b", "--mode", "classical", "--output-dir", str(out / "runs"))
        assert code == 0
        assert read_stdout(capsys)["f"] == "2:8"

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


class TestInputRefusals:
    """Inputs refused by name with exit 3, before any run directory or output file.

    ``functions_file`` writes its own run under ``runs``, so these runs go to ``refused``.
    """

    @pytest.mark.parametrize("state", [
        "g_abcd:a=1,a=0,b=0,c=0,d=1",
        "g_abcd:a=1,A=0,b=0,c=0,d=1",
    ])
    def test_repeated_family_parameter(self, out, capsys, state):
        code = run_cli("eval", "--state", state, "--f", "wxyz", "--g", "a^b^c^d",
                       "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert "each once" in capsys.readouterr().err

    @pytest.mark.parametrize("pairs", [[[1, 0], [0, 0]], [[1, 0]] * 32], ids=["1-qubit", "5-qubit"])
    @pytest.mark.parametrize("command", ["eval", "search"])
    def test_qubit_count_outside_the_games(self, out, capsys, functions_file, pairs, command):
        rest = (["--f", "x"] if command == "eval" else ["--functions", str(functions_file)])
        code = run_cli(command, "--state", json.dumps(pairs), "--g", "a", *rest,
                       "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        qubits = len(pairs).bit_length() - 1
        assert f"state has {qubits} qubits, not one of (2, 3, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"],
        ["search", "--state", "epr", "--g", "a^b", "--functions", "FUNCTIONS"],
        ["search", "--state", "epr", "--g", "a^b", "--functions", "FUNCTIONS", "--sample", "2"],
        ["score", "--state", "epr", "--g", "a^b", "--functions", "FUNCTIONS", "--sample", "2"],
        ["sweep", "--spec", "SPEC"],
    ], ids=["eval", "search", "search-sample", "score-sample", "sweep"])
    def test_negative_seed(self, out, capsys, functions_file, argv):
        spec = out / "spec.json"
        spec.write_text(json.dumps({
            "family": "l_a2b2", "axes": [{"param": "a", "steps": 2}], "fixed": {"b": 0.3},
            "f": "wxyz", "g": "a^b^c^d", "output": str(out / "sweep.csv"),
        }))
        argv = [{"FUNCTIONS": str(functions_file), "SPEC": str(spec)}.get(a, a) for a in argv]
        code = run_cli("--seed", "-1", *argv, "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert not (out / "sweep.csv").exists()
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--arity", "2", "--output", ""],
        ["search", "--state", "epr", "--g", "a^b", "--functions", "FUNCTIONS", "--output", ""],
        ["search", "--state", "epr", "--g", "a^b", "--functions", "FUNCTIONS", "--config", "CONFIG"],
    ], ids=["reduce", "search", "search-config-file"])
    def test_an_empty_output_path(self, out, capsys, functions_file, argv):
        config = out / "config.json"
        config.write_text(json.dumps({"output": ""}))
        argv = [{"FUNCTIONS": str(functions_file), "CONFIG": str(config)}.get(a, a) for a in argv]
        code = run_cli(*argv, "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert "--output is an empty path" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["--config", "", "eval"], "--config"),
        (["eval", "--config", ""], "--config"),
        (["--output-dir", "", "eval"], "--output-dir"),
        (["eval", "--config", "CONFIG"], "--output-dir"),
    ], ids=["config", "config-after-subcommand", "output-dir", "output-dir-config-file"])
    def test_an_empty_config_or_output_dir_path(self, out, capsys, monkeypatch, argv, flag):
        # an empty path is no file: read as no value, or as the working directory,
        # the run would go ahead and write its run directory here
        config = out / "config.json"
        config.write_text(json.dumps({"output_dir": ""}))
        monkeypatch.chdir(out)
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        code = run_cli(*argv, "--state", "epr", "--f", "xy", "--g", "a^b")
        assert code == VALIDATION_ERROR
        assert f"{flag} is an empty path" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--state", "epr", "--g", "a^b"], "eval needs --state, --f and --g"),
        (["search", "--state", "epr", "--g", "a^b"], "search needs --state, --g and --functions"),
        (["sweep"], "sweep needs --spec"),
    ], ids=["eval-without-f", "search-without-functions", "sweep-without-spec"])
    def test_a_missing_required_setting(self, out, capsys, argv, message):
        code = run_cli(*argv, "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("4:6996\n3:96\n", "function '3:96' has arity 3, expected 4"),
        ("", "is empty"),
    ], ids=["three-player-line", "empty"])
    def test_a_functions_file_without_four_player_tables(self, out, capsys, text, message):
        path = out / "fns.txt"
        path.write_text(text)
        code = run_cli("search", "--state", "ghz4", "--g", "a^b^c^d", "--functions", str(path),
                       "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert message in capsys.readouterr().err

    def test_an_empty_sweep_output_path(self, out, capsys):
        spec = out / "spec.json"
        spec.write_text(json.dumps({
            "family": "l_a2b2", "axes": [{"param": "a", "steps": 2}], "fixed": {"b": 0.3},
            "f": "wxyz", "g": "a^b^c^d", "output": "",
        }))
        code = run_cli("sweep", "--spec", str(spec), "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR
        assert not (out / "refused").exists()
        assert f"sweep spec {str(spec)!r} has an empty output path" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "search", "sweep"])
    def test_an_output_path_in_a_missing_directory(
        self, out, capsys, monkeypatch, functions_file, command,
    ):
        # refused before the handler computes anything it could not write
        computed = []
        for name in ("reduce_function_space", "search_space", "run_sweep"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: computed.append(args))
        target = out / "missing" / "out.txt"
        spec = out / "spec.json"
        spec.write_text(json.dumps(TestRunRecords.SPEC | {"output": str(target)}))
        argv = {
            "reduce": ["reduce", "--arity", "2", "--output", str(target)],
            "search": ["search", "--state", "epr", "--g", "a^b", "--functions",
                       str(functions_file), "--output", str(target)],
            "sweep": ["sweep", "--spec", str(spec)],
        }[command]
        code = run_cli(*argv, "--output-dir", str(out / "refused"))
        assert code == VALIDATION_ERROR and computed == []
        assert not (out / "refused").exists() and not (out / "missing").exists()
        assert f"cannot write {str(target)!r}: no directory" in capsys.readouterr().err


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
        # results files hold no timing, so that they are byte-deterministic
        lines = [json.loads(line) for line in results_path.read_text().splitlines()]
        assert all(set(line) == RESULT_KEYS for line in lines[:-1])

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

    def test_worker_count_invariance_on_an_amplitude_literal(self, out, functions_file, capsys):
        state = "[[0.3,0.1],[0.2,0],[0,0.5],[0.7,0.2]]"
        # normalizing this state twice changes its last bits
        psi = parse_state_literal(state)
        assert StateVector(psi.amplitudes).amplitudes.tobytes() != psi.amplitudes.tobytes()
        paths = [out / f"w{workers}.jsonl" for workers in (1, 2)]
        for workers, path in zip((1, 2), paths):
            code = run_cli("search", "--state", state, "--g", "a^b",
                           "--functions", str(functions_file), "--restarts", "4",
                           "--output", str(path), "--output-dir", str(out / "runs"),
                           "--workers", str(workers))
            assert code == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

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

    def test_blank_lines_in_a_functions_file_are_skipped(self, out, capsys):
        path = out / "fns.txt"
        path.write_text("2:1\n\n2:6\n")
        code = run_cli("search", "--state", "epr", "--g", "a^b", "--functions", str(path),
                       "--restarts", "2", "--output", str(out / "blank.jsonl"),
                       "--output-dir", str(out / "runs"), "--workers", "1")
        assert code == 0
        results, summary = load_results_jsonl(out / "blank.jsonl")
        assert [r.equation.f.to_text() for r in results] == ["2:1", "2:6"]
        assert summary["count"] == 2

    def test_a_score_with_no_game_above_the_gap_threshold(self, out, capsys):
        # f = w and f = x: a player answers f alone, so each game is won classically
        path = out / "fns.txt"
        path.write_text("4:00FF\n4:0F0F\n")
        code = run_cli("score", "--state", "ghz4", "--g", "a^b^c^d", "--functions", str(path),
                       "--restarts", "2", "--output-dir", str(out / "runs"), "--workers", "1")
        assert code == 0
        report = read_stdout(capsys)
        assert report["count"] == 2 and report["game_score"] == 0.0
        assert report["average_gap"] is None
        assert report["max_gap"]["gap"] <= 0.01
        (score,) = (out / "runs").glob("*/score.json")
        assert json.loads(score.read_text()) == report

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

    def test_a_sweep_through_the_zero_state(self, out, capsys):
        # g_abcd at a = b = c = d = 0 is the zero vector: an invalid point, not an error
        spec_path = self.write_spec(
            out / "spec.json", family="g_abcd",
            axes=[{"param": "a", "start": -1, "stop": 1, "steps": 3}],
            fixed={"b": 0, "c": 0, "d": 0}, output=str(out / "sweep.csv"))
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == 0
        info = read_stdout(capsys)
        assert (info["points"], info["valid"]) == (3, 2)
        assert (out / "sweep.csv").read_text().splitlines()[2] == "0.0,,0" + "," * 24

    def test_empty_range_is_validation_error_without_partial_file(self, out):
        spec_path = self.write_spec(
            out / "bad.json",
            axes=[{"param": "a", "start": 1.0, "stop": 1.0, "steps": 5}],
            output=str(out / "bad.csv"),
        )
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "bad.csv").exists()

    def test_deeply_nested_spec_is_validation_error(self, out):
        spec_path = out / "deep.json"
        spec_path.write_text("[" * 50000 + "]" * 50000)
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    def test_malformed_spec_json_is_validation_error(self, out, capsys):
        spec_path = out / "spec.json"
        spec_path.write_text('{"family": "l_a2b2", "axes": [')
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("drop, overrides, named", (
        ("f", {}, "f"),
        (None, {"f": 1}, "f"),
        ("g", {}, "g"),
        (None, {"g": ["a^b^c^d"]}, "g"),
        (None, {"axes": [{"start": 0.4, "stop": 1.2, "steps": 2}]}, "param"),
        (None, {"axes": [{"param": 1, "steps": 2}]}, "param"),
        ("family", {}, "family"),
        (None, {"family": 3}, "family"),
    ), ids=["no-f", "numeric-f", "no-g", "list-g", "no-param", "numeric-param", "no-family",
            "numeric-family"])
    def test_text_fields_must_be_strings(self, out, capsys, drop, overrides, named):
        spec_path = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"), **overrides)
        spec = json.loads(spec_path.read_text())
        spec.pop(drop, None)
        spec_path.write_text(json.dumps(spec))
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert not (out / "sweep.csv").exists()
        assert f"{named} takes str values" in capsys.readouterr().err

    @pytest.mark.parametrize("fixed, axis", [
        ({"b": 0.3, "B": 5}, "a"),  # b fixed twice, once in upper case
        ({"b": 0.3}, "B"),  # b swept in upper case and fixed
    ])
    def test_repeated_parameter_is_validation_error(self, out, capsys, fixed, axis):
        spec_path = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"), fixed=fixed,
                                    axes=[{"param": axis, "start": 0.4, "stop": 1.2, "steps": 2}])
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert not (out / "sweep.csv").exists()
        assert "l_a2b2 takes parameters ('a', 'b'), each once" in capsys.readouterr().err

    def test_unknown_family_rejected(self, out):
        spec_path = self.write_spec(out / "fam.json", family="g_xyzw")
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR

    @pytest.mark.parametrize("spec", (
        [],
        {"family": "l_a2b2", "axes": [{"param": "a", "steps": None}], "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": {"param": "a"}, "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": [{"param": "a"}], "fixed": {"b": [1, None]},
         "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": [{"param": "a"}], "config": {"restarts": [4]},
         "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": [{"param": "a", "steps": 2.9}], "fixed": {"b": 0.3},
         "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": [{"param": "a", "start": "0", "steps": 2}],
         "fixed": {"b": 0.3}, "f": "xy", "g": "ab"},
        {"family": "l_a2b2", "axes": [{"param": "a", "steps": 2}], "fixed": {"b": True},
         "f": "xy", "g": "ab"},
        # a present output that is not a string, or config that is not an object
        *({"family": "l_a2b2", "axes": [{"param": "a", "steps": 2}], "fixed": {"b": 0.3},
           "f": "xy", "g": "ab", key: value}
          for key, values in (("output", (False, 0, [], {}, None, 5)),
                              ("config", (False, 0, [], "", None, 5)))
          for value in values),
    ))
    def test_wrong_json_types_are_validation_errors(self, out, spec):
        spec_path = out / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("sweep", "--spec", str(spec_path), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert not list(out.rglob("*.csv"))

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

    def test_optimizer_settings_precedence(self, out, capsys):
        # the spec's config block, then flags, then the config file, then the defaults
        config = out / "config.json"
        config.write_text(json.dumps({"restarts": 4, "max_evals": 400, "tol": 1e-4}))
        runs = (
            ({"restarts": 2}, ["--config", str(config), "--restarts", "3", "--max-evals", "300"],
             {"restarts": 2, "max_evals": 300, "tol": 1e-4}),
            ({}, ["--config", str(config), "--max-evals", "300"],
             {"restarts": 4, "max_evals": 300, "tol": 1e-4}),
            ({}, ["--restarts", "3"], {"restarts": 3, "max_evals": 5000, "tol": 1e-6}),
        )
        for k, (block, flags, expected) in enumerate(runs):
            spec_path = self.write_spec(out / f"spec{k}.json", config=block,
                                        output=str(out / f"sweep{k}.csv"))
            assert run_cli("sweep", "--spec", str(spec_path), *flags,
                           "--output-dir", str(out / "runs")) == 0
            assert json.loads((out / f"sweep{k}.json").read_text())["config"] == expected
        capsys.readouterr()


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

    def test_deeply_nested_config_file_is_validation_error(self, out):
        path = out / "config.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code = run_cli("--config", str(path), "--output-dir", str(out / "runs"),
                       "eval", "--state", "epr", "--f", "xy", "--g", "a^b")
        assert code == VALIDATION_ERROR

    def test_malformed_config_json_is_validation_error(self, out, capsys):
        path = out / "config.json"
        path.write_text('{"seed": 5,')
        code = run_cli("--config", str(path), "--output-dir", str(out / "runs"),
                       "eval", "--state", "epr", "--f", "xy", "--g", "a^b")
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert "is not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, out):
        code = run_cli("eval", "--config", str(out / "none.json"))
        assert code == VALIDATION_ERROR

    @pytest.mark.parametrize("config", ({"restarts": None}, [1, 2], {"seed": [5]}, "eval"))
    def test_wrong_json_types_are_validation_errors(self, out, config):
        path = out / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli("--config", str(path), "--output-dir", str(out / "runs"),
                       "eval", "--state", "epr", "--f", "xy", "--g", "a^b")
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()

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

    @pytest.mark.parametrize("config, argv", (
        ({"state": 5, "f": "xy", "g": "a^b"}, ["eval"]),
        ({"all_relevant": "no"}, ["reduce", "--arity", "2"]),
        ({"keep_complements": 1}, ["reduce", "--arity", "2"]),
        ({"restarts": 2.5}, ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"]),
        ({"seed": True}, ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"]),
        ({"tol": "1e-3"}, ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"]),
        ({"tol": True}, ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"]),
        ({"mode": "sideways"}, ["eval", "--state", "epr", "--f", "xy", "--g", "a^b"]),
    ))
    def test_values_of_the_wrong_type_are_validation_errors(self, out, config, argv):
        path = out / "config.json"
        path.write_text(json.dumps(config))
        output = out / "functions.txt"
        code = run_cli("--config", str(path), "--output-dir", str(out / "runs"), *argv,
                       *(["--output", str(output)] if argv[0] == "reduce" else []))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert not output.exists()

    def test_values_of_the_flag_types_are_taken(self, out, capsys):
        path = out / "config.json"
        path.write_text(json.dumps({"all_relevant": True, "arity": 2, "tol": 1}))
        assert run_cli("--config", str(path), "--output-dir", str(out / "runs"), "reduce") == 0
        counts = read_stdout(capsys)["stage_counts"]
        assert counts["after_relevance_filter"] is not None
        path.write_text(json.dumps({"all_relevant": False, "arity": 2}))
        assert run_cli("--config", str(path), "--output-dir", str(out / "runs"), "reduce") == 0
        assert read_stdout(capsys)["stage_counts"]["after_relevance_filter"] is None

    def test_keys_are_checked_against_the_chosen_subcommand_only(self, out, capsys):
        path = out / "config.json"
        path.write_text(json.dumps({"mode": "sideways", "arity": 2}))
        assert run_cli("--config", str(path), "--output-dir", str(out / "runs"), "reduce") == 0
        assert read_stdout(capsys)["stage_counts"]
        assert run_cli("--config", str(path), "--output-dir", str(out / "runs"),
                       "eval", "--state", "epr", "--f", "xy", "--g", "a^b") == VALIDATION_ERROR

    def test_every_value_flag_has_a_config_type(self):
        for subcommand in cli._HANDLERS:
            keys = set(vars(cli._parser().parse_args([subcommand]))) - {"subcommand"}
            settings = {key for key, setting in cli._SETTINGS.items()
                        if setting.commands is None or subcommand in setting.commands}
            assert keys == settings, subcommand
            assert {"seed", "workers", "output_dir", "config"} <= keys
        for key, setting in cli._SETTINGS.items():
            assert setting.kind in cli._CONFIG_TYPES, key

    def test_a_sweep_spec_config_of_the_wrong_type_is_a_validation_error(self, out):
        spec = out / "spec.json"
        spec.write_text(json.dumps({
            "family": "l_a2b2", "axes": [{"param": "a", "steps": 2}], "fixed": {"b": 0.3},
            "f": "xy", "g": "ab", "config": {"restarts": 2.5},
        }))
        code = run_cli("sweep", "--spec", str(spec), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()


# per case: a subcommand, its other arguments, and a setting it reads with that
# setting's flag value, config-file value and default
SETTING_CASES = (
    ("reduce", [], "arity", 2, 3, 4),
    ("eval", ["--state", "epr", "--f", "xy", "--g", "a^b"], "mode", "quantum", "classical", "both"),
    ("eval", ["--state", "epr", "--f", "xy", "--g", "a^b"], "restarts", 2, 3, 20),
    ("search", ["--state", "epr", "--g", "a^b", "--functions", "{functions}"], "restarts", 2, 3, 20),
    ("score", ["--state", "epr", "--g", "a^b", "--functions", "{functions}"], "restarts", 2, 3, 20),
    ("sweep", ["--spec", "{spec}"], "restarts", 2, 3, 20),
)


class TestSettings:
    @pytest.mark.parametrize("layer", ("flag", "config", "default"))
    @pytest.mark.parametrize("subcommand, argv, key, flag_value, config_value, default",
                             SETTING_CASES)
    def test_a_flag_comes_before_the_config_file_and_that_before_the_default(
        self, tmp_path, monkeypatch, pool_sizes, capsys,
        layer, subcommand, argv, key, flag_value, config_value, default,
    ):
        monkeypatch.chdir(tmp_path)
        functions = tmp_path / "fns.txt"
        functions.write_text("2:1\n2:6\n2:8\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "family": "l_a2b2", "axes": [{"param": "a", "start": 0.4, "stop": 1.2, "steps": 2}],
            "fixed": {"b": 0.3}, "f": "xy", "g": "a^b^c^d", "config": {"max_evals": 400},
        }))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 8, "workers": 3,
                                      "output_dir": str(tmp_path / "config-runs"),
                                      key: config_value}))
        flags = {
            "flag": ["--seed", "7", "--workers", "1", "--output-dir", str(tmp_path / "flag-runs"),
                     f"--{key}", str(flag_value), "--config", str(config)],
            "config": ["--config", str(config)],
            "default": [],
        }[layer]
        argv = [arg.format(functions=functions, spec=spec) for arg in argv]
        assert run_cli(subcommand, *argv, *flags) == 0
        capsys.readouterr()
        seed, workers, output_dir, value = {
            "flag": (7, 1, tmp_path / "flag-runs", flag_value),
            "config": (8, 3, tmp_path / "config-runs", config_value),
            "default": (DEFAULT_SEED, usable_cpus(), tmp_path / "runs", default),
        }[layer]
        (run_dir,) = output_dir.iterdir()
        record = load_run_record(run_dir / "record.json")
        assert (record.seed, record.config["workers"]) == (seed, workers)
        if subcommand == "sweep":
            assert json.loads((run_dir / "sweep.json").read_text())["config"][key] == value
        else:
            assert record.config[key] == value

    def test_the_defaults_are_the_optimizer_defaults(self):
        optimizer = OptimizerConfig()
        assert cli._SETTINGS["seed"].default == DEFAULT_SEED == optimizer.seed
        for key in ("restarts", "max_evals", "tol"):
            assert cli._SETTINGS[key].default == getattr(optimizer, key)

    @pytest.mark.parametrize("argv", ([], *([name] for name in cli._HANDLERS)))
    def test_help_renders(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv, "--help")
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: qgames {' '.join(argv)}".rstrip())


def _eval_result(run_dir):
    """The bytes of the ``result.json`` of the one run under ``run_dir``."""
    (path,) = run_dir.glob("*/result.json")
    return path.read_bytes()


class TestParserReuse:
    EVAL = ("--seed", "3", "eval", "--state", "ghz4", "--f", "xyz + xy!w + xz!w + yz!w + w!x!y!z",
            "--g", "a^b^c^d", "--restarts", "4")

    def test_repeated_calls_match_a_fresh_process(self, out, capsys):
        for k in range(2):
            assert run_cli(*self.EVAL, "--output-dir", str(out / f"in-process{k}")) == 0
        capsys.readouterr()
        src = str(Path(qgames.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        subprocess.run([sys.executable, "-m", "qgames.cli", *self.EVAL,
                        "--output-dir", str(out / "fresh")],
                       env=env, check=True, capture_output=True)
        fresh = _eval_result(out / "fresh")
        assert _eval_result(out / "in-process0") == fresh
        assert _eval_result(out / "in-process1") == fresh

    def test_a_usage_error_between_calls(self, out, capsys):
        assert run_cli(*self.EVAL, "--output-dir", str(out / "first")) == 0
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "--mode", "sideways")
        assert err.value.code == USAGE_ERROR
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == USAGE_ERROR
        assert run_cli(*self.EVAL, "--output-dir", str(out / "second")) == 0
        capsys.readouterr()
        assert _eval_result(out / "first") == _eval_result(out / "second")

    def test_the_parser_is_built_once(self, out, monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        config = out / "config.json"
        config.write_text(json.dumps({"restarts": 1}))
        for _ in range(3):
            assert run_cli("--config", str(config), "--output-dir", str(out / "runs"),
                           "eval", "--state", "epr", "--f", "xy", "--g", "a^b") == 0
        capsys.readouterr()
        assert built == [1]


class TestRunStore:
    def test_distinct_run_ids_for_identical_invocations(self, out, capsys):
        for _ in range(2):
            run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b",
                    "--mode", "classical", "--output-dir", str(out / "runs"))
        capsys.readouterr()
        run_dirs = list((out / "runs").iterdir())
        assert len(run_dirs) == 2
        assert len({d.name for d in run_dirs}) == 2

    def test_a_taken_run_id_gets_the_next_suffix(self, out, capsys, monkeypatch):
        # every run in the same second: each claims the next free name by making it
        class Frozen(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                return cls(2026, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(cli, "_dt", types.SimpleNamespace(datetime=Frozen,
                                                              timezone=datetime.timezone))
        argv = ["eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--mode", "classical",
                "--output-dir", str(out / "runs")]
        assert run_cli(*argv) == 0
        (first,) = [d.name for d in (out / "runs").iterdir()]
        # a directory of the next name, made by another run, is skipped too
        (out / "runs" / f"{first}-2").mkdir()
        assert run_cli(*argv) == 0 and run_cli(*argv) == 0
        capsys.readouterr()
        names = sorted(d.name for d in (out / "runs").iterdir())
        assert names == [first, f"{first}-2", f"{first}-3", f"{first}-4"]
        assert [record.run_id for record, _ in _records(out / "runs")] == [
            first, f"{first}-3", f"{first}-4"]


def _records(runs):
    """The record of each run under ``runs``, with the digest of its run id."""
    records = [load_run_record(path) for path in sorted(runs.glob("*/record.json"))]
    return [(record, record.run_id.split("-")[2]) for record in records]


class TestRunRecords:
    SPEC = {"family": "l_a2b2", "axes": [{"param": "a", "start": 0.4, "stop": 1.2, "steps": 2}],
            "fixed": {"b": 0.3}, "f": "xy", "g": "a^b^c^d"}

    def write_spec(self, path, **overrides):
        path.write_text(json.dumps(self.SPEC | overrides))
        return str(path)

    def test_the_config_holds_every_setting_that_decides_the_results(self, out, capsys):
        functions = out / "fns.txt"
        functions.write_text("2:1\n2:6\n")
        spec = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"))
        optimizer = {"restarts", "max_evals", "tol"}
        cases = (
            (["reduce", "--arity", "2", "--output", str(out / "f.txt")],
             {"arity", "all_relevant", "keep_complements"}),
            (["eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--restarts", "2"],
             {"state", "f", "g", "mode"} | optimizer),
            (["search", "--state", "epr", "--g", "a^b", "--functions", str(functions),
              "--restarts", "2", "--output", str(out / "r.jsonl")],
             {"state", "g", "functions", "sample"} | optimizer),
            (["score", "--state", "epr", "--g", "a^b", "--functions", str(functions),
              "--restarts", "2"], {"state", "g", "functions", "sample"} | optimizer),
            (["sweep", "--spec", spec, "--restarts", "2", "--max-evals", "400"],
             {"spec"} | optimizer),
        )
        for argv, keys in cases:
            runs = out / argv[0]
            assert run_cli(*argv, "--workers", "1", "--output-dir", str(runs)) == 0
            ((record, _),) = _records(runs)
            assert set(record.config) == keys | {"seed", "workers"}, argv[0]
            assert list(record.config)[-1] == "workers"
        capsys.readouterr()

    def test_sweeps_of_other_optimizer_settings_get_other_records(self, out, capsys):
        spec = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"))
        for restarts in ("2", "3"):
            assert run_cli("sweep", "--spec", spec, "--restarts", restarts, "--max-evals", "400",
                           "--output-dir", str(out / "runs")) == 0
        capsys.readouterr()
        (first, first_digest), (second, second_digest) = sorted(
            _records(out / "runs"), key=lambda pair: pair[0].config["restarts"])
        assert (first.config["restarts"], second.config["restarts"]) == (2, 3)
        assert first.config["max_evals"] == second.config["max_evals"] == 400
        assert first_digest != second_digest

    def test_a_spec_config_block_is_recorded_as_the_effective_setting(self, out, capsys):
        spec = self.write_spec(out / "spec.json", output=str(out / "sweep.csv"),
                               config={"restarts": 2, "tol": 1})
        assert run_cli("sweep", "--spec", spec, "--restarts", "5", "--max-evals", "400",
                       "--output-dir", str(out / "runs")) == 0
        capsys.readouterr()
        ((record, _),) = _records(out / "runs")
        assert {key: record.config[key] for key in ("restarts", "max_evals", "tol")} == {
            "restarts": 2, "max_evals": 400, "tol": 1.0}
        assert type(record.config["tol"]) is float
        sidecar = json.loads((out / "sweep.json").read_text())
        assert sidecar["config"] == {"restarts": 2, "max_evals": 400, "tol": 1.0}

    @pytest.mark.parametrize("argv", (
        ["eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--restarts", "2"],
        ["sweep", "--spec", "SPEC", "--max-evals", "400"],
    ), ids=["eval", "sweep"])
    def test_a_tol_flag_and_config_key_give_one_record(self, out, capsys, argv):
        spec = self.write_spec(out / "spec.json", config={"restarts": 2})
        argv = [spec if arg == "SPEC" else arg for arg in argv]
        config = out / "config.json"
        config.write_text(json.dumps({"tol": 1}))
        assert run_cli(*argv, "--tol", "1", "--output-dir", str(out / "flag")) == 0
        assert run_cli(*argv, "--config", str(config), "--output-dir", str(out / "file")) == 0
        capsys.readouterr()
        ((flag, flag_digest),) = _records(out / "flag")
        ((file, file_digest),) = _records(out / "file")
        assert flag.config == file.config
        assert json.dumps(flag.config) == json.dumps(file.config)
        assert flag.config["tol"] == 1.0
        assert flag_digest == file_digest

    def test_the_outputs_are_listed_in_the_order_written(self, out, capsys):
        spec = self.write_spec(out / "spec.json", config={"restarts": 2, "max_evals": 400})
        assert run_cli("sweep", "--spec", spec, "--output-dir", str(out / "runs")) == 0
        capsys.readouterr()
        ((record, _),) = _records(out / "runs")
        run_dir = out / "runs" / record.run_id
        assert record.outputs == [str(run_dir / "sweep.csv"), str(run_dir / "sweep.json")]
        assert sorted(p.name for p in run_dir.iterdir()) == ["record.json", "sweep.csv",
                                                             "sweep.json"]

    def test_an_output_path_inside_an_output_dir_not_yet_made(self, out, capsys):
        runs = out / "runs"
        assert run_cli("reduce", "--arity", "2", "--all-relevant",
                       "--output", str(runs / "functions.txt"), "--output-dir", str(runs)) == 0
        capsys.readouterr()
        ((record, _),) = _records(runs)
        assert record.outputs == [str(runs / "functions.txt")]
        assert (runs / "functions.txt").read_text() == "2:1\n2:6\n"


class TestUnknownKeysAndFileErrors:
    """Refused with exit 3 and no run directory."""

    def test_a_config_key_that_names_no_setting(self, out, capsys):
        config = out / "config.json"
        config.write_text(json.dumps({"restart": 2, "sed": 4}))
        code = run_cli("eval", "--state", "epr", "--f", "xy", "--g", "a^b",
                       "--config", str(config), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert "unknown config key 'restart'" in capsys.readouterr().err

    @pytest.mark.parametrize("block, key", [({"restart": 2}, "restart"), ({"seed": 3}, "seed"),
                                            ({"restarts": 2, "state": "ghz4"}, "state")])
    def test_a_spec_config_key_that_names_no_optimizer_setting(self, out, capsys, block, key):
        spec = out / "spec.json"
        spec.write_text(json.dumps(TestRunRecords.SPEC | {"config": block,
                                                          "output": str(out / "sweep.csv")}))
        code = run_cli("sweep", "--spec", str(spec), "--output-dir", str(out / "runs"))
        assert code == VALIDATION_ERROR
        assert not (out / "runs").exists()
        assert not (out / "sweep.csv").exists()
        assert f"unknown sweep spec config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["reduce", "--arity", "2", "--output", "DIR"],
        ["search", "--state", "epr", "--g", "a^b", "--functions", "DIR"],
        ["eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--config", "DIR"],
        ["eval", "--state", "epr", "--f", "xy", "--g", "a^b", "--mode", "classical",
         "--output-dir", "FILE"],
        ["reduce", "--arity", "2", "--output-dir", "FILE"],
    ], ids=["reduce-output-is-a-directory", "search-functions-is-a-directory",
            "config-is-a-directory", "eval-output-dir-is-a-file", "reduce-output-dir-is-a-file"])
    def test_a_path_of_the_wrong_kind(self, out, capsys, argv):
        (out / "a-directory").mkdir()
        (out / "a-file").write_text("")
        argv = [{"DIR": str(out / "a-directory"), "FILE": str(out / "a-file")}.get(a, a)
                for a in argv]
        if "--output-dir" not in argv:
            argv += ["--output-dir", str(out / "runs")]
        assert run_cli(*argv) == VALIDATION_ERROR
        assert list((out / "runs").glob("*")) == []
        assert list((out / "a-directory").iterdir()) == []
        assert (out / "a-file").read_text() == ""
        assert capsys.readouterr().err.startswith("error: ")
