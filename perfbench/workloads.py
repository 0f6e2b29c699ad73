"""The workloads: inputs made from a seed, rounds of operations, and output checks.

Every workload repeats whole rounds of the same operations.  A round
returns the wall time of each operation (only the calls into qgames are
timed), the gains that ``gain_mean`` averages, and the outputs that
``check`` compares with ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

GHZ_F = "xyz + xy!w + xz!w + yz!w + w!x!y!z"
PARITY_G = "a^b^c^d"
W_F = "wx+wy+wz+xy+xz+yz"
W_G = "!abcd + a!bcd + ab!cd + abc!d"

# The README's benchmark games: state, f, g and the same f and g as predicates.
PAPER_GAMES = (
    ("epr", "xy", "a^b", ref.chsh_f, ref.xor_g),
    ("ghz4", GHZ_F, PARITY_G, ref.ghz_f, ref.xor_g),
    ("w4", W_F, W_G, ref.w_f, ref.w_g),
    ("ghz4", W_F, W_G, ref.w_f, ref.w_g),
    ("mp", GHZ_F, PARITY_G, ref.ghz_f, ref.xor_g),
    ("c1", GHZ_F, PARITY_G, ref.ghz_f, ref.xor_g),
    ("l", GHZ_F, PARITY_G, ref.ghz_f, ref.xor_g),
)
SWEEP_A = (1.0, 10.0, 3)

# The search scans one fixed stratified subsample of the reduced space, so
# that gain_mean compares optimizers rather than subsample draws; the
# workload seed is the optimizer's master seed.
SEARCH_SIZE = 12
SEARCH_SUBSAMPLE_SEED = 1729
POOL_PROBE_SIZE = 8

QUANTUM_ATOL = 1e-9


@dataclass
class Round:
    """One round: the time of each operation, in the same order every round."""

    op_seconds: list[float]
    games: int
    attempted: int
    failed: int = 0
    gains: list[float] = field(default_factory=list)
    outputs: object = None

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


def quiet_cli(qg, argv: list[str]) -> tuple[int, str]:
    """``qgames`` command line in-process: exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qg.cli.main(argv)
    return code, out.getvalue()


def _timed_cli(qg, argv: list[str]) -> tuple[float, int, str]:
    start = time.perf_counter()
    code, text = quiet_cli(qg, argv)
    return time.perf_counter() - start, code, text


def warmup_chsh(qg, quantum: bool):
    """The CHSH game every fresh process plays once before measuring."""
    eq = qg.GameEquation(qg.parse_table("xy", qg.QUESTION_VARS[2]),
                         qg.parse_table("a^b", qg.ANSWER_VARS[2]))
    qg.classical_best(eq)
    if quantum:
        qg.optimize_quantum(qg.make_named_state("epr"), eq, qg.OptimizerConfig())


def _check_gains(label: str, classical: float, quantum: float | None, gap: float | None,
                 classical_ref: float) -> list[str]:
    problems = []
    if classical != classical_ref:
        problems.append(f"{label}: classical {classical} != enumerated {classical_ref}")
    if classical < 0.5:
        problems.append(f"{label}: classical {classical} below 1/2")
    for value in (classical, quantum):
        if value is not None and not 0.0 <= value <= 1.0:
            problems.append(f"{label}: gain {value} outside [0, 1]")
    if quantum is not None and gap != quantum - classical:
        problems.append(f"{label}: gap {gap} != quantum - classical")
    return problems


def _check_simulated(label: str, quantum: float, simulated: float) -> list[str]:
    if abs(quantum - simulated) > QUANTUM_ATOL:
        return [f"{label}: quantum {quantum!r} but the strategy simulates to {simulated!r}"]
    return []


class SearchGhz4:
    """search_space over a stratified subsample, g = a^b^c^d, ghz4, one worker."""

    name = "search-ghz4"
    quantum = True
    evals = slice(None)  # the operations that are single games

    def __init__(self, qg, seed: int, scratch: Path):
        self.qg = qg
        space = qg.reduce_function_space(4)
        self.tables = qg.stratified_subsample(list(space), SEARCH_SIZE, SEARCH_SUBSAMPLE_SEED)
        self.g = qg.parse_table(PARITY_G, qg.ANSWER_VARS[4])
        self.psi = qg.make_named_state("ghz4")
        self.cfg = qg.OptimizerConfig(seed=seed)
        self.first = None

    def pool_inputs(self):
        return self.g, self.psi, self.tables[:POOL_PROBE_SIZE]

    def prepare_checks(self):
        self.f_rows = np.array([ref.hex_values(t.to_text()) for t in self.tables])
        self.g_values = ref.table_values(ref.xor_g, 4)
        self.classical = ref.classical_wins(self.f_rows, self.g_values).max(axis=1) / 16
        self.state = ref.named_state("ghz4")

    def run_round(self, index: int) -> Round:
        qg = self.qg
        stamps = []
        start = time.perf_counter()
        results = qg.search_space(self.g, self.psi, self.cfg, self.tables, workers=1,
                                  state_descriptor="ghz4",
                                  progress=lambda done, total: stamps.append(time.perf_counter()))
        op_seconds = list(np.diff([start, *stamps]))
        return Round(op_seconds, games=len(results), attempted=len(results),
                     gains=[r.quantum_gain for r in results], outputs=results)

    def check(self, rnd: Round) -> list[str]:
        results = rnd.outputs
        if self.first is not None:
            same = all(a.to_json_dict() == b.to_json_dict() for a, b in zip(self.first, results))
            return [] if same else ["search results differ between rounds of one seed"]
        self.first = results
        problems = []
        if [r.equation.f.to_text() for r in results] != [t.to_text() for t in self.tables]:
            problems.append("search results are not in input order")
        for r, f_row, classical in zip(results, self.f_rows, self.classical):
            label = f"search {r.equation.f.to_text()}"
            problems += _check_gains(label, r.classical_gain, r.quantum_gain, r.gap, classical)
            simulated = ref.simulate(self.state, r.quantum_strategy.angles, f_row, self.g_values)
            problems += _check_simulated(label, r.quantum_gain, simulated)
        return problems


class PaperGames:
    """The paper's games through ``qgames eval``, then a warm-started 1D sweep."""

    name = "paper-games"
    quantum = True
    evals = slice(0, len(PAPER_GAMES))

    def __init__(self, qg, seed: int, scratch: Path):
        self.qg, self.seed, self.scratch = qg, seed, scratch
        self.spec_path = scratch / "sweep-spec.json"
        start, stop, steps = SWEEP_A
        self.spec_path.write_text(json.dumps({
            "family": "l_a2_0_3p1",
            "axes": [{"param": "a", "start": start, "stop": stop, "steps": steps}],
            "f": GHZ_F, "g": PARITY_G, "output": str(scratch / "sweep.csv"),
        }))

    def prepare_checks(self):
        self.refs = []
        for state, _, _, f, g in PAPER_GAMES:
            n = 2 if state == "epr" else 4
            f_values, g_values = ref.table_values(f, n), ref.table_values(g, n)
            self.refs.append((f_values, g_values, ref.classical_optimum(f_values, g_values),
                              ref.named_state(state)))
        self.sweep_f = ref.table_values(ref.ghz_f, 4)
        self.sweep_g = ref.table_values(ref.xor_g, 4)

    def pass_seed(self, index: int) -> int:
        return int(np.random.SeedSequence((self.seed, index)).generate_state(1)[0] >> 1)

    def run_round(self, index: int) -> Round:
        qg = self.qg
        seed = str(self.pass_seed(index))
        op_seconds, records, codes = [], [], []
        for game, (state, f, g, _, _) in enumerate(PAPER_GAMES):
            out_dir = self.scratch / f"pass{index}-game{game}"
            seconds, code, _ = _timed_cli(qg, ["--seed", seed, "--output-dir", str(out_dir),
                                               "eval", "--state", state, "--f", f, "--g", g])
            op_seconds.append(seconds)
            codes.append(code)
            files = sorted(out_dir.glob("*/result.json"))
            records.append(json.loads(files[0].read_text()) if code == 0 and files else None)
        seconds, code, _ = _timed_cli(qg, ["--seed", seed, "--output-dir",
                                           str(self.scratch / f"pass{index}-sweep"),
                                           "sweep", "--spec", str(self.spec_path)])
        sweep_rows = list(_read_csv(self.scratch / "sweep.csv")) if code == 0 else []
        steps = SWEEP_A[2]
        readable = sum(1 for row in sweep_rows if not row["unreadable"])
        failed = sum(1 for c in codes if c != 0) + steps - readable
        return Round(op_seconds + [seconds], games=len(PAPER_GAMES) + steps,
                     attempted=len(PAPER_GAMES) + steps, failed=failed,
                     gains=[r["quantum"] for r in records if r is not None],
                     outputs=(seed, records, sweep_rows))

    def check(self, rnd: Round) -> list[str]:
        seed, records, sweep_rows = rnd.outputs
        problems = []
        gains = {}
        for (state, f, g, *_), record, (f_values, g_values, classical, amps) in zip(
                PAPER_GAMES, records, self.refs):
            if record is None:
                continue
            label = f"eval {state} {f} = {g}"
            problems += _check_gains(label, record["classical"], record["quantum"],
                                     record["gap"], classical)
            if str(record["seed"]) != seed:
                problems.append(f"{label}: seed {record['seed']} != {seed}")
            simulated = ref.simulate(amps, record["strategy"]["angles"], f_values, g_values)
            problems += _check_simulated(label, record["quantum"], simulated)
            gains[(state, f)] = record["quantum"]
        for key in (("epr", "xy"), ("ghz4", GHZ_F)):
            gain = gains.get(key)
            if gain is not None and not (abs(gain - ref.TSIRELSON) <= 1e-4
                                         and gain <= ref.TSIRELSON + 1e-9):
                problems.append(f"{key[0]} game gain {gain!r} is not cos^2(pi/8)")
        w4, w_ghz = gains.get(("w4", W_F)), gains.get(("ghz4", W_F))
        if w4 is not None and w_ghz is not None and not w4 > w_ghz:
            problems.append(f"W game: w4 gain {w4} does not exceed ghz4 gain {w_ghz}")
        start, stop, steps = SWEEP_A
        if sweep_rows and [row["a"] for row in sweep_rows] != list(np.linspace(start, stop, steps)):
            problems.append("sweep rows are not the requested grid")
        for row in sweep_rows:
            label = f"sweep a={row['a']}"
            if row["valid"] != 1 or not 0.0 <= row["gain"] <= ref.TSIRELSON + 1e-6:
                problems.append(f"{label}: gain {row['gain']} invalid or above cos^2(pi/8)")
            simulated = ref.simulate(ref.l_a2_0_3p1_state(row["a"]), row["angles"],
                                     self.sweep_f, self.sweep_g)
            problems += _check_simulated(label, row["gain"], simulated)
        return problems


def _read_csv(path: Path):
    """Sweep CSV rows; a row is unreadable when a numeric field does not parse as a float.

    Unreadable angle fields of the form ``np.float64(x)`` are still read, so
    that their gains can be checked.
    """
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        fields = dict(zip(header, line.split(",")))
        unreadable = False
        values = {}
        for key, text in fields.items():
            try:
                values[key] = float(text)
            except ValueError:
                unreadable = True
                values[key] = float(text.removeprefix("np.float64(").removesuffix(")"))
        angles = [[[values[f"{p}_{i}_{q}"] for p in ("theta", "phi", "lambda")]
                   for q in (0, 1)] for i in range(1, 5)]
        yield {"a": values["a"], "gain": values["gain"], "valid": int(values["valid"]),
               "angles": angles, "unreadable": unreadable}


class ClassicalSpace:
    """``qgames reduce`` of the arity-4 space, then classical_best for every listed f."""

    name = "classical-space"
    quantum = False
    evals = slice(1, None)

    def __init__(self, qg, seed: int, scratch: Path):
        self.qg, self.seed, self.scratch = qg, seed, scratch
        self.gs = [qg.parse_table(PARITY_G, qg.ANSWER_VARS[4]),
                   qg.parse_table(W_G, qg.ANSWER_VARS[4])]

    def prepare_checks(self):
        self.classes, self.relevant = ref.relevant_class_tables(4)
        self.burnside = ref.burnside_classes(4)
        f_rows = np.array([[(t >> i) & 1 for i in range(16)] for t in self.relevant])
        self.wins = [ref.classical_wins(f_rows, ref.table_values(g, 4))
                     for g in (ref.xor_g, ref.w_g)]
        self.index = {t: i for i, t in enumerate(self.relevant)}

    def run_round(self, index: int) -> Round:
        qg = self.qg
        out_dir = self.scratch / f"reduce{index}"
        functions = out_dir / "functions.txt"
        reduce_s, code, text = _timed_cli(qg, [
            "--seed", str(self.seed), "--output-dir", str(out_dir), "reduce", "--arity", "4",
            "--all-relevant", "--output", str(functions)])
        if code != 0:
            raise RuntimeError(f"qgames reduce exited with code {code}")
        tables = [qg.TruthTable.from_text(line) for line in functions.read_text().split()]
        equations = [qg.GameEquation(t, g) for g in self.gs for t in tables]
        order = np.random.default_rng(np.random.SeedSequence((self.seed, index))).permutation(
            len(equations))
        op_seconds, answers = [0.0] * len(equations), [None] * len(equations)
        for i in order:
            start = time.perf_counter()
            gain, maximizers = qg.classical_best(equations[i])
            op_seconds[i] = time.perf_counter() - start
            answers[i] = (gain, [s.encoding for s in maximizers])
        return Round([reduce_s] + op_seconds, games=len(equations), attempted=1 + len(equations),
                     gains=[gain for gain, _ in answers],
                     outputs=(json.loads(text), tables, equations, answers))

    def check(self, rnd: Round) -> list[str]:
        summary, tables, equations, answers = rnd.outputs
        problems = []
        counts = summary["stage_counts"]
        expected = {"full_space": 1 << 16, "after_output_flip": (1 << 16) // 2,
                    "after_variant_dedup": self.burnside,
                    "after_relevance_filter": len(self.relevant)}
        if self.classes != self.burnside:
            problems.append(f"brute force finds {self.classes} classes, Burnside {self.burnside}")
        if counts != expected:
            problems.append(f"reduce stage counts {counts} != {expected}")
        if [t.bits for t in tables] != self.relevant:
            problems.append("reduce lists other functions than the brute-force pass")
            return problems
        g_index = {id(g): k for k, g in enumerate(self.gs)}
        for eq, (gain, encodings) in zip(equations, answers):
            wins = self.wins[g_index[id(eq.g)]][self.index[eq.f.bits]]
            best = int(wins.max())
            label = f"classical {eq.f.to_text()} = {eq.g.to_text()}"
            problems += _check_gains(label, gain, None, None, best / 16)
            if encodings != list(np.flatnonzero(wins == best)):
                problems.append(f"{label}: maximizers differ from the enumeration")
        return problems


WORKLOADS = {w.name: w for w in (SearchGhz4, PaperGames, ClassicalSpace)}
