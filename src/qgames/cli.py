"""Command-line front end: reduce, eval, search, score, and sweep.

One table, ``_SETTINGS``, declares every setting once; it builds the parser,
fills the defaults and checks config files.  ``main`` resolves every setting
once: the flag if given, else the key of the same name in the ``--config``
file, else its default (None for settings with no default).  The handlers
read only the resolved ``args``; a sweep spec's ``config`` block alone comes
ahead of all three, for the optimizer settings of that sweep.

Each run is one ``_Run``: its handler writes files through it, then ``main``
writes its RunRecord (every setting that decides the results, plus workers;
seed, tool version, output paths, wall clock) into a new directory under
``--output-dir``, made at the first write, so any artifact file can be traced
back to the invocation that produced it.  Results files themselves contain no
wall-clock fields: given the same seed they are byte-identical for any worker count.

Exit codes: 0 success, 2 usage or expression parse error, 3 numeric or
validation failure, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import hashlib
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .boolfn import (
    ANSWER_VARS,
    QUESTION_VARS,
    SUPPORTED_ARITIES,
    GameEquation,
    ParseError,
    TruthTable,
    parse_table,
    reduce_function_space,
)
from .quantum import FamilyId, _parse_complex, check_family_params, parse_state_literal
from .search import (
    GameResult,
    OptimizerConfig,
    average_gap,
    classical_best,
    game_score,
    optimize_quantum,
    search_space,
    stratified_subsample,
)
from .sweep import SweepAxis, SweepSpec, run_sweep

_TABLE_LITERAL = re.compile(r"^\s*\d+\s*:")

USAGE_ERROR = 2
VALIDATION_ERROR = 3


@dataclass
class RunRecord:
    run_id: str
    subcommand: str
    config: dict
    seed: int
    version: str
    outputs: list[str]
    elapsed_s: float


class _Setting(NamedTuple):
    """One setting: its value type (bool for an on/off flag), its default (the value
    when neither its flag nor the config file gives one), the subcommands that take
    it (None for a global setting) and its flag's help text and choices."""

    kind: type
    default: object = None
    commands: tuple[str, ...] | None = None
    help: str | None = None
    choices: tuple | None = None


_OPTIMIZER = OptimizerConfig()
_GAMES = ("eval", "search", "score")
_SEARCHES = ("search", "score")
_OPTIMIZED = (*_GAMES, "sweep")

#: Every setting, by config key; its flag is the key with ``-`` for ``_``.
_SETTINGS = {
    "seed": _Setting(int, _OPTIMIZER.seed, help=f"master seed (default {_OPTIMIZER.seed})"),
    "workers": _Setting(int, os.cpu_count() or 1,
                        help="worker processes for batch searches (default: cpu count)"),
    "output_dir": _Setting(str, "runs", help="run-record directory (default ./runs)"),
    "config": _Setting(str, help="JSON config file mirroring the flags"),
    "arity": _Setting(int, 4, ("reduce",), choices=SUPPORTED_ARITIES),
    "all_relevant": _Setting(bool, False, ("reduce",),
                             help="keep only functions using every variable (the paper's 2,191 "
                                  "at arity 4; without it, 2,288, of which 97 ignore a variable)"),
    "keep_complements": _Setting(bool, False, ("reduce",),
                                 help="do not identify a function with its output complement"),
    "state": _Setting(str, None, _GAMES,
                      help="state literal: named (ghz4), family (g_abcd:a=1,...) or JSON amplitudes"),
    "f": _Setting(str, None, ("eval",), help="question-side expression or n:HEX table"),
    "mode": _Setting(str, "both", ("eval",), choices=("classical", "quantum", "both")),
    "functions": _Setting(str, None, _SEARCHES, help="file of n:HEX tables, one per line"),
    "sample": _Setting(int, None, _SEARCHES, help="stratified subsample size before searching"),
    "output": _Setting(str, None, ("reduce", "search"),
                       help="reduce: functions file path; search: JSON-lines results path"),
    "g": _Setting(str, None, _GAMES, help="answer-side expression or n:HEX table"),
    "spec": _Setting(str, None, ("sweep",), help="sweep specification JSON file"),
    "restarts": _Setting(int, _OPTIMIZER.restarts, _OPTIMIZED),
    "max_evals": _Setting(int, _OPTIMIZER.max_evals, _OPTIMIZED,
                          help="cap on best-response updates per restart; one sweep over "
                               "every (player, question bit) is 2n updates "
                               f"(default {_OPTIMIZER.max_evals})"),
    "tol": _Setting(float, _OPTIMIZER.tol, _OPTIMIZED),
}

#: Settings that say where a run's settings and files are or how many processes it
#: uses, not what it computes: a run's recorded config is every other setting it takes.
_UNRECORDED = ("workers", "output_dir", "config", "output")

#: The keys a sweep spec's ``config`` block takes.
_SPEC_CONFIG = ("restarts", "max_evals", "tol")


def _settings(subcommand: str) -> dict[str, _Setting]:
    """The settings ``subcommand`` takes: the global ones and its own."""
    return {key: setting for key, setting in _SETTINGS.items()
            if setting.commands is None or subcommand in setting.commands}


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``; ValueError if it is malformed or too deep."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path!r} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} {path!r} nests too deeply") from None


def load_run_record(path: str | Path) -> RunRecord:
    data = json.loads(Path(path).read_text())
    return RunRecord(**data)


def load_results_jsonl(path: str | Path) -> tuple[list[GameResult], dict | None]:
    """Read a search output file back into results plus the summary record."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    summaries = [record for record in records if "game_score" in record]
    results = [GameResult.from_json_dict(record) for record in records
               if "game_score" not in record]
    return results, summaries[-1] if summaries else None


def _parse_side(text: str, arity: int, side: str) -> TruthTable:
    """Equation side from either an ``n:HEX`` literal or an expression."""
    if _TABLE_LITERAL.match(text):
        table = TruthTable.from_text(text)
        if table.arity != arity:
            raise ValueError(f"{side} table has arity {table.arity}, expected {arity}")
        return table
    alphabet = QUESTION_VARS[arity] if side == "f" else ANSWER_VARS[arity]
    return parse_table(text, alphabet)


def _flat_object(value, what: str) -> dict:
    """``value`` if it is a JSON object of strings, numbers and booleans, else ValueError."""
    flat = isinstance(value, dict) and all(isinstance(v, (str, int, float)) for v in value.values())
    if not flat:
        raise ValueError(f"{what} must be a JSON object of strings, numbers and booleans")
    return value


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(**{key: getattr(args, key) for key in (*_SPEC_CONFIG, "seed")})


def _dumps(record: dict, **kwargs) -> str:
    """JSON text that refuses NaN and infinities, which are not valid JSON."""
    return json.dumps(record, allow_nan=False, **kwargs)


# --- Subcommand handlers ----------------------------------------------------------


class _Run:
    """One invocation of a subcommand: its resolved settings, the files it has written
    and, from the first write into it, its directory under ``--output-dir``."""

    def __init__(self, args):
        self.args = args
        self.outputs: list[Path] = []
        self._t0 = time.perf_counter()

    def config(self) -> dict:
        """The settings that decide the run's results: all it takes but ``_UNRECORDED``."""
        return {key: getattr(self.args, key) for key in _settings(self.args.subcommand)
                if key not in _UNRECORDED}

    @functools.cached_property
    def directory(self) -> Path:
        """The run's directory, made on first use.  Run ids are never reused."""
        stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        digest = hashlib.sha256(
            json.dumps(self.config(), sort_keys=True, default=str).encode()
        ).hexdigest()[:8]
        base = Path(self.args.output_dir) / f"{stamp}-{self.args.subcommand}-{digest}"
        run_dir = base
        counter = 1
        while run_dir.exists():
            counter += 1
            run_dir = base.with_name(f"{base.name}-{counter}")
        run_dir.mkdir(parents=True)
        return run_dir

    def write(self, name: str, text: str, path: str | Path | None = None) -> Path:
        """Write ``text`` to ``path`` if given, else to ``name`` in the run directory."""
        Path(self.args.output_dir).mkdir(parents=True, exist_ok=True)  # ``path`` may lie in it
        out_path = Path(path or self.directory / name)
        out_path.write_text(text)
        self.outputs.append(out_path)
        return out_path

    def record(self) -> None:
        """Write the run's RunRecord into its directory."""
        record = RunRecord(
            run_id=self.directory.name, subcommand=self.args.subcommand,
            config=self.config() | {"workers": self.args.workers}, seed=self.args.seed,
            version=__version__, outputs=[str(path) for path in self.outputs],
            elapsed_s=time.perf_counter() - self._t0,
        )
        (self.directory / "record.json").write_text(_dumps(asdict(record), indent=2) + "\n")


def _cmd_reduce(args, run: _Run) -> None:
    space = reduce_function_space(
        args.arity, require_all_relevant=args.all_relevant,
        include_output_flip=not args.keep_complements,
    )
    out_path = run.write("functions.txt", "".join(t.to_text() + "\n" for t in space),
                         args.output)
    print(_dumps({"stage_counts": space.stage_counts(), "output": str(out_path)}, indent=2))


def _cmd_eval(args, run: _Run) -> None:
    """Play one game and write ``search``'s record of it; ``--mode`` may leave one half unset."""
    if not args.state or not args.f or not args.g:
        raise ValueError("eval needs --state, --f and --g")
    psi = parse_state_literal(args.state)
    eq = GameEquation(_parse_side(args.f, psi.n, "f"), _parse_side(args.g, psi.n, "g"))
    cfg = _optimizer_config(args)
    t0 = time.perf_counter()  # the game's own time, for the result's elapsed_ms
    classical = quantum = gap = strategy = None
    if args.mode in ("classical", "both"):
        classical, _ = classical_best(eq)
    if args.mode in ("quantum", "both"):
        quantum, strategy = optimize_quantum(psi, eq, cfg)
    if args.mode == "both":
        gap = quantum - classical
    result = GameResult(eq, classical, quantum, strategy, gap, args.state, cfg.seed,
                        elapsed_ms=(time.perf_counter() - t0) * 1000.0)
    text = _dumps(result.to_json_dict(), indent=2)
    run.write("result.json", text + "\n")
    print(text)


def _load_functions(path: str, arity: int) -> list[TruthTable]:
    tables = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            table = TruthTable.from_text(line)
            if table.arity != arity:
                raise ValueError(f"function {line!r} has arity {table.arity}, expected {arity}")
            tables.append(table)
    if not tables:
        raise ValueError(f"functions file {path!r} is empty")
    return tables


def _run_search(args) -> tuple[list[GameResult], dict]:
    """The search of ``search`` and ``score``: its results and its summary record."""
    if not args.state or not args.g or not args.functions:
        raise ValueError("search needs --state, --g and --functions")
    psi = parse_state_literal(args.state)
    g = _parse_side(args.g, psi.n, "g")
    tables = _load_functions(args.functions, psi.n)
    cfg = _optimizer_config(args)
    if args.sample is not None:
        tables = stratified_subsample(tables, args.sample, cfg.seed)
    results = search_space(
        g, psi, cfg, tables, workers=args.workers, state_descriptor=args.state
    )
    ranked = sorted(results, key=lambda r: -r.gap)
    try:
        avg = average_gap(results)
    except ValueError:
        avg = None
    return results, {
        "count": len(results),
        "game_score": game_score(results),
        "average_gap": avg,
        "top_gaps": [
            {
                "f": r.equation.f.to_text(),
                "gap": r.gap,
                "quantum": r.quantum_gain,
                "classical": r.classical_gain,
            }
            for r in ranked[:10]
        ],
        "g": g.to_text(),
        "state": args.state,
        "config": asdict(cfg),
    }


def _cmd_search(args, run: _Run) -> None:
    results, summary = _run_search(args)
    records = [r.to_json_dict() for r in results] + [summary]
    text = "".join(_dumps(record, separators=(",", ":")) + "\n" for record in records)
    run.write("results.jsonl", text, args.output)
    print(_dumps(summary, indent=2))


def _cmd_score(args, run: _Run) -> None:
    _, summary = _run_search(args)
    report = {key: summary[key] for key in ("state", "g", "count", "game_score", "average_gap")}
    report["max_gap"] = summary["top_gaps"][0] if summary["top_gaps"] else None
    text = _dumps(report, indent=2)
    run.write("score.json", text + "\n")
    print(text)


def _sweep_spec_from_file(args) -> SweepSpec:
    raw = _read_json(args.spec, "sweep spec")
    if not (isinstance(raw, dict) and isinstance(raw.get("axes", []), list)
            and isinstance(raw.get("fixed", {}), dict)
            and isinstance(raw.get("output") or "", str)):
        raise ValueError(f"sweep spec {args.spec!r} must be a JSON object with an axes list, "
                         "a fixed object and a string output")
    name = _typed(raw.get("family"), str, "a sweep spec's family").lower()
    family = next((f for f in FamilyId if f.value == name), None)
    if family is None:
        raise ValueError(f"unknown family {raw.get('family')!r}")
    raw_axes = [_flat_object(a, "each sweep axis") for a in raw.get("axes", [])]
    # axes default to the standard landscape grid: [-9, 9] at 37 steps
    axes = tuple(
        SweepAxis(
            param=_typed(a.get("param"), str, "a sweep axis's param").lower(),
            start=float(_typed(a.get("start", -9.0), float, "a sweep axis's start")),
            stop=float(_typed(a.get("stop", 9.0), float, "a sweep axis's stop")),
            steps=_typed(a.get("steps", 37), int, "a sweep axis's steps"),
        )
        for a in raw_axes
    )
    raw_fixed = raw.get("fixed", {})
    # keys that differ only in case would collapse into one entry of ``fixed``
    check_family_params(family, [ax.param for ax in axes] + [k.lower() for k in raw_fixed])
    fixed = {k.lower(): _parse_complex(v) for k, v in raw_fixed.items()}
    f_table = _parse_side(_typed(raw.get("f"), str, "a sweep spec's f"), 4, "f")
    g_table = _parse_side(_typed(raw.get("g"), str, "a sweep spec's g"), 4, "g")
    # the spec's config block comes ahead of the flags, so it overrides them in ``args``
    block = _flat_object(raw.get("config") or {}, "a sweep spec's config")
    vars(args).update(_config_values(block, "sweep", _SPEC_CONFIG, "sweep spec config key"))
    return SweepSpec(family=family, axes=axes, equation=GameEquation(f_table, g_table),
                     fixed=fixed, config=_optimizer_config(args), output_path=raw.get("output"))


def _cmd_sweep(args, run: _Run) -> None:
    if not args.spec:
        raise ValueError("sweep needs --spec")
    spec = _sweep_spec_from_file(args)
    result = run_sweep(spec)
    csv_path = run.write("sweep.csv", result.to_csv(), spec.output_path)
    sidecar_path = run.write("sweep.json", _dumps(result.sidecar_dict(), indent=2) + "\n",
                             csv_path.with_suffix(".json"))
    print(_dumps({
        "points": len(result.points), "valid": sum(1 for p in result.points if p.valid),
        "csv": str(csv_path), "sidecar": str(sidecar_path),
    }, indent=2))


# --- Parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Classical vs quantum winning probabilities for n-player CHSH-style games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, (_, text) in _HANDLERS.items()}
    for key, setting in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        options = ({"action": "store_const", "const": True} if setting.kind is bool
                   else {"type": setting.kind, "choices": setting.choices})
        options["help"] = setting.help
        if setting.commands is None:
            # a global flag goes before the subcommand or after it, where its
            # copy sets nothing unless given, so it leaves the first one alone
            parser.add_argument(flag, **options)
            options["default"] = argparse.SUPPRESS
        for name in setting.commands or commands:
            commands[name].add_argument(flag, **options)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: ``parse_args`` leaves a parser unchanged."""
    return build_parser()


#: The JSON value types a config key takes, by its setting's type (a boolean is no number).
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _typed(value, kind: type, what: str):
    """``value`` if its JSON type suits a flag of type ``kind``, else ValueError."""
    if type(value) not in _CONFIG_TYPES[kind]:
        raise ValueError(f"{what} takes {kind.__name__} values, got {value!r}")
    return value


def _config_values(config: dict, subcommand: str, keys=_SETTINGS,
                   what: str = "config key") -> dict:
    """``config``'s values for the settings of ``subcommand``, each as its setting's type.
    ValueError for a key not in ``keys``, or for a value of the wrong type or, if its
    setting has choices, not one of them.  Keys of other subcommands' settings are left
    out, as ``subcommand`` never reads them."""
    settings = _settings(subcommand)
    for key, value in config.items():
        if key not in keys:
            raise ValueError(f"unknown {what} {key!r}; the keys are {', '.join(keys)}")
        if key in settings:
            _typed(value, settings[key].kind, f"{what} {key!r}")
            choices = settings[key].choices
            if choices is not None and value not in choices:
                raise ValueError(f"{what} {key!r} takes one of {list(choices)}, got {value!r}")
    return {key: settings[key].kind(value) for key, value in config.items() if key in settings}


#: Each subcommand's handler and help text.
_HANDLERS = {
    "reduce": (_cmd_reduce, "canonically reduce the Boolean function space"),
    "eval": (_cmd_eval, "evaluate one game"),
    "search": (_cmd_search, "optimize every function in a file"),
    "score": (_cmd_score, "search plus game-score report"),
    "sweep": (_cmd_sweep, "gain landscape over a family parameter grid"),
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        config = _config_values(
            _flat_object(_read_json(args.config, "config file"), "a config file"),
            args.subcommand,
        ) if args.config else {}
        for key, setting in _settings(args.subcommand).items():
            if getattr(args, key) is None:
                setattr(args, key, config.get(key, setting.default))
        if args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        run = _Run(args)
        _HANDLERS[args.subcommand][0](args, run)
        run.record()
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
