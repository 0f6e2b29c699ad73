"""Command-line front end: reduce, eval, search, score, and sweep.

One table, ``_SETTINGS``, declares every setting once; it builds the parser,
fills the defaults and checks config files.  ``main`` resolves every setting
once: the flag if given, else the key of the same name in the ``--config``
file, else its default (None for settings with no default).  The handlers
read only the resolved ``args``; a sweep spec's ``config`` block alone comes
ahead of all three, for the optimizer settings of that sweep.

Every run writes a RunRecord (resolved configuration, seed, tool version,
output paths, wall clock) to a new directory under ``--output-dir`` so any
artifact file can be traced back to the invocation that produced it.
Results files themselves contain no wall-clock fields: given the same seed
they are byte-identical for any worker count.

Exit codes: 0 success, 2 usage or expression parse error, 3 numeric or
validation failure.
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
from typing import Callable, NamedTuple

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
from .quantum import FamilyId, StateVector, _parse_complex, check_family_params, parse_state_literal
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

logger = logging.getLogger(__name__)

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
    results: list[GameResult] = []
    summary = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "game_score" in record:
                summary = record
            else:
                results.append(GameResult.from_json_dict(record))
    return results, summary


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


def _optimizer_config(args, first: dict | None = None) -> OptimizerConfig:
    """Optimizer settings: ``first`` (a sweep spec's config block), then the resolved ``args``."""
    first = _check_config_types(_flat_object(first or {}, "a sweep spec's config"),
                                args.subcommand)
    settings = vars(args) | first
    return OptimizerConfig(restarts=settings["restarts"], max_evals=settings["max_evals"],
                           tol=float(settings["tol"]), seed=args.seed)


def _dumps(record: dict, **kwargs) -> str:
    """JSON text that refuses NaN and infinities, which are not valid JSON."""
    return json.dumps(record, allow_nan=False, **kwargs)


def _json_line(record: dict) -> str:
    return _dumps(record, separators=(",", ":"))


# --- Subcommand handlers ----------------------------------------------------------


def _record_run(args, run_config: dict, t0: float, write: Callable[[Path], list[Path]]) -> int:
    """A new run directory under ``--output-dir``, the run's outputs (``write(run_dir)``
    returns their paths), then its record.  Run ids are never overwritten."""
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    digest = hashlib.sha256(
        json.dumps(run_config, sort_keys=True, default=str).encode()
    ).hexdigest()[:8]
    base = Path(args.output_dir) / f"{stamp}-{args.subcommand}-{digest}"
    run_dir = base
    counter = 1
    while run_dir.exists():
        counter += 1
        run_dir = base.with_name(f"{base.name}-{counter}")
    run_dir.mkdir(parents=True)
    outputs = [str(path) for path in write(run_dir)]
    record = RunRecord(
        run_id=run_dir.name, subcommand=args.subcommand,
        config=run_config | {"workers": args.workers}, seed=args.seed, version=__version__,
        outputs=outputs, elapsed_s=time.perf_counter() - t0,
    )
    (run_dir / "record.json").write_text(_dumps(asdict(record), indent=2) + "\n")
    return 0


def _cmd_reduce(args) -> int:
    t0 = time.perf_counter()
    space = reduce_function_space(
        args.arity, require_all_relevant=args.all_relevant,
        include_output_flip=not args.keep_complements,
    )
    run_config = {key: vars(args)[key]
                  for key in ("arity", "all_relevant", "keep_complements", "seed")}

    def write(run_dir: Path) -> list[Path]:
        out_path = Path(args.output or run_dir / "functions.txt")
        out_path.write_text("".join(t.to_text() + "\n" for t in space))
        print(_dumps({"stage_counts": space.stage_counts(), "output": str(out_path)}, indent=2))
        return [out_path]

    return _record_run(args, run_config, t0, write)


def _eval_record(psi: StateVector, state_text: str, eq: GameEquation, mode: str,
                 cfg: OptimizerConfig) -> dict:
    """The game's record as ``search`` writes it; ``mode`` may leave one half unset."""
    t0 = time.perf_counter()
    classical = quantum = gap = strategy = None
    if mode in ("classical", "both"):
        classical, _ = classical_best(eq)
    if mode in ("quantum", "both"):
        quantum, strategy = optimize_quantum(psi, eq, cfg)
    if mode == "both":
        gap = quantum - classical
    return GameResult(
        eq, classical, quantum, strategy, gap, state_text, cfg.seed,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
    ).to_json_dict()


def _cmd_eval(args) -> int:
    if not args.state or not args.f or not args.g:
        raise ValueError("eval needs --state, --f and --g")
    psi = parse_state_literal(args.state)
    eq = GameEquation(_parse_side(args.f, psi.n, "f"), _parse_side(args.g, psi.n, "g"))
    cfg = _optimizer_config(args)
    t0 = time.perf_counter()
    text = _dumps(_eval_record(psi, args.state, eq, args.mode, cfg), indent=2)
    print(text)
    run_config = {key: vars(args)[key] for key in ("state", "f", "g", "mode")} | asdict(cfg)

    def write(run_dir: Path) -> list[Path]:
        out_path = run_dir / "result.json"
        out_path.write_text(text + "\n")
        return [out_path]

    return _record_run(args, run_config, t0, write)


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


def _run_search(args):
    """The search of ``search`` and ``score``: its g, config, results and run config."""
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
    run_config = {key: vars(args)[key]
                  for key in ("state", "g", "functions", "sample")} | asdict(cfg)
    return g, cfg, results, run_config


def _summary_record(results, g: TruthTable, state_text: str, cfg: OptimizerConfig) -> dict:
    ranked = sorted(results, key=lambda r: -r.gap)
    try:
        avg = average_gap(results)
    except ValueError:
        avg = None
    return {
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
        "state": state_text,
        "config": asdict(cfg),
    }


def _cmd_search(args) -> int:
    t0 = time.perf_counter()
    g, cfg, results, run_config = _run_search(args)
    summary = _summary_record(results, g, args.state, cfg)
    lines = [_json_line(r.to_json_dict()) for r in results]
    lines.append(_json_line(summary))

    def write(run_dir: Path) -> list[Path]:
        out_path = Path(args.output or run_dir / "results.jsonl")
        out_path.write_text("".join(line + "\n" for line in lines))
        print(_dumps(summary, indent=2))
        return [out_path]

    return _record_run(args, run_config, t0, write)


def _cmd_score(args) -> int:
    t0 = time.perf_counter()
    g, cfg, results, run_config = _run_search(args)
    summary = _summary_record(results, g, args.state, cfg)
    text = _dumps({
        "state": args.state,
        "g": g.to_text(),
        "count": summary["count"],
        "game_score": summary["game_score"],
        "average_gap": summary["average_gap"],
        "max_gap": summary["top_gaps"][0] if summary["top_gaps"] else None,
    }, indent=2)

    def write(run_dir: Path) -> list[Path]:
        out_path = run_dir / "score.json"
        out_path.write_text(text + "\n")
        print(text)
        return [out_path]

    return _record_run(args, run_config, t0, write)


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
    return SweepSpec(family=family, axes=axes, equation=GameEquation(f_table, g_table),
                     fixed=fixed, config=_optimizer_config(args, raw.get("config")),
                     output_path=raw.get("output"))


def _cmd_sweep(args) -> int:
    if not args.spec:
        raise ValueError("sweep needs --spec")
    t0 = time.perf_counter()
    spec = _sweep_spec_from_file(args)
    result = run_sweep(spec)

    def write(run_dir: Path) -> list[Path]:
        csv_path = Path(spec.output_path or run_dir / "sweep.csv")
        csv_path.write_text(result.to_csv())
        sidecar_path = csv_path.with_suffix(".json")
        sidecar_path.write_text(_dumps(result.sidecar_dict(), indent=2) + "\n")
        print(_dumps({
            "points": len(result.points), "valid": sum(1 for p in result.points if p.valid),
            "csv": str(csv_path), "sidecar": str(sidecar_path),
        }, indent=2))
        return [csv_path, sidecar_path]

    return _record_run(args, {"spec": args.spec, "seed": args.seed}, t0, write)


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


def _check_config_types(config: dict, subcommand: str) -> dict:
    """``config`` if each key naming a setting of ``subcommand`` holds a value of its type
    and, if it has choices, one of them, else ValueError.  Keys of other subcommands'
    settings are left alone, as ``subcommand`` never reads them."""
    settings = _settings(subcommand)
    for key, value in config.items():
        if key in settings:
            _typed(value, settings[key].kind, f"config key {key!r}")
            choices = settings[key].choices
            if choices is not None and value not in choices:
                raise ValueError(f"config key {key!r} takes one of {list(choices)}, got {value!r}")
    return config


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
        config = _check_config_types(
            _flat_object(_read_json(args.config, "config file"), "a config file"),
            args.subcommand,
        ) if args.config else {}
        for key, setting in _settings(args.subcommand).items():
            if getattr(args, key) is None:
                setattr(args, key, config.get(key, setting.default))
        if args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        return _HANDLERS[args.subcommand][0](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
