"""Command-line front end: reduce, eval, search, score, and sweep.

``main`` resolves every setting once: the flag if given, else the key of
the same name in the ``--config`` file, else its ``_DEFAULTS`` entry (None
for settings with no default).  The handlers read only the resolved
``args``; a sweep spec's ``config`` block alone comes ahead of all three,
for the optimizer settings of that sweep.

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
from typing import Callable

from . import __version__
from .boolfn import (
    ANSWER_VARS,
    QUESTION_VARS,
    GameEquation,
    ParseError,
    TruthTable,
    parse_table,
    reduce_function_space,
)
from .quantum import FamilyId, StateVector, _parse_complex, parse_state_literal
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


#: The value of each setting that neither its flag nor the config file gives: the
#: optimizer's (restarts, max_evals, tol and seed, which is DEFAULT_SEED) and the CLI's own.
_DEFAULTS = asdict(OptimizerConfig()) | {
    "workers": os.cpu_count() or 1,
    "output_dir": "runs",
    "arity": 4,
    "all_relevant": False,
    "keep_complements": False,
    "mode": "both",
}


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
    if args.sample is not None:
        tables = stratified_subsample(tables, args.sample, args.seed)
    cfg = _optimizer_config(args)
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
    try:
        raw = json.loads(Path(args.spec).read_text())
    except RecursionError:
        raise ValueError(f"sweep spec {args.spec!r} nests too deeply") from None
    if not (isinstance(raw, dict) and isinstance(raw.get("axes", []), list)
            and isinstance(raw.get("fixed", {}), dict)
            and isinstance(raw.get("output") or "", str)):
        raise ValueError(f"sweep spec {args.spec!r} must be a JSON object with an axes list, "
                         "a fixed object and a string output")
    family = next((f for f in FamilyId if f.value == str(raw.get("family", "")).lower()), None)
    if family is None:
        raise ValueError(f"unknown family {raw.get('family')!r}")
    raw_axes = [_flat_object(a, "each sweep axis") for a in raw.get("axes", [])]
    # axes default to the standard landscape grid: [-9, 9] at 37 steps
    axes = tuple(
        SweepAxis(
            param=str(a["param"]).lower(),
            start=float(_typed(a.get("start", -9.0), float, "a sweep axis's start")),
            stop=float(_typed(a.get("stop", 9.0), float, "a sweep axis's stop")),
            steps=_typed(a.get("steps", 37), int, "a sweep axis's steps"),
        )
        for a in raw_axes
    )
    fixed = {k.lower(): _parse_complex(v) for k, v in raw.get("fixed", {}).items()}
    f_table = _parse_side(str(raw["f"]), 4, "f")
    g_table = _parse_side(str(raw["g"]), 4, "g")
    return SweepSpec(
        family=family,
        axes=axes,
        equation=GameEquation(f_table, g_table),
        fixed=fixed,
        config=_optimizer_config(args, raw.get("config")),
        output_path=raw.get("output"),
    )


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


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default,
                        help=f"master seed (default {_DEFAULTS['seed']})")
    parser.add_argument("--workers", type=int, default=default,
                        help="worker processes for batch searches (default: cpu count)")
    parser.add_argument("--output-dir", default=default,
                        help=f"run-record directory (default ./{_DEFAULTS['output_dir']})")
    parser.add_argument("--config", default=default,
                        help="JSON config file mirroring the flags")


def _add_optimizer_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--restarts", type=int)
    parser.add_argument("--max-evals", type=int,
                        help="cap on best-response updates per restart; one sweep over every "
                             "(player, question bit) is 2n updates "
                             f"(default {_DEFAULTS['max_evals']})")
    parser.add_argument("--tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Classical vs quantum winning probabilities for n-player CHSH-style games.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("reduce", help="canonically reduce the Boolean function space")
    _add_global_flags(p, suppress=True)
    p.add_argument("--arity", type=int, choices=(2, 3, 4))
    p.add_argument("--all-relevant", action="store_const", const=True,
                   help="keep only functions using every variable (the paper's 2,191 at "
                        "arity 4; without it, 2,288, of which 97 ignore a variable)")
    p.add_argument("--keep-complements", action="store_const", const=True,
                   help="do not identify a function with its output complement")
    p.add_argument("--output", help="functions file path")

    for name, extra in (("eval", "evaluate one game"),
                        ("search", "optimize every function in a file"),
                        ("score", "search plus game-score report")):
        p = sub.add_parser(name, help=extra)
        _add_global_flags(p, suppress=True)
        p.add_argument("--state",
                       help="state literal: named (ghz4), family (g_abcd:a=1,...) or JSON amplitudes")
        if name == "eval":
            p.add_argument("--f", help="question-side expression or n:HEX table")
            p.add_argument("--mode", choices=("classical", "quantum", "both"))
        else:
            p.add_argument("--functions", help="file of n:HEX tables, one per line")
            p.add_argument("--sample", type=int, help="stratified subsample size before searching")
            if name == "search":
                p.add_argument("--output", help="JSON-lines results path")
        p.add_argument("--g", help="answer-side expression or n:HEX table")
        _add_optimizer_flags(p)

    p = sub.add_parser("sweep", help="gain landscape over a family parameter grid")
    _add_global_flags(p, suppress=True)
    p.add_argument("--spec", help="sweep specification JSON file")
    _add_optimizer_flags(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: ``parse_args`` leaves a parser unchanged."""
    return build_parser()


#: The JSON value types a config key takes, by the type of the flag it names.
_CONFIG_TYPES = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


def _flag_type(action: argparse.Action) -> type:
    """The value type of a store flag: its ``type``, bool for on/off flags, else str."""
    return bool if action.const is True else action.type or str


def _flags(subcommand: str) -> dict[str, argparse.Action]:
    """The value flags of the top-level parser and of ``subcommand``'s, by config key."""
    top = _parser()
    commands = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest: action
            for parser in (top, commands.choices[subcommand]) for action in parser._actions
            if isinstance(action, (argparse._StoreAction, argparse._StoreConstAction))}


def _typed(value, kind: type, what: str):
    """``value`` if its JSON type suits a flag of type ``kind``, else ValueError."""
    if type(value) not in _CONFIG_TYPES[kind]:
        raise ValueError(f"{what} takes {kind.__name__} values, got {value!r}")
    return value


def _check_config_types(config: dict, subcommand: str) -> dict:
    """``config`` if each key that names a flag of ``subcommand`` holds a value the
    flag takes, else ValueError.

    Integer flags take integers, ``--tol`` a number, text flags strings and
    on/off flags booleans (a JSON boolean is not a number here); a flag
    with choices, such as ``--mode``, takes one of them.  Keys of other
    subcommands' flags are left alone, as ``subcommand`` never reads them.
    """
    flags = _flags(subcommand)
    for key, value in config.items():
        if key not in flags:
            continue
        action = flags[key]
        _typed(value, _flag_type(action), f"config key {key!r}")
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r} takes one of {list(action.choices)}, "
                             f"got {value!r}")
    return config


_HANDLERS = {
    "reduce": _cmd_reduce,
    "eval": _cmd_eval,
    "search": _cmd_search,
    "score": _cmd_score,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    config: dict = {}
    if args.config:
        try:
            config = _check_config_types(
                _flat_object(json.loads(Path(args.config).read_text()), "a config file"),
                args.subcommand,
            )
        except FileNotFoundError:
            print(f"error: config file {args.config!r} not found", file=sys.stderr)
            return VALIDATION_ERROR
        except json.JSONDecodeError as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            print(f"error: {exc}", file=sys.stderr)
            return VALIDATION_ERROR
    for key in _flags(args.subcommand):
        if getattr(args, key) is None:
            setattr(args, key, config.get(key, _DEFAULTS.get(key)))
    try:
        if args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
        return _HANDLERS[args.subcommand](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
