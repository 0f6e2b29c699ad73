"""Command-line front end: reduce, eval, search, score, and sweep.

Every run writes a RunRecord (resolved configuration, seed, tool version,
output paths, wall clock) under ``--output-dir`` so any artifact file can be
traced back to the invocation that produced it.  Results files themselves
contain no wall-clock fields: given the same seed they are byte-identical
for any worker count.

Exit codes: 0 success, 2 usage or expression parse error, 3 numeric or
validation failure.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import hashlib
import json
import logging
import os
import re
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

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
from .quantum import StateVector, parse_state_literal
from .search import (
    DEFAULT_SEED,
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


class RunStore:
    """Per-invocation artifact directory; run ids are never overwritten."""

    def __init__(self, output_dir: str | Path):
        self.root = Path(output_dir)

    def new_run(self, subcommand: str, config: dict) -> Path:
        stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        digest = hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest()[:8]
        base = f"{stamp}-{subcommand}-{digest}"
        run_dir = self.root / base
        counter = 1
        while run_dir.exists():
            counter += 1
            run_dir = self.root / f"{base}-{counter}"
        run_dir.mkdir(parents=True)
        return run_dir

    @staticmethod
    def write_record(run_dir: Path, record: RunRecord):
        (run_dir / "record.json").write_text(_dumps(asdict(record), indent=2) + "\n")


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


def _parse_complex_json(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        return complex(value.replace(" ", "").replace("i", "j"))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(value[0], value[1])
    raise ValueError(f"cannot read complex value from {value!r}")


def _resolve(args: argparse.Namespace, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _optimizer_config(args, config, seed: int) -> OptimizerConfig:
    return OptimizerConfig(
        restarts=int(_resolve(args, config, "restarts", 20)),
        max_evals=int(_resolve(args, config, "max_evals", 5000)),
        tol=float(_resolve(args, config, "tol", 1e-6)),
        seed=seed,
    )


def _dumps(record: dict, **kwargs) -> str:
    """JSON text that refuses NaN and infinities, which are not valid JSON."""
    return json.dumps(record, allow_nan=False, **kwargs)


def _json_line(record: dict) -> str:
    return _dumps(record, separators=(",", ":"))


# --- Subcommand handlers ----------------------------------------------------------


def _cmd_reduce(args, config, store: RunStore, seed: int, workers: int) -> int:
    arity = int(_resolve(args, config, "arity", 4))
    all_relevant = bool(_resolve(args, config, "all_relevant", False))
    keep_complements = bool(_resolve(args, config, "keep_complements", False))
    t0 = time.perf_counter()
    space = reduce_function_space(
        arity, require_all_relevant=all_relevant, include_output_flip=not keep_complements
    )
    run_config = {
        "arity": arity,
        "all_relevant": all_relevant,
        "keep_complements": keep_complements,
        "seed": seed,
    }
    run_dir = store.new_run("reduce", run_config)
    out_path = Path(_resolve(args, config, "output", None) or run_dir / "functions.txt")
    out_path.write_text("".join(t.to_text() + "\n" for t in space))
    summary = {"stage_counts": space.stage_counts(), "output": str(out_path)}
    print(_dumps(summary, indent=2))
    record = RunRecord(
        run_id=run_dir.name,
        subcommand="reduce",
        config=run_config | {"workers": workers},
        seed=seed,
        version=__version__,
        outputs=[str(out_path)],
        elapsed_s=time.perf_counter() - t0,
    )
    RunStore.write_record(run_dir, record)
    return 0


def _eval_record(
    psi: StateVector,
    state_text: str,
    eq: GameEquation,
    mode: str,
    cfg: OptimizerConfig,
) -> dict:
    t0 = time.perf_counter()
    classical = quantum = gap = None
    strategy = None
    if mode in ("classical", "both"):
        classical, _ = classical_best(eq)
    if mode in ("quantum", "both"):
        quantum, best = optimize_quantum(psi, eq, cfg)
        strategy = {"angles": best.reduced_angles().tolist()}
    if mode == "both":
        gap = quantum - classical
    return {
        "f": eq.f.to_text(),
        "g": eq.g.to_text(),
        "classical": classical,
        "quantum": quantum,
        "gap": gap,
        "strategy": strategy,
        "state": state_text,
        "seed": cfg.seed,
        "elapsed_ms": (time.perf_counter() - t0) * 1000.0,
    }


def _cmd_eval(args, config, store: RunStore, seed: int, workers: int) -> int:
    state_text = _resolve(args, config, "state", None)
    f_text = _resolve(args, config, "f", None)
    g_text = _resolve(args, config, "g", None)
    mode = _resolve(args, config, "mode", "both")
    if not state_text or not f_text or not g_text:
        raise ValueError("eval needs --state, --f and --g")
    psi = parse_state_literal(state_text)
    eq = GameEquation(_parse_side(f_text, psi.n, "f"), _parse_side(g_text, psi.n, "g"))
    cfg = _optimizer_config(args, config, seed)
    t0 = time.perf_counter()
    record = _eval_record(psi, state_text, eq, mode, cfg)
    text = _dumps(record, indent=2)
    print(text)
    run_config = {
        "state": state_text, "f": f_text, "g": g_text, "mode": mode,
        "seed": seed, "restarts": cfg.restarts, "max_evals": cfg.max_evals, "tol": cfg.tol,
    }
    run_dir = store.new_run("eval", run_config)
    out_path = run_dir / "result.json"
    out_path.write_text(text + "\n")
    RunStore.write_record(run_dir, RunRecord(
        run_id=run_dir.name, subcommand="eval", config=run_config | {"workers": workers},
        seed=seed, version=__version__, outputs=[str(out_path)],
        elapsed_s=time.perf_counter() - t0,
    ))
    return 0


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


def _run_search(args, config, seed: int, workers: int):
    state_text = _resolve(args, config, "state", None)
    g_text = _resolve(args, config, "g", None)
    functions_path = _resolve(args, config, "functions", None)
    if not state_text or not g_text or not functions_path:
        raise ValueError("search needs --state, --g and --functions")
    psi = parse_state_literal(state_text)
    g = _parse_side(g_text, psi.n, "g")
    tables = _load_functions(functions_path, psi.n)
    sample = _resolve(args, config, "sample", None)
    if sample is not None:
        tables = stratified_subsample(tables, int(sample), seed)
    cfg = _optimizer_config(args, config, seed)
    results = search_space(
        g, psi, cfg, tables, workers=workers, state_descriptor=state_text
    )
    return psi, g, state_text, cfg, results


def _summary_record(results, g: TruthTable, state_text: str, cfg: OptimizerConfig, top: int = 10) -> dict:
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
            for r in ranked[:top]
        ],
        "g": g.to_text(),
        "state": state_text,
        "config": {
            "restarts": cfg.restarts, "max_evals": cfg.max_evals,
            "tol": cfg.tol, "seed": cfg.seed,
        },
    }


def _cmd_search(args, config, store: RunStore, seed: int, workers: int) -> int:
    t0 = time.perf_counter()
    psi, g, state_text, cfg, results = _run_search(args, config, seed, workers)
    summary = _summary_record(results, g, state_text, cfg)
    lines = [_json_line(r.to_json_dict(include_timing=False)) for r in results]
    lines.append(_json_line(summary))
    run_config = {
        "state": state_text, "g": _resolve(args, config, "g", None),
        "functions": _resolve(args, config, "functions", None),
        "sample": _resolve(args, config, "sample", None),
        "seed": seed, "restarts": cfg.restarts, "max_evals": cfg.max_evals, "tol": cfg.tol,
    }
    run_dir = store.new_run("search", run_config)
    out_path = Path(_resolve(args, config, "output", None) or run_dir / "results.jsonl")
    out_path.write_text("".join(line + "\n" for line in lines))
    print(_dumps(summary, indent=2))
    RunStore.write_record(run_dir, RunRecord(
        run_id=run_dir.name, subcommand="search",
        config=run_config | {"workers": workers},
        seed=seed, version=__version__, outputs=[str(out_path)],
        elapsed_s=time.perf_counter() - t0,
    ))
    return 0


def _cmd_score(args, config, store: RunStore, seed: int, workers: int) -> int:
    t0 = time.perf_counter()
    psi, g, state_text, cfg, results = _run_search(args, config, seed, workers)
    summary = _summary_record(results, g, state_text, cfg, top=3)
    report = {
        "state": state_text,
        "g": g.to_text(),
        "count": summary["count"],
        "game_score": summary["game_score"],
        "average_gap": summary["average_gap"],
        "max_gap": summary["top_gaps"][0] if summary["top_gaps"] else None,
    }
    run_config = {
        "state": state_text, "g": _resolve(args, config, "g", None),
        "functions": _resolve(args, config, "functions", None),
        "sample": _resolve(args, config, "sample", None),
        "seed": seed, "restarts": cfg.restarts, "max_evals": cfg.max_evals, "tol": cfg.tol,
    }
    text = _dumps(report, indent=2)
    run_dir = store.new_run("score", run_config)
    out_path = run_dir / "score.json"
    out_path.write_text(text + "\n")
    print(text)
    RunStore.write_record(run_dir, RunRecord(
        run_id=run_dir.name, subcommand="score",
        config=run_config | {"workers": workers},
        seed=seed, version=__version__, outputs=[str(out_path)],
        elapsed_s=time.perf_counter() - t0,
    ))
    return 0


def _sweep_spec_from_file(path: str, seed: int, args, config) -> SweepSpec:
    from .quantum import FamilyId

    raw = json.loads(Path(path).read_text())
    family = next((f for f in FamilyId if f.value == raw.get("family", "").lower()), None)
    if family is None:
        raise ValueError(f"unknown family {raw.get('family')!r}")
    # axes default to the standard landscape grid: [-9, 9] at 37 steps
    axes = tuple(
        SweepAxis(
            param=str(a["param"]).lower(),
            start=float(a.get("start", -9.0)),
            stop=float(a.get("stop", 9.0)),
            steps=int(a.get("steps", 37)),
        )
        for a in raw.get("axes", [])
    )
    fixed = {k.lower(): _parse_complex_json(v) for k, v in raw.get("fixed", {}).items()}
    f_table = _parse_side(str(raw["f"]), 4, "f")
    g_table = _parse_side(str(raw["g"]), 4, "g")
    opt = raw.get("config", {})
    cfg = OptimizerConfig(
        restarts=int(opt.get("restarts", _resolve(args, config, "restarts", 20))),
        max_evals=int(opt.get("max_evals", _resolve(args, config, "max_evals", 5000))),
        tol=float(opt.get("tol", _resolve(args, config, "tol", 1e-6))),
        seed=seed,
    )
    return SweepSpec(
        family=family,
        axes=axes,
        equation=GameEquation(f_table, g_table),
        fixed=fixed,
        config=cfg,
        output_path=raw.get("output"),
    )


def _cmd_sweep(args, config, store: RunStore, seed: int, workers: int) -> int:
    spec_path = _resolve(args, config, "spec", None)
    if not spec_path:
        raise ValueError("sweep needs --spec")
    t0 = time.perf_counter()
    spec = _sweep_spec_from_file(spec_path, seed, args, config)
    result = run_sweep(spec, workers=workers)
    run_config = {"spec": spec_path, "seed": seed}
    run_dir = store.new_run("sweep", run_config)
    csv_path = Path(spec.output_path or run_dir / "sweep.csv")
    csv_path.write_text(result.to_csv())
    sidecar_path = csv_path.with_suffix(".json")
    sidecar_path.write_text(_dumps(result.sidecar_dict(), indent=2) + "\n")
    valid = sum(1 for p in result.points if p.valid)
    print(_dumps({
        "points": len(result.points), "valid": valid,
        "csv": str(csv_path), "sidecar": str(sidecar_path),
    }, indent=2))
    RunStore.write_record(run_dir, RunRecord(
        run_id=run_dir.name, subcommand="sweep",
        config=run_config | {"workers": workers},
        seed=seed, version=__version__,
        outputs=[str(csv_path), str(sidecar_path)],
        elapsed_s=time.perf_counter() - t0,
    ))
    return 0


# --- Parser ------------------------------------------------------------------------


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool):
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default,
                        help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--workers", type=int, default=default,
                        help="worker processes for batch searches (default: cpu count)")
    parser.add_argument("--output-dir", dest="output_dir", default=default,
                        help="run-record directory (default ./runs)")
    parser.add_argument("--config", default=default,
                        help="JSON config file mirroring the flags")


_MAX_EVALS_HELP = ("cap on best-response updates per restart; one sweep over every "
                   "(player, question bit) is 2n updates (default 5000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgames",
        description="Classical vs quantum winning probabilities for n-player CHSH-style games.",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("reduce", help="canonically reduce the Boolean function space")
    _add_global_flags(p, suppress=True)
    p.add_argument("--arity", type=int, choices=(2, 3, 4), default=None)
    p.add_argument("--all-relevant", action="store_const", const=True, default=None,
                   dest="all_relevant", help="keep only functions using every variable")
    p.add_argument("--keep-complements", action="store_const", const=True, default=None,
                   dest="keep_complements",
                   help="do not identify a function with its output complement")
    p.add_argument("--output", default=None, help="functions file path")

    for name, extra in (("eval", "evaluate one game"),
                        ("search", "optimize every function in a file"),
                        ("score", "search plus game-score report")):
        p = sub.add_parser(name, help=extra)
        _add_global_flags(p, suppress=True)
        p.add_argument("--state", default=None,
                       help="state literal: named (ghz4), family (g_abcd:a=1,...) or JSON amplitudes")
        if name == "eval":
            p.add_argument("--f", default=None, help="question-side expression or n:HEX table")
            p.add_argument("--mode", choices=("classical", "quantum", "both"), default=None)
        else:
            p.add_argument("--functions", default=None, help="file of n:HEX tables, one per line")
            p.add_argument("--sample", type=int, default=None,
                           help="stratified subsample size before searching")
            if name == "search":
                p.add_argument("--output", default=None, help="JSON-lines results path")
        p.add_argument("--g", default=None, help="answer-side expression or n:HEX table")
        p.add_argument("--restarts", type=int, default=None)
        p.add_argument("--max-evals", type=int, default=None, dest="max_evals",
                       help=_MAX_EVALS_HELP)
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("sweep", help="gain landscape over a family parameter grid")
    _add_global_flags(p, suppress=True)
    p.add_argument("--spec", default=None, help="sweep specification JSON file")
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--max-evals", type=int, default=None, dest="max_evals",
                   help=_MAX_EVALS_HELP)
    p.add_argument("--tol", type=float, default=None)
    return parser


_HANDLERS = {
    "reduce": _cmd_reduce,
    "eval": _cmd_eval,
    "search": _cmd_search,
    "score": _cmd_score,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    config: dict = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            print(f"error: config file {args.config!r} not found", file=sys.stderr)
            return VALIDATION_ERROR
        except json.JSONDecodeError as exc:
            print(f"error: bad config file: {exc}", file=sys.stderr)
            return USAGE_ERROR
    store = RunStore(_resolve(args, config, "output_dir", "runs"))
    handler = _HANDLERS[args.subcommand]
    try:
        seed = int(_resolve(args, config, "seed", DEFAULT_SEED))
        workers = _resolve(args, config, "workers", None)
        workers = int(workers) if workers is not None else os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        return handler(args, config, store, seed, workers)
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
