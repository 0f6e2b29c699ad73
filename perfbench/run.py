"""qgames benchmark: one workload, every output checked, one JSON line of metrics.

    python3 perfbench/run.py --workload search-ghz4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qgames is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced rounds, probes every layer, and prints the
per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import layers
from calibration import Calibration
from setup_probe import import_qgames
from workloads import WORKLOADS, SearchGhz4, warmup_chsh

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall times of fresh set-up processes, and the import time each reported."""
    walls, imports = [], []
    argv = [sys.executable, str(HERE / "setup_probe.py"),
            "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class Side:
    """The rounds played untraced, or traced: each operation's fastest time.

    Other tenants of a shared machine only ever slow an operation down, so
    the fastest of its repetitions in a run is the steadiest estimate of
    its own cost.
    """

    def __init__(self):
        self.fastest = None
        self.rounds = 0
        self.seconds = 0.0
        self.gain_sum = 0.0
        self.gain_count = 0

    def add(self, rnd):
        times = np.array(rnd.op_seconds)
        self.fastest = times if self.fastest is None else np.minimum(self.fastest, times)
        self.rounds += 1
        self.seconds += rnd.seconds
        self.gain_sum += sum(rnd.gains)
        self.gain_count += len(rnd.gains)


def run(args) -> dict:
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    qg = import_qgames()
    setup_walls, import_walls = measure_setup(args)
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    counts = {"attempted": 0, "failed": 0, "rounds": 0}
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        scratch = Path(tmp)
        workload = WORKLOADS[args.workload](qg, args.seed, scratch)
        warmup_chsh(qg, workload.quantum)
        workload.prepare_checks()

        def play():
            rnd = workload.run_round(counts["rounds"])
            problems.extend(workload.check(rnd))
            rnd.outputs = None
            for path in scratch.iterdir():
                if path.is_dir():
                    shutil.rmtree(path)
            counts["rounds"] += 1
            counts["attempted"] += rnd.attempted
            counts["failed"] += rnd.failed
            return rnd

        calibration = Calibration()
        warmup = play()  # checked, not measured
        # A traced run alternates untraced and traced rounds, so that both
        # sides see the same machine load when the tracing overhead is taken.
        tracer = layers.Tracer()
        untraced, traced = Side(), Side()
        start = time.perf_counter()
        while not untraced.rounds or (args.trace and not traced.rounds) \
                or time.perf_counter() - start < args.seconds:
            calibration.run()
            if args.trace and traced.rounds < untraced.rounds:
                with tracer.install(qg):
                    traced.add(play())
            else:
                untraced.add(play())
        if args.trace:
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            search_inputs = SearchGhz4(qg, args.seed, scratch).pool_inputs()
            probes, pool_problems = layers.probe_layers(qg, search_inputs, args.seed, scratch)
            problems.extend(pool_problems)

    if args.trace:
        layer_self = tracer.layer_self_seconds()
        values = dict(probes)
        values["qgames.import_s"] = statistics.median(import_walls)
        values["machine.calibration_ms"] = 1e3 * calibration.fastest
        values["trace.overhead_pct"] = 100.0 * (traced.fastest.sum() / untraced.fastest.sum() - 1)
        for layer in layers.LAYERS:
            values[f"{layer}.self_pct"] = 100.0 * layer_self[layer] / traced.seconds
    else:
        values = {
            "setup_s": statistics.median(setup_walls),
            "games_per_s": warmup.games / untraced.fastest.sum() / calibration.speed,
            "eval_ms_p50": 1e3 * float(np.median(untraced.fastest[workload.evals]))
                           * calibration.speed,
            "gain_mean": untraced.gain_sum / untraced.gain_count,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
                         "BENCHMARK.json")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
