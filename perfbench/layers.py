"""Per-layer measurement: spans around the public functions of each qgames module.

The layers are the package's modules (``boolfn``, ``quantum``, ``search``,
``sweep``, ``cli``).  ``Tracer.install`` replaces their public functions,
wherever a module holds a reference to them, with wrappers that record a
span (name, start, end, parent); ``uninstall`` puts the originals back.
Nothing in ``src/`` is changed.  A layer's self time is the time of its
spans minus the time their child spans cover.

``probe_layers`` times each layer's public functions on fixed inputs, so
that its numbers compare across workloads and commits.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from workloads import quiet_cli

LAYERS = ("boolfn", "quantum", "search", "sweep", "cli")

# (module, attribute) of every function wrapped; the span is named after both.
FUNCTIONS = (
    ("boolfn", "parse_table"),
    ("boolfn", "reduce_function_space"),
    ("quantum", "make_family_state"),
    ("quantum", "win_probability"),
    ("search", "classical_best"),
    ("search", "optimize_quantum"),
    ("search", "search_space"),
    ("sweep", "run_sweep"),
    ("cli", "main"),
)
METHODS = (("quantum", "GainKernel", "__init__"), ("quantum", "GainKernel", "gains"))


class Tracer:
    """In-memory spans; ``rows`` holds the batch size of each ``gains`` call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.rows = 0
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []

    def _wrap(self, name: str, fn, count_rows: bool = False):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, time.perf_counter(), parent)
                stack.pop()
                if count_rows:
                    self.rows += len(args[1])

        return traced

    def install(self, qg):
        """Put the wrappers in place; they are made on the first call."""
        if not self._swaps:
            modules = {name: getattr(qg, name) for name in LAYERS}
            holders = [qg, *modules.values()]
            for layer, attr in FUNCTIONS:
                original = getattr(modules[layer], attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                self._swaps += [(holder, key, original, wrapper) for holder in holders
                                for key, value in vars(holder).items() if value is original]
            for layer, cls_name, attr in METHODS:
                cls = getattr(modules[layer], cls_name)
                original = vars(cls)[attr]
                wrapper = self._wrap(f"{layer}.{cls_name}.{attr}", original,
                                     count_rows=attr == "gains")
                self._swaps.append((cls, attr, original, wrapper))
        for holder, key, _, wrapper in self._swaps:
            setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        for holder, key, original, _ in self._swaps:
            setattr(holder, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def total(self, name: str) -> float:
        """Summed duration in seconds of the spans called ``name``."""
        name_id = self.names.index(name)
        return sum(end - start for nid, start, end, _ in self.spans if nid == name_id)

    def count(self, name: str) -> int:
        name_id = self.names.index(name)
        return sum(1 for nid, *_ in self.spans if nid == name_id)

    def layer_self_seconds(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (nid, start, end, _), children in zip(self.spans, child_time):
            out[self.names[nid].split(".")[0]] += end - start - children
        return out

    def write(self, path: Path):
        """Spans as [name, start_us, end_us, parent], times from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round((s - origin) * 1e6, 1), round((e - origin) * 1e6, 1), p]
                for nid, s, e, p in self.spans]
        path.write_text(json.dumps({"names": self.names, "spans": rows}, separators=(",", ":")))


def _median_seconds(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def pool_workers() -> int:
    """The CPUs this process may use, at least 2 so that the pool runs, at most 4."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


def probe_layers(qg, search_inputs, seed: int, scratch: Path) -> tuple[dict[str, float], list[str]]:
    """Per-layer timings on fixed inputs, plus the problems the pooled search showed."""
    problems: list[str] = []
    q4, a4 = qg.QUESTION_VARS[4], qg.ANSWER_VARS[4]
    ghz_f, parity = "xyz + xy!w + xz!w + yz!w + w!x!y!z", "a^b^c^d"
    expressions = [(ghz_f, q4), (parity, a4), ("wx+wy+wz+xy+xz+yz", q4),
                   ("!abcd + a!bcd + ab!cd + abc!d", a4), ("xy", qg.QUESTION_VARS[2])]
    parse_s = statistics.median(
        _median_seconds(lambda e=e, v=v: qg.parse_table(e, v), 20) for e, v in expressions)
    ghz_eq = qg.GameEquation(qg.parse_table(ghz_f, q4), qg.parse_table(parity, a4))
    ghz4 = qg.make_named_state("ghz4")
    kernel = qg.quantum.GainKernel(ghz4, ghz_eq)
    rng = np.random.default_rng(0)
    batches = {b: rng.uniform(0.0, 4 * np.pi, (b, 24)) for b in (1, 49, 490)}
    kernel.gains(batches[1])
    strategy = qg.QuantumStrategy(batches[1].reshape(4, 2, 3))
    space = qg.reduce_function_space(4)
    equations = [qg.GameEquation(t, ghz_eq.g) for t in space]
    classical_s = []
    for eq in equations:
        start = time.perf_counter()
        qg.classical_best(eq)
        classical_s.append(time.perf_counter() - start)
    family = qg.FamilyId.L_A2_0_3P1

    out = {
        "boolfn.parse_us": parse_s * 1e6,
        "boolfn.reduce_ms": _median_seconds(lambda: qg.reduce_function_space(4), 5) * 1e3,
        "quantum.kernel_init_us":
            _median_seconds(lambda: qg.quantum.GainKernel(ghz4, ghz_eq), 50) * 1e6,
        "quantum.gains_b1_us": _median_seconds(lambda: kernel.gains(batches[1]), 200) * 1e6,
        "quantum.gains_b49_us": _median_seconds(lambda: kernel.gains(batches[49]), 100) * 1e6,
        "quantum.gains_b490_us": _median_seconds(lambda: kernel.gains(batches[490]), 20) * 1e6,
        "quantum.win_probability_us":
            _median_seconds(lambda: qg.win_probability(ghz4, strategy, ghz_eq), 100) * 1e6,
        "search.classical_best_us": statistics.median(classical_s) * 1e6,
        "sweep.family_state_us":
            _median_seconds(lambda: qg.make_family_state(family, {"a": 2.0}), 200) * 1e6,
    }

    # One GHZ4 game at the default configuration: its counts repeat exactly.
    walls, inside_gains = [], []
    for _ in range(3):
        with Tracer().install(qg) as tracer:
            start = time.perf_counter()
            qg.optimize_quantum(ghz4, ghz_eq, qg.OptimizerConfig())
            walls.append(time.perf_counter() - start)
        inside_gains.append(tracer.total("quantum.GainKernel.gains"))
    middle = walls.index(statistics.median(walls))
    out["search.optimize_ms"] = walls[middle] * 1e3
    out["search.optimizer_self_ms"] = (walls[middle] - inside_gains[middle]) * 1e3
    out["quantum.gains_calls"] = tracer.count("quantum.GainKernel.gains")
    out["quantum.gains_rows"] = tracer.rows
    out["quantum.gains_ms"] = inside_gains[middle] * 1e3

    spec = qg.SweepSpec(family, (qg.SweepAxis("a", 1.0, 10.0, 3),), ghz_eq)
    start = time.perf_counter()
    qg.run_sweep(spec)
    out["sweep.point_ms"] = (time.perf_counter() - start) / 3 * 1e3

    eval_overhead, reduce_write = [], []
    for i in range(5):
        with Tracer().install(qg) as tracer:
            argv = ["--output-dir", str(scratch / f"probe-eval-{i}"), "eval",
                    "--state", "epr", "--f", "xy", "--g", "a^b"]
            start = time.perf_counter()
            quiet_cli(qg, argv)
            wall = time.perf_counter() - start
        inner = tracer.total("search.classical_best") + tracer.total("search.optimize_quantum")
        eval_overhead.append(wall - inner)
        with Tracer().install(qg) as tracer:
            out_dir = scratch / f"probe-reduce-{i}"
            argv = ["--output-dir", str(out_dir), "reduce", "--arity", "4", "--all-relevant",
                    "--output", str(out_dir / "functions.txt")]
            start = time.perf_counter()
            quiet_cli(qg, argv)
            wall = time.perf_counter() - start
        reduce_write.append(wall - tracer.total("boolfn.reduce_function_space"))
    out["cli.eval_overhead_ms"] = statistics.median(eval_overhead) * 1e3
    out["cli.reduce_write_ms"] = statistics.median(reduce_write) * 1e3

    # The pooled search on the search-ghz4 inputs, against one worker.
    g, psi, tables = search_inputs
    cfg = qg.OptimizerConfig(seed=seed)
    runs = {}
    for workers in (1, pool_workers()):
        start = time.perf_counter()
        results = qg.search_space(g, psi, cfg, tables, workers=workers, state_descriptor="ghz4",
                                  progress=lambda done, total: None)
        runs[workers] = (time.perf_counter() - start, results)
    (serial_s, serial), (pool_s, pooled) = runs.values()
    out["search.pool_wall_s"] = pool_s
    out["search.pool_speedup"] = serial_s / pool_s
    for a, b in zip(serial, pooled):
        if (a.to_json_dict() != b.to_json_dict()
                or a.quantum_strategy.angles.tobytes() != b.quantum_strategy.angles.tobytes()):
            problems.append(f"pooled search differs from workers=1 on {a.equation.f.to_text()}")
    return out, problems
