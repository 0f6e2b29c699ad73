"""One fresh set-up, as every new process pays it: import qgames, build the
workload's inputs, play one warm-up CHSH game.

    python3 perfbench/setup_probe.py --workload search-ghz4 --seed 1

Prints the time of each phase as one JSON line; ``run.py`` times the whole
process from its spawn.  Only the standard library is imported before
qgames, so that ``import_s`` is the import as a user pays it.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_qgames():
    package = SRC / "qgames"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qgames sources at {package}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import qgames
    import qgames.cli  # noqa: F401  (the cli layer is not imported by the package)

    if Path(qgames.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qgames from {qgames.__file__}, not {package}")
    return qgames


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    qg = import_qgames()
    imported = time.perf_counter()
    from workloads import WORKLOADS, warmup_chsh

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="setup-") as tmp:
        workload = WORKLOADS[args.workload](qg, args.seed, Path(tmp))
        built = time.perf_counter()
        warmup_chsh(qg, workload.quantum)
    print(json.dumps({"import_s": imported - start, "inputs_s": built - imported,
                      "warmup_s": time.perf_counter() - built}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
