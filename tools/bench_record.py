"""Record one revision's benchmark figures in one JSON file.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/bench_record.py --out BENCH_<rev>.json

It runs, one after another, each in a fresh interpreter:

- `perfbench/run.py --workload W --seed 1` for every perfbench workload,
  unmodified and at its default length: the end-to-end metrics;
- `tools/decision_cost.py`, `tools/gsl_startup.py` and
  `tools/selection_cost.py`: the probe, start-up and selection layers;
- the tier-1 suite, `python -m pytest -q --continue-on-collection-errors`
  with src/ on PYTHONPATH: its wall time and summary line.

It writes the last stdout line of each script, parsed, and the suite's
figures to the file named by --out.  A script that fails stops the record
with its stderr.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

WORKLOADS = ("catalog-harness", "classify-lattice", "job-stream")
TOOLS = ("decision_cost", "gsl_startup", "selection_cost")


def _last_json_line(argv: list[str], env: dict) -> dict:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tier1(env: dict) -> dict:
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "returncode": proc.returncode, "summary": lines[-1] if lines else ""}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "gevlab", "counterexamples.py")):
        ap.error("run from the root of a gevlab checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")]))
    py = sys.executable

    record = {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()}
    record["perfbench"] = {
        w: _last_json_line([py, "perfbench/run.py", "--workload", w, "--seed", "1"], env) for w in WORKLOADS
    }
    for tool in TOOLS:
        record[tool] = _last_json_line([py, f"tools/{tool}.py"], env)
    record["tier1"] = _tier1(env)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
