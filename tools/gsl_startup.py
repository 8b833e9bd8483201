"""Start-up cost of `gsl`: median wall time of fresh processes, per command.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/gsl_startup.py              # 7 samples of each process
    python3 tools/gsl_startup.py --samples 15

For each sample round it starts, each in a fresh interpreter:

- `python -c "import numpy"`: the interpreter plus numpy;
- `python -c "import gevlab.cli_reporting"`: that plus the CLI module and
  what it imports at module level;
- for each `gsl` command, `python -c "import gevlab.x, ..."` of the gevlab
  modules one run of the command loads;
- for each `gsl` command, the `gsl` entry point on a fixed job file, timed
  from process start to exit.  The job's `run_s` (its own timing of the
  job) is read from the report.  The handler of a command imports the
  modules that cli_reporting does not, so in a fresh process `run_s`
  includes loading them: the command's `import_s` less `import_cli_s`.

It prints one JSON line: the median of each over the rounds, and for each
command the gevlab modules one run of it loads.  Standard library only; the
checkout's src/ goes first on PYTHONPATH, and the rest of the environment is
the caller's (with PYTHONDONTWRITEBYTECODE set no bytecode is cached, so
every process compiles its modules; the line records which).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

_POWER_LAW = {"power_law": {"a_re": 1, "p_re": 1, "a_im": 1, "p_im": 1}}

# one small job per command, fixed so that runs of two revisions compare
JOBS = {
    "classify-spectrum": {"command": "classify-spectrum", "spectrum": _POWER_LAW, "beta": 1},
    "classify-vector": {"command": "classify-vector", "spectrum": _POWER_LAW, "beta": 1,
                        "vectors": [{"power_decay": {"c": 1, "r": 1}}]},
    "evolve": {"command": "evolve", "spectrum": _POWER_LAW,
               "vectors": [{"power_decay": {"c": 1, "r": 1}}], "t_grid": [0, 1, 10]},
    "estimate-order": {"command": "estimate-order",
                       "spectrum": {"power_law": {"a_re": 1, "p_re": 1, "a_im": 0, "p_im": 0}},
                       "vectors": [{"power_decay": {"c": 1, "r": 0.5}}]},
    "counterexample": {"command": "counterexample", "beta": 1, "case": "bounded"},
    "harness": {"command": "harness", "spectrum": _POWER_LAW, "beta": 1},
    "region-boundary": {"command": "region-boundary", "beta": 2, "b_plus": 1, "samples": 64},
}

# what the `gsl` console script runs
_GSL = "import sys; from gevlab.cli_reporting import main; sys.exit(main())"
_LOADED = (
    "import json, sys; from gevlab.cli_reporting import main; main(); "
    "print(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('gevlab.'))), file=sys.stderr)"
)


def _timed(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 2):  # 2: a verdict is Unknown
        raise SystemExit(f"{argv[2:]} exited with {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=7, help="fresh processes of each kind (default 7)")
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("--samples must be at least 1")

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gevlab", "cli_reporting.py")):
        ap.error("run from the root of a gevlab checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    py = sys.executable

    numpy_s, cli_s = [], []
    import_s = {cmd: [] for cmd in JOBS}
    gsl_s = {cmd: [] for cmd in JOBS}
    run_s = {cmd: [] for cmd in JOBS}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for cmd, job in JOBS.items():
            paths[cmd] = os.path.join(tmp, f"{cmd}.json")
            with open(paths[cmd], "w", encoding="utf-8") as fh:
                json.dump(job, fh)
        loaded = {
            cmd: json.loads(_timed([py, "-c", _LOADED, cmd, "--job", path,
                                    "--report", os.devnull], env)[1].stderr)
            for cmd, path in paths.items()
        }
        for _ in range(args.samples):
            numpy_s.append(_timed([py, "-c", "import numpy"], env)[0])
            cli_s.append(_timed([py, "-c", "import gevlab.cli_reporting"], env)[0])
            for cmd, path in paths.items():
                modules = ", ".join(f"gevlab.{m}" for m in loaded[cmd])
                import_s[cmd].append(_timed([py, "-c", f"import {modules}"], env)[0])
                wall, proc = _timed([py, "-c", _GSL, cmd, "--job", path], env)
                gsl_s[cmd].append(wall)
                run_s[cmd].append(json.loads(proc.stdout)["timings"]["run_s"])

    med = statistics.median
    print(json.dumps({
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "samples": args.samples,
        "bytecode_cache": not env.get("PYTHONDONTWRITEBYTECODE"),
        "interpreter_numpy_s": med(numpy_s),
        "import_cli_s": med(cli_s),
        "commands": {
            cmd: {"import_s": med(import_s[cmd]), "gsl_s": med(gsl_s[cmd]), "run_s": med(run_s[cmd]),
                  "modules": loaded[cmd]}
            for cmd in JOBS
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
