"""gevlab benchmark: end-to-end metrics with tracing off, per-layer with it on.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 perfbench/run.py --workload catalog-harness --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30     # every workload, a table
    python3 perfbench/run.py --self-test                      # check the tracer

Each workload runs in a fresh child process with BLAS/OpenMP threads pinned
to 1; the child warms up with one untimed pass, then times passes for
--seconds.  setup_s is measured separately, as the median wall time of
several fresh interpreters that import gevlab and build builtin_spectra().
The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).  Spans, the
seed-free side file (brackets, probe counts, certificate routes) and a log
of results go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, calibrate, speed_factor  # noqa: E402
from layers import (  # noqa: E402
    COUNT_METRICS,
    IDLE_ON_ALL_WORKLOADS,
    PER_LAYER_UNITS,
    WRAPPED_FUNCTIONS,
    WRAPPED_METHODS,
)

WORKLOADS = ("catalog-harness", "classify-lattice", "job-stream")
END_TO_END_UNITS = {
    "pass_s": "s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0
OUT_DIR = ".perfbench_out"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("GSL_KMAX", None)
    return env


def measure_setup(root: str) -> tuple[float, float]:
    """(scaled, raw) median time of a fresh interpreter through import and builtin_spectra().

    Each sample runs from process start until the child reports it is done.
    The median is scaled by the calibrations taken around the samples
    (calibrate.py).
    """
    code = "import gevlab; gevlab.builtin_spectra(); print('ready', flush=True)"
    raw = []
    calibrations = [calibrate()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=child_env(root), cwd=root,
                              stdout=subprocess.PIPE) as proc:
            ready, _, _ = select.select([proc.stdout], [], [], 60.0)
            line = proc.stdout.readline() if ready else b""
            t1 = time.perf_counter()
            if line.strip() != b"ready":
                proc.kill()
                raise SystemExit("setup: the fresh interpreter did not finish importing gevlab")
        if proc.returncode != 0:
            raise SystemExit(f"setup: the fresh interpreter exited with {proc.returncode}")
        raw.append(t1 - t0)
        calibrations.append(calibrate())
    return statistics.median(raw) * speed_factor(calibrations), statistics.median(raw)


def run_child(root: str, workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(root, OUT_DIR)]
    proc = subprocess.run(cmd, env=child_env(root), cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_revision(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "gevlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def provenance(root: str, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "git_revision": git_revision(root),
        "src_sha256": source_digest(root),
        "loadavg": os.getloadavg(),
    }


def benchmark(root: str, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(contract result, full record) for one run."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup_s, setup_wall_s = measure_setup(root) if not trace else (None, None)
    child = run_child(root, workload, seed, seconds, trace, deadline)
    mismatches = len(child["mismatches_rules"]) + len(child["mismatches_reference"])
    correct = mismatches == 0 and child["passes_differing_from_warmup"] == 0
    if trace:
        metrics = {name: {"value": child["layers"][name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = dict(child, setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"], "metrics": metrics}
    record = {"provenance": provenance(root, child), "child": child, "result": result,
              "setup_s": setup_s, "setup_wall_s": setup_wall_s}
    return result, record


def summary_lines(record: dict) -> list[str]:
    child, result = record["child"], record["result"]
    p = record["provenance"]
    lines = [
        f"# {child['workload']} seed={child['seed']}: nproc={p['nproc']} python={p['python']} "
        f"numpy={p['numpy']} rev={p['git_revision'][:12]} src={p['src_sha256']} "
        f"loadavg={p['loadavg'][0]:.2f}",
        f"#   unscaled: pass_s={child['pass_wall_s']:.4g} s"
        + (f" setup_s={record['setup_wall_s']:.4g} s" if record["setup_wall_s"] else "")
        + f"; calibration {child['calibration_s'] * 1e3:.2f} ms (reference {REFERENCE_S * 1e3:.0f} ms)",
        f"#   passes={child['passes']} units={child['units']} latency samples={child['latency_samples']} "
        f"failed_share={child['failed'] / child['attempted']:.4g} ({child['failed']}/{child['attempted']} operations) "
        f"unknown_share={child['verdicts_unknown'] / max(child['verdicts_issued'], 1):.4g} "
        f"({child['verdicts_unknown']}/{child['verdicts_issued']} verdicts) "
        f"verdict_mismatches={len(child['mismatches_rules']) + len(child['mismatches_reference'])} "
        f"(rules {len(child['mismatches_rules'])}, reference {len(child['mismatches_reference'])})",
    ]
    if child["first_failure"]:
        lines.append(f"#   FAILED {child['first_failure']}")
    for problem in (child["mismatches_rules"] + child["mismatches_reference"])[:10]:
        lines.append(f"#   MISMATCH {problem}")
    for name, m in result["metrics"].items():
        lines.append(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return lines


def log_record(root: str, record: dict) -> None:
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")


def benchmark_file_problems(root: str) -> list[str]:
    """BENCHMARK.json must list exactly the metrics this script prints."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return ["no BENCHMARK.json at the checkout root"]
    problems = []
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


def self_test(root: str) -> int:
    """Counts repeat exactly, and every wrapped name is reached.

    Traced runs of minimal length: catalog-harness twice with one seed and
    once with another (its inputs do not depend on the seed, so its counts
    must not either), the other workloads twice with one seed.
    """
    seconds = 1.0
    problems = []
    runs = {}
    for workload, seeds in (("catalog-harness", (1, 1, 2)), ("classify-lattice", (1, 1)), ("job-stream", (1, 1))):
        runs[workload] = [run_child(root, workload, s, seconds, 1, time.monotonic() + RUN_DEADLINE_S) for s in seeds]
        for i, child in enumerate(runs[workload]):
            if child["counts_differ_between_traced_passes"]:
                problems.append(f"{workload} run {i}: counts differ between traced passes: "
                                f"{child['counts_differ_between_traced_passes']}")
        first = runs[workload][0]["layers"]
        for i, child in enumerate(runs[workload][1:], start=1):
            same_seed = child["seed"] == runs[workload][0]["seed"]
            diff = [k for k in COUNT_METRICS if child["layers"][k] != first[k]]
            if diff and (same_seed or workload == "catalog-harness"):
                problems.append(f"{workload} run {i} (seed {child['seed']}): counts differ: {diff}")
    wrapped = list(WRAPPED_FUNCTIONS) + [f"{m}.{a}" for m, _, a in WRAPPED_METHODS]
    total = {name: sum(c["calls_by_name"].get(name, 0) for rs in runs.values() for c in rs) for name in wrapped}
    for name, calls in total.items():
        if name in IDLE_ON_ALL_WORKLOADS and calls:
            problems.append(f"{name} is listed as idle but recorded {calls} calls")
        if name not in IDLE_ON_ALL_WORKLOADS and not calls:
            problems.append(f"{name} recorded no call on any workload (wrapper bypassed?)")
    for workload, rs in runs.items():
        layers = rs[0]["layers"]
        print(f"{workload}: " + ", ".join(
            f"{k}={layers[k]:g}" for k in ("series.calls", "series.terms", "series.calls.block-ratio",
                                           "series.calls.budget-exhausted", "spectral_core.eigenvalue.calls",
                                           "gevrey_classifier.probes", "gevrey_classifier.probes_max_per_unit",
                                           "trace.overhead")))
    problems += benchmark_file_problems(root)
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--self-test", action="store_true", help="check the tracer's counts and coverage")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gevlab", "__init__.py")):
        print("perfbench: run from the root of a gevlab checkout (no src/gevlab here)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.all:
        rows = []
        for workload in WORKLOADS:
            result, record = benchmark(root, workload, args.seed, args.seconds, args.trace)
            log_record(root, record)
            print("\n".join(summary_lines(record)))
            rows.append((workload, result))
        print(f"{'metric':<34}" + "".join(f"{w:>18}" for w in WORKLOADS))
        for name, unit in (END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS).items():
            print(f"{name + ' [' + unit + ']':<34}" + "".join(f"{r['metrics'][name]['value']:>18.6g}" for _, r in rows))
        return 0 if all(r["correct"] and not r["failed"] for _, r in rows) else 1
    if args.workload is None:
        ap.error("give --workload, --all or --self-test")
    result, record = benchmark(root, args.workload, args.seed, args.seconds, args.trace)
    log_record(root, record)
    print("\n".join(summary_lines(record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
