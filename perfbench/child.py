"""One workload in one fresh process: warm up, time passes, check outputs.

Run by run.py; prints one JSON object on its last stdout line.  With
--trace 1 it alternates untraced and traced passes, so the tracing overhead
is measured in the same process and under the same conditions.  Machine
speed is calibrated between passes, and each pass's times are scaled by the
calibrations on either side of it (see calibrate.py); unscaled medians are
reported beside.

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from calibrate import calibrate, speed_factor
from layers import COUNT_METRICS, PER_LAYER_UNITS, pass_metrics, probes_by_unit
from tracer import Tracer
from workloads import WORKLOADS, seeded_rng

MIN_PASSES = 3  # timed passes of each kind (untraced, traced)
MIN_SAMPLES = 100  # latency samples needed for unit_ms_p50 / unit_ms_p90
MAX_MEASURE_S = 120.0  # hard stop for the timed phase
CALIBRATIONS_PER_GAP = 2  # calibrations before the first and after every timed pass


def run_pass(workload, pass_no: int, unit_ids: dict, tracer=None) -> tuple[dict, list, int, int, float]:
    """(records, [(unit key, latency s)], operations, failures, wall seconds).

    Each step's units run in an order drawn from (seed, pass_no, step), so
    over a run every unit follows many different predecessors and no
    latency depends on one fixed neighbour (caches, allocator state).
    `unit_ids` gives units stable ids for the tracer across passes.
    """
    records: dict = {}
    latencies: list[tuple[str, float]] = []
    ops = failed = 0
    clock = time.perf_counter
    t_pass = clock()
    step = 0
    while units := workload.units(step, records):
        order = seeded_rng(workload.seed, pass_no, step).permutation(len(units))
        for unit in (units[i] for i in order):
            if tracer is not None:
                tracer.unit = unit_ids.setdefault(unit.key, len(unit_ids))
            t0 = clock()
            try:
                rec = unit.fn()
            except Exception as exc:  # counted as a failed operation and reported
                rec = {"error": f"{type(exc).__name__}: {exc}"}
                failed += 1
            t1 = clock()
            ops += 1
            records[unit.key] = rec
            if unit.kind == workload.latency_kind:
                latencies.append((unit.key, t1 - t0))
        step += 1
    wall = clock() - t_pass
    if tracer is not None:
        tracer.unit = -1
    return records, latencies, ops, failed, wall


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics: near the quantile several
    neighbouring values share the weight, so the estimate does not follow the
    noise of the one or two values a plain sample quantile interpolates.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf)])
    cdf /= cdf[-1]
    grid = np.concatenate([[0.0], t])
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, right=1.0))
    return float(weights @ x)


def fingerprint(records: dict) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


class Measurement:
    """Timed passes of one run, with the per-layer results of the traced ones."""

    def __init__(self) -> None:
        self.calibrations = [calibrate() for _ in range(CALIBRATIONS_PER_GAP)]
        self.passes: list[tuple[bool, float, list]] = []  # (traced, wall s, [(unit key, latency s)])
        self.ops = self.failed = self.drift = 0
        self.layer_runs: list[dict] = []
        self.calls_by_name: dict[str, int] = {}
        self.first_spans: dict | None = None

    def count(self, traced: bool) -> int:
        return sum(t == traced for t, _, _ in self.passes)

    def samples(self) -> int:
        return sum(len(lat) for traced, _, lat in self.passes if not traced)

    def add(self, traced: bool, wall: float, latencies: list) -> None:
        self.calibrations += [calibrate() for _ in range(CALIBRATIONS_PER_GAP)]
        self.passes.append((traced, wall, latencies))

    def walls(self, traced: bool) -> list[float]:
        return [wall for t, wall, _ in self.passes if t == traced]

    def factors(self, traced: bool) -> list[float]:
        """Speed factor of each pass, from the calibrations just before and after it."""
        k = CALIBRATIONS_PER_GAP
        c = self.calibrations
        return [speed_factor(c[i * k:(i + 2) * k]) for i, (t, _, _) in enumerate(self.passes) if t == traced]


def measure(workload, seconds: float, unit_ids: dict, expected: str, tracer, classifications: int) -> Measurement:
    m = Measurement()
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        n_plain, n_traced = m.count(False), m.count(True)
        enough = (
            elapsed >= seconds
            and n_plain >= MIN_PASSES
            and (n_traced >= MIN_PASSES if tracer else m.samples() >= MIN_SAMPLES)
        )
        if enough or elapsed >= MAX_MEASURE_S:
            return m
        traced = tracer is not None and n_traced < n_plain
        if traced:
            tracer.clear()
            tracer.install()
            try:
                recs, lat, ops, failed, wall = run_pass(workload, len(m.passes) + 1, unit_ids, tracer)
            finally:
                tracer.uninstall()
            spans = tracer.snapshot()
            metrics, by_name = pass_metrics(spans, tracer.labels, classifications)
            m.layer_runs.append(metrics)
            for k, v in by_name.items():
                m.calls_by_name[k] = max(m.calls_by_name.get(k, 0), v)
            if m.first_spans is None:
                m.first_spans = spans
        else:
            recs, lat, ops, failed, wall = run_pass(workload, len(m.passes) + 1, unit_ids)
        m.add(traced, wall, lat)
        m.ops += ops
        m.failed += failed
        m.drift += fingerprint(recs) != expected


def end_to_end(m: Measurement) -> dict:
    walls, factors = m.walls(False), m.factors(False)
    # a unit's latency is its median over the timed passes; the quantiles are
    # taken over units, so they do not jump between the latency levels of
    # neighbouring units as single noisy samples cross them
    by_unit: dict[str, list] = {}
    for (_, _, lat), f in zip((p for p in m.passes if not p[0]), factors):
        for key, x in lat:
            by_unit.setdefault(key, []).append(x * f)
    unit_latencies = [statistics.median(v) for v in by_unit.values()]
    out = {
        "pass_s": statistics.median(w * f for w, f in zip(walls, factors)),
        "pass_wall_s": statistics.median(walls),
        "passes": len(walls),
        "calibration_s": statistics.median(m.calibrations),
        "units": len(unit_latencies),
        "latency_samples": sum(len(v) for v in by_unit.values()),
    }
    if unit_latencies:
        out["unit_ms_p50"] = harrell_davis(unit_latencies, 0.5) * 1e3
        out["unit_ms_p90"] = harrell_davis(unit_latencies, 0.9) * 1e3
    return out


def per_layer(m: Measurement) -> dict:
    """Counts from the first traced pass; times scaled and median over traced passes."""
    factors = m.factors(True)
    runs = m.layer_runs
    layers = {}
    for k, unit in PER_LAYER_UNITS.items():
        if k not in runs[0]:
            continue
        if k in COUNT_METRICS:
            layers[k] = runs[0][k]
        elif unit == "s":
            layers[k] = statistics.median(run[k] * f for run, f in zip(runs, factors))
        elif unit == "1/s":
            layers[k] = statistics.median(run[k] / f for run, f in zip(runs, factors))
        else:
            layers[k] = statistics.median(run[k] for run in runs)
    traced_s = statistics.median(w * f for w, f in zip(m.walls(True), factors))
    plain_s = statistics.median(w * f for w, f in zip(m.walls(False), m.factors(False)))
    layers["trace.overhead"] = traced_s / plain_s - 1.0
    return {
        "layers": layers,
        "traced_pass_s": traced_s,
        "traced_passes": len(runs),
        "counts_differ_between_traced_passes": [
            k for k in runs[0] if k in COUNT_METRICS and any(run[k] != runs[0][k] for run in runs[1:])
        ],
        "calls_by_name": m.calls_by_name,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import gevlab as gl

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gl.__file__).startswith(src + os.sep):
        raise SystemExit(f"gevlab imported from {gl.__file__}, not from {src}")
    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](gl, args.seed, args.out)

    # untimed warm-up pass; its outputs are the ones checked, and every timed
    # pass must reproduce them
    unit_ids: dict = {}
    records, _, ops, failed, _ = run_pass(workload, 0, unit_ids)
    tracer = Tracer() if args.trace else None
    m = measure(workload, args.seconds, unit_ids, fingerprint(records), tracer, workload.classifications(records))
    # read before the checks below, which allocate large arrays of their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference", f"{args.workload}.json"), encoding="utf-8") as fh:
        checks = workload.verify(records, json.load(fh))
    issued, unknown = workload.verdict_counts(records)
    errors = [rec["error"] for rec in records.values() if "error" in rec]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": ops + m.ops,
        "failed": failed + m.failed,
        "first_failure": errors[0] if errors else None,
        "mismatches_rules": checks["rules"],
        "mismatches_reference": checks["reference"],
        "passes_differing_from_warmup": m.drift,
        "verdicts_issued": issued,
        "verdicts_unknown": unknown,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
        **end_to_end(m),
    }

    side = {"workload": args.workload, "units": workload.side(records)}
    if tracer is not None:
        result.update(per_layer(m))
        result["layers"]["verdicts.unknown_share"] = unknown / issued if issued else 0.0
        unit_keys = sorted(unit_ids, key=unit_ids.get)
        per_unit = probes_by_unit(m.first_spans, tracer.labels)
        side["probes_by_unit"] = {unit_keys[u]: c for u, c in sorted(per_unit.items())}
        np.savez_compressed(
            os.path.join(args.out, f"spans-{args.workload}.npz"),
            labels=np.asarray(["@".join(lab) for lab in tracer.labels]),
            units=np.asarray(unit_keys),
            **m.first_spans,
        )
    with open(os.path.join(args.out, f"side-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(side, fh, sort_keys=True, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
