"""Cost of one Gevrey probe decision, layer by layer, in process.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/decision_cost.py

A class verdict probes e^{s|A|^{1/beta}} f at a few scales s, and each probe
is decided from one symbolic envelope.  For each fixed case (a built-in
vector on a built-in spectrum at one beta) this times, at s = 1:

- `term_bounds_us`: `f.space.term_bounds(F)`, the envelope of
  log|f_k| + log|F(lam_k)| for F = GevreyExpSymbol(s, beta);
- `scale_us`: `TailBounds.scale(p)` of that envelope, as the probe takes it
  to the power p;
- `decision_us`: the series engine's decision on the scaled envelope,
  `certify_log_series(..., budget=None)`;
- `domain_member_us`: the whole probe, `domain_member_direct(F, f,
  budget=None)`;
- `classify_both_us`: both class verdicts of the vector at beta, every
  probe included.

Each figure is the median over ROUNDS = 41 rounds of the mean time per
call in a round; a round repeats the call for about 5 ms.  The rounds of all
timings are interleaved, so that a drift of the machine's speed over the
run touches every figure alike.  It prints one JSON line.  Standard
library and gevlab only; the checkout's src/ goes first on sys.path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import timeit

ROUNDS = 41
# (vector label, spectrum name, beta), fixed so that runs of two revisions compare
CASES = (
    ("gauss", "mixed-quart", 2.0),
    ("cubic", "pos-real", 1.0),
    ("stretch15", "lin-diag", 1.5),
)


def _per_call_us(calls: dict) -> dict:
    """The median us per call of each function, over interleaved rounds."""
    timers = {key: timeit.Timer(fn) for key, fn in calls.items()}
    # autorange: calls that take at least 0.2 s; a round takes 1/40 of that
    numbers = {key: max(1, t.autorange()[0] // 40) for key, t in timers.items()}
    times = {key: [] for key in calls}
    for _ in range(ROUNDS):
        for key, t in timers.items():
            times[key].append(t.timeit(numbers[key]) / numbers[key])
    return {key: round(statistics.median(ts) * 1e6, 3) for key, ts in times.items()}


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gevlab", "asymptotics.py")):
        print("decision_cost.py: run from the root of a gevlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from gevlab.borel_calculus import GevreyExpSymbol, domain_member_direct
    from gevlab.catalog import builtin_spectra, builtin_vectors
    from gevlab.gevrey_classifier import _classify_both
    from gevlab.series import certify_log_series

    spectra = builtin_spectra()
    calls = {}
    for label, name, beta in CASES:
        spectrum = spectra[name]
        f = next(v for v in builtin_vectors(spectrum) if v.label == label)
        F = GevreyExpSymbol(1.0, beta)
        space, p = f.space, f.p_norm
        envelope = space.term_bounds(F)
        scaled = envelope.scale(p)
        case = f"{label} on {spectrum.label} at beta={beta:g}"
        calls.update({
            (case, "term_bounds_us"): lambda space=space, F=F: space.term_bounds(F),
            (case, "scale_us"): lambda envelope=envelope, p=p: envelope.scale(p),
            (case, "decision_us"): lambda scaled=scaled: certify_log_series(None, bounds=scaled, budget=None),
            (case, "domain_member_us"): lambda F=F, f=f: domain_member_direct(F, f, budget=None),
            (case, "classify_both_us"): lambda f=f, beta=beta: _classify_both(f, beta),
        })
    out = {}
    for (case, key), us in _per_call_us(calls).items():
        out.setdefault(case, {})[key] = us
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "cases": out,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
