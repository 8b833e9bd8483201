"""Cost of selecting a violating subsequence, layer by layer, in process.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/selection_cost.py

When the region condition fails, `plan_for_spectrum` selects indices
j(1) < j(2) < ... that meet every threshold of the construction, each past
the float estimate of its threshold by a proven margin, and checks the first
10,000 orders on the eigenvalues.  For each violated catalog spectrum at
beta = 1, 1.5 and 2 this times:

- `selection_us`: `Selection(spectrum, beta)`, the threshold estimates;
- `extend_us`: `extend(10_000)` on a fresh selection, every j(n) of the
  first 10,000 orders;
- `verify_plan_us`: `_verify_plan` of a plan whose orders are selected;
- `plan_us`: the whole `plan_for_spectrum(spectrum, beta)`.

Each time is the median over ROUNDS = 21 rounds of the mean time per call in
a round; a round repeats the call for about 5 ms, with a fresh selection
before each `extend`, and the rounds of all timings are interleaved, so that
a drift of the machine's speed touches every figure alike.

`near_boundary` records one pass of the harness over the 72 near-boundary
power laws k^p_re + i k^p_im (p_re in NEAR_P_RE, p_im in NEAR_P_IM, beta in
NEAR_BETAS): its wall time `sweep_s`, the number of calls that raise
`PlanError` (an index past int64), and the slowest call with its time.

It prints one JSON line.  Standard library and gevlab only; the checkout's
src/ goes first on sys.path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

ROUNDS = 21
ORDERS = 10_000
ROUND_S = 0.005
# (spectrum name, beta), fixed so that runs of two revisions compare
CASES = tuple(
    (name, beta)
    for name in ("neg-real", "imag-quad", "imag-quart", "mixed-quart")
    for beta in (1.0, 1.5, 2.0)
)
NEAR_P_RE = (0.5, 1.0, 2.0)
NEAR_P_IM = (0.6, 1.05, 1.1, 1.2, 1.5, 2.1, 2.5, 4.2)
NEAR_BETAS = (1.0, 1.5, 2.0)


def _mean_s(make, number: int) -> float:
    """Mean seconds of number calls of make(), each built untimed by make."""
    total = 0.0
    for _ in range(number):
        fn = make()
        t0 = time.perf_counter()
        fn()
        total += time.perf_counter() - t0
    return total / number


def _per_call_us(calls: dict) -> dict:
    """The median us per call of each timing, over interleaved rounds."""
    numbers = {key: max(1, int(ROUND_S / _mean_s(make, 1))) for key, make in calls.items()}
    times = {key: [] for key in calls}
    for _ in range(ROUNDS):
        for key, make in calls.items():
            times[key].append(_mean_s(make, numbers[key]))
    return {key: round(statistics.median(ts) * 1e6, 3) for key, ts in times.items()}


def _near_boundary() -> dict:
    """One harness pass over the near-boundary sweep: wall time, PlanErrors
    and the slowest call."""
    from gevlab.errors import PlanError
    from gevlab.gevrey_classifier import theorem_equivalence_harness
    from gevlab.spectral_core import PowerLawSpectrum

    plan_errors, slowest, slowest_s = 0, None, 0.0
    t0 = time.perf_counter()
    for p_re in NEAR_P_RE:
        for p_im in NEAR_P_IM:
            for beta in NEAR_BETAS:
                t1 = time.perf_counter()
                try:
                    theorem_equivalence_harness(PowerLawSpectrum(1.0, p_re, 1.0, p_im), beta)
                except PlanError:
                    plan_errors += 1
                call_s = time.perf_counter() - t1
                if call_s > slowest_s:
                    slowest, slowest_s = f"k^{p_re:g}+i*k^{p_im:g} at beta={beta:g}", call_s
    return {
        "calls": len(NEAR_P_RE) * len(NEAR_P_IM) * len(NEAR_BETAS),
        "sweep_s": round(time.perf_counter() - t0, 4),
        "plan_errors": plan_errors,
        "slowest": slowest,
        "slowest_s": round(slowest_s, 4),
    }


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gevlab", "counterexamples.py")):
        print("selection_cost.py: run from the root of a gevlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from gevlab.catalog import builtin_spectra
    from gevlab.counterexamples import Selection, _verify_plan, plan_for_spectrum

    spectra = builtin_spectra()
    calls, out = {}, {}
    for name, beta in CASES:
        spectrum = spectra[name]
        case = f"{spectrum.label} at beta={beta:g}"
        out[case] = {}
        plan = plan_for_spectrum(spectrum, beta)
        # each entry builds, untimed, the call it times: extend gets a fresh selection
        calls.update({
            (case, "selection_us"): lambda s=spectrum, b=beta: lambda: Selection(s, b),
            (case, "extend_us"): lambda s=spectrum, b=beta: lambda sel=Selection(s, b): sel.extend(ORDERS),
            (case, "verify_plan_us"): lambda plan=plan: lambda: _verify_plan(plan),
            (case, "plan_us"): lambda s=spectrum, b=beta: lambda: plan_for_spectrum(s, b),
        })
    for (case, key), us in _per_call_us(calls).items():
        out[case][key] = us
    near_boundary = _near_boundary()
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "orders": ORDERS,
        "cases": out,
        "near_boundary": near_boundary,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
