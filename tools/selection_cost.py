"""Cost of selecting a violating subsequence, layer by layer, in process.

Run from the root of a gevlab checkout (the directory holding src/):

    python3 tools/selection_cost.py

When the region condition fails, `plan_for_spectrum` selects indices
j(1) < j(2) < ... from the family's envelopes and checks the first 10,000
orders on the eigenvalues.  For each violated catalog spectrum at beta = 1,
1.5 and 2 this times:

- `selection_us`: `Selection(spectrum, beta)`, the exact threshold forms;
- `extend_us`: `extend(10_000)` on a fresh selection, every T_i(n) of the
  first 10,000 orders;
- `verify_plan_us`: `_verify_plan` of a plan whose orders are selected;
- `plan_us`: the whole `plan_for_spectrum(spectrum, beta)`;

and counts `holds_per_extend`, the (j, n) pairs one `extend(10_000)` decides
with the exact rule `_Threshold.holds`.

Each time is the median over ROUNDS = 21 rounds of the mean time per call in
a round; a round repeats the call for about 5 ms, with a fresh selection
before each `extend`, and the rounds of all timings are interleaved, so that
a drift of the machine's speed touches every figure alike.  It prints one
JSON line.  Standard library and gevlab only; the checkout's src/ goes first
on sys.path.
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


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gevlab", "counterexamples.py")):
        print("selection_cost.py: run from the root of a gevlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from gevlab.catalog import builtin_spectra
    from gevlab.counterexamples import Selection, _Threshold, _verify_plan, plan_for_spectrum

    spectra = builtin_spectra()
    calls, holds_per_extend = {}, {}
    holds = _Threshold.holds
    for name, beta in CASES:
        spectrum = spectra[name]
        case = f"{spectrum.label} at beta={beta:g}"
        evaluations = 0

        def counted(self, js, ns):
            nonlocal evaluations
            evaluations += len(js)
            return holds(self, js, ns)

        _Threshold.holds = counted
        try:
            Selection(spectrum, beta).extend(ORDERS)
        finally:
            _Threshold.holds = holds
        holds_per_extend[case] = evaluations
        plan = plan_for_spectrum(spectrum, beta)
        # each entry builds, untimed, the call it times: extend gets a fresh selection
        calls.update({
            (case, "selection_us"): lambda s=spectrum, b=beta: lambda: Selection(s, b),
            (case, "extend_us"): lambda s=spectrum, b=beta: lambda sel=Selection(s, b): sel.extend(ORDERS),
            (case, "verify_plan_us"): lambda plan=plan: lambda: _verify_plan(plan),
            (case, "plan_us"): lambda s=spectrum, b=beta: lambda: plan_for_spectrum(s, b),
        })
    out = {case: {"holds_per_extend": count} for case, count in holds_per_extend.items()}
    for (case, key), us in _per_call_us(calls).items():
        out[case][key] = us
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rounds": ROUNDS,
        "orders": ORDERS,
        "cases": out,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
