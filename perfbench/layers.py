"""What the tracer wraps, and how spans become per-layer metrics.

Each per-layer metric is computed over the spans of one traced pass.  Counts
are per pass and exact; times (``busy_s``, ``self_s``) are per pass too and
are reported as medians over the traced passes of a run.

``busy_s`` of a function is the summed duration of its outermost spans (a
span with an ancestor of the same function is not counted twice).
``self_s`` is the duration minus the time covered by child spans.
"""

from __future__ import annotations

import numpy as np

# The seven certificate routes of gevlab.series, in a fixed order.
ROUTES = (
    "exact-finite",
    "symbolic-tail",
    "symbolic-divergence",
    "block-ratio",
    "sum-cap",
    "term-growth",
    "budget-exhausted",
)
STATUSES = ("converges", "diverges", "inconclusive")

# Module-level functions, "<module>.<name>", replaced in every gevlab.*
# namespace that binds them.
WRAPPED_FUNCTIONS = (
    "series.certify_log_series",
    "logdomain.logsumexp",
    "borel_calculus.domain_member_direct",
    "borel_calculus.domain_member_prop31",
    "borel_calculus.power_norms",
    "gevrey_classifier.region_condition",
    "gevrey_classifier.estimate_order",
    "gevrey_classifier.vector_class",
    "gevrey_classifier.theorem_equivalence_harness",
    "counterexamples.plan_for_spectrum",
    "counterexamples.build_counterexample",
    "evolution.check_admissible",
    "evolution.solve",
    "cli_reporting.parse_jobspec",
    "cli_reporting.run",
    "cli_reporting.emit_csv",
)
# Methods, patched on the class that defines them: (module, class, method).
WRAPPED_METHODS = (
    ("spectral_core", "SpectrumFamily", "eigenvalue"),
    ("spectral_core", "ExplicitSpectrum", "eigenvalues"),
    ("spectral_core", "PowerLawSpectrum", "eigenvalues"),
    ("spectral_core", "CustomSpectrum", "eigenvalues"),
    ("cli_reporting", "RunReport", "to_json"),
)
# Wrapped names no workload reaches through the public API at this
# revision: only the tests call the dual-probe criterion.  The self-test
# requires these to stay at zero calls and every other name to record calls.
IDLE_ON_ALL_WORKLOADS = ("borel_calculus.domain_member_prop31",)

# Functions that never call another wrapped function; their spans cannot
# nest inside a span of the same function.
_LEAVES = ("logdomain.logsumexp", "spectral_core.eigenvalue", "spectral_core.eigenvalues")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "series.calls": "count",
    "series.terms": "count",
    "series.busy_s": "s",
    "series.terms_per_s": "1/s",
    "series.inconclusive_share": "ratio",
    **{f"series.calls.{r}": "count" for r in ROUTES},
    **{f"series.terms.{r}": "count" for r in ROUTES},
    "logdomain.logsumexp.calls": "count",
    "logdomain.logsumexp.terms": "count",
    "logdomain.logsumexp.busy_s": "s",
    "spectral_core.eigenvalue.calls": "count",
    "spectral_core.eigenvalue.busy_s": "s",
    "spectral_core.eigenvalues.calls": "count",
    "spectral_core.eigenvalues.indices": "count",
    "spectral_core.eigenvalues.busy_s": "s",
    "borel_calculus.domain_member_direct.calls": "count",
    "borel_calculus.domain_member_direct.busy_s": "s",
    "borel_calculus.domain_member_prop31.calls": "count",
    "borel_calculus.domain_member_prop31.busy_s": "s",
    "borel_calculus.power_norms.calls": "count",
    "borel_calculus.power_norms.busy_s": "s",
    "gevrey_classifier.probes": "count",
    "gevrey_classifier.probes_per_classification": "ratio",
    "gevrey_classifier.probes_max_per_unit": "count",
    "gevrey_classifier.region_condition.busy_s": "s",
    "gevrey_classifier.estimate_order.busy_s": "s",
    "gevrey_classifier.vector_class.busy_s": "s",
    "gevrey_classifier.theorem_equivalence_harness.self_s": "s",
    "counterexamples.plan_for_spectrum.calls": "count",
    "counterexamples.plan_for_spectrum.busy_s": "s",
    "counterexamples.build_counterexample.calls": "count",
    "counterexamples.build_counterexample.busy_s": "s",
    "evolution.check_admissible.calls": "count",
    "evolution.check_admissible.busy_s": "s",
    "evolution.solve.calls": "count",
    "cli_reporting.parse_jobspec.busy_s": "s",
    "cli_reporting.run.self_s": "s",
    "cli_reporting.emit.busy_s": "s",
    "verdicts.unknown_share": "ratio",
    "trace.overhead": "ratio",
}
# Metrics that are exact counts; the self-test compares these across runs.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER_UNITS.items()
    if unit == "count" or name in ("series.inconclusive_share", "gevrey_classifier.probes_per_classification")
)


def pass_metrics(spans: dict, labels: list, other_classifications: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and calls per wrapped name.

    The denominator of probes_per_classification is the number of
    vector_class calls plus `other_classifications`, the classifications the
    workload's outputs show were made without vector_class (the harness).
    """
    wid = spans["wid"]
    n = wid.size
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    qual = np.asarray([q for q, _ in labels] + [""], dtype=object)[wid] if n else np.asarray([], dtype=object)
    via = np.asarray([v for _, v in labels] + [""], dtype=object)[wid] if n else np.asarray([], dtype=object)

    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered

    outer = np.ones(n, dtype=bool)
    for i in np.flatnonzero(~np.isin(qual, _LEAVES)):
        p = parent[i]
        while p >= 0:
            if qual[p] == qual[i]:
                outer[i] = False
                break
            p = parent[p]

    def sel(name):
        return qual == name

    def calls(name) -> int:
        return int(np.count_nonzero(sel(name)))

    def busy(name) -> float:
        return float(dur[sel(name) & outer].sum())

    out: dict[str, float] = {}

    s = sel("series.certify_log_series") & (spans["tag"] >= 0)
    route = spans["tag"][s] // len(STATUSES)
    status = spans["tag"][s] % len(STATUSES)
    terms = spans["amount"][s]
    out["series.calls"] = calls("series.certify_log_series")
    out["series.terms"] = int(terms.sum())
    out["series.busy_s"] = busy("series.certify_log_series")
    out["series.terms_per_s"] = out["series.terms"] / out["series.busy_s"] if out["series.busy_s"] > 0 else 0.0
    out["series.inconclusive_share"] = (
        float(np.count_nonzero(status == STATUSES.index("inconclusive"))) / out["series.calls"]
        if out["series.calls"] else 0.0
    )
    for i, r in enumerate(ROUTES):
        out[f"series.calls.{r}"] = int(np.count_nonzero(route == i))
        out[f"series.terms.{r}"] = int(terms[route == i].sum())

    lse = sel("logdomain.logsumexp")
    out["logdomain.logsumexp.calls"] = int(np.count_nonzero(lse))
    out["logdomain.logsumexp.terms"] = int(spans["amount"][lse].sum())
    out["logdomain.logsumexp.busy_s"] = busy("logdomain.logsumexp")

    scalar = sel("spectral_core.eigenvalue")
    out["spectral_core.eigenvalue.calls"] = int(np.count_nonzero(scalar))
    out["spectral_core.eigenvalue.busy_s"] = busy("spectral_core.eigenvalue")
    # vectorised calls made by the scalar method are part of the scalar calls
    in_scalar = np.zeros(n, dtype=bool)
    in_scalar[has_parent] = scalar[parent[has_parent]]
    vec = sel("spectral_core.eigenvalues") & ~in_scalar
    out["spectral_core.eigenvalues.calls"] = int(np.count_nonzero(vec))
    out["spectral_core.eigenvalues.indices"] = int(spans["amount"][vec].sum())
    out["spectral_core.eigenvalues.busy_s"] = float(dur[vec].sum())

    for fn in ("domain_member_direct", "domain_member_prop31", "power_norms"):
        out[f"borel_calculus.{fn}.calls"] = calls(f"borel_calculus.{fn}")
        out[f"borel_calculus.{fn}.busy_s"] = busy(f"borel_calculus.{fn}")

    probes = sel("borel_calculus.domain_member_direct") & (via == "gevrey_classifier")
    out["gevrey_classifier.probes"] = int(np.count_nonzero(probes))
    classifications = calls("gevrey_classifier.vector_class") + other_classifications
    out["gevrey_classifier.probes_per_classification"] = (
        out["gevrey_classifier.probes"] / classifications if classifications else 0.0
    )
    units = spans["unit"][probes]
    out["gevrey_classifier.probes_max_per_unit"] = int(np.bincount(units[units >= 0]).max()) if np.any(units >= 0) else 0
    for fn in ("region_condition", "estimate_order", "vector_class"):
        out[f"gevrey_classifier.{fn}.busy_s"] = busy(f"gevrey_classifier.{fn}")
    harness = sel("gevrey_classifier.theorem_equivalence_harness")
    out["gevrey_classifier.theorem_equivalence_harness.self_s"] = float(self_time[harness].sum())

    for fn in ("plan_for_spectrum", "build_counterexample"):
        out[f"counterexamples.{fn}.calls"] = calls(f"counterexamples.{fn}")
        out[f"counterexamples.{fn}.busy_s"] = busy(f"counterexamples.{fn}")

    out["evolution.check_admissible.calls"] = calls("evolution.check_admissible")
    out["evolution.check_admissible.busy_s"] = busy("evolution.check_admissible")
    out["evolution.solve.calls"] = calls("evolution.solve")

    out["cli_reporting.parse_jobspec.busy_s"] = busy("cli_reporting.parse_jobspec")
    out["cli_reporting.run.self_s"] = float(self_time[sel("cli_reporting.run")].sum())
    out["cli_reporting.emit.busy_s"] = busy("cli_reporting.to_json") + busy("cli_reporting.emit_csv")

    by_name: dict[str, int] = {}
    for w, c in enumerate(np.bincount(wid, minlength=len(labels))):
        by_name[labels[w][0]] = by_name.get(labels[w][0], 0) + int(c)
    return out, by_name


def probes_by_unit(spans: dict, labels: list) -> dict[int, int]:
    """gevrey_classifier probes per unit id, for the side file."""
    wid = spans["wid"]
    ids = [i for i, (q, v) in enumerate(labels)
           if q == "borel_calculus.domain_member_direct" and v == "gevrey_classifier"]
    units = spans["unit"][np.isin(wid, ids)]
    got = np.bincount(units[units >= 0]) if units.size else np.zeros(0, dtype=int)
    return {int(u): int(c) for u, c in enumerate(got) if c}
