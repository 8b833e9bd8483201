"""gevlab: a numerical laboratory for diagonal spectral operators.

Models operators with discrete spectrum as coordinate multiplication on a
sequence space, evolves y' = A y from admissible initial data, decides
order-beta regularity of vectors and solutions by certified series tests,
and mechanically reproduces the refutation constructions for spectra that
escape the admissible region.

Importing the package loads none of its modules.  `_EXPORTS` maps each
home module to the public names it defines; reading one of those names
from the package (PEP 562 `__getattr__`) imports its home module on first
use and returns the name as that module binds it now.  The package keeps
no copy, so a name rebound in its home module is what the package hands
out on the next read.  `__all__` and `dir()` come from the same table.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": ("AsymForm", "AsymTerm", "TailBounds"),
    "borel_calculus": (
        "ExpSymbol",
        "GevreyExpSymbol",
        "PowerNorms",
        "PowerSymbol",
        "SymbolFunction",
        "domain_member_direct",
        "domain_member_prop31",
        "power_norms",
    ),
    "catalog": ("builtin_spectra", "builtin_vectors"),
    "counterexamples": (
        "CounterexampleArtifacts",
        "PlanCase",
        "SupportView",
        "ViolatingSpectrumPlan",
        "build_counterexample",
        "build_violating_spectrum",
        "plan_for_spectrum",
    ),
    "errors": (
        "ConsistencyError",
        "CounterexampleError",
        "DomainError",
        "GevlabError",
        "HarnessError",
        "JobSpecError",
        "PlanError",
        "SpectrumError",
        "VectorError",
    ),
    "evolution": (
        "AdmissibilityCertificate",
        "DecayDominates",
        "ExplicitFinite",
        "ReBoundedAbove",
        "SolutionHandle",
        "Undetermined",
        "WitnessFailure",
        "check_admissible",
        "solve",
    ),
    "gevrey_classifier": (
        "GevreyFlavor",
        "GevreyVerdict",
        "HarnessReport",
        "OrderEstimate",
        "RegionHolds",
        "RegionReport",
        "RegionUnknown",
        "RegionViolated",
        "estimate_order",
        "region_condition",
        "theorem_equivalence_harness",
        "vector_class",
        "vector_class_beta0",
    ),
    "logdomain": ("logsumexp", "wrap_phase"),
    "series": (
        "ConvergenceCertificate",
        "SeriesBudget",
        "SeriesStatus",
        "certify_log_series",
        "DEFAULT_BUDGET",
    ),
    "spectral_core": (
        "CoefficientVector",
        "CustomSpectrum",
        "ExplicitSpectrum",
        "PowerLawSpectrum",
        "SeriesSpace",
        "SpectrumFamily",
        "conjugate_exponent",
        "total_variation",
    ),
}

# public name -> full name of its home module
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: import_module costs about twice this whole read
    module = sys.modules.get(home) or importlib.import_module(home)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
