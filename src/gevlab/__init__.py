"""gevlab: a numerical laboratory for diagonal spectral operators.

Models operators with discrete spectrum as coordinate multiplication on a
sequence space, evolves y' = A y from admissible initial data, decides
order-beta regularity of vectors and solutions by certified series tests,
and mechanically reproduces the refutation constructions for spectra that
escape the admissible region.
"""

from .asymptotics import AsymForm, AsymTerm, TailBounds
from .borel_calculus import (
    DomainCriterion,
    DomainVerdict,
    ExpSymbol,
    GevreyExpSymbol,
    PowerNorms,
    PowerSymbol,
    SymbolFunction,
    domain_member_direct,
    domain_member_prop31,
    power_norms,
)
from .catalog import builtin_spectra, builtin_vectors
from .counterexamples import (
    CounterexampleArtifacts,
    PlanCase,
    SupportView,
    ViolatingSpectrumPlan,
    build_counterexample,
    build_violating_spectrum,
    plan_for_spectrum,
)
from .errors import (
    ConsistencyError,
    CounterexampleError,
    DomainError,
    GevlabError,
    HarnessError,
    JobSpecError,
    PlanError,
    SpectrumError,
    VectorError,
)
from .evolution import (
    AdmissibilityCertificate,
    DecayDominates,
    ExplicitFinite,
    ReBoundedAbove,
    SolutionHandle,
    Undetermined,
    WitnessFailure,
    check_admissible,
    solve,
)
from .gevrey_classifier import (
    GevreyFlavor,
    GevreyVerdict,
    HarnessReport,
    OrderEstimate,
    RegionHolds,
    RegionReport,
    RegionUnknown,
    RegionViolated,
    estimate_order,
    region_condition,
    theorem_equivalence_harness,
    vector_class,
    vector_class_beta0,
)
from .logdomain import logsumexp, wrap_phase
from .series import (
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
    certify_log_series,
    DEFAULT_BUDGET,
)
from .spectral_core import (
    CoefficientVector,
    CustomSpectrum,
    ExplicitSpectrum,
    PowerLawSpectrum,
    SeriesSpace,
    SpectrumFamily,
    conjugate_exponent,
    total_variation,
)

__version__ = "0.1.0"
