"""Exception types shared across the package."""


class GevlabError(Exception):
    """Base class for every error raised by this package."""


class SpectrumError(GevlabError, ValueError):
    """Invalid spectrum family (duplicates, non-finite entries, bad exponents)."""


class VectorError(GevlabError, ValueError):
    """Invalid coefficient vector (summability not certifiable, index mismatch)."""


class DomainError(GevlabError, ValueError):
    """A symbol was applied to a vector outside the symbol's certified domain.

    `certificate` is the series certificate that failed to converge, when
    there is one (estimate_order passes the first uncertified power's).
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class PlanError(GevlabError, ValueError):
    """A violating-spectrum plan failed one of its selection invariants."""


class CounterexampleError(GevlabError, RuntimeError):
    """Constructed counterexample contradicts the expected verification outcome."""


class ConsistencyError(GevlabError, RuntimeError):
    """Two certified decision routes produced contradictory verdicts."""


class HarnessError(GevlabError, RuntimeError):
    """Equivalence harness found a certified inconsistency."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class JobSpecError(GevlabError, ValueError):
    """Malformed or semantically invalid job specification."""
