"""Series certification: every infinite-sum decision returns a certificate.

A finite sum is added up exactly (`exact-finite`).  An infinite sum is
decided only from its declared envelopes (`TailBounds`): a lower envelope
whose terms do not decay proves divergence (`symbolic-divergence`); a
summable upper envelope proves convergence, and partial sums over k = 1..K,
K doubling up to a budget, resolve the value until the envelope's closed-form
tail bound falls below tolerance (`symbolic-tail`).  Without such an envelope
the result is Inconclusive on route `no-closed-form`, at once: the engine
never extrapolates from a summed prefix and never silently truncates.
Without a budget the engine only decides: it returns the same status and
route and sums no term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .asymptotics import TailBounds, form_converges, form_diverges, log_tail_bound
from .logdomain import LOG_ABS_FLOOR, NEG_INF, logaddexp, logsumexp


class SeriesStatus(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SeriesBudget:
    """How far a convergent sum's value is resolved: at most k_max terms,
    until the tail bound falls below rel_tol times the partial sum."""

    k_max: int = 1 << 20
    rel_tol: float = 1e-10


DEFAULT_BUDGET = SeriesBudget()
_BLOCK_START = 1 << 10  # the first partial sum covers k = 1.._BLOCK_START


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Auditable outcome of a series decision.

    `route` names the proof: `exact-finite` (a finite sum added up),
    `symbolic-tail` (a summable upper envelope), `symbolic-divergence` (a
    lower envelope whose terms do not decay) or `no-closed-form`
    (INCONCLUSIVE: `detail` names the missing or undecided envelope).
    `log_value` is the log of the certified partial sum (CONVERGES) and
    `log_tail_bound` bounds the log of the truncation error.  A decision
    certificate, issued without a budget, resolves no value: when it
    CONVERGES, both are NaN and `terms_used` is 0.  DIVERGES carries a
    witness payload sampling the terms at k = 2^0..2^14.
    """

    status: SeriesStatus
    log_value: float = math.nan
    log_tail_bound: float = math.nan
    terms_used: int = 0
    route: str = ""
    witness: Optional[dict] = None
    detail: str = ""

    @property
    def converged(self) -> bool:
        return self.status is SeriesStatus.CONVERGES

    @property
    def diverged(self) -> bool:
        return self.status is SeriesStatus.DIVERGES

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "log_value": json_float(self.log_value),
            "log_tail_bound": json_float(self.log_tail_bound),
            "terms_used": self.terms_used,
            "route": self.route,
            "witness": self.witness,
            "detail": self.detail,
        }


def json_float(x: Optional[float]):
    """JSON-safe float: None and NaN become null, infinities "inf" / "-inf"."""
    if x is None or math.isnan(x):
        return None
    if x == math.inf:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return x


def _exact_finite(term_fn, count: int) -> ConvergenceCertificate:
    total = NEG_INF
    step = 1 << 16
    start = 1
    while start <= count:
        stop = min(count, start + step - 1)
        blk = logsumexp(term_fn(np.arange(start, stop + 1, dtype=np.int64)))
        total = logaddexp(total, blk)
        start = stop + 1
    return ConvergenceCertificate(
        SeriesStatus.CONVERGES,
        log_value=total,
        log_tail_bound=NEG_INF,
        terms_used=count,
        route="exact-finite",
    )


def _divergence_witness(term_fn) -> dict:
    ks = [1 << j for j in range(0, 15)]
    vals = term_fn(np.asarray(ks, dtype=np.int64))
    return {
        "kind": "sample-prefix",
        "k": [int(k) for k in ks],
        "log_term": [float(v) for v in vals],
    }


def certify_log_series(
    term_fn: Callable[[np.ndarray], np.ndarray],
    *,
    count: Optional[int] = None,
    bounds: Optional[TailBounds] = None,
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> ConvergenceCertificate:
    """Certify sum_k e^{term_fn(k)} over k = 1.. (count or infinity).

    `term_fn` maps an int64 index array to log-magnitudes (-inf allowed).
    `bounds` sandwiches the log-terms beyond bounds.k_min; an infinite sum
    is decided from it alone, and is INCONCLUSIVE (route `no-closed-form`,
    no term evaluated) when neither envelope decides.  With `budget=None`
    only the status is certified: no term is evaluated apart from the
    divergence witness, and a convergent certificate carries no value.
    """
    if count is not None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if budget is None:
            return ConvergenceCertificate(SeriesStatus.CONVERGES, route="exact-finite")
        return _exact_finite(term_fn, count)

    if bounds is not None and bounds.lower is not None and form_diverges(bounds.lower):
        return ConvergenceCertificate(
            SeriesStatus.DIVERGES,
            log_value=math.inf,
            terms_used=0,
            route="symbolic-divergence",
            witness=_divergence_witness(term_fn),
            detail=f"lower envelope {bounds.lower.describe()} does not decay"
            f" (valid k >= {bounds.k_min})",
        )
    if bounds is None or bounds.upper is None or not form_converges(bounds.upper):
        return ConvergenceCertificate(
            SeriesStatus.INCONCLUSIVE,
            route="no-closed-form",
            detail=_undecided(bounds),
        )

    detail = f"upper envelope {bounds.upper.describe()}"
    if budget is None:
        return ConvergenceCertificate(SeriesStatus.CONVERGES, route="symbolic-tail", detail=detail)
    running = NEG_INF
    prev_end = 0
    while prev_end < budget.k_max:
        K = min(budget.k_max, max(_BLOCK_START, prev_end * 2))
        ks = np.arange(prev_end + 1, K + 1, dtype=np.int64)
        running = logaddexp(running, logsumexp(term_fn(ks)))
        prev_end = K
        if K >= bounds.k_min:
            tb = log_tail_bound(bounds.upper, K)
            if tb is not None and (
                tb <= running + math.log(budget.rel_tol) or tb <= LOG_ABS_FLOOR
            ):
                return ConvergenceCertificate(
                    SeriesStatus.CONVERGES,
                    log_value=running,
                    log_tail_bound=tb,
                    terms_used=K,
                    route="symbolic-tail",
                    detail=detail,
                )

    tb = log_tail_bound(bounds.upper, prev_end) if prev_end >= bounds.k_min else None
    return ConvergenceCertificate(
        SeriesStatus.CONVERGES,
        log_value=running,
        log_tail_bound=tb if tb is not None else math.inf,
        terms_used=prev_end,
        route="symbolic-tail",
        detail="convergent by upper envelope; value resolved to budget only",
    )


def _undecided(bounds: Optional[TailBounds]) -> str:
    """Which envelope an undecided infinite sum lacks, for its detail."""
    if bounds is None:
        return "no tail envelope declared"
    upper = (
        "no upper envelope"
        if bounds.upper is None
        else f"upper envelope {bounds.upper.describe()} proves no convergence"
    )
    lower = (
        "no lower envelope"
        if bounds.lower is None
        else f"lower envelope {bounds.lower.describe()} proves no divergence"
    )
    return f"{upper}; {lower}"
