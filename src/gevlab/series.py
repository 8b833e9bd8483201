"""Series certification: every infinite-sum decision returns a certificate.

A finite sum is added up exactly (`exact-finite`).  An infinite sum is
decided only from its declared envelopes (`TailBounds`): a lower envelope
whose terms do not decay proves divergence (`symbolic-divergence`) with no
term evaluated; a summable upper envelope proves convergence, and partial
sums over k = 1..K, K doubling up to a budget, resolve the value until the
envelope's closed-form tail bound falls below tolerance (`symbolic-tail`).
Without such an envelope the result is Inconclusive on route
`no-closed-form`, at once: the engine never extrapolates from a summed
prefix and never silently truncates.  Without a budget the engine only
decides: it returns the same status and route and evaluates no term.  A
family of such sums, one row each, is certified in one pass
(`certify_log_rows`): every row keeps its own rule and certificate, and the
rows share each block of indices, the monotone starts and the tail-bound
checkpoints.  One sum is the family of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .asymptotics import TailBounds, form_converges, form_diverges, tail_bounders
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
_FINITE_STEP = 1 << 16  # a finite sum is added up in blocks of this many indices
# Log-terms in one block of rows: rows are grouped so that a block read for
# many rows holds no more than a 32,768-index block of one row.
_ROWS_CAP = 1 << 15


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
    CONVERGES, both are NaN and `terms_used` is 0.  DIVERGES evaluates no
    term: `detail` names the lower envelope that proves it and its `k_min`.
    """

    status: SeriesStatus
    log_value: float = math.nan
    log_tail_bound: float = math.nan
    terms_used: int = 0
    route: str = ""
    detail: str = ""

    @property
    def converged(self) -> bool:
        return self.status is SeriesStatus.CONVERGES

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "log_value": json_float(self.log_value),
            "log_tail_bound": json_float(self.log_tail_bound),
            "terms_used": self.terms_used,
            "route": self.route,
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
    only the status is certified: no term is evaluated, and a convergent
    certificate carries no value.
    This is the one-row case of certify_log_rows; a decision reads no term,
    so it passes no term function.
    """
    term_rows = None if budget is None else lambda ks, rows: (term_fn(ks),)
    return certify_log_rows(term_rows, 1, count=count, bounds=(bounds,), budget=budget)[0]


def certify_log_rows(
    term_rows: Optional[Callable[[np.ndarray, list], Sequence[np.ndarray]]],
    rows: int,
    *,
    count: Optional[int] = None,
    bounds: Iterable[Optional[TailBounds]] = (),
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> list[ConvergenceCertificate]:
    """Certify sum_k e^{term_rows(k, r)} for each row r = 0..rows-1, every
    row by the rule of certify_log_series.

    `term_rows(ks, rs)` maps an int64 index array and a list of rows to the
    log-terms of those rows, one array (or one row of a 2-D array) each;
    with `budget=None` it is never called, and may be None.
    A finite `count` sums every row over k = 1..count and reads no
    envelope.  An
    infinite sum reads `bounds`, one envelope (or None) per row, in order:
    the rows are decided up to the first that does not converge, whose
    certificate ends the list, and no later row is read.  The convergent
    rows are summed together, each stopping at its own K: one block of
    indices is read for all rows still summing, in groups of rows of at
    most _ROWS_CAP terms, and the tail bounds of all rows checked at one K
    come from one evaluation.
    """
    if count is not None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if budget is None:
            return [ConvergenceCertificate(SeriesStatus.CONVERGES, route="exact-finite")] * rows
        totals = [NEG_INF] * rows
        everyone = list(range(rows))
        for start in range(1, count + 1, _FINITE_STEP):
            stop = min(count, start + _FINITE_STEP - 1)
            _add_block(term_rows, np.arange(start, stop + 1, dtype=np.int64), everyone, totals)
        return [
            ConvergenceCertificate(
                SeriesStatus.CONVERGES,
                log_value=total,
                log_tail_bound=NEG_INF,
                terms_used=count,
                route="exact-finite",
            )
            for total in totals
        ]

    uppers, k_mins, last = [], [], None  # last: the first row that does not converge
    for b in islice(bounds, rows):
        if b is not None and b.lower is not None and form_diverges(b.lower):
            last = ConvergenceCertificate(
                SeriesStatus.DIVERGES,
                log_value=math.inf,
                route="symbolic-divergence",
                detail=f"lower envelope {b.lower.describe()} does not decay (valid k >= {b.k_min})",
            )
            break
        if b is None or b.upper is None or not form_converges(b.upper):
            last = ConvergenceCertificate(
                SeriesStatus.INCONCLUSIVE, route="no-closed-form", detail=_undecided(b)
            )
            break
        uppers.append(b.upper)
        k_mins.append(b.k_min)

    if budget is None:
        certs = [
            ConvergenceCertificate(
                SeriesStatus.CONVERGES, route="symbolic-tail", detail=f"upper envelope {u.describe()}"
            )
            for u in uppers
        ]
    else:
        certs = _resolved(term_rows, uppers, k_mins, budget) if uppers else []
    if last is not None:
        certs.append(last)
    return certs


def _resolved(term_rows, uppers, k_mins, budget) -> list[ConvergenceCertificate]:
    """Partial sums over k = 1..K, K doubling up to the budget, of the rows
    with summable upper envelopes; a row stops at the first K >= its k_min
    where the tail bound falls below rel_tol times its sum."""
    details = [f"upper envelope {u.describe()}" for u in uppers]
    tails = tail_bounders(uppers)
    log_tol = math.log(budget.rel_tol)
    running = [NEG_INF] * len(uppers)
    certs: list = [None] * len(uppers)
    live = list(range(len(uppers)))
    prev_end = 0
    while live and prev_end < budget.k_max:
        K = min(budget.k_max, max(_BLOCK_START, prev_end * 2))
        _add_block(term_rows, np.arange(prev_end + 1, K + 1, dtype=np.int64), live, running)
        prev_end = K
        due = [r for r in live if K >= k_mins[r]]
        for r, tb in zip(due, tails(K, due)):
            if tb is not None and (tb <= running[r] + log_tol or tb <= LOG_ABS_FLOOR):
                certs[r] = ConvergenceCertificate(
                    SeriesStatus.CONVERGES,
                    log_value=running[r],
                    log_tail_bound=tb,
                    terms_used=K,
                    route="symbolic-tail",
                    detail=details[r],
                )
        live = [r for r in live if certs[r] is None]

    due = [r for r in live if prev_end >= k_mins[r]]
    tbs = dict(zip(due, tails(prev_end, due))) if due else {}
    for r in live:
        tb = tbs.get(r)
        certs[r] = ConvergenceCertificate(
            SeriesStatus.CONVERGES,
            log_value=running[r],
            log_tail_bound=tb if tb is not None else math.inf,
            terms_used=prev_end,
            route="symbolic-tail",
            detail="convergent by upper envelope; value resolved to budget only",
        )
    return certs


def _add_block(term_rows, ks: np.ndarray, rows: list[int], running: list[float]) -> None:
    """Add the block ks of each listed row to its log partial sum, reading
    the rows in groups of at most _ROWS_CAP log-terms."""
    group = max(1, _ROWS_CAP // ks.size)
    for i in range(0, len(rows), group):
        rs = rows[i : i + group]
        for r, vals in zip(rs, term_rows(ks, rs)):
            running[r] = logaddexp(running[r], logsumexp(vals))


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
