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


# The route names the proof, and so fixes the status.
_ROUTE_STATUS = {
    "exact-finite": SeriesStatus.CONVERGES,
    "symbolic-tail": SeriesStatus.CONVERGES,
    "symbolic-divergence": SeriesStatus.DIVERGES,
    "no-closed-form": SeriesStatus.INCONCLUSIVE,
}
_NO_ENVELOPE = "no tail envelope declared"


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Auditable outcome of a series decision, stored once as its proof.

    `route` names the proof and fixes `status`: `exact-finite` (a finite
    sum added up) and `symbolic-tail` (a summable upper envelope) CONVERGE,
    `symbolic-divergence` (a lower envelope whose terms do not decay)
    DIVERGES and `no-closed-form` is INCONCLUSIVE.  `bounds` is the envelope
    the engine read: None for a finite sum or where none was declared.
    `detail` words the proof from both only when read.  `log_value` is the
    log of the certified partial sum (CONVERGES) and `log_tail_bound` bounds
    the log of the truncation error; a decision, issued without a budget,
    resolves no value (both NaN, `terms_used` 0), and DIVERGES evaluates no
    term.
    """

    route: str
    bounds: Optional[TailBounds] = None
    log_value: float = math.nan
    log_tail_bound: float = math.nan
    terms_used: int = 0

    @property
    def status(self) -> SeriesStatus:
        return _ROUTE_STATUS[self.route]

    @property
    def converged(self) -> bool:
        return self.status is SeriesStatus.CONVERGES

    @property
    def detail(self) -> str:
        b = self.bounds
        if self.route == "symbolic-tail":
            return f"upper envelope {b.upper.describe()}"
        if self.route == "symbolic-divergence":
            return f"lower envelope {b.lower.describe()} does not decay (valid k >= {b.k_min})"
        if self.route == "no-closed-form":
            return _NO_ENVELOPE if b is None else f"{undecided_side(b, 'upper')}; {undecided_side(b, 'lower')}"
        return ""

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
    envelope.  An infinite sum reads `bounds`, one envelope (or None) per row, in order:
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
            return [ConvergenceCertificate("exact-finite")] * rows
        totals = [NEG_INF] * rows
        everyone = list(range(rows))
        for start in range(1, count + 1, _FINITE_STEP):
            stop = min(count, start + _FINITE_STEP - 1)
            _add_block(term_rows, np.arange(start, stop + 1, dtype=np.int64), everyone, totals)
        return [
            ConvergenceCertificate("exact-finite", log_value=total, log_tail_bound=NEG_INF, terms_used=count)
            for total in totals
        ]

    decided, last = [], None  # last: the first row that does not converge
    for b in islice(bounds, rows):
        if b is not None and b.lower is not None and form_diverges(b.lower):
            last = ConvergenceCertificate("symbolic-divergence", b, log_value=math.inf)
            break
        if b is None or b.upper is None or not form_converges(b.upper):
            last = ConvergenceCertificate("no-closed-form", b)
            break
        decided.append(b)

    if budget is None:
        certs = [ConvergenceCertificate("symbolic-tail", b) for b in decided]
    else:
        certs = _resolved(term_rows, decided, budget) if decided else []
    if last is not None:
        certs.append(last)
    return certs


def _resolved(term_rows, bounds, budget) -> list[ConvergenceCertificate]:
    """Partial sums over k = 1..K, K doubling up to the budget, of the rows
    with summable upper envelopes; a row stops at the first K >= its k_min
    where the tail bound falls below rel_tol times its sum."""
    tails = tail_bounders([b.upper for b in bounds])
    log_tol = math.log(budget.rel_tol)
    running = [NEG_INF] * len(bounds)
    certs: list = [None] * len(bounds)
    live = list(range(len(bounds)))
    prev_end = 0
    while live and prev_end < budget.k_max:
        K = min(budget.k_max, max(_BLOCK_START, prev_end * 2))
        _add_block(term_rows, np.arange(prev_end + 1, K + 1, dtype=np.int64), live, running)
        prev_end = K
        due = [r for r in live if K >= bounds[r].k_min]
        for r, tb in zip(due, tails(K, due)):
            if tb is not None and (tb <= running[r] + log_tol or tb <= LOG_ABS_FLOOR):
                certs[r] = ConvergenceCertificate("symbolic-tail", bounds[r], running[r], tb, K)
        live = [r for r in live if certs[r] is None]

    # the budget ends first: the value stands with its looser tail bound
    due = [r for r in live if prev_end >= bounds[r].k_min]
    tbs = {r: tb for r, tb in zip(due, tails(prev_end, due) if due else ()) if tb is not None}
    for r in live:
        tb = tbs.get(r, math.inf)
        certs[r] = ConvergenceCertificate("symbolic-tail", bounds[r], running[r], tb, prev_end)
    return certs


def _add_block(term_rows, ks: np.ndarray, rows: list[int], running: list[float]) -> None:
    """Add the block ks of each listed row to its log partial sum, reading
    the rows in groups of at most _ROWS_CAP log-terms."""
    group = max(1, _ROWS_CAP // ks.size)
    for i in range(0, len(rows), group):
        rs = rows[i : i + group]
        for r, vals in zip(rs, term_rows(ks, rs)):
            running[r] = logaddexp(running[r], logsumexp(vals))


def undecided_side(bounds: Optional[TailBounds], side: str) -> str:
    """Why one side, "upper" or "lower", of an undecided sum's envelope
    proves nothing: no envelope, no such side, or a side that decides
    nothing."""
    if bounds is None:
        return _NO_ENVELOPE
    form = bounds.upper if side == "upper" else bounds.lower
    if form is None:
        return f"no {side} envelope"
    proves = "convergence" if side == "upper" else "divergence"
    return f"{side} envelope {form.describe()} proves no {proves}"
