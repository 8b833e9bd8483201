"""Series certification: every infinite-sum decision returns a certificate.

The protocol: partial sums over k = 1..K with K doubling up to a budget.
A tail is certified convergent either by a closed-form comparison bound
derived from declared exponents (`TailBounds`) or by an empirical block
ratio < 1 over the last three doublings with a geometric tail estimate below
tolerance.  Divergence is certified when the closed form shows the terms do
not decay, when partial sums pass a log-domain cap, or when block maxima
fail to decay over three doublings.  Anything else is Inconclusive; the
engine never silently truncates.
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
    k_max: int = 1 << 20
    rel_tol: float = 1e-10
    log_cap: float = 700.0
    block_start: int = 1 << 10
    decision_k_cap: int = 1 << 12  # prefix summed when only the verdict is needed

    def with_overrides(self, k_max: Optional[int] = None, rel_tol: Optional[float] = None) -> "SeriesBudget":
        return SeriesBudget(
            k_max=self.k_max if k_max is None else int(k_max),
            rel_tol=self.rel_tol if rel_tol is None else float(rel_tol),
            log_cap=self.log_cap,
            block_start=self.block_start,
            decision_k_cap=self.decision_k_cap,
        )


DEFAULT_BUDGET = SeriesBudget()

#: Routes whose verdict a closed form proves; block-ratio, term-growth and
#: sum-cap extrapolate from the summed prefix.
RIGOROUS_ROUTES = frozenset({"exact-finite", "symbolic-tail", "symbolic-divergence"})

_RATIO_CAP = 0.999
_FLAT_SLACK = 1e-12


@dataclass(frozen=True)
class ConvergenceCertificate:
    """Auditable outcome of a series decision.

    `log_value` is the log of the certified partial sum (CONVERGES) and
    `log_tail_bound` bounds the log of the truncation error.  DIVERGES
    carries a witness payload describing why the tail cannot vanish.
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


def _divergence_witness(term_fn, k_hi: int) -> dict:
    ks = [1 << j for j in range(0, 15) if (1 << j) <= k_hi]
    if not ks:
        ks = [1]
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
    budget: SeriesBudget = DEFAULT_BUDGET,
    resolve_value: bool = True,
) -> ConvergenceCertificate:
    """Certify sum_k e^{term_fn(k)} over k = 1.. (count or infinity).

    `term_fn` maps an int64 index array to log-magnitudes (-inf allowed).
    `bounds` sandwiches the log-terms beyond bounds.k_min; when present the
    closed-form decision takes precedence over the empirical protocol.  With
    `resolve_value=False` a symbolically decided sum is only resolved over a
    short prefix (the verdict is unaffected).
    """
    if count is not None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return ConvergenceCertificate(
                SeriesStatus.CONVERGES, NEG_INF, NEG_INF, 0, route="exact-finite"
            )
        return _exact_finite(term_fn, count)

    symbolic: Optional[str] = None
    if bounds is not None:
        if bounds.lower is not None and form_diverges(bounds.lower):
            return ConvergenceCertificate(
                SeriesStatus.DIVERGES,
                log_value=math.inf,
                terms_used=0,
                route="symbolic-divergence",
                witness=_divergence_witness(term_fn, budget.k_max),
                detail=f"lower envelope {bounds.lower.describe()} does not decay"
                f" (valid k >= {bounds.k_min})",
            )
        if bounds.upper is not None and form_converges(bounds.upper):
            symbolic = "converges"

    k_stop = budget.k_max
    if symbolic == "converges" and not resolve_value:
        k_stop = min(budget.k_max, budget.decision_k_cap)

    running = NEG_INF
    prev_end = 0
    block_sums: list[float] = []
    block_maxes: list[float] = []
    while prev_end < k_stop:
        K = min(k_stop, max(budget.block_start, prev_end * 2))
        ks = np.arange(prev_end + 1, K + 1, dtype=np.int64)
        t = term_fn(ks)
        blk = logsumexp(t)
        running = logaddexp(running, blk)
        block_sums.append(blk)
        block_maxes.append(float(np.max(t)) if t.size else NEG_INF)
        prev_end = K

        if symbolic == "converges":
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
                        detail=f"upper envelope {bounds.upper.describe()}",
                    )
            continue

        if running > budget.log_cap:
            return ConvergenceCertificate(
                SeriesStatus.DIVERGES,
                log_value=math.inf,
                terms_used=K,
                route="sum-cap",
                witness={"kind": "partial-sum-cap", "k": K, "log_partial": running},
            )
        if (
            len(block_maxes) >= 3
            and block_maxes[-1] > NEG_INF
            and block_maxes[-1] >= block_maxes[-2] - _FLAT_SLACK
            and block_maxes[-2] >= block_maxes[-3] - _FLAT_SLACK
        ):
            return ConvergenceCertificate(
                SeriesStatus.DIVERGES,
                log_value=math.inf,
                terms_used=K,
                route="term-growth",
                witness={
                    "kind": "non-decaying-terms",
                    "k": K,
                    "block_max": [block_maxes[-3], block_maxes[-2], block_maxes[-1]],
                },
            )
        if len(block_sums) >= 3:
            ratios = []
            ok = True
            for a, b in ((block_sums[-3], block_sums[-2]), (block_sums[-2], block_sums[-1])):
                if b == NEG_INF:
                    ratios.append(0.0)
                elif a == NEG_INF:
                    ok = False
                    break
                else:
                    ratios.append(math.exp(min(b - a, 50.0)))
            if ok and all(r < _RATIO_CAP for r in ratios):
                r = max(max(ratios), 1e-300)
                tail_est = (
                    NEG_INF
                    if block_sums[-1] == NEG_INF
                    else block_sums[-1] + math.log(r) - math.log1p(-r)
                )
                if tail_est <= running + math.log(budget.rel_tol) or tail_est <= LOG_ABS_FLOOR:
                    return ConvergenceCertificate(
                        SeriesStatus.CONVERGES,
                        log_value=running,
                        log_tail_bound=tail_est,
                        terms_used=K,
                        route="block-ratio",
                        detail=f"last block ratios {ratios!r}",
                    )

    if symbolic == "converges":
        tb = log_tail_bound(bounds.upper, prev_end) if prev_end >= bounds.k_min else None
        return ConvergenceCertificate(
            SeriesStatus.CONVERGES,
            log_value=running,
            log_tail_bound=tb if tb is not None else math.inf,
            terms_used=prev_end,
            route="symbolic-tail",
            detail="convergent by upper envelope; value resolved to budget only",
        )
    return ConvergenceCertificate(
        SeriesStatus.INCONCLUSIVE,
        terms_used=prev_end,
        route="budget-exhausted",
        detail=(
            f"no tail rule or divergence witness within K={prev_end}; "
            f"last block sums {block_sums[-3:]!r}"
        ),
    )
