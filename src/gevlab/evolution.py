"""Weak solutions y(t) = e^{tA} f and admissibility of initial data.

A finite machine cannot quantify over all t >= 0, so the universal
admissibility statement is decided by closed-form tail rules on supported
families (real part bounded above, or coefficient decay strictly dominating
the real-part growth); a deterministic grid of evolution-domain probes is
kept as a consistency check and any certified contradiction is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .asymptotics import GrowthKind, classify_form, form_converges, log_tail_bound
from .borel_calculus import (
    DomainVerdict,
    ExpSymbol,
    PowerSymbol,
    compose,
    domain_member_direct,
)
from .errors import ConsistencyError, DomainError, VectorError
from .logdomain import NEG_INF, complex_logsum
from .series import SeriesStatus
from .spectral_core import CoefficientVector, conjugate_exponent

DEFAULT_T_MAX = 100.0


# -- tail rules -------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitFinite:
    """Finitely many atoms: every evolution sum is a finite sum."""


@dataclass(frozen=True)
class ReBoundedAbove:
    omega: float


@dataclass(frozen=True)
class DecayDominates:
    r: float
    p_re: float


@dataclass(frozen=True)
class WitnessFailure:
    t: float


@dataclass(frozen=True)
class Undetermined:
    reason: str


TailRule = Union[ExplicitFinite, ReBoundedAbove, DecayDominates, WitnessFailure, Undetermined]


@dataclass(frozen=True)
class AdmissibilityCertificate:
    admissible: bool
    checked_times: tuple[float, ...]
    tail_rule: TailRule
    probe_status: tuple[tuple[float, str], ...] = ()
    detail: str = ""

    @property
    def unknown(self) -> bool:
        return isinstance(self.tail_rule, Undetermined)


def _sup_bound(form, lo: int = 1) -> float:
    """Numeric upper estimate of sup_{k >= lo} form(k) for non-growing forms.

    The 61 checkpoints lo and max(lo, 1) 2^i, i = 1..60, are read in one
    batched call.  Every checkpoint is read, so numpy warns on the same
    operations as reading them one at a time would.
    """
    kind, _ = classify_form(form)
    if kind is GrowthKind.GROWS:
        return math.inf
    ks = np.concatenate(([float(lo)], max(lo, 1) * 2.0 ** np.arange(1, 61)))
    vals = form.evaluate(ks).tolist()
    if all(t.power < 0 for t in form.terms):
        vals.append(form.const)  # the limit, when every term vanishes
    return max(vals)


def check_admissible(f: CoefficientVector, t_max: float = DEFAULT_T_MAX) -> AdmissibilityCertificate:
    """Decide whether f admits the exponential solution for every t >= 0."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    grid = [0.0, 1.0, t_max / 2.0, t_max]

    space = f.series_space()
    rule: TailRule

    if space.count is not None:
        rule = ExplicitFinite()
    else:
        re_b = space.re_bounds()
        if re_b is None or re_b.upper is None:
            rule = Undetermined("no real-part envelope for this family")
        else:
            up_kind, up_coeff = classify_form(re_b.upper)
            if up_kind is not GrowthKind.GROWS:
                # sup Re(lam_k): exact prefix plus envelope beyond it
                kpref = max(re_b.k_min, 1 << 12)
                ks = np.arange(1, kpref + 1, dtype=np.int64)
                prefix_max = float(np.max(space.lam(ks).real))
                omega = max(prefix_max, _sup_bound(re_b.upper, re_b.k_min))
                rule = ReBoundedAbove(omega)
            else:
                rule = _growing_re_rule(space, re_b)

    extra_times = [rule.t] if isinstance(rule, WitnessFailure) else []
    checked = tuple(dict.fromkeys(grid + extra_times))

    probe_status = []
    for t in checked:
        verdict = domain_member_direct(ExpSymbol(float(t)), f, budget=None)
        probe_status.append((t, verdict.certificate.status.value))
        _check_probe_consistency(rule, t, verdict)

    admissible = isinstance(rule, (ExplicitFinite, ReBoundedAbove, DecayDominates))
    return AdmissibilityCertificate(
        admissible=admissible,
        checked_times=checked,
        tail_rule=rule,
        probe_status=tuple(probe_status),
        detail=_rule_detail(rule),
    )


def _growing_re_rule(space, re_b) -> TailRule:
    """Real parts grow.  Decay dominates when the upper envelope of
    log|f_k| + t Re lam_k has one negative leading term, residual included,
    at t = 0 and at DEFAULT_T_MAX (on a dense space: the decay scale exceeds
    the growth scale).  Otherwise look for a certified failure time."""
    ups = [space.term_bounds(ExpSymbol(t)) for t in (0.0, DEFAULT_T_MAX)]
    if any(b is None or b.upper is None for b in ups):
        return Undetermined("no decay envelope for the coefficients")
    lead0, lead_top = (b.upper.leading() for b in ups)
    gr_up = re_b.upper.leading()
    same = lead0 is not None and (lead0, lead0.residual) == (lead_top, lead_top.residual)
    if same and lead0.coeff < 0:
        return DecayDominates(r=lead0.power, p_re=gr_up.power)

    # decay does not dominate: look for a certified failure time
    cb = space.term_bounds()
    gr_lo = re_b.lower.leading() if re_b.lower is not None else None
    if cb.lower is None or gr_lo is None or gr_lo.coeff <= 0:
        return Undetermined("cannot certify a failure time without lower envelopes")
    dec_lo = cb.lower.leading()
    if dec_lo is not None and dec_lo.scale() == gr_up.scale() and dec_lo.coeff < 0:
        t_w = 2.0 * (-dec_lo.coeff) / gr_lo.coeff
    else:
        t_w = 1.0
    return WitnessFailure(t_w)


def _check_probe_consistency(rule: TailRule, t: float, verdict: DomainVerdict) -> None:
    status = verdict.certificate.status
    if isinstance(rule, (ExplicitFinite, ReBoundedAbove, DecayDominates)):
        if status is SeriesStatus.DIVERGES:
            raise ConsistencyError(
                f"closed-form rule {rule!r} says admissible but the evolution domain "
                f"test diverges at t={t:g}: {verdict.certificate.to_dict()!r}"
            )
    if isinstance(rule, WitnessFailure) and t == rule.t:
        if status is SeriesStatus.CONVERGES:
            raise ConsistencyError(
                f"witness time t={t:g} was expected to diverge but converged"
            )


def _rule_detail(rule: TailRule) -> str:
    if isinstance(rule, ExplicitFinite):
        return "finitely many atoms"
    if isinstance(rule, ReBoundedAbove):
        return f"Re(lam_k) <= {rule.omega:g} for all k"
    if isinstance(rule, DecayDominates):
        return f"coefficient decay exponent {rule.r:g} > real-part growth exponent {rule.p_re:g}"
    if isinstance(rule, WitnessFailure):
        return f"evolution domain fails at t = {rule.t:g}"
    return rule.reason


# -- solution handles ---------------------------------------------------------


@dataclass(frozen=True)
class SolutionHandle:
    """Admissible initial vector together with its admissibility certificate."""

    f: CoefficientVector
    certificate: AdmissibilityCertificate

    def __post_init__(self):
        if not self.certificate.admissible:
            raise VectorError(
                f"initial vector {self.f.label!r} is not admissible: "
                f"{self.certificate.detail}"
            )

    @classmethod
    def admit(cls, f: CoefficientVector, t_max: float = DEFAULT_T_MAX) -> "SolutionHandle":
        return cls(f, check_admissible(f, t_max))


def solve(h: SolutionHandle, t: float) -> CoefficientVector:
    """y(t) = e^{tA} f.  At t = 0 the coordinates are returned bit for bit."""
    if t < 0:
        raise ValueError("evolution is defined for t >= 0")
    return h.f._with_symbols((ExpSymbol(float(t)),))


def derivative(h: SolutionHandle, t: float, n: int) -> CoefficientVector:
    """y^(n)(t) = A^n y(t); reports the first failing order on rejection."""
    if t < 0:
        raise ValueError("evolution is defined for t >= 0")
    if n < 0:
        raise ValueError("derivative order must be >= 0")
    symbol = compose(PowerSymbol(n), ExpSymbol(float(t)))
    verdict = domain_member_direct(symbol, h.f, budget=None)
    if verdict.member is not True:
        first = n
        for m in range(1, n + 1):
            v = domain_member_direct(
                compose(PowerSymbol(m), ExpSymbol(float(t))), h.f, budget=None
            )
            if v.member is not True:
                first = m
                break
        raise DomainError(
            f"y(t) is not n-times differentiable at t={t:g}: first failing order {first}",
            verdict,
        )
    return h.f._with_symbols(symbol.factors())


def pairing(v: CoefficientVector, w: CoefficientVector, k_cap: int = 1 << 16) -> complex:
    """Bilinear pairing <v, w> = sum_k v_k w_k (dual coordinates)."""
    counts = [n for n in (v.effective_count(), w.effective_count()) if n is not None]
    tail = None
    if counts:
        n = min(counts)
    else:
        n = k_cap
        vb, wb = v.decay_bounds(), w.decay_bounds()
        if vb is None or wb is None or vb.upper is None or wb.upper is None:
            raise VectorError("pairing of two infinite vectors needs decay envelopes")
        prod = vb.upper + wb.upper
        if not form_converges(prod):
            raise VectorError("pairing series is not certifiably convergent")
        tail = log_tail_bound(prod, n) if n >= max(vb.k_min, wb.k_min) else None
    ks = np.arange(1, n + 1, dtype=np.int64)
    vm, vp = v.log_coeffs(ks)
    wm, wp = w.log_coeffs(ks)
    total = complex_logsum(vm + wm, vp + wp)
    if tail is not None and total.log_mag != NEG_INF and tail > total.log_mag + math.log(1e-9):
        raise VectorError(
            f"pairing tail beyond k={n} is not negligible (bound exp({tail:.3g}))"
        )
    return total.to_complex()


def weak_solution_residual(
    h: SolutionHandle,
    g: CoefficientVector,
    t_grid: Sequence[float],
    eps: float = 1e-5,
) -> float:
    """Max over the grid of |d/dt <y(t), g> - <y(t), A* g>| (central differences).

    g must carry the conjugate exponent and lie in the coordinatewise domain
    of the adjoint, i.e. {lam_k g_k} in l^q.
    """
    q = conjugate_exponent(h.f.p_norm)
    if abs(g.p_norm - q) > 1e-9:
        raise VectorError(f"dual vector must carry q={q:g}")
    adj_check = domain_member_direct(PowerSymbol(1), g, budget=None)
    if adj_check.member is not True:
        raise VectorError("g is outside the coordinatewise adjoint domain")
    infinite = h.f.effective_count() is None
    for t in t_grid:
        if t < 0 or (infinite and t < eps):
            raise ValueError(
                "grid times must be >= 0, and >= eps for infinite spectra "
                "(the backward difference point must stay admissible)"
            )
    a_star_g = g._with_symbols((PowerSymbol(1),))
    worst = 0.0
    for t in t_grid:
        y_plus = h.f._with_symbols((ExpSymbol(float(t + eps)),))
        y_minus = h.f._with_symbols((ExpSymbol(float(t - eps)),))
        y_t = solve(h, t)
        fd = (pairing(y_plus, g) - pairing(y_minus, g)) / (2.0 * eps)
        rhs = pairing(y_t, a_star_g)
        worst = max(worst, abs(fd - rhs))
    return worst
