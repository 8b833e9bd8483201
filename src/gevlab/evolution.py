"""Weak solutions y(t) = e^{tA} f and admissibility of initial data.

A finite machine cannot quantify over all t >= 0, so the universal
admissibility statement is decided by closed-form tail rules on supported
families (real part bounded above, or coefficient decay strictly dominating
the real-part growth); a deterministic grid of evolution-domain probes is
kept as a consistency check and any certified contradiction is a hard error.
The derivatives y^(n)(t) = A^n y(t) are read through their norms: power_norms
of solve(h, t) certifies every power up to the first one that diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .asymptotics import GrowthKind, classify_form
from .borel_calculus import ExpSymbol, domain_member_direct
from .errors import ConsistencyError, VectorError
from .series import ConvergenceCertificate, SeriesStatus
from .spectral_core import CoefficientVector

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
    p_re: Optional[float]  # None on a plan's view, whose coupled envelope has no Re exponent


@dataclass(frozen=True)
class WitnessFailure:
    t: float


@dataclass(frozen=True)
class Undetermined:
    reason: str


TailRule = Union[ExplicitFinite, ReBoundedAbove, DecayDominates, WitnessFailure, Undetermined]
_ADMITTING = (ExplicitFinite, ReBoundedAbove, DecayDominates)  # the rules that prove admissibility


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Whether f admits e^{tA} f for every t >= 0, stored once as its proof.

    `tail_rule` is the proof, and `admissible`, `unknown` and `detail` follow
    from it.  `probe_status` holds the evolution-domain probe at each of
    `checked_times`, a consistency check of the rule.
    """

    checked_times: tuple[float, ...]
    tail_rule: TailRule
    probe_status: tuple[tuple[float, str], ...] = ()

    @property
    def admissible(self) -> bool:
        return isinstance(self.tail_rule, _ADMITTING)

    @property
    def unknown(self) -> bool:
        return isinstance(self.tail_rule, Undetermined)

    @property
    def detail(self) -> str:
        rule = self.tail_rule
        if isinstance(rule, ExplicitFinite):
            return "finitely many atoms"
        if isinstance(rule, ReBoundedAbove):
            return f"Re(lam_k) <= {rule.omega:g} for all k"
        if isinstance(rule, DecayDominates) and rule.p_re is None:
            return (
                f"coupled envelope keeps a negative leading term n^{rule.r:g} at t = 0 and {DEFAULT_T_MAX:g}"
            )
        if isinstance(rule, DecayDominates):
            return f"coefficient decay exponent {rule.r:g} > real-part growth exponent {rule.p_re:g}"
        if isinstance(rule, WitnessFailure):
            return f"evolution domain fails at t = {rule.t:g}"
        return rule.reason


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

    space = f.space
    rule: TailRule

    if space.count is not None:
        rule = ExplicitFinite()
    else:
        re_b = space.lam_bounds.re if space.lam_bounds is not None else None
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
        cert = domain_member_direct(ExpSymbol(float(t)), f, budget=None)
        probe_status.append((t, cert.status.value))
        _check_probe_consistency(rule, t, cert)

    return AdmissibilityCertificate(checked, rule, tuple(probe_status))


def _growing_re_rule(space, re_b) -> TailRule:
    """Real parts grow.  Decay dominates when the upper envelope of
    log|f_k| + t Re lam_k has one negative leading term, residual included,
    at t = 0 and at DEFAULT_T_MAX: on a dense space the decay scale then
    exceeds the growth scale, and a plan's view (space.selection set) reads
    its own coupled envelope.  Otherwise look for a certified failure time."""
    ups = [space.term_bounds(ExpSymbol(t)) for t in (0.0, DEFAULT_T_MAX)]
    if any(b is None or b.upper is None for b in ups):
        return Undetermined("no decay envelope for the coefficients")
    lead0, lead_top = (b.upper.leading() for b in ups)
    gr_up = re_b.upper.leading()
    same = lead0 is not None and (lead0, lead0.residual) == (lead_top, lead_top.residual)
    if same and lead0.coeff < 0:
        return DecayDominates(lead0.power, gr_up.power if space.selection is None else None)

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


def _check_probe_consistency(rule: TailRule, t: float, cert: ConvergenceCertificate) -> None:
    if isinstance(rule, _ADMITTING):
        if cert.status is SeriesStatus.DIVERGES:
            raise ConsistencyError(
                f"closed-form rule {rule!r} says admissible but the evolution domain "
                f"test diverges at t={t:g}: {cert.to_dict()!r}"
            )
    if isinstance(rule, WitnessFailure) and t == rule.t:
        if cert.status is SeriesStatus.CONVERGES:
            raise ConsistencyError(
                f"witness time t={t:g} was expected to diverge but converged"
            )


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
