"""Mechanical reproduction of the refutation constructions.

When the spectral region test fails, an admissible initial vector exists
whose solution is not of Roumieu type at the given order.  The construction
selects a violating subsequence lam_{j(1)}, lam_{j(2)}, ... with
|lam_{j(n)}| >= n and Re lam_{j(n)} below n^-2 |Im lam_{j(n)}|^{1/beta},
surrounds each point by a disk of radius eps_n < 1/n with pairwise-disjoint
disks, and places the coefficients of the proof on the selected basis
directions.  Two regimes are handled: real parts bounded above (coefficients
n^-2) and unbounded above (coefficients e^{-n Re lam_{j(n)}} along a
subsequence with Re >= n).

In the coordinate model every selected eigenvalue owns its basis direction,
so the distance constants collapse to d_n = 1 and the dual probe pairs to
exactly n^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .asymptotics import AsymForm, AsymTerm, TailBounds
from .borel_calculus import GevreyExpSymbol, power_norms
from .errors import CounterexampleError, PlanError
from .evolution import AdmissibilityCertificate, SolutionHandle, check_admissible
from .gevrey_classifier import GevreyVerdict, GevreyFlavor, vector_class
from .logdomain import NEG_INF
from .series import (
    DEFAULT_BUDGET,
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
)
from .spectral_core import (
    CoefficientVector,
    ExplicitSpectrum,
    PowerLawSpectrum,
    SeriesSpace,
    SpectrumFamily,
    conjugate_exponent,
    predicate_all,
    total_variation,
)

_VERIFY_PREFIX = 10_000
_BLOCK = 4096  # orders selected per block
_MAX_TRIES = 1_000_000  # rejections of one order before the selection is declared stalled
_MAX_INDEX = 2.0**63  # indices are int64
# Relative distance to a comparison's boundary within which numpy's and
# Python's float rounding (a few ulps apart) could decide it differently.
_NEAR = 2.0**-40
_S_PROBES = (2.0**-10, 1.0, 2.0**10)


class PlanCase(Enum):
    BOUNDED_REAL_PARTS = "bounded"
    UNBOUNDED_REAL_PARTS = "unbounded"


# ---------------------------------------------------------------------------
# Selection of a violating subsequence
# ---------------------------------------------------------------------------


@dataclass
class _Threshold:
    exponent: float
    coeff: float
    strict: bool  # the underlying predicate is a strict inequality


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= _NEAR * np.maximum(np.abs(a), np.abs(b))


class Selection:
    """Greedy choice of indices j(1) < j(2) < ... from a power-law family.

    j(n) is the least j >= max(j(n-1) + 1, cand(n)) that passes _ok, where
    cand(n) = max over the closed-form thresholds of ceil(c n^e) (monotone
    in n).  The predicates of _ok are |lam_j| >= n, strictly increasing
    modulus, the violation inequality Re < n^-2 |Im|^{1/beta} (non-strict
    at n = 1, where the canonical rules sit exactly on the boundary), and
    optionally Re >= n.

    Orders are selected in blocks of _BLOCK.  A block starts from the least
    strictly increasing sequence above the candidates, j(n) - n =
    cummax(cand(n) - n) seeded by the last selected index, and evaluates the
    predicates of every entry in one eigenvalues call.  Rejected entries
    rise by one and the entries from the first reject on are checked again,
    until all pass.  Strict increase needs no separate step: the modulus
    grows with j, so an index at or below its predecessor's fails the
    modulus test.  An entry only ever rises and never passes the greedy
    choice, because an index rejected under a smaller predecessor modulus
    stays rejected under a larger one.  So the repair stops exactly at the
    greedy choice.

    Rounding: numpy's array ** and abs can differ by an ulp from the Python
    float operations of _ok.  Every comparison that lies within a relative
    _NEAR of its boundary (c n^e near an integer, |lam| near n or near the
    predecessor's modulus, Re near n^-2 |Im|^{1/beta}) is decided again by
    the scalar rule, so the blocks select what the scalar rule selects.
    """

    def __init__(self, spectrum: PowerLawSpectrum, beta: float, require_re_ge_n: bool):
        self.spectrum = spectrum
        self.beta = beta
        self.require_re_ge_n = require_re_ge_n
        self._js = np.zeros(0, dtype=np.int64)
        a, pre, b, pim = spectrum.a_re, spectrum.p_re, spectrum.a_im, spectrum.p_im
        self.thresholds: list[_Threshold] = []
        if a > 0:
            # positive real parts need |Im| to outrun them: a j^pre < n^-2 |Im_j|^{1/beta}
            if b == 0 or pim == 0:
                raise PlanError(
                    "positive real part with bounded imaginary part: "
                    "the region condition holds, no violating selection exists"
                )
            delta = pim / beta - pre
            if delta <= 0:
                raise PlanError(
                    f"real-part exponent {pre:g} >= |Im| exponent {pim:g}/beta: "
                    "the region condition holds beyond a bounded set"
                )
            c0 = a / abs(b) ** (1.0 / beta)
            self.thresholds.append(_Threshold(2.0 / delta, c0 ** (1.0 / delta), True))
        if require_re_ge_n:
            if not (a > 0 and pre > 0):
                raise PlanError("Re >= n selection needs an increasing real part")
            self.thresholds.append(_Threshold(1.0 / pre, (1.0 / a) ** (1.0 / pre), False))
        p_hi, a_hi, _ = spectrum._abs_leading()
        if p_hi <= 0:
            raise PlanError("modulus of the family does not grow")
        self.thresholds.append(_Threshold(1.0 / p_hi, (1.0 / a_hi) ** (1.0 / p_hi), False))
        self.gamma = max(1.0, max(t.exponent for t in self.thresholds))
        self.env_coeff = sum(t.coeff for t in self.thresholds) + 1.0

    # -- predicates ---------------------------------------------------------

    def _ok(self, lam: complex, n: int, prev_abs: float) -> bool:
        mod = abs(lam)
        if mod < n or mod <= prev_abs:
            return False
        rhs = abs(lam.imag) ** (1.0 / self.beta) / n**2
        if n >= 2:
            if not lam.real < rhs:
                return False
        else:
            if not lam.real <= rhs:
                return False
        if self.require_re_ge_n and lam.real < n:
            return False
        return True

    def _ok_block(self, lams: np.ndarray, ns: np.ndarray, prev_lams: np.ndarray) -> np.ndarray:
        """_ok on every entry; prev_lams holds the eigenvalue picked before each."""
        nf = ns.astype(float)
        mod, prev_abs = np.abs(lams), np.abs(prev_lams)
        rhs = np.abs(lams.imag) ** (1.0 / self.beta) / nf**2
        violates = np.where(ns >= 2, lams.real < rhs, lams.real <= rhs)
        ok = (mod >= nf) & (mod > prev_abs) & violates
        if self.require_re_ge_n:
            ok &= lams.real >= nf
        redo = np.flatnonzero(_near(mod, nf) | _near(mod, prev_abs) | _near(lams.real, rhs))
        ok[redo] = [
            self._ok(lam, n, abs(prev))
            for lam, n, prev in zip(lams[redo].tolist(), ns[redo].tolist(), prev_lams[redo].tolist())
        ]
        return ok

    def _candidates(self, ns: np.ndarray) -> np.ndarray:
        """max over the thresholds of ceil(c n^e), rounded as Python floats round."""
        nf = ns.astype(float)
        out = np.zeros(ns.shape, dtype=np.int64)
        for t in self.thresholds:
            x = t.coeff * nf**t.exponent
            big = np.flatnonzero(~(x < _MAX_INDEX))
            if big.size:
                raise PlanError(f"selected index leaves int64 at order n={ns[big[0]]}")
            cand = np.ceil(x)
            redo = np.flatnonzero(_near(x, np.rint(x)))
            cand[redo] = [math.ceil(t.coeff * n**t.exponent) for n in ns[redo].tolist()]
            out = np.maximum(out, cand.astype(np.int64))
        return out

    def _select_block(self, ns: np.ndarray) -> np.ndarray:
        prev = int(self._js[-1]) if self._js.size else 0
        prev_lam = self.spectrum.eigenvalue(prev) if prev else 0j
        js = ns + np.maximum.accumulate(np.maximum(self._candidates(ns) - ns, prev + 1 - ns[0]))
        tries = np.zeros(ns.shape, dtype=np.int64)
        lo = 0  # js[:lo] are final
        while True:
            lams = self.spectrum.eigenvalues(js[lo:])
            prev_lams = np.concatenate(([prev_lam], lams[:-1]))
            bad = np.flatnonzero(~self._ok_block(lams, ns[lo:], prev_lams))
            if not bad.size:
                return js
            if bad[0]:
                prev_lam = lams[bad[0] - 1]
            bad += lo
            lo = bad[0]
            tries[bad] += 1
            stalled = bad[tries[bad] > _MAX_TRIES]
            if stalled.size:
                raise PlanError(f"selection stalled at order n={ns[stalled[0]]}")
            js[bad] += 1

    def extend(self, n_target: int) -> None:
        while self._js.size < n_target:
            n0 = self._js.size + 1
            ns = np.arange(n0, min(n_target, n0 + _BLOCK - 1) + 1, dtype=np.int64)
            self._js = np.concatenate([self._js, self._select_block(ns)])

    def indices(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size:
            self.extend(int(ns.max()))
        return self._js[ns - 1]

    def lam(self, ns: np.ndarray) -> np.ndarray:
        return self.spectrum.eigenvalues(self.indices(ns))

    def orders(self, js: np.ndarray) -> np.ndarray:
        """n with j(n) = j for the selected js, 0 for the others.

        Only the selected prefix is searched: js above its last index read 0.
        """
        pos = np.searchsorted(self._js, js)
        hit = pos < self._js.size
        hit[hit] = self._js[pos[hit]] == js[hit]
        return np.where(hit, pos + 1, 0)

    def identity_certified(self, prefix: int = 512) -> bool:
        """True when j(n) = n provably for every n, not just the prefix."""
        self.extend(prefix)
        if not np.array_equal(self._js[:prefix], np.arange(1, prefix + 1)):
            return False
        for t in self.thresholds:
            if t.exponent > 1.0:
                return False
            if t.exponent == 1.0:
                if t.strict and t.coeff >= 1.0:
                    return False
                if not t.strict and t.coeff > 1.0:
                    return False
        return True


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViolatingSpectrumPlan:
    """A violating subsequence with disk radii, ready for vector assembly."""

    beta: float
    case: PlanCase
    spectrum: SpectrumFamily
    selection: Selection
    omega: Optional[float]  # bounded case: sup of the selected real parts
    verified_prefix: int
    detail: str = ""

    def selected_lams(self, ns) -> np.ndarray:
        return self.selection.lam(np.asarray(ns, dtype=np.int64))

    def epsilons(self, n_top: int) -> np.ndarray:
        """Disk radii eps_n = min(1/(2n), half the gap to the neighbors)."""
        ns = np.arange(1, n_top + 2, dtype=np.int64)
        gaps = np.abs(np.diff(self.selected_lams(ns)))
        # eps_1 has a neighbor above only
        gap = np.minimum(gaps, np.concatenate(([np.inf], gaps[:-1])))
        return np.minimum(1.0 / (2.0 * ns[:-1]), gap / 2.0)


def _verify_plan(plan: ViolatingSpectrumPlan, prefix: int = _VERIFY_PREFIX) -> None:
    ns = np.arange(1, prefix + 1, dtype=np.int64)
    lams = plan.selected_lams(ns)
    mods = np.abs(lams)
    if not np.all(mods >= ns):
        raise PlanError("|lam_{j(n)}| >= n fails on the verified prefix")
    if not np.all(np.diff(mods) > 0):
        raise PlanError("selected moduli are not strictly increasing")
    rhs = np.abs(lams.imag) ** (1.0 / plan.beta) / ns.astype(float) ** 2
    strict = lams.real < rhs
    if not (np.all(strict[1:]) and lams[0].real <= rhs[0]):
        raise PlanError("violation inequality fails on the verified prefix")
    if plan.case is PlanCase.UNBOUNDED_REAL_PARTS and not np.all(lams.real >= ns):
        raise PlanError("Re lam_{j(n)} >= n fails on the verified prefix")
    if plan.case is PlanCase.BOUNDED_REAL_PARTS:
        if plan.omega is None or not np.all(lams.real <= plan.omega + 1e-12):
            raise PlanError("real parts exceed the declared bound omega")
    n_eps = min(prefix, 512)
    eps = plan.epsilons(n_eps)
    if not np.all((eps > 0) & (eps < 1.0 / np.arange(1, n_eps + 1))):
        raise PlanError("disk radii leave (0, 1/n) on the verified prefix")
    gaps = np.abs(np.diff(plan.selected_lams(np.arange(1, n_eps + 1, dtype=np.int64))))
    if not np.all(gaps >= eps[:-1] + eps[1:]):
        raise PlanError("disks are not pairwise disjoint on the verified prefix")


def build_violating_spectrum(beta: float, case: PlanCase) -> ViolatingSpectrumPlan:
    """Canonical plan: lam_n = i n^{2 beta} (bounded real parts) or
    lam_n = n + i n^{3 beta + 1} (unbounded), selected identically."""
    if not (beta >= 1 and math.isfinite(beta)):
        raise PlanError("plans are constructed for beta >= 1")
    if case is PlanCase.BOUNDED_REAL_PARTS:
        spectrum = PowerLawSpectrum(0.0, 0.0, 1.0, 2.0 * beta, label=f"i*k^{2*beta:g}")
    else:
        spectrum = PowerLawSpectrum(
            1.0, 1.0, 1.0, 3.0 * beta + 1.0, label=f"k+i*k^{3*beta+1:g}"
        )
    return plan_for_spectrum(spectrum, beta, case)


def plan_for_spectrum(
    spectrum: SpectrumFamily, beta: float, case: Optional[PlanCase] = None
) -> ViolatingSpectrumPlan:
    """Select a violating subsequence inside the given power-law family."""
    if isinstance(spectrum, ExplicitSpectrum):
        raise PlanError("a finite spectrum never violates the region condition")
    if not isinstance(spectrum, PowerLawSpectrum):
        raise PlanError("violating selections are implemented for power-law families")
    if not (beta >= 1 and math.isfinite(beta)):
        raise PlanError("plans are constructed for beta >= 1")
    re_unbounded = spectrum.a_re > 0 and spectrum.p_re > 0
    inferred = PlanCase.UNBOUNDED_REAL_PARTS if re_unbounded else PlanCase.BOUNDED_REAL_PARTS
    if case is None:
        case = inferred
    elif case is not inferred:
        raise PlanError(f"this family supports only the {inferred.value} construction")
    selection = Selection(spectrum, beta, require_re_ge_n=re_unbounded)
    omega = None
    if case is PlanCase.BOUNDED_REAL_PARTS:
        # Re lam_k = a k^p with a <= 0 (sup 0), or the constant a itself
        omega = max(spectrum.a_re, 0.0)
    plan = ViolatingSpectrumPlan(
        beta=beta,
        case=case,
        spectrum=spectrum,
        selection=selection,
        omega=omega,
        verified_prefix=_VERIFY_PREFIX,
        detail=f"{case.value} construction on {spectrum.label}",
    )
    _verify_plan(plan)
    return plan


# ---------------------------------------------------------------------------
# Vector assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportView(SeriesSpace):
    """SeriesSpace of a vector supported on a plan's selected subsequence.

    Index n stands for lam_{j(n)}; the coefficient there is n^-2 when decay
    is None and e^{-decay n Re lam_{j(n)}} otherwise.  re_bounds,
    log_abs_bounds and abs_pow_bounds follow from the plan invariants
    (|lam_{j(n)}| >= n, Re >= n when required, j(n) <= env * n^gamma);
    im_bounds is None.  Of the optional hooks of SeriesSpace, only
    evolution_upper_form is set here, when decay is set (such vectors live
    on plans with Re >= n).  On plans with unbounded real parts the
    refuting vector f is a _ProofView, which also sets gevrey_lower_form and
    tv_lower_form.
    """

    plan: ViolatingSpectrumPlan
    decay: Optional[float] = None

    @property
    def selection(self) -> Selection:
        return self.plan.selection

    def lam(self, ns):
        return self.plan.selection.lam(ns)

    def coeff_log(self, ns):
        ns = np.asarray(ns, dtype=np.int64)
        nf = ns.astype(float)
        if self.decay is None:
            return -2.0 * np.log(nf), np.zeros(ns.shape)
        return -self.decay * nf * self.lam(ns).real, np.zeros(ns.shape)

    @property
    def coeff_bounds(self) -> TailBounds:
        if self.decay is None:
            return TailBounds.exact(AsymForm.log_k(-2.0))
        return TailBounds(
            _neg_n_times(self.re_bounds().upper, self.decay),
            AsymForm.power(2.0, -self.decay),  # -decay * n * Re <= -decay n^2
            1,
        )

    def _abs_upper(self) -> tuple[float, float, float]:
        """(gamma, p_hi, c): |lam_{j(n)}| <= c n^{gamma p_hi}."""
        spec = self.plan.spectrum
        p_hi, _, _ = spec._abs_leading()
        coeff = (abs(spec.a_re) + abs(spec.a_im)) * self.selection.env_coeff**p_hi
        return self.selection.gamma, p_hi, coeff

    def re_bounds(self) -> TailBounds:
        if self.plan.case is PlanCase.BOUNDED_REAL_PARTS:
            return TailBounds(None, AsymForm.constant(self.plan.omega), 1)
        spec, sel = self.plan.spectrum, self.selection
        return TailBounds(
            AsymForm.power(1.0, 1.0),  # Re >= n by selection
            AsymForm.power(sel.gamma * spec.p_re, spec.a_re * sel.env_coeff**spec.p_re),
            1,
        )

    def abs_pow_bounds(self, q: float) -> TailBounds:
        gamma, p_hi, c = self._abs_upper()
        # |lam_{j(n)}| >= n
        return TailBounds(AsymForm.power(q, 1.0), AsymForm.power(q * gamma * p_hi, c**q), 1)

    def log_abs_bounds(self) -> TailBounds:
        gamma, p_hi, c = self._abs_upper()
        return TailBounds(AsymForm.log_k(1.0), AsymForm.log_k(gamma * p_hi, const=math.log(c)), 1)

    def evolution_upper_form(self, t: float):
        if self.decay is None:
            return None
        # (t - decay n) Re_{j(n)} <= -(decay n - t) n  for n > t / decay
        return (
            AsymForm.power(2.0, -self.decay) + AsymForm.power(1.0, t),
            int(math.ceil(t / self.decay)) + 1,
        )


@dataclass(frozen=True)
class _ProofView(SupportView):
    """The refuting vector f on a plan with unbounded real parts.

    It adds the proof's coupled lower envelopes at the plan's order, which
    no componentwise envelope expresses.  Plans with bounded real parts
    need none: there the componentwise envelopes already give the proof's
    forms (|lam_{j(n)}| >= n and the n^-2 coefficients), so their refuting
    vector is a plain SupportView.
    """

    def gevrey_lower_form(self, s: float, beta: float):
        if beta != self.plan.beta:
            return None
        # |lam|^{1/beta} >= n^2 Re and Re >= n give s n^3 - n^2 beyond n >= 1/s
        k_min = max(2, int(math.ceil(1.0 / s)) + 1)
        return AsymForm.power(3.0, s) + AsymForm.power(2.0, -1.0), k_min

    def tv_lower_form(self, weight):
        # pairing with h* = n^-2 adds -2 log n to the Gevrey lower form
        if not isinstance(weight, GevreyExpSymbol):
            return None
        hook = self.gevrey_lower_form(weight.s, weight.beta)
        if hook is None:
            return None
        return hook[0] + AsymForm.log_k(-2.0), hook[1]


def _dense_inverse_fn(view: SupportView):
    """Dense j-indexed coefficients of a subsequence vector (prefix only)."""
    selection = view.selection

    def fn(js: np.ndarray):
        # j(n) >= n: the first max(js) orders hold every selected j <= max(js)
        selection.extend(max(4096, int(np.max(js)) if js.size else 1))
        mags = np.full(js.shape, NEG_INF)
        orders = selection.orders(js)
        hit = orders > 0
        if np.any(hit):
            mags[hit] = view.coeff_log(orders[hit])[0]
        return mags, np.zeros(js.shape)

    return fn


def _view_vector(view: SupportView, p: float, label: str) -> CoefficientVector:
    return CoefficientVector.custom(
        view.plan.spectrum, _dense_inverse_fn(view), p=p, label=label, series_view=view
    )


def _bounded_vectors(plan: ViolatingSpectrumPlan, p: float):
    q = conjugate_exponent(p)
    if plan.selection.identity_certified():
        f = CoefficientVector.polynomial_decay(plan.spectrum, 2.0, p=p, label="ce-f(k^-2)")
        h_star = CoefficientVector.polynomial_decay(plan.spectrum, 2.0, p=q, label="h*(k^-2)")
        return f, None, h_star
    view = SupportView(plan)
    f = _view_vector(view, p, "ce-f(n^-2 on selection)")
    h_star = _view_vector(view, q, "h*(n^-2 on selection)")
    return f, None, h_star


def _unbounded_vectors(plan: ViolatingSpectrumPlan, p: float):
    spec = plan.spectrum
    q = conjugate_exponent(p)
    if plan.selection.identity_certified() and spec.p_re == 1.0 and spec.a_re == 1.0:
        # Re lam_k = k exactly: the proof's coefficients are e^{-k^2}
        f = CoefficientVector.power_decay(spec, 1.0, 2.0, p=p, label="ce-f(e^-k^2)")
        h = CoefficientVector.power_decay(spec, 0.5, 2.0, p=p, label="ce-h(e^-k^2/2)")
        h_star = CoefficientVector.polynomial_decay(spec, 2.0, p=q, label="h*(k^-2)")
        return f, h, h_star
    f = _view_vector(_ProofView(plan, 1.0), p, "ce-f(e^{-n Re} on selection)")
    h = _view_vector(SupportView(plan, 0.5), p, "ce-h(e^{-n Re/2} on selection)")
    h_star = _view_vector(SupportView(plan), q, "h*(n^-2 on selection)")
    return f, h, h_star


def _neg_n_times(re_upper: AsymForm, scale: float) -> AsymForm:
    """Lower envelope of -scale * n * Re_{j(n)} from the Re upper envelope."""
    bumped = tuple(
        AsymTerm(t.power + 1.0, t.log_power, -scale * t.coeff) for t in re_upper.terms
    )
    out = AsymForm.build(bumped, 0.0)
    if re_upper.const:
        out = out + AsymForm.power(1.0, -scale * re_upper.const)
    return out


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterexampleArtifacts:
    plan: ViolatingSpectrumPlan
    spectrum: SpectrumFamily
    f: CoefficientVector
    h: Optional[CoefficientVector]
    h_star: CoefficientVector
    admissibility: AdmissibilityCertificate
    non_membership: GevreyVerdict
    probe_certificates: dict
    l_bound: Optional[float] = None
    detail: str = ""


def build_counterexample(
    plan: ViolatingSpectrumPlan,
    budget: SeriesBudget = DEFAULT_BUDGET,
    p: float = 2.0,
    s_probes: tuple[float, ...] = _S_PROBES,
) -> CounterexampleArtifacts:
    """Assemble and verify the proof vectors for a violating plan.

    The initial vector must pass the admissibility check and must be
    certified not of Roumieu type at the plan's order; the dual-probe series
    must be certified divergent at every probed scale.  Any contradiction is
    a hard failure.
    """
    if plan.case is PlanCase.BOUNDED_REAL_PARTS:
        f, h, h_star = _bounded_vectors(plan, p)
    else:
        f, h, h_star = _unbounded_vectors(plan, p)

    admissibility = check_admissible(f, budget=budget)
    if not admissibility.admissible:
        raise CounterexampleError(
            f"constructed vector failed admissibility: {admissibility.detail}"
        )

    non_membership = vector_class(f, plan.beta, GevreyFlavor.ROUMIEU, budget)
    if non_membership.member is not False:
        raise CounterexampleError(
            "constructed vector was not certified outside the Roumieu class "
            f"(member={non_membership.member!r})"
        )

    probe_certs: dict[float, ConvergenceCertificate] = {}
    for s in s_probes:
        cert = total_variation(
            f, h_star, predicate_all(), weight=GevreyExpSymbol(s, plan.beta), budget=budget
        )
        probe_certs[s] = cert
        if cert.status is not SeriesStatus.DIVERGES:
            raise CounterexampleError(
                f"dual-probe series failed to diverge at s={s:g}: {cert.to_dict()!r}"
            )

    l_bound = None
    if plan.case is PlanCase.UNBOUNDED_REAL_PARTS and h is not None:
        # e^{-(n/2 - t) Re_{j(n)}} stays bounded on the prefix for each probe t
        ns = np.arange(1, 513, dtype=np.int64)
        re = plan.selected_lams(ns).real
        l_bound = 0.0
        for t in (0.0, 1.0, 50.0, 100.0):
            vals = -(ns / 2.0 - t) * re
            l_bound = max(l_bound, float(np.exp(np.clip(np.max(vals), None, 700.0))))
        if not math.isfinite(l_bound):
            raise CounterexampleError("auxiliary bound L is not finite on the prefix")

    return CounterexampleArtifacts(
        plan=plan,
        spectrum=plan.spectrum,
        f=f,
        h=h,
        h_star=h_star,
        admissibility=admissibility,
        non_membership=non_membership,
        probe_certificates=probe_certs,
        l_bound=l_bound,
        detail=plan.detail,
    )


# ---------------------------------------------------------------------------
# Analyticity probe at t = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticAtZero:
    delta: float


@dataclass(frozen=True)
class NotAnalytic:
    reason: str


@dataclass(frozen=True)
class AnalyticUnknown:
    reason: str


_DEFAULT_RADII = tuple(2.0**j for j in range(-12, 5))


def analytic_at_zero_probe(
    h: SolutionHandle,
    radius_grid: tuple[float, ...] = _DEFAULT_RADII,
    n_max: int = 40,
    budget: SeriesBudget = DEFAULT_BUDGET,
):
    """Can y be represented by its Taylor series on [0, delta] for a grid delta?

    Tests whether sup_n ( log||A^n f|| - log n! + n log delta ) stays bounded
    for some grid radius; a certified failure of every radius, or a power
    norm leaving l^p at finite order, refutes analyticity at 0.
    """
    f = h.f
    count = f.effective_count()
    if count is not None:
        ks = np.arange(1, count + 1, dtype=np.int64)
        mags, _ = f.log_coeffs(ks)
        alive = mags > NEG_INF
        if not np.any(alive):
            return AnalyticAtZero(math.inf)
        r = float(np.max(np.abs(f.spectrum.eigenvalues(ks[alive]))))
        return AnalyticAtZero(1.0 / r if r > 0 else math.inf)

    norms = power_norms(f, n_max, budget)
    if norms.cutoff is not None:
        cert = norms.cutoff_certificate
        if cert is not None and cert.status is SeriesStatus.DIVERGES:
            return NotAnalytic(
                f"||A^n f|| leaves l^p at n = {norms.cutoff}: the solution is not "
                f"even C^{norms.cutoff} at 0"
            )
        return AnalyticUnknown(f"power norms undecided at n = {norms.cutoff}")

    ns = np.arange(0, norms.n_max + 1, dtype=float)
    logs = np.asarray(norms.log_norms)
    log_fact = np.asarray([math.lgamma(n + 1.0) for n in ns])
    half = len(ns) // 2
    best_delta = None
    all_diverge = True
    for delta in sorted(radius_grid, reverse=True):
        u = logs - log_fact + ns * math.log(delta)
        head, tail_part = u[:half], u[half:]
        slope = float(np.polyfit(ns[half:], tail_part, 1)[0])
        if float(np.max(tail_part)) <= float(np.max(head)) + 0.5 and slope <= 0.01:
            best_delta = delta if best_delta is None else max(best_delta, delta)
            all_diverge = False
        elif not (slope > 0.05 and float(np.max(tail_part)) > float(np.max(head)) + 2.0):
            all_diverge = False
    if best_delta is not None:
        return AnalyticAtZero(best_delta)
    if all_diverge:
        return NotAnalytic("Taylor terms grow for every probed radius")
    return AnalyticUnknown("trend analysis is ambiguous on the probed radii")
