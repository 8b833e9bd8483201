"""Mechanical reproduction of the refutation constructions.

When the spectral region test fails, an admissible initial vector exists
whose solution is not of Roumieu type at the given order.  The construction
selects a violating subsequence lam_{j(1)}, lam_{j(2)}, ... whose indices
meet |lam_{j(n)}| >= n and Re lam_{j(n)} below n^-2 |Im lam_{j(n)}|^{1/beta}
(any increasing indices that meet them serve, not only the least ones),
surrounds each point by a disk of radius eps_n < 1/n with pairwise-disjoint
disks, and places the coefficients of the proof on the selected basis
directions.  As in the proof, the selected eigenvalues are one more discrete
spectrum (the plan's subsequence), and every proof vector is a vector on
it.  Two regimes are handled: real parts bounded above (coefficients n^-2)
and unbounded above (coefficients e^{-n Re lam_{j(n)}} along a subsequence
with Re >= n).

In the coordinate model every selected eigenvalue owns its basis direction,
so the distance constants collapse to d_n = 1 and the dual probe pairs to
exactly n^-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from enum import Enum
from typing import Optional

import numpy as np

from .asymptotics import AsymForm, AsymTerm, TailBounds
from .borel_calculus import ExpSymbol, GevreyExpSymbol
from .errors import CounterexampleError, PlanError
from .evolution import AdmissibilityCertificate, check_admissible
from .gevrey_classifier import GevreyVerdict, GevreyFlavor, short_float, vector_class
from .series import ConvergenceCertificate, SeriesStatus
from .spectral_core import (
    CoefficientVector,
    ExplicitSpectrum,
    LamBounds,
    PowerLawSpectrum,
    SeriesSpace,
    SpectrumFamily,
    total_variation,
)

_VERIFY_PREFIX = 10_000
_MAX_INDEX = 2.0**63  # indices are int64
# _verify_plan fails a float comparison this close (relative) to its boundary;
# selected indices clear every threshold by far more (Selection)
_NEAR = 2.0**-40
_S_PROBES = (2.0**-10, 1.0, 2.0**10)
_P_NORM = 2.0  # the proof vectors lie in l^2, their own dual


class PlanCase(Enum):
    BOUNDED_REAL_PARTS = "bounded"
    UNBOUNDED_REAL_PARTS = "unbounded"


# ---------------------------------------------------------------------------
# Selection of a violating subsequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Threshold:
    """One condition on the index j at order n, j^e >= K n^m, as its float
    estimate x(n) = coeff * n^exponent of the least real solution
    T*(n) = K^{1/e} n^{m/e}, and the margin mu = max(2^-20, 2^-30/e) by which
    a selected index passes x(n)."""

    name: str
    exponent: float
    coeff: float
    mu: float


def _threshold(name: str, e: Fraction, m: int, factors) -> _Threshold:
    """j^e >= K n^m with K = prod b^q, for float constants b > 0 and exact
    rationals e > 0, q: exponent and each q/e are rounded once."""
    try:
        coeff = math.exp(sum(float(q / e) * math.log(b) for b, q in factors))
        return _Threshold(name, float(m / e), coeff, max(2.0**-20, float(Fraction(1, 2**30) / e)))
    except OverflowError:  # past the float range: the index leaves int64 at once
        return _Threshold(name, math.inf, math.inf, 2.0**-20)


class Selection:
    """Greedy choice of indices j(1) < j(2) < ... from a family's envelopes.

    For j >= k_min, the signed terms of spectrum.lam_bounds bound
    re_lo j^p_re <= Re lam_j <= re_hi j^p_re and Im lam_j alike; b is the
    smaller of |im_lo|, |im_hi|.  Each j(n) > j(n-1), with j(0) = k_min - 1,
    meets

    - |lam_j| >= n, through c j^p >= n at the exponent p of the lower modulus
      term, c its coefficient (the hypot of the lower coefficients there):
      the threshold modulus;
    - Re lam_j < n^-2 |Im lam_j|^{1/beta}.  For re_hi > 0 this is the
      threshold violation, j^delta > c n^2 with delta = p_im/beta - p_re and
      c = re_hi/b^{1/beta}; for re_hi <= 0 every j meets it;
    - Re lam_j >= n when real parts grow (re_lo > 0, p_re > 0): the threshold
      re_ge_n, j^p_re >= n / re_lo.

    Each threshold is the worst case of its inequality over the envelopes,
    on a power law (lo = hi) the inequality itself, and reads j^e >= K n^m
    with K = prod b^q over those float constants.  Every j past its least
    real solution T*(n) = K^{1/e} n^{m/e} meets it, so the construction needs
    no least index:

        j(n) = max(j(n-1) + 1, ceil((1 + mu_i) x_i(n)) over the thresholds i),

    x_i(n) = coeff_i n^exponent_i the float64 estimate of T*_i(n) and
    mu_i = max(2^-20, 2^-30/e_i); extend computes j(n) - n = cummax(...) for
    all new orders at once, with no eigenvalue.

    The estimate's error.  Let u = 2^-53, y = n^exponent as computed and
    A = sum |q log b| / e.  exponent and each q/e are rounded once, log, exp
    and pow err by under one ulp, and the sum and x = coeff y round once, so
    where coeff is a normal float

        |log x(n) - log T*(n)| <= u (6 A + log y + 8) <= u (6 A + 718),

    since y is finite; that is a few hundred ulps while A is a few dozen, as
    on every catalog threshold.  (A subnormal coeff errs by under 2^-1074
    absolutely, so x by under 2^-50 <= 16 u x where x >= 1/2, and below that
    j(n) >= 1 clears T*(n) by a factor 2.)  With the two roundings of
    (1 + mu) x, e log(j(n) / T*(n)) >= e log1p(mu) (1 - 2^-29) - u (6 sum
    |q log b| + 2 m log n): as mu >= 2^-20, the factor takes the 10 u of
    the roundings that do not grow with b or n.  Here |log b| <= 745, sum |q| <= 1 + 1/beta <= 2,
    m log n < 88 while j(n) fits int64, and e log1p(mu) >= 2^-30 log 2 for
    e >= 2^-30.  On the envelopes each inequality's two sides stand in the
    ratio (j / T*)^e, so at j(n) every one holds with a relative gap of
    2^-31 or more, far outside _verify_plan's 2^-40 band.  And where A < 2^29
    the error is below mu/2, so j(n) <= (1 + 2 mu) T(n) + 1 against the least
    greedy choice T(n), mu the largest mu_i.
    """

    def __init__(self, spectrum: SpectrumFamily, beta: float):
        self.spectrum = spectrum
        self.beta = beta
        self._js = np.zeros(0, dtype=np.int64)
        lam = spectrum.lam_bounds
        (p_re, re_lo, re_hi), (p_im, im_lo, im_hi) = lam.signed
        pre = Fraction(p_re)
        self.k_min = lam.k_min
        self.violation = self.re_ge_n = None
        if re_hi > 0:
            # positive real parts need |Im| to outrun them: a j^pre < n^-2 |Im_j|^{1/beta}
            # (delta > 0 needs pim > 0, and then b > 0)
            delta = Fraction(p_im) / Fraction(beta) - pre
            if delta <= 0:
                raise PlanError(
                    f"real-part exponent {short_float(p_re)} >= |Im| exponent "
                    f"{short_float(p_im)}/beta: "
                    "the region condition holds beyond a bounded set"
                )
            factors = ((re_hi, Fraction(1)), (min(abs(im_lo), abs(im_hi)), -1 / Fraction(beta)))
            self.violation = _threshold("violation inequality", delta, 2, factors)
            if pre > 0:  # then re_lo > 0 as well: both Re coefficients share one sign
                self.re_ge_n = _threshold("Re lam_{j(n)} >= n", pre, 1, ((re_lo, Fraction(-1)),))
        p_lo, c_lo, _ = lam.lower
        self.modulus = _threshold("|lam_{j(n)}| >= n", Fraction(p_lo), 1, ((c_lo, Fraction(-1)),))
        self.thresholds = [t for t in (self.violation, self.re_ge_n, self.modulus) if t is not None]
        self.gamma = max(1.0, max(t.exponent for t in self.thresholds))
        # ceil((1 + mu_i) x_i(n)) <= (1 + 2 mu) coeff_i n^{exponent_i} + 1, so
        # j(n) <= n + k_min + (1 + 2 mu) max_i coeff_i n^{exponent_i} <= env_coeff n^gamma
        mu = max(t.mu for t in self.thresholds)
        self.env_coeff = (1.0 + 2.0 * mu) * sum(t.coeff for t in self.thresholds) + self.k_min + 1

    def __len__(self) -> int:
        return self._js.size

    def extend(self, n_target: int) -> None:
        """Select the orders up to n_target.

        An order whose index would leave int64 (or whose estimate is not a
        number) is not selected: the selection stops before the first such
        order and raises PlanError.
        """
        n0 = self._js.size + 1
        if n_target < n0:
            return
        ns = np.arange(n0, n_target + 1, dtype=np.int64)
        with np.errstate(over="ignore", invalid="ignore"):
            floor = np.max(
                [np.ceil((1.0 + t.mu) * (t.coeff * ns**t.exponent)) for t in self.thresholds], axis=0
            )
        out = np.flatnonzero(~(floor < _MAX_INDEX))
        n_fit = out[0] if out.size else ns.size
        if n_fit:
            prev = int(self._js[-1]) if self._js.size else self.k_min - 1
            step = np.maximum(floor[:n_fit].astype(np.int64) - ns[:n_fit], prev + 1 - n0)
            self._js = np.concatenate([self._js, ns[:n_fit] + np.maximum.accumulate(step)])
        if out.size:
            raise PlanError(f"selected index leaves int64 at order n={ns[n_fit]}")

    def indices(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size:
            self.extend(int(ns.max()))
        return self._js[ns - 1]

    def lam(self, ns: np.ndarray) -> np.ndarray:
        return self.spectrum.eigenvalues(self.indices(ns))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Subsequence(SpectrumFamily):
    """The selected eigenvalues lam_{j(1)}, lam_{j(2)}, ... as a family of
    their own, on which every proof vector lives: index n stands for
    lam_{j(n)}.

    The plan builds its lam_bounds from the family's lam_bounds and the plan
    invariants (|lam_{j(n)}| >= n, Re >= n when real parts grow, Re <= omega
    otherwise, j(n) <= env_coeff n^gamma), with no Im envelope and no signed
    terms.
    """

    selection: Selection
    lam_bounds: LamBounds

    def eigenvalues(self, ns):
        return self.selection.lam(ns)


@dataclass(frozen=True)
class ViolatingSpectrumPlan:
    """A violating subsequence with disk radii, ready for vector assembly;
    subsequence is the selected eigenvalues as a family, built once."""

    beta: float
    case: PlanCase
    spectrum: SpectrumFamily
    selection: Selection
    omega: Optional[float]  # bounded case: sup of the selected real parts
    verified_prefix: int
    subsequence: _Subsequence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam, sel = self.spectrum.lam_bounds, self.selection
        if self.case is PlanCase.BOUNDED_REAL_PARTS:
            re = TailBounds(None, AsymForm.constant(self.omega), 1)
        else:
            p_re, _, re_hi = fam.signed[0]
            re = TailBounds(
                AsymForm.power(1.0, 1.0),  # Re >= n by selection
                AsymForm.power(sel.gamma * p_re, re_hi * sel.env_coeff**p_re),
                1,
            )
        # n <= |lam_{j(n)}| <= |Re| + |Im| <= c n^{gamma p_hi}
        p_hi = fam.upper[0]
        top = sum(max(abs(lo), abs(hi)) for _, lo, hi in fam.signed)
        upper = (sel.gamma * p_hi, top * sel.env_coeff**p_hi, 1.0)
        lam = LamBounds(re, None, (1.0, 1.0, 1.0), upper, 1)
        object.__setattr__(self, "subsequence", _Subsequence(sel, lam))

    def epsilons(self, n_top: int) -> np.ndarray:
        """Disk radii eps_n = min(1/(2n), half the gap to the neighbors)."""
        ns = np.arange(1, n_top + 2, dtype=np.int64)
        gaps = np.abs(np.diff(self.subsequence.eigenvalues(ns)))
        # eps_1 has a neighbor above only
        gap = np.minimum(gaps, np.concatenate(([np.inf], gaps[:-1])))
        return np.minimum(1.0 / (2.0 * ns[:-1]), gap / 2.0)


def _meets(lhs, rhs) -> np.ndarray:
    """lhs > rhs in floats, by more than _NEAR relative to the larger of the
    two: an entry inside that band fails, a tie among them, so a strict and a
    non-strict inequality read alike."""
    return lhs - rhs > _NEAR * np.maximum(np.abs(lhs), np.abs(rhs))


def _verify_plan(plan: ViolatingSpectrumPlan) -> None:
    """Check the plan on the eigenvalues of its first _VERIFY_PREFIX picks.

    |lam_{j(n)}| >= n, Re lam_{j(n)} < n^-2 |Im lam_{j(n)}|^{1/beta} and, on
    plans with unbounded real parts, Re lam_{j(n)} >= n are evaluated in
    floats on the eigenvalues themselves, not on the thresholds that
    selected them, so a wrongly derived threshold fails here.  An entry
    within _NEAR of its boundary fails too: the selection clears each
    inequality by a relative 2^-31 or more, so such an entry means a
    rejection, never an unsound plan.  Indices increase strictly (on a power
    law, moduli too).  Real parts stay below omega on bounded plans; the
    disks have radii in (0, 1/n) and are pairwise disjoint on the first 512
    orders: neighbours where Re and Im are monotone along them, as on every
    power law, and every pair otherwise.
    """
    sel = plan.selection
    ns = np.arange(1, _VERIFY_PREFIX + 1, dtype=np.int64)
    js = sel.indices(ns)
    if not np.all(np.diff(js) > 0):
        raise PlanError("selected indices are not strictly increasing")
    lams, nf = plan.spectrum.eigenvalues(js), ns.astype(float)
    rhs = np.abs(lams.imag) ** (1.0 / plan.beta) / nf**2
    if not np.all(_meets(np.abs(lams), nf)):
        raise PlanError("|lam_{j(n)}| >= n fails on the verified prefix")
    if not np.all(_meets(rhs, lams.real)):
        raise PlanError("violation inequality fails on the verified prefix")
    if plan.case is PlanCase.UNBOUNDED_REAL_PARTS:
        if not np.all(_meets(lams.real, nf)):
            raise PlanError("Re lam_{j(n)} >= n fails on the verified prefix")
    if plan.case is PlanCase.BOUNDED_REAL_PARTS:
        if plan.omega is None or not np.all(lams.real <= plan.omega + 1e-12):
            raise PlanError("real parts exceed the declared bound omega")
    n_eps = 512
    eps = plan.epsilons(n_eps)
    if not np.all((eps > 0) & (eps < 1.0 / np.arange(1, n_eps + 1))):
        raise PlanError("disk radii leave (0, 1/n) on the verified prefix")
    centers = plan.subsequence.eigenvalues(np.arange(1, n_eps + 1, dtype=np.int64))
    if _monotone(centers.real) and _monotone(centers.imag):
        # steps of one sign per component only lengthen a chord, so
        # disjoint neighbours make every pair disjoint
        i, j = np.arange(n_eps - 1), np.arange(1, n_eps)
    else:
        i, j = np.triu_indices(n_eps, 1)
    if not np.all(np.abs(centers[j] - centers[i]) >= eps[i] + eps[j]):
        raise PlanError("disks are not pairwise disjoint on the verified prefix")


def _monotone(x: np.ndarray) -> bool:
    steps = np.diff(x)
    return bool(np.all(steps >= 0) or np.all(steps <= 0))


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
    """Select a violating subsequence inside a family that declares envelopes.

    Real parts grow when re_lo > 0 and p_re > 0 (the signed Re term of
    lam_bounds), and are otherwise at most omega = max(re_hi, 0).
    _verify_plan reads the actual eigenvalues, so a loose envelope can cause
    a rejection, never an unsound plan.
    """
    if isinstance(spectrum, ExplicitSpectrum):
        raise PlanError("a finite spectrum never violates the region condition")
    if spectrum.lam_bounds is None:
        raise PlanError("a family without declared envelopes has no violating selection")
    if not (beta >= 1 and math.isfinite(beta)):
        raise PlanError("plans are constructed for beta >= 1")
    p_re, re_lo, re_hi = spectrum.lam_bounds.signed[0]
    re_unbounded = re_lo > 0 and p_re > 0
    inferred = PlanCase.UNBOUNDED_REAL_PARTS if re_unbounded else PlanCase.BOUNDED_REAL_PARTS
    if case is None:
        case = inferred
    elif case is not inferred:
        raise PlanError(f"this family supports only the {inferred.value} construction")
    plan = ViolatingSpectrumPlan(
        beta=beta,
        case=case,
        spectrum=spectrum,
        selection=Selection(spectrum, beta),
        omega=max(re_hi, 0.0) if case is PlanCase.BOUNDED_REAL_PARTS else None,
        verified_prefix=_VERIFY_PREFIX,
    )
    _verify_plan(plan)
    return plan


# ---------------------------------------------------------------------------
# Vector assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportView(SeriesSpace):
    """Coefficients e^{-decay n Re lam_{j(n)}} on a plan's subsequence.

    They are tied to lam, so coeff_bounds couples them with the Re envelope
    of the subsequence, built once, and term_bounds of e^{tA} (ExpSymbol,
    real t) is the coupled upper envelope -decay n^2 + t n; both need
    Re >= n, so these vectors live on plans with unbounded real parts.
    There the refuting vector f is a _ProofView, which also couples the
    lower envelope of its Gevrey weight.  The n^-2 vectors of the proof are
    plain polynomial_decay vectors on the subsequence.
    """

    spectrum: _Subsequence
    decay: float
    coeff_bounds = None  # built once in __post_init__

    def __post_init__(self):
        coeff = TailBounds(
            _neg_n_times(self.lam_bounds.re.upper, self.decay),
            AsymForm.power(2.0, -self.decay),  # -decay * n * Re <= -decay n^2
            1,
        )
        object.__setattr__(self, "coeff_bounds", coeff)

    def coeff_log(self, ns):
        ns = np.asarray(ns, dtype=np.int64)
        return -self.decay * ns.astype(float) * self.lam(ns).real, np.zeros(ns.shape)

    def term_bounds(self, F=None):
        if not isinstance(F, ExpSymbol) or F.z.imag != 0.0:
            return super().term_bounds(F)
        t = F.z.real
        # (t - decay n) Re_{j(n)} <= -(decay n - t) n  for n > t / decay
        return TailBounds(
            None,
            AsymForm.power(2.0, -self.decay) + AsymForm.power(1.0, t),
            int(math.ceil(t / self.decay)) + 1,
        )


@dataclass(frozen=True)
class _ProofView(SupportView):
    """The refuting vector f on a plan with unbounded real parts.

    Its term_bounds of the weight e^{s|lam|^{1/beta}} at the plan's order
    has the proof's coupled lower envelope s n^3 - n^2, which no
    componentwise envelope expresses; pairing with h* = n^-2 adds that
    vector's -2 log n.  Plans with bounded real parts need none: there the
    componentwise envelopes already give the proof's forms (|lam_{j(n)}| >= n
    and the n^-2 coefficients), so their refuting vector is a plain
    polynomial_decay vector on the subsequence.
    """

    def term_bounds(self, F=None):
        bounds = super().term_bounds(F)
        if not isinstance(F, GevreyExpSymbol) or F.beta != self.spectrum.selection.beta:
            return bounds
        # |lam|^{1/beta} >= n^2 Re and Re >= n give s n^3 - n^2 beyond n >= 1/s
        lower = AsymForm.power(3.0, F.s) + AsymForm.power(2.0, -1.0)
        k_min = max(2, int(math.ceil(1.0 / F.s)) + 1)
        return TailBounds(lower, bounds.upper, max(k_min, bounds.k_min))


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
    f: CoefficientVector
    h: Optional[CoefficientVector]
    h_star: CoefficientVector
    admissibility: AdmissibilityCertificate
    non_membership: GevreyVerdict
    probe_certificates: dict
    log_l_bound: Optional[float] = None


def build_counterexample(plan: ViolatingSpectrumPlan) -> CounterexampleArtifacts:
    """Assemble and verify the proof vectors for a violating plan, in l^2.

    The initial vector must pass the admissibility check and must be
    certified not of Roumieu type at the plan's order; the dual-probe series
    must be certified divergent at every probed scale.  Any contradiction is
    a hard failure.
    """
    sub, h = plan.subsequence, None
    if plan.case is PlanCase.BOUNDED_REAL_PARTS:
        f = CoefficientVector.polynomial_decay(sub, 2.0, _P_NORM, "ce-f(n^-2 on selection)")
    else:
        f = CoefficientVector.on_space(_ProofView(sub, 1.0), _P_NORM, "ce-f(e^{-n Re} on selection)")
        h = CoefficientVector.on_space(SupportView(sub, 0.5), _P_NORM, "ce-h(e^{-n Re/2} on selection)")
    h_star = CoefficientVector.polynomial_decay(sub, 2.0, _P_NORM, "h*(n^-2 on selection)")

    admissibility = check_admissible(f)
    if not admissibility.admissible:
        raise CounterexampleError(
            f"constructed vector failed admissibility: {admissibility.detail}"
        )

    non_membership = vector_class(f, plan.beta, GevreyFlavor.ROUMIEU)
    if non_membership.member is not False:
        raise CounterexampleError(
            "constructed vector was not certified outside the Roumieu class "
            f"(member={non_membership.member!r})"
        )

    probe_certs: dict[float, ConvergenceCertificate] = {}
    for s in _S_PROBES:
        cert = total_variation(f, h_star, weight=GevreyExpSymbol(s, plan.beta), budget=None)
        probe_certs[s] = cert
        if cert.status is not SeriesStatus.DIVERGES:
            raise CounterexampleError(
                f"dual-probe series failed to diverge at s={s:g}: {cert.to_dict()!r}"
            )

    log_l_bound = None
    if plan.case is PlanCase.UNBOUNDED_REAL_PARTS:
        # L bounds e^{-(n/2 - t) Re_{j(n)}} on the prefix for each probe t; L
        # itself leaves the float range (e^5000 on the canonical plan), so
        # its log is kept
        ns = np.arange(1, 513, dtype=np.int64)
        re = plan.subsequence.eigenvalues(ns).real
        ts = np.array([0.0, 1.0, 50.0, 100.0])[:, None]
        log_l_bound = float(np.max(-(ns / 2.0 - ts) * re))
        if not math.isfinite(log_l_bound):
            raise CounterexampleError("auxiliary bound log L is not finite on the prefix")

    return CounterexampleArtifacts(
        plan=plan,
        f=f,
        h=h,
        h_star=h_star,
        admissibility=admissibility,
        non_membership=non_membership,
        probe_certificates=probe_certs,
        log_l_bound=log_l_bound,
    )
