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
from fractions import Fraction
from enum import Enum
from typing import Optional

import numpy as np

from .asymptotics import AsymForm, AsymTerm, TailBounds
from .borel_calculus import ExpSymbol, GevreyExpSymbol, power_norms
from .errors import CounterexampleError, PlanError
from .evolution import AdmissibilityCertificate, SolutionHandle, check_admissible
from .gevrey_classifier import GevreyVerdict, GevreyFlavor, short_float, vector_class
from .logdomain import NEG_INF
from .series import ConvergenceCertificate, SeriesStatus
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
_MAX_INDEX = 2.0**63  # indices are int64
# Float estimates this close (relative) to an integer, or to the index they are
# compared with, are settled by the exact rule; their own error is a few ulps.
_NEAR = 2.0**-40
_FLOAT_EXACT = 2.0**50  # float64 estimates below it are within one of T(n)
_MAX_DENOM = 64  # larger common exponent denominators use interval arithmetic
_IV_PREC = 80  # bits
_S_PROBES = (2.0**-10, 1.0, 2.0**10)


class PlanCase(Enum):
    BOUNDED_REAL_PARTS = "bounded"
    UNBOUNDED_REAL_PARTS = "unbounded"


# ---------------------------------------------------------------------------
# Selection of a violating subsequence
# ---------------------------------------------------------------------------


def _near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.abs(a - b) <= _NEAR * np.maximum(np.abs(a), np.abs(b))


def _extended(x: Fraction) -> np.longdouble:
    """x in numpy's extended precision: its float plus the float of the rest."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - Fraction(hi)))


def _log_extended(x: Fraction) -> np.longdouble:
    """log x in numpy's extended precision, for any positive rational x:
    x = 2^k r with r in (1/2, 2) keeps the float conversion in range."""
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return k * np.log(np.longdouble(2)) + np.log(_extended(x / Fraction(2) ** k))


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass
class _Threshold:
    """One condition on the index j at order n: j^e >= K n^m, K = prod b^q.

    It is strict (>) when strict is set and n >= 2, and a tie is not strictly
    greater.  e > 0, m > 0 and the factors (b > 0, q) are exact rationals,
    float parameters read as dyadic rationals, so the condition holds exactly
    for j >= T(n).  The float estimate of T(n) is coeff * n^exponent, with
    exponent = m/e and coeff = K^{1/e} derived here from the exact form.
    """

    name: str
    strict: bool
    e: Fraction
    m: Fraction
    factors: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        try:
            self.exponent = float(self.m / self.e)
            self.coeff = math.exp(sum(float(q / self.e) * _log(b) for b, q in self.factors))
        except OverflowError:  # past the float range: T(n) leaves int64 at once
            self.exponent = self.coeff = math.inf
        # float(m/e) is corrected by n^(m/e - exponent): alone, it is 5.0 for
        # i*k^0.2 at beta = 1, and from about n = 1,000 n^5.0 is off T(n) by
        # more than one.  _coeff_ext is K^{1/e} in numpy's extended precision.
        self._exponent_err = 0.0
        self._coeff_ext = np.longdouble(math.inf)
        if math.isfinite(self.coeff):
            self._exponent_err = float(self.m / self.e - Fraction(self.exponent))
            log_k = sum(_extended(q / self.e) * _log_extended(b) for b, q in self.factors)
            self._coeff_ext = np.exp(log_k)
        den = math.lcm(*(q.denominator for q in (self.e, self.m, *(q for _, q in self.factors))))
        self._iv = None
        self._int = None  # (Q, E, P, M): Q j^E >= P n^M, with K^den = P / Q
        if den <= _MAX_DENOM:
            k = math.prod((b ** int(q * den) for b, q in self.factors), start=Fraction(1))
            self._int = (k.denominator, int(self.e * den), k.numerator, int(self.m * den))

    def estimate(self, ns: np.ndarray) -> np.ndarray:
        """K^{1/e} n^(m/e): in float64 while that lands within one of T(n),
        past 2^50 in numpy's extended precision (float64 on platforms without
        one), whose array arithmetic is several times slower.  An estimate
        past the range of its type is inf, which leaves int64 in extend."""
        try:
            wide = ns.size and self.coeff * float(ns.max()) ** self.exponent >= _FLOAT_EXACT
        except OverflowError:  # n^exponent past the float range
            wide = True
        nf = ns.astype(np.longdouble if wide else float)
        with np.errstate(over="ignore"):
            return nf.dtype.type(self._coeff_ext) * nf**self.exponent * np.exp(self._exponent_err * np.log(nf))

    def holds(self, js: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """The condition at each (j, n), decided exactly: Q j^E >= P n^M in
        int64 where both sides stay below 2^63 for the whole call, else in
        Python ints."""
        strict = self.strict & (ns >= 2)
        if self._int is None:
            cases = zip(js.tolist(), ns.tolist(), strict.tolist())
            return np.asarray([self._holds_iv(*c) for c in cases], dtype=bool)
        q, e, p, m = self._int
        top = max(q * int(np.abs(js).max(initial=1)) ** e, p * int(ns.max(initial=1)) ** m)
        dtype = np.int64 if top < _MAX_INDEX else object
        lhs, rhs = q * js.astype(dtype) ** e, p * ns.astype(dtype) ** m
        return np.where(strict, lhs > rhs, lhs >= rhs).astype(bool)

    def _holds_iv(self, j: int, n: int, strict: bool) -> bool:
        """The sign of e log j - m log n - sum q log b in interval arithmetic;
        an interval that straddles 0 is a tie."""
        from mpmath import iv

        def rat(x):  # an int or a Fraction, enclosed exactly
            return iv.mpf(x.numerator) / x.denominator

        saved, iv.prec = iv.prec, _IV_PREC
        try:
            if self._iv is None:  # e, m and sum q log b, enclosed once
                log_k = sum(rat(q) * iv.log(rat(b)) for b, q in self.factors)
                self._iv = (rat(self.e), rat(self.m), log_k)
            e, m, log_k = self._iv
            gap = e * iv.log(j) - m * iv.log(n) - log_k
        finally:
            iv.prec = saved
        if gap.a > 0:
            return True
        return False if gap.b < 0 else not strict

    def least(self, ns: np.ndarray) -> np.ndarray:
        """T(n), the least j meeting the condition, at each order n.

        ceil(x) of the estimate x where x is clear of an integer.  Elsewhere
        T(n) lies in x (1 +- _NEAR) +- 1: c = rint(x) is tested exactly, then
        c - 1 where c meets the condition and c + 1 where it fails, and the
        window is bisected only where those two leave T(n) open.  An index
        j <= 0 never meets the condition (K > 0).
        """
        x = self.estimate(ns)
        out = np.ceil(x).astype(np.int64)
        r = np.rint(x)
        near = np.flatnonzero(_near(x, r))
        x, ns, c = x[near], ns[near], r[near].astype(np.int64)
        # lo fails and hi meets the condition
        lo = np.maximum(np.floor(x * (1.0 - _NEAR)) - 1.0, 0.0).astype(np.int64)
        hi = np.ceil(x * (1.0 + _NEAR)).astype(np.int64) + 1
        top = self.holds(c, ns)
        hi, lo = np.where(top, c, hi), np.where(top, lo, c)
        side = np.where(top, c - 1, c + 1)
        ask = np.flatnonzero((lo < side) & (side < hi))
        ok = self.holds(side[ask], ns[ask])
        hi[ask[ok]], lo[ask[~ok]] = side[ask[ok]], side[ask[~ok]]
        while (act := np.flatnonzero(hi - lo > 1)).size:
            mid = lo[act] + (hi[act] - lo[act]) // 2
            ok = self.holds(mid, ns[act])
            hi[act[ok]], lo[act[~ok]] = mid[ok], mid[~ok]
        out[near] = hi
        return out


class Selection:
    """Greedy choice of indices j(1) < j(2) < ... from a power-law family.

    lam_j = a_re j^p_re + i a_im j^p_im.  j(n) is the least j > j(n-1) with

    - |lam_j| >= n, through the leading-term bound a_hi j^p_hi >= n (a_hi is
      the hypot of the coefficients when both parts share the top exponent):
      the threshold modulus;
    - Re lam_j < n^-2 |Im lam_j|^{1/beta}, non-strict at n = 1, where the
      canonical rules sit exactly on the boundary.  For a_re > 0 this is the
      threshold violation, j^delta > c n^2 with delta = p_im/beta - p_re and
      c = a_re/|a_im|^{1/beta}; for a_re <= 0 every j meets it;
    - Re lam_j >= n when real parts grow (a_re > 0, p_re > 0): the threshold
      re_ge_n.

    |lam_j| increases strictly in j, and so do the selected moduli.  Every
    condition is a monotone threshold in j: j(n) = max(j(n-1) + 1, T_1(n),
    ..., T_k(n)), which extend computes as j(n) - n = cummax(T(n) - n) for all
    new orders at once, with no eigenvalue.  _Threshold makes each T_i exact.
    """

    def __init__(self, spectrum: PowerLawSpectrum, beta: float):
        self.spectrum = spectrum
        self.beta = beta
        self._js = np.zeros(0, dtype=np.int64)
        spec = spectrum
        a, pre, b, pim = (Fraction(v) for v in (spec.a_re, spec.p_re, spec.a_im, spec.p_im))
        self.violation = self.re_ge_n = None
        if a > 0:
            # positive real parts need |Im| to outrun them: a j^pre < n^-2 |Im_j|^{1/beta}
            if b == 0 or pim == 0:
                raise PlanError(
                    "positive real part with bounded imaginary part: "
                    "the region condition holds, no violating selection exists"
                )
            delta = pim / Fraction(beta) - pre
            if delta <= 0:
                raise PlanError(
                    f"real-part exponent {short_float(spec.p_re)} >= |Im| exponent "
                    f"{short_float(spec.p_im)}/beta: "
                    "the region condition holds beyond a bounded set"
                )
            factors = ((a, Fraction(1)), (abs(b), -1 / Fraction(beta)))
            self.violation = _Threshold("violation inequality", True, delta, Fraction(2), factors)
            if pre > 0:
                factors = ((a, Fraction(-1)),)
                self.re_ge_n = _Threshold("Re lam_{j(n)} >= n", False, pre, Fraction(1), factors)
        p_hi, _, _ = spectrum._abs_leading()
        if p_hi <= 0:
            raise PlanError("modulus of the family does not grow")
        lead_sq = sum(c * c for p, c in ((pre, a), (pim, b)) if c != 0 and p == p_hi)
        self.modulus = _Threshold(
            "|lam_{j(n)}| >= n", False, Fraction(p_hi), Fraction(1), ((lead_sq, Fraction(-1, 2)),)
        )
        self.thresholds = [t for t in (self.violation, self.re_ge_n, self.modulus) if t is not None]
        self.gamma = max(1.0, max(t.exponent for t in self.thresholds))
        self.env_coeff = sum(t.coeff for t in self.thresholds) + 1.0

    def __len__(self) -> int:
        return self._js.size

    def extend(self, n_target: int) -> None:
        """Select the orders up to n_target.

        An order whose index would leave int64 is not selected: the selection
        stops before the first such order and raises PlanError.
        """
        n0 = self._js.size + 1
        if n_target < n0:
            return
        ns = np.arange(n0, n_target + 1, dtype=np.int64)
        fits = np.all(
            [t.estimate(ns) * (1.0 + _NEAR) + 2.0 < _MAX_INDEX for t in self.thresholds], axis=0
        )
        out = np.flatnonzero(~fits)
        n_fit = out[0] if out.size else ns.size
        if n_fit:
            prev = int(self._js[-1]) if self._js.size else 0
            floor = np.max([t.least(ns[:n_fit]) for t in self.thresholds], axis=0)
            js = ns[:n_fit] + np.maximum.accumulate(np.maximum(floor - ns[:n_fit], prev + 1 - n0))
            self._js = np.concatenate([self._js, js])
        if out.size:
            raise PlanError(f"selected index leaves int64 at order n={ns[n_fit]}")

    def indices(self, ns: np.ndarray) -> np.ndarray:
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size:
            self.extend(int(ns.max()))
        return self._js[ns - 1]

    def lam(self, ns: np.ndarray) -> np.ndarray:
        return self.spectrum.eigenvalues(self.indices(ns))

    def orders(self, js: np.ndarray) -> np.ndarray:
        """n with j(n) = j for the given js, 0 where j is not selected.

        The selection is extended by doubling until its last index reaches
        max(js), so it grows only as far as the js need.
        """
        while js.size and (not self._js.size or self._js[-1] < js.max()):
            self.extend(max(1, 2 * self._js.size))
        pos = np.searchsorted(self._js, js)
        hit = pos < self._js.size
        hit[hit] = self._js[pos[hit]] == js[hit]
        return np.where(hit, pos + 1, 0)

    def identity_certified(self) -> bool:
        """True when j(n) = n provably for every n, not just the first 512."""
        self.extend(512)
        if not np.array_equal(self._js[:512], np.arange(1, 513)):
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


def _meets(lhs, rhs, strict, rule: Optional[_Threshold], js, ns) -> np.ndarray:
    """lhs >= rhs (lhs > rhs where strict) in floats.  Entries within _NEAR of
    the boundary are decided by rule, the exact threshold form of the same
    inequality; without a rule they fail."""
    ok = np.where(strict, lhs > rhs, lhs >= rhs)
    near = np.flatnonzero(_near(lhs, rhs))
    ok[near] = rule.holds(js[near], ns[near]) if rule is not None else False
    return ok


def _verify_plan(plan: ViolatingSpectrumPlan, prefix: int = _VERIFY_PREFIX) -> None:
    """Check the plan on the eigenvalues of its first prefix picks.

    |lam_{j(n)}| >= n, Re lam_{j(n)} < n^-2 |Im lam_{j(n)}|^{1/beta} (non-strict
    at n = 1) and, on plans with unbounded real parts, Re lam_{j(n)} >= n are
    evaluated in floats on the eigenvalues themselves, not on the thresholds
    that selected them, so a wrongly derived threshold fails here.  Only an
    entry within _NEAR of its boundary is decided by the selection's exact
    rule for that inequality (for the modulus, the leading-term bound, which
    implies it), so a tie fails a strict inequality.  Strictly increasing
    indices give strictly increasing moduli.  Real parts stay below omega on
    bounded plans; the disks have radii in (0, 1/n) and are pairwise disjoint.
    """
    sel = plan.selection
    ns = np.arange(1, prefix + 1, dtype=np.int64)
    js = sel.indices(ns)
    if not np.all(np.diff(js) > 0):
        raise PlanError("selected indices are not strictly increasing")
    lams, nf = plan.spectrum.eigenvalues(js), ns.astype(float)
    rhs = np.abs(lams.imag) ** (1.0 / plan.beta) / nf**2
    if not np.all(_meets(np.abs(lams), nf, False, sel.modulus, js, ns)):
        raise PlanError("|lam_{j(n)}| >= n fails on the verified prefix")
    if not np.all(_meets(rhs, lams.real, ns >= 2, sel.violation, js, ns)):
        raise PlanError("violation inequality fails on the verified prefix")
    if plan.case is PlanCase.UNBOUNDED_REAL_PARTS:
        if not np.all(_meets(lams.real, nf, False, sel.re_ge_n, js, ns)):
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
    selection = Selection(spectrum, beta)
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
    im_bounds is None.  When decay is set (such vectors live on plans with
    Re >= n), term_bounds of e^{tA} (ExpSymbol, real t) is the coupled upper
    envelope -decay n^2 + t n.  On plans with unbounded real parts the
    refuting vector f is a _ProofView, which also couples the lower envelope
    of its Gevrey weight.
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

    def term_bounds(self, F=None):
        if self.decay is None or not isinstance(F, ExpSymbol) or F.z.imag != 0.0:
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
    space's -2 log n.  Plans with bounded real parts need none: there the
    componentwise envelopes already give the proof's forms (|lam_{j(n)}| >= n
    and the n^-2 coefficients), so their refuting vector is a plain
    SupportView.
    """

    def term_bounds(self, F=None):
        bounds = super().term_bounds(F)
        if not isinstance(F, GevreyExpSymbol) or F.beta != self.plan.beta:
            return bounds
        # |lam|^{1/beta} >= n^2 Re and Re >= n give s n^3 - n^2 beyond n >= 1/s
        lower = AsymForm.power(3.0, F.s) + AsymForm.power(2.0, -1.0)
        k_min = max(2, int(math.ceil(1.0 / F.s)) + 1)
        return TailBounds(lower, bounds.upper, max(k_min, bounds.k_min))


def _dense_inverse_fn(view: SupportView):
    """Dense j-indexed coefficients of a subsequence vector: n^-th coefficient
    at j = j(n), none elsewhere."""

    selection = view.selection

    def fn(js: np.ndarray):
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


def build_counterexample(plan: ViolatingSpectrumPlan, p: float = 2.0) -> CounterexampleArtifacts:
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
        cert = total_variation(
            f, h_star, predicate_all(), weight=GevreyExpSymbol(s, plan.beta), budget=None
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


def analytic_at_zero_probe(h: SolutionHandle):
    """Is y analytic at t = 0, and on what Taylor radius?

    For a diagonal operator the Taylor series of y at 0 has radius exactly
    s*, the critical scale of f at beta = 1.  For delta < s*,
    delta^n ||A^n f|| / n! <= ||e^{delta|A|} f|| coordinatewise, so the
    series converges on |t| < s*.  A bound C on delta^n ||A^n f|| / n! for
    some delta > s* would give ||e^{delta'|A|} f|| <= C sum_n (delta'/delta)^n
    for every delta' < delta, so f would lie in D(e^{delta'|A|}) past s*.
    The order-1 Roumieu verdict therefore decides: True gives
    AnalyticAtZero(s_star_low), the certified low end of the bracket (inf:
    y is entire), False gives NotAnalytic, None AnalyticUnknown.  Where a
    power norm leaves l^p at a finite order n, the refutation says so.
    """
    verdict = vector_class(h.f, 1.0)
    if verdict.member is None:
        return AnalyticUnknown(verdict.detail)
    if verdict.member:
        return AnalyticAtZero(verdict.s_star_low)
    norms = power_norms(h.f, 40, budget=None)
    cert = norms.cutoff_certificate
    if cert is not None and cert.status is SeriesStatus.DIVERGES:
        return NotAnalytic(
            f"||A^n f|| leaves l^p at n = {norms.cutoff}: the solution is not "
            f"even C^{norms.cutoff} at 0"
        )
    return NotAnalytic(f"f is not Roumieu of order 1, so the Taylor radius is 0: {verdict.detail}")
