"""Regularity classification of vectors and solutions.

Membership of order beta is probed through the exponential domains
D(e^{s|A|^{1/beta}}): a positive critical scale s* marks the Roumieu class,
s* = +infinity the Beurling class.  Every probe certificate is a proof from
the envelopes, and its verdict can change with s only where the envelopes of
the growth |lam|^{1/beta} and of the coefficient decay share their leading
scale, through the sign of c_d + s c_g.  There s* is the ratio of the leading
coefficients: that closed form gives a bracket, and two or three probes
certify it at both ends.  Elsewhere the upper envelopes converge at every
scale or at none, so the probes at 2^-20 and 2^20 decide and nothing is
searched.  The universal ("for all s") Beurling statement is decided by
closed-form exponent comparison on supported families, with the certificate
at the top probe kept as a consistency check.  The geometric
spectral-region test and the growth-order estimator live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .asymptotics import AsymTerm, GrowthKind, classify_form
from .borel_calculus import GevreyExpSymbol, domain_member_direct, power_norms
from .errors import ConsistencyError, DomainError, HarnessError, PlanError, VectorError
from .evolution import SolutionHandle, check_admissible, solve
from .logdomain import NEG_INF
from .series import DEFAULT_BUDGET, ConvergenceCertificate, SeriesBudget, SeriesStatus, undecided_side
from .spectral_core import (
    CoefficientVector,
    ExplicitSpectrum,
    SpectrumFamily,
)

_S_LO = 2.0**-20
_S_HI = 2.0**20
_HARNESS_TIMES = (0.0, 1.0)  # the harness classifies each admissible solution at these times
_INT64_MAX = np.iinfo(np.int64).max


class GevreyFlavor(Enum):
    ROUMIEU = "roumieu"
    BEURLING = "beurling"


@dataclass(frozen=True)
class GevreyVerdict:
    """Class membership verdict with the certified critical-scale bracket.

    member is True only when backed by a convergence certificate at some
    probed scale (Roumieu) or by the closed-form rule plus the top-scale
    certificate (Beurling); False only with a divergence certificate (for
    Beurling, the divergence at the top of a closed-form tie bracket, at the
    top probe s = 2^20, or at s = 2^-20, which refutes Roumieu as well); None
    is an explicit Unknown.  Each certificate is a proof from the declared
    envelopes, never an extrapolation.  s* lies in [s_star_low, s_star_high],
    whose low end is a probed scale that converged and whose finite high end
    one that diverged.  detail names what decided the verdict, or for an
    Unknown what is missing.
    """

    flavor: GevreyFlavor
    member: Optional[bool]
    s_star_low: float
    s_star_high: float
    probes: tuple[tuple[float, str], ...] = ()
    support_bound: Optional[float] = None
    detail: str = ""

    @property
    def critical_exponent(self) -> float:
        if self.s_star_high == math.inf:
            return math.inf if self.s_star_low == math.inf else self.s_star_low
        if self.s_star_low <= 0.0:
            return 0.0
        return math.sqrt(self.s_star_low * self.s_star_high)


def _check_beta(beta: float, positive: bool = True) -> float:
    b = float(beta)
    if not math.isfinite(b) or b < 0 or (positive and b == 0):
        raise ValueError(f"beta must be {'positive' if positive else '>= 0'} and finite")
    return b


def _leading_scale(form) -> tuple:
    lead = form.leading()
    if lead is None:
        return (0.0, 0, 0.0)
    return (lead.power, lead.log_power, lead.coeff)


def _closed_forms(
    f: CoefficientVector, beta: float
) -> tuple[bool, Optional[tuple[float, Optional[float]]]]:
    """(every, tie) from the leading scales of the envelopes.

    At scale s the log-terms of the probe lie between the decay envelope of
    f plus s times the growth envelope of |lam|^{1/beta}, lower with lower
    and upper with upper.  every is True when the upper envelopes converge
    at every s: the growth is bounded on the tail, or the decay scale
    k^q (log k)^m lies above the growth's.  When the two leading scales tie
    at a power k^q, q > 0, the leading terms cancel at s* = |c_d| / c_g, and
    tie is (s_lo, s_hi): s_lo that ratio on the upper envelopes, below which
    every s converges, and s_hi the ratio on the lower envelopes, above which
    every s diverges, or None when a lower envelope is missing or has another
    leading scale.  The ratios are rounded once from the exact coefficients.
    Otherwise tie is None.
    """
    space = f.space
    decay, lam = space.coeff_bounds, space.lam_bounds
    growth = lam.abs_pow(1.0 / beta) if lam is not None else None
    if growth is None or growth.upper is None or decay is None or decay.upper is None:
        return False, None
    gu = growth.upper
    g_kind, _ = classify_form(gu)
    if g_kind is GrowthKind.CONST or g_kind is GrowthKind.SUPER_DECAY:
        # bounded weight on the tail: every s works
        return True, None
    qg, mg, _ = _leading_scale(gu)
    qd, md, cd = _leading_scale(decay.upper)
    if cd >= 0:
        return False, None
    if (qd, md) > (qg, mg):
        return True, None
    if (qd, md) != (qg, mg) or qg <= 0:
        return False, None
    s_lo = _ratio(decay.upper.leading(), gu.leading())
    if s_lo is None:
        return False, None
    s_hi = None
    if growth.lower is not None and decay.lower is not None:
        g_lo, d_lo = growth.lower.leading(), decay.lower.leading()
        if g_lo is not None and d_lo is not None and g_lo.coeff > 0 > d_lo.coeff:
            if g_lo.scale() == d_lo.scale() == (qg, mg):
                s_hi = _ratio(d_lo, g_lo)
    return False, (s_lo, s_hi)


def _ratio(decay: AsymTerm, growth: AsymTerm) -> Optional[float]:
    """|c_d| / c_g of two envelope terms, rounded once from their exact
    coefficients; None when it is no finite float."""
    try:
        exact = [Fraction(t.coeff) + Fraction(t.residual) for t in (decay, growth)]
        return float(-exact[0] / exact[1])
    except (OverflowError, ValueError):
        return None


def _probe(f: CoefficientVector, s: float, beta: float) -> ConvergenceCertificate:
    return domain_member_direct(GevreyExpSymbol(s, beta), f, budget=None)


def _tie_bracket(probe, s_lo: float, s_hi: Optional[float]) -> Optional[tuple[float, float]]:
    """A bracket around s* at a tie of _closed_forms, from certified probes.

    probe(s) returns the member flag of the probe at s.  The series engine
    decides the symbolic routes by the exact sign of the merged leading
    coefficient c_d + s c_g, so low = nextafter(s_lo, 0), under the upper
    ratio, converges.  A divergence at s_hi then gives [low, s_hi].  A
    convergence at s_hi moves low up to it; whether or not s_hi is decided
    (the envelopes may be too loose exactly at the ratio), a divergence at
    the next float up then gives [low, that float].  Where the top end is
    not certified, the high end is inf; without the convergence at low the
    result is None.
    """
    low = math.nextafter(s_lo, 0.0)
    if low == 0.0 or probe(low) is not True:
        return None
    if s_hi is not None:
        got = probe(s_hi)
        if got is False:
            return low, s_hi
        if got is True:
            low = s_hi
        top = math.nextafter(s_hi, math.inf)
        if top < math.inf and probe(top) is False:
            return low, top
    return low, math.inf


def _classify_both(f: CoefficientVector, beta: float) -> tuple[GevreyVerdict, GevreyVerdict]:
    beta = _check_beta(beta)
    certs: list = []  # (s, certificate) of every probe, in order

    def probe(s: float) -> Optional[bool]:
        cert = _probe(f, s, beta)
        certs.append((s, cert))
        return None if cert.status is SeriesStatus.INCONCLUSIVE else cert.converged

    def verdicts(roumieu, beurling, s_low, s_high, detail_r, detail_b):
        probes = tuple((s, c.status.value) for s, c in certs)
        r = GevreyVerdict(GevreyFlavor.ROUMIEU, roumieu, s_low, s_high, probes, detail=detail_r)
        b = GevreyVerdict(GevreyFlavor.BEURLING, beurling, s_low, s_high, probes, detail=detail_b)
        return r, b

    if f.space.count is not None:
        probe(1.0)
        detail = "finitely many atoms: every scale converges"
        return verdicts(True, True, math.inf, math.inf, detail, detail)

    # A probe's verdict changes with s only where the leading scales of
    # decay and growth tie, through the sign of c_d + s c_g: at a tie the
    # closed-form bracket is all that probes can certify.  Elsewhere the
    # upper envelopes converge at every scale or at none, so 2^-20 and 2^20
    # decide.
    every, tie = _closed_forms(f, beta)
    s_low, s_high = 0.0, math.inf
    detail_r = "bracketed by exponential-domain probes"
    detail_b = None
    if tie is not None:
        bracket = _tie_bracket(probe, *tie)
        roumieu = None
        if bracket is not None:
            roumieu, (s_low, s_high) = True, bracket
        elif math.nextafter(tie[0], 0.0) == 0.0:
            detail_r = (
                f"no float lies below the tie ratio {tie[0]!r}, "
                "so no probe can certify a scale under it"
            )
        if s_high < math.inf:
            detail_r = "closed-form tie bracket, certified at both ends"
            detail_b = "closed-form tie bracket: divergence at its top"
        elif probe(_S_HI) is False:
            s_high = _S_HI
    else:
        roumieu = probe(_S_LO)
        if roumieu is False:
            s_high = _S_LO
        elif roumieu is True:
            s_low = _S_LO
            top = probe(_S_HI)
            if top is True:
                s_low = _S_HI
            elif top is False:
                s_high = _S_HI

    # Beurling: a certified divergence refutes it; the closed-form rule
    # with a convergence at the top probe proves it
    s_last, last = certs[-1]
    if s_high < math.inf:
        if every:
            raise ConsistencyError(
                f"closed-form Beurling rule contradicts the certified divergence at s={s_high:g}"
            )
        beurling = False
        if detail_b is None:
            detail_b = (
                "divergence at the top probe s = 2^20"
                if s_high == _S_HI
                else "divergence at s = 2^-20 refutes the Roumieu class"
            )
    elif every and s_low == _S_HI:
        beurling, s_low, s_high = True, math.inf, math.inf
        detail_b = "closed-form tail rule with top-scale certificate"
    else:
        beurling = None
        if last.status is SeriesStatus.CONVERGES:
            detail_b = "the top probe converges, but no closed-form rule covers every scale"
        else:
            missing = undecided_side(last.bounds, "lower")
            where = "2^20" if s_last == _S_HI else "2^-20"
            detail_b = f"{missing}: no scale refutes (undecided at s = {where})"
    return verdicts(roumieu, beurling, s_low, s_high, detail_r, detail_b)


def vector_class(
    f: CoefficientVector,
    beta: float,
    flavor: GevreyFlavor = GevreyFlavor.ROUMIEU,
) -> GevreyVerdict:
    """Membership of f in the order-beta class of the requested flavor."""
    r, b = _classify_both(f, beta)
    return r if flavor is GevreyFlavor.ROUMIEU else b


def vector_class_beta0(f: CoefficientVector) -> GevreyVerdict:
    """Exponential-type test (order 0): bounded spectral support.

    Member exactly when the nonzero coordinates of f lie in some disk
    |lam| <= alpha; the reported support bound is the largest eigenvalue
    modulus over them.
    """
    count = f.space.count
    if count is not None:
        ks = np.arange(1, count + 1, dtype=np.int64)
        mags, _ = f.log_coeffs(ks)
        alive = mags > NEG_INF
        if not bool(np.any(alive)):
            return GevreyVerdict(
                GevreyFlavor.ROUMIEU, True, math.inf, math.inf,
                support_bound=0.0, detail="zero vector",
            )
        alpha = float(np.max(np.abs(f.spectrum.eigenvalues(ks[alive]))))
        return GevreyVerdict(
            GevreyFlavor.ROUMIEU, True, math.inf, math.inf,
            support_bound=alpha, detail=f"support inside |lam| <= {alpha:g}",
        )
    # infinitely many indices: a generated family, never an explicit spectrum
    if f.spectrum.lam_bounds is None:
        return GevreyVerdict(
            GevreyFlavor.ROUMIEU, None, 0.0, math.inf,
            detail="custom family without support bounds",
        )
    b = f.space.coeff_bounds
    if b is not None and b.lower is not None:
        return GevreyVerdict(
            GevreyFlavor.ROUMIEU, False, 0.0, 0.0,
            detail="unbounded spectral support: coefficients never vanish",
        )
    return GevreyVerdict(
        GevreyFlavor.ROUMIEU, None, 0.0, math.inf,
        detail="support unknown beyond the declared envelope",
    )


# ---------------------------------------------------------------------------
# Spectral region test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionHolds:
    b_plus: float
    exception_radius: float


@dataclass(frozen=True)
class RegionViolated:
    """The spectrum leaves {Re >= b_+ |Im|^{1/beta}} along an unbounded set.

    The witness is lam_{j(1)}, ..., lam_{j(12)} of the violating selection
    that plan_for_spectrum uses (counterexamples.Selection), read from the
    same declared envelopes as the verdict: |lam_{j(n)}| >= n and
    Re lam_{j(n)} < n^-2 |Im lam_{j(n)}|^{1/beta}, each met in its worst case
    over the envelopes (on a power law, itself).  The witness
    stops early, possibly empty, where the selected indices would leave int64
    or an eigenvalue is not finite (a Violated verdict all the same), and the
    report's detail says so.
    """

    witness: tuple[complex, ...]


@dataclass(frozen=True)
class RegionUnknown:
    reason: str


@dataclass(frozen=True)
class RegionReport:
    """The region verdict at order beta; `detail` names the exponent rule
    that decided it."""

    beta: float
    status: object  # RegionHolds | RegionViolated | RegionUnknown
    detail: str = ""

    @property
    def holds(self) -> bool:
        return isinstance(self.status, RegionHolds)

    @property
    def violated(self) -> bool:
        return isinstance(self.status, RegionViolated)


def _violated(spectrum: SpectrumFamily, beta: float, detail) -> RegionReport:
    from .counterexamples import Selection

    try:
        selection = Selection(spectrum, beta)
    except PlanError as exc:
        raise ConsistencyError(f"violated region without a violating selection: {exc}") from exc
    try:
        selection.extend(12)
    except PlanError as exc:  # the selection stops before its indices leave int64
        detail += f"; witness cut to {len(selection)} points: {exc}"
    with np.errstate(over="ignore", invalid="ignore"):
        lams = selection.lam(np.arange(1, len(selection) + 1))
    bad = np.flatnonzero(~np.isfinite(lams))
    if bad.size:
        lams = lams[: bad[0]]
        detail += f"; witness cut to {bad[0]} points: lam_{{j({bad[0] + 1})}} is not finite"
    return RegionReport(beta, RegionViolated(tuple(lams.tolist())), detail)


def _holds_verified(spectrum, beta, b_plus, radius) -> None:
    n = 4096 if spectrum.size is None else min(spectrum.size, 4096)
    ks = np.arange(1, n + 1, dtype=np.int64)
    lams = spectrum.eigenvalues(ks)
    outside = np.abs(lams) > radius
    ok = lams.real >= b_plus * np.abs(lams.imag) ** (1.0 / beta)
    if not bool(np.all(ok[outside])):
        raise ConsistencyError("region Holds verdict failed its numeric prefix check")


def short_float(x: float) -> str:
    """x in :g form where that text reads back as x, its repr otherwise."""
    text = f"{x:g}"
    return text if float(text) == x else repr(float(x))


def region_condition(spectrum: SpectrumFamily, beta: float) -> RegionReport:
    """Is the spectrum inside {Re >= b_+ |Im|^{1/beta}} up to a bounded set?

    A rule on the exponents of the declared envelopes decides; a family
    without them is Unknown, and no eigenvalue is evaluated.  The main
    theorem backs the test for beta >= 1 only; smaller orders are a
    ValueError.
    """
    beta = _check_beta(beta)
    if beta < 1.0:
        raise ValueError("region test is theorem-backed only for beta >= 1")

    if isinstance(spectrum, ExplicitSpectrum):
        status = RegionHolds(1.0, spectrum.max_abs() + 1.0)
        return RegionReport(beta, status, "finite spectrum is bounded")

    lam = spectrum.lam_bounds
    if lam is None:
        return RegionReport(beta, RegionUnknown("custom family without declared envelopes"))
    (p_re, a, _), (p_im, b_lo, b_hi) = lam.signed
    b = max(abs(b_lo), abs(b_hi))  # |Im lam_k| <= b k^p_im

    # the lower Re and upper |Im| coefficients prove Holds; where it fails,
    # the upper Re and lower |Im| ones, of one sign each, prove Violated
    re_grows = a > 0 and p_re > 0
    if p_im == 0.0:
        if re_grows:
            k_star = _index_past(a, b, p_re, p_im, beta) if b else None
            detail = "real part grows, imaginary part bounded"
            return _holds(spectrum, beta, 1.0, k_star, detail)
        return _violated(spectrum, beta, "unbounded spectrum with non-growing real part")

    delta = p_re - p_im / beta
    if re_grows and delta > 0:
        k_star = _index_past(a, b, p_re, p_im, beta)
        detail = (
            f"real-part exponent {short_float(p_re)} > |Im| exponent {short_float(p_im)}/beta"
        )
        return _holds(spectrum, beta, 1.0, k_star, detail)
    if re_grows and delta == 0.0:
        b_plus = a / b ** (1.0 / beta)
        for _ in range(4):
            b_plus = math.nextafter(b_plus, 0.0)
        return _holds(spectrum, beta, b_plus, None, "equal exponents: constant ratio rho_k")
    return _violated(spectrum, beta, "imaginary growth outruns the real part")


def _index_past(a: float, b: float, p_re: float, p_im: float, beta: float) -> float:
    """An index past the threshold x = (b^{1/beta}/a)^{1/d}, d = p_re - p_im/beta, from
    which a k^p_re >= (b k^p_im)^{1/beta}; inf near the end of the float range.

    x and d are rounded, and 1/d amplifies that where d cancels: log x errs
    by at most eight units of roundoff times amp.  ceil(x) + 1 covers an
    error below 1 in x, floor(err) the rest.
    """
    d = p_re - p_im / beta
    try:
        x = (b ** (1.0 / beta) / a) ** (1.0 / d)
    except OverflowError:
        return math.inf
    err = 0.0
    if 0.0 < x < math.inf:
        amp = abs(math.log(x)) * (2.0 + p_im / beta / d) + (4.0 + abs(math.log(b)) / beta) / d + 2.0
        err = x * math.expm1(min(2.0**-50 * amp, 700.0))
    return math.ceil(x) + 1 + math.floor(err) if x + err < 2.0**1000 else math.inf


def _holds(spectrum, beta, b_plus, k_star, detail) -> RegionReport:
    """Holds with b_plus from k_star on (None: from k_min), Unknown past the float range."""
    radius = math.inf if k_star == math.inf else _radius(spectrum, k_star)
    if not math.isfinite(radius):
        reason = "exception radius overflows the float range"
        return RegionReport(beta, RegionUnknown(reason), detail)
    status = RegionHolds(b_plus, radius)
    _holds_verified(spectrum, beta, b_plus, radius)
    return RegionReport(beta, status, detail)


def _radius(spectrum: SpectrumFamily, k_star: Optional[int]) -> float:
    """An exception radius: a bound r on |lam_k| over k < k_min and, given
    k_star, over k_min <= k <= k_star, plus 1 or, past 2^52/(p + 8) for the
    upper modulus exponent p, the float rounding of r; 0 when there is
    nothing to cover, inf past the float range.  |lam_k| is nondecreasing
    past k_min on exact envelopes, so |lam_{k_star}| bounds it there; looser
    envelopes, and every k_star past int64, take the upper modulus envelope.
    """
    lam = spectrum.lam_bounds
    bounds = []
    if k_star is not None:
        k_star = max(lam.k_min, k_star)
        with np.errstate(over="ignore"):  # past the float range: inf, an Unknown
            if lam.exact and k_star <= _INT64_MAX:
                bounds.append(abs(spectrum.eigenvalue(k_star)))
            else:
                bounds.append(lam.abs_pow(1.0).upper.at(k_star))
    if lam.k_min > 1:
        ks = np.arange(1, lam.k_min, dtype=np.int64)
        bounds.append(float(np.max(np.abs(spectrum.eigenvalues(ks)))))
    r = max(bounds, default=0.0)
    return r + max(1.0, r * (lam.upper[0] + 8.0) * 2.0**-52) if bounds else 0.0


# ---------------------------------------------------------------------------
# Growth-order estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderEstimate:
    """Growth order of ||A^n f|| read from the power norms n = 0..n_max.

    beta_hat estimates the order in ||A^n f|| <= c alpha^n (n!)^beta (see
    estimate_order for the rule that produced it).  alpha_hat and log_c_hat
    come from the least-squares fit of log||A^n f|| - beta_hat n log n by
    log c + n log alpha over n_range, and fit_residual is the root mean
    square residual of that fit.  log_norms holds log||A^n f|| for every n
    from 0 to n_max.
    """

    beta_hat: float
    alpha_hat: float
    log_c_hat: float
    fit_residual: float
    n_range: tuple[int, int]
    log_norms: tuple[float, ...]


# Fewest local curvatures from which estimate_order extrapolates (see its
# docstring for why shorter windows fall back to the least-squares fit).
_MIN_EXTRAPOLATED_CURVATURES = 24


def estimate_order(
    f: CoefficientVector,
    n_max: int = 40,
    budget: SeriesBudget = DEFAULT_BUDGET,
) -> OrderEstimate:
    """Estimate the growth order of ||A^n f|| from the power norms on [n_min, n_max].

    With y(n) = log||A^n f||, the estimator reads the local curvature

        beta_eff(n) = n * (y(n+1) - 2 y(n) + y(n-1)),   n = n_min .. n_max - 1,

    so the curvatures at n_min and n_max - 1 also read y(n_min - 1) and
    y(n_max).  By the Laplace method y(n) follows
    phi(n) = max_k (n log|lam_k| + log|f_k|) up to lower-order terms, and by
    the envelope theorem phi'(n) = log|lam_k*(n)| at the maximiser k*(n).
    When ||A^n f|| ~ c alpha^n (n!)^beta, phi(n) = beta n log n + O(n), so
    n phi''(n), which beta_eff approximates, tends to beta.  Its corrections
    come in powers of 1/log n: for f_k = k^-k and lam_k = k,
    phi(n) = n log n - n log log n - n + o(n) and
    n phi''(n) = 1 - 1/log n + 1/log^2 n + ...

    Rule: a vector with finite support has order 0 outright, since
    ||A^n f|| <= ||f|| max|lam_k|^n, so beta_hat = 0.  Otherwise, when there
    are at least 24 curvatures, beta_eff rises strictly across the window
    and its first value exceeds half its last (it has settled near its
    limit), beta_hat is the intercept at 1/log n -> 0 of the least-squares
    quadratic in 1/log n through beta_eff.  Otherwise
    beta_hat is the n log n coefficient of the least-squares fit of y by
    log c + n log alpha + beta n log n over [n_min, n_max].  The fallback
    covers three cases the extrapolation misreads:

    - short windows (fewer than 24 curvatures, so n_max < 32), where O(1/n)
      corrections to beta_eff make the extrapolation overshoot;
    - maximisers k*(n) that hop between a few small indices, where
      beta_eff oscillates or climbs steeply toward the next hop;
    - bounded spectra of infinite support (order 0), whose curvature rises
      from near zero before it decays exponentially.

    alpha_hat, log_c_hat and fit_residual then come from the least-squares
    fit of y - beta_hat n log n by log c + n log alpha over [n_min, n_max];
    on the fallback path they equal the coefficients and residual of the
    three-term fit (with beta_hat = 0 on finite support, the two-term fit of
    y itself).  power_norms is called once: one series engine pass
    certifies ||A^n f|| for every n = 0..n_max, each power a row.

    Early orders are dominated by the constants, so the window starts at
    n_min = max(4, n_max // 4), and n_max must be >= 5.
    """
    if n_max < 5:
        raise ValueError("n_max must be >= 5")
    n_min = max(4, n_max // 4)
    norms = power_norms(f, n_max, budget)
    if norms.cutoff is not None:
        raise DomainError(
            f"power norms are certified only below n={norms.cutoff}",
            norms.cutoff_certificate,
        )
    # y(n) for n = n_min - 1 .. n_max
    y_ext = np.asarray(norms.log_norms[n_min - 1 : n_max + 1], dtype=float)
    if np.any(y_ext == NEG_INF):
        raise VectorError("zero vector has no growth order")
    ns = np.arange(n_min, n_max + 1, dtype=float)
    y = y_ext[1:]
    n_log_n = ns * np.log(ns)
    beta_eff = ns[:-1] * (y_ext[2:] - 2.0 * y_ext[1:-1] + y_ext[:-2])
    if f.space.count is not None:
        beta_hat = 0.0
    elif (
        len(beta_eff) >= _MIN_EXTRAPOLATED_CURVATURES
        and np.all(np.diff(beta_eff) > 0.0)
        and beta_eff[0] > 0.5 * beta_eff[-1]
    ):
        beta_hat = float(np.polyfit(1.0 / np.log(ns[:-1]), beta_eff, 2)[-1])
    else:
        design = np.column_stack([np.ones_like(ns), ns, n_log_n])
        beta_hat = float(np.linalg.lstsq(design, y, rcond=None)[0][2])
    rest = y - beta_hat * n_log_n
    design = np.column_stack([np.ones_like(ns), ns])
    coef, *_ = np.linalg.lstsq(design, rest, rcond=None)
    err = design @ coef - rest
    with np.errstate(over="ignore"):
        resid = float(np.sqrt(np.mean(err**2)))
    if resid == math.inf:  # squares past the float range: scale by the largest error
        top = float(np.max(np.abs(err)))
        resid = top * float(np.sqrt(np.mean((err / top) ** 2)))
    try:
        alpha_hat = math.exp(coef[1])
    except OverflowError:
        alpha_hat = math.inf
    return OrderEstimate(
        beta_hat=beta_hat,
        alpha_hat=alpha_hat,
        log_c_hat=float(coef[0]),
        fit_residual=resid,
        n_range=(n_min, n_max),
        log_norms=norms.log_norms,
    )


# ---------------------------------------------------------------------------
# Equivalence harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarnessRow:
    vector: str
    admissible: bool
    admissible_unknown: bool
    verdicts: tuple[tuple[float, str, Optional[bool]], ...] = ()  # (t, flavor, member)


@dataclass(frozen=True)
class HarnessReport:
    spectrum: str
    beta: float
    region: RegionReport
    rows: tuple[HarnessRow, ...]
    counterexample: Optional[object] = None
    notes: tuple[str, ...] = ()


def theorem_equivalence_harness(
    spectrum: SpectrumFamily,
    beta: float,
    vector_catalog: Optional[Sequence[CoefficientVector]] = None,
) -> HarnessReport:
    """Cross-check the region verdict against per-vector classifications.

    Holds must come with every admissible vector certified Beurling at the
    checked times; Violated must come with a constructed admissible vector
    certified not Roumieu.  Any certified contradiction, including a
    violation of the Roumieu-implies-Beurling jump across the run, raises
    HarnessError with the full report attached.
    """
    beta = _check_beta(beta)
    region = region_condition(spectrum, beta)
    if vector_catalog is None:
        from .catalog import builtin_vectors

        vector_catalog = builtin_vectors(spectrum)

    rows: list[HarnessRow] = []
    problems: list[str] = []
    any_certified_not_beurling = False
    all_roumieu_true = True
    saw_roumieu = False

    for v in vector_catalog:
        cert = check_admissible(v)
        if not cert.admissible:
            rows.append(HarnessRow(v.label, False, cert.unknown))
            continue
        h = SolutionHandle(v, cert)
        verd: list[tuple[float, str, Optional[bool]]] = []
        for t in _HARNESS_TIMES:
            r, b = _classify_both(solve(h, t), beta)
            verd.append((t, GevreyFlavor.ROUMIEU.value, r.member))
            verd.append((t, GevreyFlavor.BEURLING.value, b.member))
            saw_roumieu = True
            if r.member is not True:
                all_roumieu_true = False
            if b.member is False:
                any_certified_not_beurling = True
            if region.holds and b.member is False:
                problems.append(
                    f"region Holds but vector {v.label!r} at t={t:g} is certified not Beurling"
                )
            if b.member is True and r.member is False:
                problems.append(
                    f"vector {v.label!r} at t={t:g}: Beurling certified while Roumieu refuted"
                )
        rows.append(HarnessRow(v.label, True, False, tuple(verd)))

    counterexample = None
    if region.violated:
        from .counterexamples import build_counterexample, plan_for_spectrum

        plan = plan_for_spectrum(spectrum, beta)
        counterexample = build_counterexample(plan)
        if not counterexample.admissibility.admissible:
            problems.append("constructed counterexample is not admissible")
        if counterexample.non_membership.member is not False:
            problems.append("constructed counterexample was not certified non-Roumieu")
        else:
            all_roumieu_true = False

    if saw_roumieu and all_roumieu_true and any_certified_not_beurling:
        problems.append(
            "smoothness jump violated: every vector Roumieu-certified while some "
            "Beurling membership was refuted"
        )

    report = HarnessReport(
        spectrum=getattr(spectrum, "label", "spectrum"),
        beta=beta,
        region=region,
        rows=tuple(rows),
        counterexample=counterexample,
        notes=tuple(problems),
    )
    if problems:
        raise HarnessError("; ".join(problems), report)
    return report
