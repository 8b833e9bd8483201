"""Operational calculus for diagonal operators: F(A) acts coordinatewise.

The symbol catalog covers powers lam^n, exponentials e^{z*lam} and the
regularity weights e^{s*|lam|^(1/beta)}, plus finite products of these.
Domain membership f in D(F(A)) is decided two independent ways: directly
(the image sequence must stay in l^p) and through a dual probe family in the
style of a total-variation criterion; the direct route is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .asymptotics import AsymForm, TailBounds
from .errors import DomainError
from .logdomain import NEG_INF, LogPolar, logsumexp
from .series import (
    DEFAULT_BUDGET,
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
    certify_log_series,
)
from .spectral_core import (
    CoefficientVector,
    conjugate_exponent,
    predicate_all,
    total_variation,
)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class SymbolFunction:
    """A Borel symbol from the supported catalog, evaluated in log domain."""

    name: str = "F"

    def log_abs(self, lams: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def phase(self, lams: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def growth_bounds_on(self, space) -> Optional[TailBounds]:
        """Envelope of log|F(lam_k)| over a SeriesSpace or a SpectrumFamily."""
        raise NotImplementedError

    def factors(self) -> tuple["SymbolFunction", ...]:
        return (self,)

    def sort_key(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerSymbol(SymbolFunction):
    """lam^n for nonnegative integer n; n = 0 is the identity symbol."""

    n: int

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ValueError("power symbol needs a nonnegative integer exponent")
        object.__setattr__(self, "n", int(self.n))

    @property
    def name(self) -> str:
        return f"A^{self.n}"

    def log_abs(self, lams):
        if self.n == 0:
            return np.zeros(len(lams))
        with np.errstate(divide="ignore"):
            return self.n * np.log(np.abs(lams))

    def phase(self, lams):
        if self.n == 0:
            return np.zeros(len(lams))
        return self.n * np.angle(lams)

    def growth_bounds_on(self, space):
        if self.n == 0:
            return TailBounds.exact(AsymForm.constant(0.0))
        b = space.log_abs_bounds()
        return b.scale(float(self.n)) if b is not None else None

    def sort_key(self):
        return (0, self.n)


@dataclass(frozen=True)
class ExpSymbol(SymbolFunction):
    """e^{z*lam} for a fixed complex z (z = t real gives the evolution)."""

    z: complex

    def __post_init__(self):
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("exponential symbol needs finite z")
        object.__setattr__(self, "z", z)

    @property
    def name(self) -> str:
        return f"exp({self.z.real:g}{self.z.imag:+g}i*A)" if self.z.imag else f"exp({self.z.real:g}*A)"

    def log_abs(self, lams):
        return self.z.real * lams.real - self.z.imag * lams.imag

    def phase(self, lams):
        return self.z.real * lams.imag + self.z.imag * lams.real

    def growth_bounds_on(self, space):
        out = None
        if self.z.real != 0.0:
            rb = space.re_bounds()
            if rb is None:
                return None
            out = rb.scale(self.z.real)
        if self.z.imag != 0.0:
            ib = space.im_bounds()
            if ib is None:
                return None
            piece = ib.scale(-self.z.imag)
            out = piece if out is None else out + piece
        if out is None:
            out = TailBounds.exact(AsymForm.constant(0.0))
        return out

    def sort_key(self):
        return (1, self.z.real, self.z.imag)


@dataclass(frozen=True)
class GevreyExpSymbol(SymbolFunction):
    """e^{s*|lam|^{1/beta}}, the weight defining the order-beta classes.

    |lam|^{1/beta} evaluates to 0 at lam = 0 for every beta > 0.
    """

    s: float
    beta: float

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("weight scale s must be positive and finite")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("order beta must be positive and finite")

    @property
    def name(self) -> str:
        return f"gexp(s={self.s:g},beta={self.beta:g})"

    def log_abs(self, lams):
        return self.s * np.abs(lams) ** (1.0 / self.beta)

    def phase(self, lams):
        return np.zeros(len(lams))

    def growth_bounds_on(self, space):
        b = space.abs_pow_bounds(1.0 / self.beta)
        return b.scale(self.s) if b is not None else None

    def sort_key(self):
        return (2, self.s, self.beta)


@dataclass(frozen=True)
class CompositeSymbol(SymbolFunction):
    """Finite product of catalog symbols, evaluated as a sum of log factors
    in a canonical order so regrouped products agree bit for bit."""

    parts: tuple[SymbolFunction, ...]

    def __post_init__(self):
        flat = []
        for s in self.parts:
            flat.extend(s.factors())
        object.__setattr__(self, "parts", tuple(sorted(flat, key=lambda s: s.sort_key())))

    @property
    def name(self) -> str:
        return "*".join(s.name for s in self.parts)

    def log_abs(self, lams):
        out = np.zeros(len(lams))
        for s in self.parts:
            out = out + s.log_abs(lams)
        return out

    def phase(self, lams):
        out = np.zeros(len(lams))
        for s in self.parts:
            out = out + s.phase(lams)
        return out

    def growth_bounds_on(self, space):
        out = TailBounds.exact(AsymForm.constant(0.0))
        for s in self.parts:
            g = s.growth_bounds_on(space)
            if g is None:
                return None
            out = out + g
        return out

    def factors(self):
        return self.parts

    def sort_key(self):
        return (3,) + tuple(s.sort_key() for s in self.parts)


def compose(*symbols: SymbolFunction) -> SymbolFunction:
    if len(symbols) == 1:
        return symbols[0]
    return CompositeSymbol(tuple(symbols))


def catalog_symbols() -> list[SymbolFunction]:
    """Representative symbols used by cross-checks and agreement tests."""
    return [
        PowerSymbol(0),
        PowerSymbol(1),
        PowerSymbol(2),
        PowerSymbol(5),
        ExpSymbol(1.0),
        ExpSymbol(-0.5),
        ExpSymbol(0.5j),
        GevreyExpSymbol(1.0, 1.0),
        GevreyExpSymbol(0.25, 2.0),
        CompositeSymbol((PowerSymbol(2), ExpSymbol(0.5))),
    ]


# ---------------------------------------------------------------------------
# Domain membership
# ---------------------------------------------------------------------------


class DomainCriterion(Enum):
    DIRECT = "direct"
    DUAL_PROP31 = "dual-probes"


@dataclass(frozen=True)
class DomainVerdict:
    """Outcome of a membership test f in D(F(A)).

    member is True only on a convergence certificate, False only on a
    divergence certificate, and None (Unknown) otherwise.  log_norm is
    log ||F(A)f||_p when membership is certified with a budget, NaN
    otherwise: a decision-only test (budget=None) resolves no value.
    """

    member: Optional[bool]
    certificate: ConvergenceCertificate
    criterion: DomainCriterion
    detail: str = ""
    log_norm: float = math.nan


def _member_from_status(status: SeriesStatus) -> Optional[bool]:
    if status is SeriesStatus.CONVERGES:
        return True
    if status is SeriesStatus.DIVERGES:
        return False
    return None


def domain_member_direct(
    F: SymbolFunction,
    f: CoefficientVector,
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> DomainVerdict:
    """Direct criterion: {F(lam_k) f_k} must lie in l^p.

    With `budget=None` membership is only decided (see certify_log_series)
    and log_norm stays NaN.

    The tail envelope is the series space's term_bounds(F), the envelope
    of log|f_k| + log|F(lam_k)|, taken to the power p.
    """
    space = f.series_space()
    p = f.p_norm

    def term(ks):
        mags, _ = space.coeff_log(ks)
        add = F.log_abs(space.lam(ks))
        return p * np.where(mags == NEG_INF, NEG_INF, mags + add)

    bounds = space.term_bounds(F)
    if bounds is not None:
        bounds = bounds.scale(p)
    cert = certify_log_series(term, count=space.count, bounds=bounds, budget=budget)
    member = _member_from_status(cert.status)
    log_norm = cert.log_value / p if member is True else math.nan
    return DomainVerdict(
        member, cert, DomainCriterion.DIRECT, detail=f"l^{p:g} image test", log_norm=log_norm
    )


def apply_symbol(F: SymbolFunction, f: CoefficientVector) -> CoefficientVector:
    """Coordinatewise g_k = F(lam_k) f_k; refuses when membership is not certified."""
    verdict = domain_member_direct(F, f, budget=None)
    if verdict.member is not True:
        raise DomainError(
            f"{F.name} applied outside its certified domain "
            f"(status {verdict.certificate.status.value})",
            verdict,
        )
    return f._with_symbols((F,))


def _coordinate_dual(spectrum, j: int, q: float) -> CoefficientVector:
    entries = [LogPolar.zero()] * (j - 1) + [LogPolar(0.0, 0.0)]
    return CoefficientVector.explicit(
        spectrum, log_polars=entries, p=q, label=f"e*_{j}"
    )


def _sign_dual(
    F: SymbolFunction, f: CoefficientVector, q: float, prefix: int = 256
) -> CoefficientVector:
    """Normalized truncated duality extremizer of F(A)f in l^q."""
    count = f.effective_count()
    n = min(prefix, count) if count is not None else prefix
    ks = np.arange(1, n + 1, dtype=np.int64)
    mags, phases = f.log_coeffs(ks)
    lams = f.spectrum.eigenvalues(ks)
    w = np.where(mags == NEG_INF, NEG_INF, mags + F.log_abs(lams))
    w_phase = phases + F.phase(lams)
    if np.all(w == NEG_INF):
        return _coordinate_dual(f.spectrum, 1, q)
    p = f.p_norm
    log_norm_p = logsumexp(p * w) / p  # ||w||_p over the prefix
    g_mags = np.where(w == NEG_INF, NEG_INF, (p - 1.0) * (w - log_norm_p))
    entries = [
        LogPolar.zero() if m == NEG_INF else LogPolar(float(m), float(-ph))
        for m, ph in zip(g_mags, w_phase)
    ]
    return CoefficientVector.explicit(
        f.spectrum, log_polars=entries, p=q, label="sign-dual"
    )


def domain_member_prop31(
    F: SymbolFunction,
    f: CoefficientVector,
    probe_budget: int = 8,
    budget: SeriesBudget = DEFAULT_BUDGET,
) -> DomainVerdict:
    """Dual-probe criterion over a deterministic finite probe family.

    Condition (i): int |F| dv(f, g, .) finite for each probe g (unit
    coordinate duals, the normalized truncated sign dual of F(A)f, and the
    slowly decaying dual with coordinates k^-2).  Condition (ii): the
    cutoff tails over {|F| > n} must vanish as the cutoff n doubles.  The
    probe family is a cross-check, not a proof; the direct criterion is
    authoritative.
    """
    if probe_budget < 1:
        raise ValueError("probe_budget must be >= 1")
    if f.series_view is not None:
        raise DomainError(
            "dual-probe criterion pairs against dense duals and is not available "
            "for support-view vectors; the direct criterion is authoritative there"
        )
    q = conjugate_exponent(f.p_norm)
    count = f.effective_count()
    n_coord = min(probe_budget, 8, count) if count is not None else min(probe_budget, 8)
    probes: list[tuple[str, CoefficientVector]] = [
        (f"e*_{j}", _coordinate_dual(f.spectrum, j, q)) for j in range(1, n_coord + 1)
    ]
    probes.append(("sign-dual", _sign_dual(F, f, q)))
    probes.append(("h*(k^-2)", CoefficientVector.polynomial_decay(f.spectrum, 2.0, p=q, label="h*")))

    certs: dict[str, ConvergenceCertificate] = {}
    undecided: Optional[str] = None
    for name, g in probes:
        cert = total_variation(f, g, predicate_all(), weight=F, budget=budget)
        certs[name] = cert
        if cert.status is SeriesStatus.DIVERGES:
            return DomainVerdict(
                False,
                cert,
                DomainCriterion.DUAL_PROP31,
                detail=f"condition (i) diverges for probe {name}",
            )
        if cert.status is SeriesStatus.INCONCLUSIVE:
            undecided = name
    if undecided is not None:
        cert = certs[undecided]
        return DomainVerdict(
            None,
            cert,
            DomainCriterion.DUAL_PROP31,
            detail=f"condition (i) has no closed form for probe {undecided}: {cert.detail}",
        )

    # Condition (ii): prefix cutoff sums over {|F| > n} with doubling cutoffs.
    k_pref = min(count, 1 << 14) if count is not None else 1 << 14
    ks = np.arange(1, k_pref + 1, dtype=np.int64)
    lams = f.spectrum.eigenvalues(ks)
    logF = F.log_abs(lams)
    fm, _ = f.log_coeffs(ks)
    tail_ok = True
    last_profile = []
    for name, g in probes:
        gm, _ = g.log_coeffs(ks)
        atoms = np.where(fm == NEG_INF, NEG_INF, fm + gm + logF)
        total = certs[name].log_value
        floor = total + math.log(budget.rel_tol) if total > NEG_INF else NEG_INF
        t_last = NEG_INF
        for j in range(0, 64, 4):
            cutoff = math.log(2.0) * j
            above = logF > cutoff
            t_last = logsumexp(atoms[above]) if np.any(above) else NEG_INF
            if t_last == NEG_INF:
                break
        last_profile.append((name, t_last))
        certified_tail = certs[name].log_tail_bound
        if t_last > max(floor, -700.0) or (
            not math.isnan(certified_tail) and certified_tail > max(floor, -700.0)
        ):
            tail_ok = False
    if not tail_ok:
        return DomainVerdict(
            None,
            certs["h*(k^-2)"],
            DomainCriterion.DUAL_PROP31,
            detail=f"condition (ii) cutoff tails did not vanish: {last_profile!r}",
        )
    return DomainVerdict(
        True,
        certs["h*(k^-2)"],
        DomainCriterion.DUAL_PROP31,
        detail=f"all {len(probes)} probes satisfied (i) and (ii)",
    )


# ---------------------------------------------------------------------------
# Power norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerNorms:
    """log ||A^n f||_p for n = 0..; stops at the first uncertified power."""

    log_norms: tuple[float, ...]
    certificates: tuple[ConvergenceCertificate, ...]
    cutoff: Optional[int] = None
    cutoff_certificate: Optional[ConvergenceCertificate] = None

    @property
    def n_max(self) -> int:
        return len(self.log_norms) - 1


def power_norms(
    f: CoefficientVector, n_max: int, budget: SeriesBudget = DEFAULT_BUDGET
) -> PowerNorms:
    """Compute ||A^n f||_p for n = 0..n_max, one series engine call per power.

    The series of A^n f is certified by certify_log_series over the vector's
    index space, with the space's term_bounds(lam^n) as tail envelope
    (A^0 f = f needs no log|lam| envelope).  The powers stop at
    the first one the engine does not certify convergent.  Certificate
    values are in norm units, log ||A^n f||_p.  Each index block the engine
    asks for (a range, or the divergence witness) is read once for all powers:
    its coefficients and log|lam| are kept by first index, last index and length.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    space = f.series_space()
    p = f.p_norm
    store: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def block(ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = (int(ks[0]), int(ks[-1]), ks.size)
        if key not in store:
            store[key] = (space.coeff_log(ks)[0], _log_abs(space.lam(ks)))
        return store[key]

    certs = []
    for n in range(n_max + 1):
        bounds = space.term_bounds(PowerSymbol(n))
        if bounds is not None:
            bounds = bounds.scale(p)
        cert = certify_log_series(
            lambda ks, n=n: _power_term(*block(ks), p, n),
            count=space.count,
            bounds=bounds,
            budget=budget,
        )
        if cert.status is not SeriesStatus.CONVERGES:
            return PowerNorms(tuple(c.log_value for c in certs), tuple(certs), n, cert)
        certs.append(replace(cert, log_value=cert.log_value / p))
    return PowerNorms(tuple(c.log_value for c in certs), tuple(certs))


def _log_abs(lams: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(lams))


def _power_term(mags: np.ndarray, logabs: np.ndarray, p: float, n: int) -> np.ndarray:
    if n == 0:
        return p * mags
    out = p * np.where(mags == NEG_INF, NEG_INF, mags + n * logabs)
    return np.where(np.isnan(out), NEG_INF, out)
