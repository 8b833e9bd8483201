"""Operational calculus for diagonal operators: F(A) acts coordinatewise.

The symbol catalog covers powers lam^n, exponentials e^{z*lam} and the
regularity weights e^{s*|lam|^(1/beta)}, one symbol per application.
Domain membership f in D(F(A)) is decided directly (the image sequence must
stay in l^p).  The dual reading of the same membership, through the pairing
measures of f with dual vectors, is refuted by the slowly decaying dual h*
and otherwise decided by the direct certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .asymptotics import AsymForm, TailBounds, affine_family
from .logdomain import log_product
from .series import (
    DEFAULT_BUDGET,
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
    certify_log_rows,
    certify_log_series,
)
from .spectral_core import (
    CoefficientVector,
    LamBounds,
    conjugate_exponent,
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

    def growth_bounds_on(self, lam: Optional[LamBounds]) -> Optional[TailBounds]:
        """Envelope of log|F(lam_k)| from the eigenvalue envelopes lam (None: unknown)."""
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

    def growth_bounds_on(self, lam):
        if self.n == 0:
            return TailBounds.exact(AsymForm.constant(0.0))
        return lam.log_abs().scale(float(self.n)) if lam is not None else None


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
        with np.errstate(over="ignore"):  # |e^{z lam}| past the float range: log +-inf
            return self.z.real * lams.real - self.z.imag * lams.imag

    def phase(self, lams):
        with np.errstate(over="ignore"):  # past the float range: +-inf, which wraps to NaN
            return self.z.real * lams.imag + self.z.imag * lams.real

    def growth_bounds_on(self, lam):
        out = None
        if self.z.real != 0.0:
            rb = lam.re if lam is not None else None
            if rb is None:
                return None
            out = rb.scale(self.z.real)
        if self.z.imag != 0.0:
            ib = lam.im if lam is not None else None
            if ib is None:
                return None
            piece = ib.scale(-self.z.imag)
            out = piece if out is None else out + piece
        if out is None:
            out = TailBounds.exact(AsymForm.constant(0.0))
        return out


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
        with np.errstate(over="ignore"):  # past the float range: log +inf
            return self.s * np.abs(lams) ** (1.0 / self.beta)

    def phase(self, lams):
        return np.zeros(len(lams))

    def growth_bounds_on(self, lam):
        return lam.abs_pow(1.0 / self.beta).scale(self.s) if lam is not None else None


# ---------------------------------------------------------------------------
# Domain membership
# ---------------------------------------------------------------------------


def domain_member_direct(
    F: SymbolFunction,
    f: CoefficientVector,
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> ConvergenceCertificate:
    """Direct criterion: {F(lam_k) f_k} must lie in l^p.

    The certificate is the engine's for the series sum_k |F(lam_k) f_k|^p:
    f is in D(F(A)) exactly when it converges, and its log_value is then
    p log ||F(A)f||_p.  With `budget=None` membership is only decided (see
    certify_log_series) and no value is resolved.

    The tail envelope is the series space's term_bounds(F), the envelope
    of log|f_k| + log|F(lam_k)|, taken to the power p.
    """
    space = f.space
    p = f.p_norm

    def term(ks):
        mags, _ = space.coeff_log(ks)
        return p * log_product(mags, F.log_abs(space.lam(ks)))

    bounds = space.term_bounds(F)
    if bounds is not None:
        bounds = bounds.scale(p)
    return certify_log_series(term, count=space.count, bounds=bounds, budget=budget)


def domain_member_prop31(F: SymbolFunction, f: CoefficientVector) -> ConvergenceCertificate:
    """Dual criterion: (i) int |F| dv(f, g, .) < inf for every dual g, and
    (ii) the cut-off sup_{||g||_q <= 1} int_{|F| > n} |F| dv(f, g, .) -> 0.

    The slowly decaying dual h* with coordinates k^-2 refutes (i) where its
    pairing diverges, and that divergence is the certificate.  Otherwise the
    certificate is the direct criterion's, decided with budget=None: the
    supremum in (ii) is ||F(A) P_{|F|>n} f||_p, which tends to 0 exactly
    when the direct l^p series converges, and that convergence gives (i)
    for every g by Hoelder.  Hoelder also makes the direct series diverge
    wherever the h* pairing does, so every status is the direct one.
    """
    q = conjugate_exponent(f.p_norm)
    h_star = CoefficientVector.polynomial_decay(f.spectrum, 2.0, p=q, label="h*")
    cert = total_variation(f, h_star, weight=F, budget=None)
    if cert.status is SeriesStatus.DIVERGES:
        return cert
    return domain_member_direct(F, f, budget=None)


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


def power_norms(
    f: CoefficientVector, n_max: int, budget: SeriesBudget = DEFAULT_BUDGET
) -> PowerNorms:
    """Compute ||A^n f||_p for n = 0..n_max in one series engine pass.

    Each power is a row of certify_log_rows over the vector's index space:
    the series of A^n f, with the space's term_bounds(lam^n) as tail
    envelope (A^0 f = f needs no log|lam| envelope).  The envelopes of all
    rows come at once from the space's coeff_bounds and lam_bounds.log_abs()
    (power_bounds); a finite index space reads none.  Each index block is
    read once for all powers, and the engine sums it for every power still
    summing.  The powers stop at the first one the engine does not certify
    convergent.  Certificate values are in norm units, log ||A^n f||_p.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    space = f.space
    p = f.p_norm
    block: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}

    def terms(ks: np.ndarray, ns: list[int]) -> np.ndarray:
        key = (int(ks[0]), int(ks[-1]), ks.size)
        if key not in block:  # the block just read, kept for the next group of rows
            block.clear()
            block[key] = (space.coeff_log(ks)[0], _log_abs(space.lam(ks)))
        return _power_terms(*block[key], p, np.array(ns))

    bounds = () if space.count is not None else power_bounds(space, n_max, p)
    certs = certify_log_rows(terms, n_max + 1, count=space.count, bounds=bounds, budget=budget)
    done = [replace(c, log_value=c.log_value / p) for c in certs if c.converged]
    if len(done) == len(certs):
        return PowerNorms(tuple(c.log_value for c in done), tuple(done))
    return PowerNorms(tuple(c.log_value for c in done), tuple(done), len(done), certs[-1])


def power_bounds(space, n_max: int, p: float) -> Iterator[Optional[TailBounds]]:
    """space.term_bounds(PowerSymbol(n)).scale(p) for n = 0..n_max, in order
    and only as far as they are read.

    The space's coeff_bounds and lam_bounds.log_abs() are read once.  Each
    side of row n is (coeff_bounds + n log_abs) p, worked out by
    affine_family bit for bit as PowerSymbol(n).growth_bounds_on and the
    TailBounds arithmetic of term_bounds give it (A^0: the constant 0,
    valid from k = 1).  No space overrides term_bounds for a power of A.
    """
    cb = space.coeff_bounds
    if cb is None:
        yield from (None for _ in range(n_max + 1))
        return
    la = space.lam_bounds.log_abs() if n_max and space.lam_bounds is not None else None
    exact = cb._is_exact() and (la is None or la._is_exact())

    def side(name: str) -> Callable[[float], Optional[AsymForm]]:
        base, slope = getattr(cb, name), getattr(la, name, None)
        if base is None:
            return lambda n: None
        row = affine_family(base, slope if slope is not None else _ZERO, p)
        return row if slope is not None else lambda n: None if n else row(n)

    upper = side("upper")
    lower = upper if exact else side("lower")
    for n in range(n_max + 1):
        if n and la is None:
            yield None
            continue
        k_min = max(cb.k_min, la.k_min) if n else cb.k_min
        up = upper(float(n))
        yield TailBounds.exact(up, k_min) if exact else TailBounds(lower(float(n)), up, k_min)


_ZERO = AsymForm.constant(0.0)


def _log_abs(lams: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.abs(lams))


def _power_terms(mags: np.ndarray, logabs: np.ndarray, p: float, ns: np.ndarray) -> np.ndarray:
    """p log|lam_k^n f_k| for each n of ns (one row each) at each index of
    the block; row n = 0 is p log|f_k|, with no 0 * log|lam_k| in it.  A
    NaN eigenvalue stays a NaN term, which the row's logsumexp refuses."""
    out = np.empty((ns.size, mags.size))
    zero = ns == 0
    out[zero] = p * mags
    if not zero.all():
        out[~zero] = p * log_product(mags, ns[~zero, None] * logabs)
    return out
