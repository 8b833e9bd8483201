"""Closed-form envelopes for the log-magnitude of series terms.

Every tail decision in the package reduces to the question: given the
log-magnitude of the k-th term as a combination of k^q * (log k)^m pieces,
does the series sum converge, and with what certified truncation error?
`AsymForm` is that combination; `TailBounds` sandwiches an actual term
sequence between two forms beyond an explicit index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .logdomain import NEG_INF, logaddexp


@dataclass(frozen=True, order=True)
class AsymTerm:
    """c k^power (log k)^log_power, with c = coeff + residual.

    A merged or scaled coefficient keeps the rounding error of its float in
    residual, so where c_d + s c_g cancels to within a rounding, coeff still
    has the sign of the real sum; that sign decides between the symbolic
    convergence and divergence routes.
    """

    power: float
    log_power: int
    coeff: float
    residual: float = field(default=0.0, compare=False)

    def scale(self) -> tuple:
        return (self.power, self.log_power)


_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float into two halves


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """a + b as its float and the exact rounding error (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """a * b as its float and the exact rounding error (Dekker), barring
    overflow and underflow."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _term(power: float, log_power: int, parts, factor: float = 1.0) -> AsymTerm:
    """The term with coefficient factor * sum(parts), rounded once.

    The sum runs in double-double arithmetic.  Non-finite inputs, and
    values near the ends of the float range, fall back to float arithmetic.
    """
    hi = lo = 0.0
    for x in parts:
        if x == 0.0:
            continue
        if factor != 1.0:
            x, e = _two_prod(factor, x)
            lo += e
        hi, e = _two_sum(hi, x)
        lo += e
    coeff = hi + lo
    residual = lo - (coeff - hi)
    if not (math.isfinite(coeff) and math.isfinite(residual)):
        return AsymTerm(power, log_power, factor * sum(parts))
    return AsymTerm(power, log_power, coeff, residual)


@dataclass(frozen=True)
class AsymForm:
    """Finite sum  const + sum_i c_i * k^{q_i} * (log k)^{m_i}  as a function of k >= 1."""

    terms: tuple[AsymTerm, ...] = ()
    const: float = 0.0

    @classmethod
    def build(cls, terms, const: float = 0.0) -> "AsymForm":
        """Terms of one scale merge into one; _term sums their coefficients
        with their residuals and rounds once."""
        merged: dict[tuple, list[AsymTerm]] = {}
        c = float(const)
        for t in terms:
            if t.coeff == 0.0:
                continue
            if t.power == 0.0 and t.log_power == 0:
                c += t.coeff
                continue
            merged.setdefault((t.power, t.log_power), []).append(t)
        kept = []
        for (q, m), ts in sorted(merged.items(), reverse=True):
            t = ts[0] if len(ts) == 1 else _term(q, m, [x for u in ts for x in (u.coeff, u.residual)])
            if t.coeff != 0.0:
                kept.append(t)
        return cls(tuple(kept), c)

    @classmethod
    def constant(cls, c: float) -> "AsymForm":
        return cls.build((), c)

    @classmethod
    def power(cls, q: float, coeff: float, const: float = 0.0) -> "AsymForm":
        return cls.build((AsymTerm(q, 0, coeff),), const)

    @classmethod
    def log_k(cls, coeff: float, const: float = 0.0) -> "AsymForm":
        return cls.build((AsymTerm(0.0, 1, coeff),), const)

    @classmethod
    def power_log(cls, q: float, coeff: float) -> "AsymForm":
        return cls.build((AsymTerm(q, 1, coeff),))

    def __add__(self, other: "AsymForm") -> "AsymForm":
        return AsymForm.build(self.terms + other.terms, self.const + other.const)

    def scale(self, c: float) -> "AsymForm":
        if c == 0.0:
            return AsymForm.constant(0.0)
        return AsymForm.build(
            tuple(_term(t.power, t.log_power, (t.coeff, t.residual), c) for t in self.terms),
            c * self.const,
        )

    def shift(self, c: float) -> "AsymForm":
        return AsymForm(self.terms, self.const + c)

    def evaluate(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        out = np.full_like(ks, self.const)
        if self.terms:
            lk = np.log(ks)
            for t in self.terms:
                piece = t.coeff * ks**t.power
                if t.log_power:
                    piece = piece * lk**t.log_power
                out = out + piece
        return out

    def at(self, k: float) -> float:
        return float(self.evaluate(np.array([k], dtype=float))[0])

    def leading(self) -> Optional[AsymTerm]:
        return self.terms[0] if self.terms else None

    def derivative(self) -> "AsymForm":
        # d/dk of c k^q (log k)^m = c q k^{q-1}(log k)^m + c m k^{q-1}(log k)^{m-1}
        out = []
        for t in self.terms:
            if t.power != 0.0:
                out.append(AsymTerm(t.power - 1.0, t.log_power, t.coeff * t.power))
            if t.log_power:
                out.append(AsymTerm(t.power - 1.0, t.log_power - 1, t.coeff * t.log_power))
        return AsymForm.build(tuple(out))

    def describe(self) -> str:
        bits = []
        for t in self.terms:
            piece = f"{t.coeff:g}*k^{t.power:g}"
            if t.log_power:
                piece += "*log(k)" if t.log_power == 1 else f"*log(k)^{t.log_power}"
            bits.append(piece)
        if self.const or not bits:
            bits.append(f"{self.const:g}")
        return " + ".join(bits)


class GrowthKind(Enum):
    GROWS = "grows"
    SUPER_DECAY = "super-decay"
    POLY = "poly"
    CONST = "const"


def classify_form(form: AsymForm) -> tuple[GrowthKind, float]:
    """Eventual behavior of e^{form(k)} as a term sequence.

    GROWS/SUPER_DECAY: leading k^q (log k)^m piece, q > 0 or q = 0 and
    m >= 2, with positive/negative coefficient: the terms outgrow or decay
    faster than every power of k.  POLY: leading c log k, terms behave like
    k^c (payload c).  CONST: every piece has q < 0 or is the constant, so
    the terms approach e^{payload}.
    """
    lead = form.leading()
    if lead is not None and (lead.power > 0.0 or (lead.power == 0.0 and lead.log_power >= 2)):
        return (GrowthKind.GROWS, lead.coeff) if lead.coeff > 0 else (
            GrowthKind.SUPER_DECAY,
            lead.coeff,
        )
    if lead is not None and lead.power == 0.0 and lead.log_power == 1:
        return GrowthKind.POLY, lead.coeff
    return GrowthKind.CONST, form.const


def form_converges(form: AsymForm) -> bool:
    """True when sum_k e^{form(k)} is finite by exponent comparison."""
    kind, payload = classify_form(form)
    if kind is GrowthKind.SUPER_DECAY:
        return True
    if kind is GrowthKind.POLY:
        return payload < -1.0
    if kind is GrowthKind.CONST:
        return payload == NEG_INF
    return False


def form_diverges(form: AsymForm) -> bool:
    """True when sum_k e^{form(k)} is infinite whenever terms >= e^{form(k)}."""
    kind, payload = classify_form(form)
    if kind is GrowthKind.GROWS:
        return True
    if kind is GrowthKind.POLY:
        return payload >= -1.0
    if kind is GrowthKind.CONST:
        return payload > NEG_INF
    return False


def _effective_leading(form: AsymForm) -> Optional[AsymTerm]:
    """Leading term with the constant ranked as the k^0 (log k)^0 term."""
    items = list(form.terms)
    if form.const != 0.0:
        items.append(AsymTerm(0.0, 0, form.const))
    if not items:
        return None
    return max(items, key=lambda t: (t.power, t.log_power))


def mono_decreasing_start(form: AsymForm, start: int = 4) -> Optional[int]:
    """Smallest power-of-two index beyond which `form` is decreasing.

    Checks the sign of the symbolic derivative at four doubling checkpoints;
    only meaningful for forms classified SUPER_DECAY or decaying POLY.
    """
    deriv = form.derivative()
    lead = _effective_leading(deriv)
    if lead is not None and lead.coeff > 0:
        return None
    k = max(4, start)
    while k <= 1 << 40:
        pts = np.array([k, 2 * k, 4 * k, 8 * k], dtype=float)
        if np.all(deriv.evaluate(pts) < 0) and form.at(2 * k) <= form.at(k):
            return k
        k *= 2
    return None


def log_tail_bound(form: AsymForm, K: int) -> Optional[float]:
    """Certified upper bound on log( sum_{k > K} e^{form(k)} ), or None.

    Valid whenever form(k) upper-bounds the log-terms for all k > K.  Uses an
    integral bound for polynomial tails and left-endpoint block majorization
    for super-polynomially decaying tails.
    """
    return tail_bounder(form)(K)


def tail_bounder(form: AsymForm) -> Callable[[int], Optional[float]]:
    """K -> log_tail_bound(form, K), with `form` classified and its monotone
    start found once for every K."""
    kind, payload = classify_form(form)
    if kind is GrowthKind.CONST and payload == NEG_INF:
        return lambda K: NEG_INF
    if kind is GrowthKind.POLY and payload < -1.0:
        # the integral bound is exact only for a pure d*log(k) + const form
        if any(t.power != 0.0 or t.log_power != 1 for t in form.terms):
            return lambda K: None
        # sum_{k>K} k^d e^c <= e^c * K^{d+1} / (-d-1) for decreasing k^d
        return lambda K: form.const + (payload + 1.0) * math.log(K) - math.log(-payload - 1.0)
    start = mono_decreasing_start(form) if kind is GrowthKind.SUPER_DECAY else None

    def bound(K: int) -> Optional[float]:
        if start is None or K < start:
            return None
        acc = NEG_INF
        left = int(K)
        for j in range(240):
            contrib = math.log(left) + form.at(left + 1)
            acc = logaddexp(acc, contrib)
            if j >= 2 and contrib < acc - 60.0:
                return acc
            left *= 2
        return None

    return bound


@dataclass(frozen=True)
class TailBounds:
    """Sandwich lower(k) <= log-term(k) <= upper(k) valid for k >= k_min.

    Either side may be None when unknown; decisions then use the available
    side only (upper certifies convergence, lower certifies divergence).
    """

    lower: Optional[AsymForm]
    upper: Optional[AsymForm]
    k_min: int = 1

    @classmethod
    def exact(cls, form: AsymForm, k_min: int = 1) -> "TailBounds":
        return cls(form, form, k_min)

    def __add__(self, other: "TailBounds") -> "TailBounds":
        lo = self.lower + other.lower if (self.lower is not None and other.lower is not None) else None
        up = self.upper + other.upper if (self.upper is not None and other.upper is not None) else None
        return TailBounds(lo, up, max(self.k_min, other.k_min))

    def scale(self, c: float) -> "TailBounds":
        """Scale by a scalar; a negative factor swaps the two sides."""
        lo = self.lower.scale(c) if self.lower is not None else None
        up = self.upper.scale(c) if self.upper is not None else None
        if c < 0:
            lo, up = up, lo
        return TailBounds(lo, up, self.k_min)


ZERO_BOUNDS = TailBounds.exact(AsymForm.constant(0.0))
