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


@dataclass(order=True, unsafe_hash=True, slots=True)
class AsymTerm:
    """c k^power (log k)^log_power, with c = coeff + residual.

    A merged or scaled coefficient keeps the rounding error of its float in
    residual, so where c_d + s c_g cancels to within a rounding, coeff still
    has the sign of the real sum; that sign decides between the symbolic
    convergence and divergence routes.

    A term is a value: nothing assigns to its fields once it is made.  The
    class is not frozen only because a frozen dataclass's __init__ costs
    about twice as much, and the form arithmetic makes a term for every
    coefficient it touches.  Equality, order and hash ignore residual.
    """

    power: float
    log_power: int
    coeff: float
    residual: float = field(default=0.0, compare=False)

    def scale(self) -> tuple:
        return (self.power, self.log_power)


_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float into two halves


def _term(power: float, log_power: int, parts, factor: float = 1.0) -> AsymTerm:
    """The term with coefficient factor * sum(parts), rounded once.

    The sum runs in double-double arithmetic: each product factor * x and
    each partial sum carries its exact rounding error into lo, by Dekker's
    product (barring underflow) and Knuth's two-sum, written out in the
    loop.  Where that overflows, _exact_term redoes the sum.
    """
    hi = lo = 0.0
    for x in parts:
        if x == 0.0:
            continue
        if factor != 1.0:
            p = factor * x
            t = _SPLIT * factor
            ah = t - (t - factor)
            t = _SPLIT * x
            bh = t - (t - x)
            al, bl = factor - ah, x - bh
            lo += ((ah * bh - p) + ah * bl + al * bh) + al * bl
            x = p
        s = hi + x
        bb = s - hi
        lo += (hi - (s - bb)) + (x - bb)
        hi = s
    coeff = hi + lo
    residual = lo - (coeff - hi)
    if not (math.isfinite(coeff) and math.isfinite(residual)):
        return _exact_term(power, log_power, parts, factor)
    return AsymTerm(power, log_power, coeff, residual)


def _exact_term(power: float, log_power: int, parts, factor: float) -> AsymTerm:
    """_term where its double-double sum overflows: Dekker's split of a float
    above about 1.3e300, or a partial sum past the float range.

    The sum is taken in exact rationals, and coeff and residual are its
    rounding and the rounding of the rest.  Float arithmetic remains for
    non-finite inputs and for a coefficient that leaves the float range.
    """
    if all(map(math.isfinite, (factor, *parts))):
        from fractions import Fraction  # rarely needed, and it imports decimal

        exact = Fraction(factor) * sum(map(Fraction, parts))
        try:
            coeff = float(exact)
        except OverflowError:
            pass
        else:
            return AsymTerm(power, log_power, coeff, float(exact - Fraction(coeff)))
    return AsymTerm(power, log_power, factor * sum(parts))


@dataclass(frozen=True)
class AsymForm:
    """Finite sum  const + sum_i c_i * k^{q_i} * (log k)^{m_i}  as a function of k >= 1.

    Every form is in normal form: its terms are sorted by (power, log_power)
    descending, one per scale, with no zero coefficient and no term of
    scale (0, 0), which belongs in the float const.  `build` makes a form of
    any terms; a form made directly, AsymForm(terms, const), must already be
    in normal form.  `+`, `scale` and the other constructors keep it without
    sorting again, and give every coefficient, residual and constant bit for
    bit as build does from their terms.
    """

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
        return cls(tuple(kept), float(c))

    @classmethod
    def constant(cls, c: float) -> "AsymForm":
        return cls((), float(c))

    @classmethod
    def power(cls, q: float, coeff: float, const: float = 0.0) -> "AsymForm":
        if coeff == 0.0:
            return cls((), float(const))
        if q == 0.0:
            return cls((), float(const) + float(coeff))
        return cls((AsymTerm(q, 0, coeff),), float(const))

    @classmethod
    def log_k(cls, coeff: float, const: float = 0.0) -> "AsymForm":
        return cls((AsymTerm(0.0, 1, coeff),) if coeff != 0.0 else (), float(const))

    @classmethod
    def power_log(cls, q: float, coeff: float) -> "AsymForm":
        return cls((AsymTerm(q, 1, coeff),) if coeff != 0.0 else (), 0.0)

    def __add__(self, other: "AsymForm") -> "AsymForm":
        """The two sorted term tuples merge; the terms of a shared scale go
        through build's _term call, this form's first."""
        a, b = self.terms, other.terms
        const = float(self.const + other.const)
        if not (a and b):
            return AsymForm(a or b, const)
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            s, t = a[i], b[j]
            if s.power == t.power and s.log_power == t.log_power:
                m = _term(s.power, s.log_power, (s.coeff, s.residual, t.coeff, t.residual))
                if m.coeff != 0.0:
                    out.append(m)
                i += 1
                j += 1
            elif (s.power, s.log_power) > (t.power, t.log_power):
                out.append(s)
                i += 1
            else:
                out.append(t)
                j += 1
        return AsymForm((*out, *a[i:], *b[j:]), const)

    def scale(self, c: float) -> "AsymForm":
        """Every coefficient times c through _term; a term that becomes 0 is
        dropped."""
        if c == 0.0:
            return AsymForm((), 0.0)
        terms = []
        for t in self.terms:
            u = _term(t.power, t.log_power, (t.coeff, t.residual), c)
            if u.coeff != 0.0:
                terms.append(u)
        return AsymForm(tuple(terms), float(c * self.const))

    def evaluate(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        out = np.full_like(ks, self.const)
        if self.terms:
            lk = np.log(ks)
            with np.errstate(over="ignore"):  # c k^r past the float range: +-inf
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


def affine_family(base: AsymForm, slope: AsymForm, p: float) -> Callable[[float], AsymForm]:
    """n -> (base + slope.scale(n)).scale(p), for forms in normal form and
    p > 0.

    Each row gets exactly the terms and floats of those AsymForm operations:
    the same `_term` calls, zero terms dropped alike.  Their coefficients
    are affine in n, so a term of base that slope.scale(n) does not share is
    scaled by p once, for every n.
    """
    own = {t.scale(): t for t in base.terms}
    scaled_own = {s: _term(*s, (t.coeff, t.residual), p) for s, t in own.items()}
    scales = sorted(own.keys() | {t.scale() for t in slope.terms}, reverse=True)

    def row(n: float) -> AsymForm:
        steep = {}  # the nonzero terms of slope.scale(n)
        if n != 0.0:
            for t in slope.terms:
                u = _term(t.power, t.log_power, (t.coeff, t.residual), n)
                if u.coeff != 0.0:
                    steep[u.scale()] = u
        terms = []
        for s in scales:
            d = steep.get(s)
            if d is None:
                t = scaled_own.get(s)
            else:
                b = own.get(s)
                m = d if b is None else _term(*s, (b.coeff, b.residual, d.coeff, d.residual))
                t = _term(*s, (m.coeff, m.residual), p) if m.coeff != 0.0 else None
            if t is not None and t.coeff != 0.0:
                terms.append(t)
        const = base.const + (n * slope.const if n != 0.0 else 0.0)
        return AsymForm(tuple(terms), p * const)

    return row


class FormRows:
    """AsymForms stacked as the rows of one coefficient matrix, so a whole
    family is evaluated in one array call.

    Row r of evaluate(ks) is forms[r].evaluate(ks), element for element:
    coeffs[r, j] is the coefficient of scales[j] = (q_j, m_j) in forms[r],
    0 where the form has no such term (build keeps no zero coefficient),
    and a missing term adds nothing.  A single form is evaluated as itself.
    """

    __slots__ = ("forms", "scales", "coeffs", "consts", "full")

    def __init__(self, forms):
        self.forms = tuple(forms)
        if len(self.forms) < 2:
            return
        scales = sorted({t.scale() for f in self.forms for t in f.terms}, reverse=True)
        col = {s: j for j, s in enumerate(scales)}
        rows, seen = [], [0] * len(scales)
        for f in self.forms:
            row = [0.0] * len(scales)
            for t in f.terms:
                j = col[t.scale()]
                row[j] = t.coeff
                seen[j] += 1
            rows.append(row)
        self.scales = tuple(scales)
        self.coeffs = np.array(rows, dtype=float).reshape(len(rows), len(scales))
        self.consts = np.array([f.const for f in self.forms], dtype=float)
        self.full = [c == len(rows) for c in seen]  # no row misses scales[j]

    def __len__(self) -> int:
        return len(self.forms)

    def take(self, rows: list[int]) -> "FormRows":
        """The rows listed, in increasing order."""
        return self if len(rows) == len(self.forms) else FormRows(self.forms[r] for r in rows)

    def evaluate(self, ks) -> np.ndarray:
        """Every row at every point of ks, shape (rows, points)."""
        if len(self.forms) == 1:
            return self.forms[0].evaluate(ks)[None]
        ks = np.asarray(ks, dtype=float)
        if not self.forms:
            return np.empty((0, ks.size))
        out = np.repeat(self.consts[:, None], ks.size, axis=1)
        if self.scales:
            lk = np.log(ks)
        for j, (q, m) in enumerate(self.scales):
            c = self.coeffs[:, j, None]
            piece = c * ks**q
            if m:
                piece *= lk**m
            np.add(out, piece, out=out, where=True if self.full[j] else c != 0.0)
        return out


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


def _batched(rows: FormRows, ks: np.ndarray) -> list:
    """Every row at every point of ks in one call, as lists, numpy's
    overflow and invalid warnings held back: a scalar loop reads only a
    prefix of the points, and the points past it must not warn.  numpy
    evaluates each element the same way at any array length, so every value
    equals the scalar one."""
    with np.errstate(over="ignore", invalid="ignore"):
        return rows.evaluate(ks).tolist()


def _warn_as_read(form: AsymForm, ks: np.ndarray, vals: list, read) -> None:
    """Evaluate form again, warnings on, at the points ks[i], i in read, that
    a scalar loop read and whose batched value vals[i] is not finite.
    Overflow and invalid operations leave a non-finite value, so numpy
    reports exactly what that loop did."""
    bad = [i for i in read if not math.isfinite(vals[i])]
    if bad:
        form.evaluate(ks[bad])


def mono_decreasing_start(form: "AsymForm | FormRows"):
    """Smallest power-of-two index beyond which `form` is decreasing.

    The first checkpoint k = 4 * 2^i <= 2^40 where the symbolic
    derivative is negative at k, 2k, 4k and 8k and form(2k) <= form(k).
    Both forms are evaluated once, over every checkpoint.  Only meaningful
    for forms classified SUPER_DECAY or decaying POLY.  Given a FormRows,
    the start of every row, as a list: the rows are evaluated in one call,
    and so are their derivatives.
    """
    if isinstance(form, AsymForm):
        return _mono_starts(FormRows([form]))[0]
    return _mono_starts(form)


def _mono_starts(rows: FormRows) -> list[Optional[int]]:
    out: list[Optional[int]] = [None] * len(rows)
    derivs = [form.derivative() for form in rows.forms]
    live = [r for r, d in enumerate(derivs) if not _rises(d)]
    k = 4
    n = ((1 << 40) // k).bit_length()  # checkpoints k 2^i <= 2^40, i < n
    if not live:
        return out
    ks = k * 2.0 ** np.arange(n + 3)
    dvals = _batched(FormRows(derivs[r] for r in live), ks)
    fvals = _batched(rows.take(live), ks[: n + 1])
    for r, dv, fv in zip(live, dvals, fvals):
        found, read = None, []  # read: form points of the checkpoints tested
        for i in range(n):
            if dv[i] < 0 and dv[i + 1] < 0 and dv[i + 2] < 0 and dv[i + 3] < 0:
                read += (i, i + 1)
                if fv[i + 1] <= fv[i]:
                    found = i
                    break
        last = n - 1 if found is None else found
        _warn_as_read(derivs[r], ks, dv, range(last + 4))
        _warn_as_read(rows.forms[r], ks, fv, read)
        out[r] = None if found is None else k << found
    return out


def _rises(deriv: AsymForm) -> bool:
    lead = _effective_leading(deriv)
    return lead is not None and lead.coeff > 0


def tail_bounders(forms: list) -> Callable[[int, list], list]:
    """(K, rows) -> for each r in rows, a certified upper bound on
    log( sum_{k > K} e^{forms[r](k)} ), or None.

    A bound is valid whenever the form upper-bounds the log-terms for all
    k > K.  It is an integral bound for polynomial tails and left-endpoint
    block majorization for super-polynomially decaying tails.

    Each form is classified once.  The monotone starts of all forms that
    decay faster than every power come from one mono_decreasing_start call,
    and the checkpoints of all rows bounded at one K from one evaluation.
    """
    closed: list = []  # per form: K -> bound, or None for the block bound
    for form in forms:
        kind, payload = classify_form(form)
        if kind is GrowthKind.CONST and payload == NEG_INF:
            closed.append(lambda K: NEG_INF)
        elif kind is GrowthKind.POLY and payload < -1.0:
            closed.append(_poly_bound(form, payload))
        elif kind is GrowthKind.SUPER_DECAY:
            closed.append(None)
        else:
            closed.append(lambda K: None)
    decay = [r for r, c in enumerate(closed) if c is None]
    rows = FormRows(forms[r] for r in decay)
    starts = dict(zip(decay, mono_decreasing_start(rows))) if decay else {}
    kept = [i for i, r in enumerate(decay) if starts[r] is not None]
    rows = rows.take(kept)
    pos = {decay[i]: j for j, i in enumerate(kept)}  # form -> its row in rows

    def bound(K: int, which: list) -> list:
        out = [None if closed[r] is None else closed[r](K) for r in which]
        due = [i for i, r in enumerate(which) if r in pos and K >= starts[r]]
        if due:
            for i, tb in zip(due, _block_bounds(rows.take([pos[which[i]] for i in due]), K)):
                out[i] = tb
        return out

    return bound


def _poly_bound(form: AsymForm, payload: float) -> Callable[[int], Optional[float]]:
    # the integral bound is exact only for a pure d*log(k) + const form
    if any(t.power != 0.0 or t.log_power != 1 for t in form.terms):
        return lambda K: None
    # sum_{k>K} k^d e^c <= e^c * K^{d+1} / (-d-1) for decreasing k^d
    return lambda K: form.const + (payload + 1.0) * math.log(K) - math.log(-payload - 1.0)


def _block_bounds(rows: FormRows, K: int) -> list[Optional[float]]:
    """Blocks (left, 2 left] for left = K 2^j, j < 240, each bounded by
    left e^{form(left + 1)}, summed for every row until a block adds less
    than e^-60 of the sum; the rows still summing are read for 8 doublings
    per call."""
    out: list[Optional[float]] = [None] * len(rows)
    acc = [NEG_INF] * len(rows)
    live = list(range(len(rows)))
    for j0 in range(0, 240, 8):
        lefts = [int(K) << j for j in range(j0, j0 + 8)]
        ks = np.array([left + 1 for left in lefts], dtype=float)
        going = []
        for r, v in zip(live, _batched(rows.take(live), ks)):
            a = acc[r]
            for i, left in enumerate(lefts):
                contrib = math.log(left) + v[i]
                a = logaddexp(a, contrib)
                if j0 + i >= 2 and contrib < a - 60.0:
                    _warn_as_read(rows.forms[r], ks, v, range(i + 1))
                    out[r] = a
                    break
            else:
                _warn_as_read(rows.forms[r], ks, v, range(8))
                acc[r] = a
                going.append(r)
        live = going
        if not live:
            break
    return out


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

    def _is_exact(self) -> bool:
        return self.lower is self.upper and self.lower is not None

    def __add__(self, other: "TailBounds") -> "TailBounds":
        """Side by side; exact operands give one form for both sides."""
        k_min = max(self.k_min, other.k_min)
        if self._is_exact() and other._is_exact():
            return TailBounds.exact(self.lower + other.lower, k_min)
        lo = self.lower + other.lower if (self.lower is not None and other.lower is not None) else None
        up = self.upper + other.upper if (self.upper is not None and other.upper is not None) else None
        return TailBounds(lo, up, k_min)

    def scale(self, c: float) -> "TailBounds":
        """Scale by a scalar; a negative factor swaps the two sides, and an
        exact envelope stays one form."""
        if self._is_exact():
            return TailBounds.exact(self.lower.scale(c), self.k_min)
        lo = self.lower.scale(c) if self.lower is not None else None
        up = self.upper.scale(c) if self.upper is not None else None
        if c < 0:
            lo, up = up, lo
        return TailBounds(lo, up, self.k_min)
