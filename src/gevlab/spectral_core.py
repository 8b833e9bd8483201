"""Discrete model of a scalar-type spectral operator on a sequence space.

A spectrum family lists (or generates) the eigenvalues lam_k; vectors are
given by their coordinates in the eigenbasis, stored in log-polar form; the
spectral measure acts by coordinate masking, so every projection has norm
at most one and the model's spectral-measure bound is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .asymptotics import AsymForm, AsymTerm, TailBounds, form_converges
from .errors import SpectrumError, VectorError
from .logdomain import NEG_INF, LogPolar, wrap_phase
from .series import (
    DEFAULT_BUDGET,
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
    certify_log_series,
)

#: Bound on the operator norm of the spectral measure.  The coordinate model
#: forces the bound to be exactly one; it is housed here as a fixed property.
SPECTRAL_MEASURE_BOUND = 1.0

_MIXED_K0 = 1024


def conjugate_exponent(p: float) -> float:
    if p <= 1.0:
        raise VectorError("dual pairing requires p > 1 so that q = p/(p-1) is finite")
    return p / (p - 1.0)


def _require_finite_complex(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SpectrumError(f"{what} must have finite real and imaginary parts, got {z!r}")
    return z


# ---------------------------------------------------------------------------
# Spectrum families
# ---------------------------------------------------------------------------


def _side(form: Optional[AsymForm], what: str) -> tuple[float, float]:
    """(p, c) of an envelope side c k^p, where p = 0 stands for the constant c."""
    if not isinstance(form, AsymForm):
        raise SpectrumError(f"the {what} envelope is missing")
    if not form.terms and math.isfinite(form.const):
        return 0.0, form.const
    t = form.terms[0] if len(form.terms) == 1 else None
    if t is None or form.const != 0.0 or t.log_power != 0 or not (
        0.0 < t.power < math.inf and t.coeff != 0.0 and math.isfinite(t.coeff)
    ):
        raise SpectrumError(f"the {what} envelope must be one term c*k^p, got {form.describe()}")
    return t.power, t.coeff


def _component(bounds: Optional[TailBounds], name: str) -> tuple[float, float, float]:
    """The signed (p, lo, hi) of lo k^p <= component <= hi k^p."""
    if not isinstance(bounds, TailBounds):
        raise SpectrumError(f"the envelopes of {name} lam_k are missing")
    (p, lo), (p_hi, hi) = _side(bounds.lower, f"lower {name}"), _side(bounds.upper, f"upper {name}")
    if p != p_hi:
        raise SpectrumError(f"both {name} envelopes need one exponent, got {p:g} and {p_hi:g}")
    if lo > hi or lo < 0.0 < hi:
        raise SpectrumError(f"the {name} envelopes need lo <= hi of one sign, got [{lo:g}, {hi:g}]")
    return p, lo, hi


def _leading(parts) -> tuple[float, float, float]:
    """(exponent p, coefficient c, slack) of the modulus of components c_i k^{p_i}.

    sqrt(sum_i c_i^2 k^{2 p_i}) lies between c k^p and c slack k^p: one
    part, or two of one exponent (c their hypot), give slack 1 for every k.
    Two of exponents p > p_2 give |lam| in [c k^p, c k^p (1 + (c_2/c) k^{p_2-p})],
    so the slack holds from k = 1,024; it is kept above 1 even where the
    correction rounds away.
    """
    parts = [(p, c) for p, c in parts if c != 0.0]
    if len(parts) == 1:
        return parts[0][0], parts[0][1], 1.0
    (p1, a1), (p2, a2) = sorted(parts, reverse=True)
    if p1 == p2:
        return p1, math.hypot(a1, a2), 1.0
    return p1, a1, max(1.0 + a2 / a1 * _MIXED_K0 ** (-(p1 - p2)), math.nextafter(1.0, 2.0))


@dataclass(frozen=True)
class EnvelopeTerms:
    """Leading terms of a family's envelopes, valid for k >= k_min.

    re and im are the signed (p, lo, hi) with lo k^p <= Re lam_k <= hi k^p,
    and the same for Im lam_k.  lower and upper are the _leading of the
    smaller and of the larger of |lo|, |hi| of each component:
    |lam_k| >= c k^p with the lower terms, and |lam_k| <= c slack k^p with
    the upper ones, from k = 1,024 where the slack is not 1.
    """

    re: tuple[float, float, float]
    im: tuple[float, float, float]
    k_min: int
    lower: tuple[float, float, float]
    upper: tuple[float, float, float]

    @property
    def exact(self) -> bool:
        """Both components equal their leading term, so |lam_k| is nondecreasing."""
        return self.re[1] == self.re[2] and self.im[1] == self.im[2]


class SpectrumFamily:
    """Base class; subclasses provide eigenvalues and tail information.

    A family that declares the envelopes of Re lam_k and Im lam_k calls
    _read_envelopes once, at construction; the envelopes of |lam_k|^q and
    log|lam_k| of every such family are derived from those two, here.
    """

    size: Optional[int] = None
    label: str = ""
    envelope_terms: Optional[EnvelopeTerms] = None

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eigenvalue(self, k: int) -> complex:
        return complex(self.eigenvalues(np.asarray([k], dtype=np.int64))[0])

    # Tail descriptions (None when unavailable); all valid for k >= k_min of
    # the returned bounds.
    def re_bounds(self) -> Optional[TailBounds]:
        return None

    def im_bounds(self) -> Optional[TailBounds]:
        return None

    def _read_envelopes(self) -> None:
        re_b, im_b = self.re_bounds(), self.im_bounds()
        re, im = _component(re_b, "Re"), _component(im_b, "Im")
        if not (re[0] > 0.0 or im[0] > 0.0):
            raise SpectrumError("the envelopes declare no growing part (some exponent p > 0)")
        lower, upper = (
            _leading((p, pick(abs(lo), abs(hi))) for p, lo, hi in (re, im)) for pick in (min, max)
        )
        terms = EnvelopeTerms(re, im, max(re_b.k_min, im_b.k_min), lower, upper)
        object.__setattr__(self, "envelope_terms", terms)

    def _abs_leading(self) -> tuple[float, float, float]:
        """(exponent, coefficient, slack) of the upper envelope of |lam_k|."""
        return self.envelope_terms.upper

    def abs_pow_bounds(self, q: float) -> Optional[TailBounds]:
        """Envelopes of |lam_k|^q, from those of Re and Im lam_k.

        The lower envelope is c k^{pq} from the lower modulus terms.  With
        components of different exponents and 0 < q <= 1, the upper envelope
        is sum_i c_i^q k^{p_i q} over the larger coefficients of Re and Im,
        valid from k_min (the triangle inequality, then subadditivity of
        x^q), so both envelopes share their leading term.  Otherwise it is
        the upper modulus term times its slack, valid from k = 1,024 when
        the slack is not 1.  The envelope is exact when both sides agree, as
        on every power law.
        """
        if q <= 0:
            raise ValueError("abs_pow_bounds expects q > 0")
        terms = self.envelope_terms
        if terms is None:
            return None
        (p, lo, _), (_, hi, slack) = terms.lower, terms.upper
        lower = AsymForm.power(p * q, lo**q)
        if slack == 1.0:
            upper = lower if hi == lo else AsymForm.power(p * q, hi**q)
            return TailBounds(lower, upper, terms.k_min)
        if q <= 1.0:
            parts = ((pc, max(abs(a), abs(b))) for pc, a, b in (terms.re, terms.im))
            upper = AsymForm.build(tuple(AsymTerm(pc * q, 0, c**q) for pc, c in parts))
            return TailBounds(lower, upper, terms.k_min)
        upper = AsymForm.power(p * q, (hi * slack) ** q)
        return TailBounds(lower, upper, max(terms.k_min, _MIXED_K0))

    def log_abs_bounds(self) -> Optional[TailBounds]:
        terms = self.envelope_terms
        if terms is None:
            return None
        (p, lo, _), (_, hi, slack) = terms.lower, terms.upper
        lower = AsymForm.log_k(p, const=math.log(lo))
        if slack == 1.0 and hi == lo:
            return TailBounds.exact(lower, terms.k_min)
        k_min = terms.k_min if slack == 1.0 else max(terms.k_min, _MIXED_K0)
        return TailBounds(lower, AsymForm.log_k(p, const=math.log(hi * slack)), k_min)

    @property
    def unbounded(self) -> Optional[bool]:
        return True if self.envelope_terms is not None else None

    def max_abs(self) -> Optional[float]:
        return None


@dataclass(frozen=True)
class ExplicitSpectrum(SpectrumFamily):
    points: tuple[complex, ...]
    label: str = "explicit"

    def __post_init__(self):
        if not self.points:
            raise SpectrumError("explicit spectrum needs at least one eigenvalue")
        pts = tuple(_require_finite_complex(z, "eigenvalue") for z in self.points)
        if len(set(pts)) != len(pts):
            raise SpectrumError("duplicate eigenvalues are rejected, not merged")
        object.__setattr__(self, "points", pts)
        # built once; not a field, so __eq__ and __hash__ still read points
        arr = np.asarray(pts, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)

    @property
    def size(self) -> int:  # type: ignore[override]
        return len(self.points)

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size and (ks.min() < 1 or ks.max() > len(self.points)):
            raise SpectrumError("index outside the explicit spectrum")
        return self._array[ks - 1]

    @property
    def unbounded(self) -> bool:
        return False

    def max_abs(self) -> float:
        return float(max(abs(z) for z in self.points))


@dataclass(frozen=True)
class PowerLawSpectrum(SpectrumFamily):
    """lam_k = a_re * k^p_re + i * a_im * k^p_im for k = 1, 2, ..."""

    a_re: float
    p_re: float
    a_im: float
    p_im: float
    label: str = ""

    def __post_init__(self):
        for name in ("a_re", "p_re", "a_im", "p_im"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise SpectrumError(f"{name} must be finite")
            object.__setattr__(self, name, v)
        if self.p_re < 0 or self.p_im < 0:
            raise SpectrumError("power-law exponents must be >= 0")
        if not ((self.a_re != 0 and self.p_re > 0) or (self.a_im != 0 and self.p_im > 0)):
            raise SpectrumError(
                "power-law family needs a strictly increasing part; "
                "a constant family would repeat one eigenvalue"
            )
        if not self.label:
            object.__setattr__(
                self,
                "label",
                f"power_law({self.a_re:g}*k^{self.p_re:g} + i*{self.a_im:g}*k^{self.p_im:g})",
            )
        self._read_envelopes()

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        kf = np.asarray(ks, dtype=float)
        return self.a_re * kf**self.p_re + 1j * self.a_im * kf**self.p_im

    def re_bounds(self) -> TailBounds:
        return TailBounds.exact(AsymForm.power(self.p_re, self.a_re))

    def im_bounds(self) -> TailBounds:
        return TailBounds.exact(AsymForm.power(self.p_im, self.a_im))


@dataclass(frozen=True)
class CustomSpectrum(SpectrumFamily):
    """Deterministic rule k -> lam_k with optionally declared envelopes.

    envelopes = (re, im) are the TailBounds of Re lam_k and Im lam_k.  Each
    side is one term c k^p (p = 0: the constant c), both sides of a
    component share one exponent and one sign, and some exponent is
    positive; anything else raises SpectrumError.  The caller owns the
    claim: nothing is sampled, and the envelopes of |lam_k| follow from the
    declared ones as on every family.  Without envelopes every
    asymptotic-analysis operation refuses the family.
    """

    fn: Callable[[int], complex]
    envelopes: Optional[tuple[TailBounds, TailBounds]] = None
    label: str = "custom"

    def __post_init__(self):
        if self.envelopes is not None:
            if not (isinstance(self.envelopes, tuple) and len(self.envelopes) == 2):
                raise SpectrumError("envelopes must be the pair (Re envelope, Im envelope)")
            self._read_envelopes()

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        return np.asarray([complex(self.fn(int(k))) for k in np.asarray(ks)], dtype=complex)

    def re_bounds(self) -> Optional[TailBounds]:
        return self.envelopes[0] if self.envelopes is not None else None

    def im_bounds(self) -> Optional[TailBounds]:
        return self.envelopes[1] if self.envelopes is not None else None


# ---------------------------------------------------------------------------
# Borel predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorelPredicate:
    """Pure, deterministic membership rule for a Borel subset of the plane."""

    fn: Callable[[complex], bool]
    description: str
    bulk: Optional[Callable[[np.ndarray], np.ndarray]] = None
    is_all: bool = False
    is_none: bool = False

    def __call__(self, lam: complex) -> bool:
        return bool(self.fn(lam))

    def mask(self, lams: np.ndarray) -> np.ndarray:
        if self.is_all:
            return np.ones(len(lams), dtype=bool)
        if self.is_none:
            return np.zeros(len(lams), dtype=bool)
        if self.bulk is not None:
            return np.asarray(self.bulk(lams), dtype=bool)
        return np.asarray([self.fn(complex(z)) for z in lams], dtype=bool)


def predicate_all() -> BorelPredicate:
    return BorelPredicate(lambda z: True, "C", is_all=True)


def predicate_none() -> BorelPredicate:
    return BorelPredicate(lambda z: False, "{}", is_none=True)


def halfplane_re_ge(c: float) -> BorelPredicate:
    return BorelPredicate(
        lambda z: z.real >= c, f"Re(lam) >= {c:g}", bulk=lambda zs: zs.real >= c
    )


def abs_gt(alpha: float) -> BorelPredicate:
    return BorelPredicate(
        lambda z: abs(z) > alpha, f"|lam| > {alpha:g}", bulk=lambda zs: np.abs(zs) > alpha
    )


def abs_le(alpha: float) -> BorelPredicate:
    return BorelPredicate(
        lambda z: abs(z) <= alpha, f"|lam| <= {alpha:g}", bulk=lambda zs: np.abs(zs) <= alpha
    )


def disk(center: complex, radius: float) -> BorelPredicate:
    c = complex(center)
    return BorelPredicate(
        lambda z: abs(z - c) < radius,
        f"|lam - {c}| < {radius:g}",
        bulk=lambda zs: np.abs(zs - c) < radius,
    )


def predicate_and(d1: BorelPredicate, d2: BorelPredicate) -> BorelPredicate:
    if d1.is_none or d2.is_none:
        return predicate_none()
    if d1.is_all:
        return d2
    if d2.is_all:
        return d1
    bulk = None
    if d1.bulk is not None and d2.bulk is not None:
        bulk = lambda zs: np.asarray(d1.bulk(zs), dtype=bool) & np.asarray(d2.bulk(zs), dtype=bool)
    return BorelPredicate(
        lambda z: d1.fn(z) and d2.fn(z),
        f"({d1.description}) and ({d2.description})",
        bulk=bulk,
    )


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


class _CoeffImpl:
    def log_coeffs(self, ks: np.ndarray, spectrum: SpectrumFamily):
        raise NotImplementedError

    def decay_bounds(self, spectrum: SpectrumFamily) -> Optional[TailBounds]:
        return None

    def support_size(self) -> Optional[int]:
        return None


@dataclass(frozen=True, eq=False)
class _ExplicitCoeffs(_CoeffImpl):
    """Coordinates 1..len(mags) as log-magnitude and phase arrays; zero beyond."""

    mags: np.ndarray
    phases: np.ndarray

    def log_coeffs(self, ks, spectrum):
        ks = np.asarray(ks, dtype=np.int64)
        mags = np.full(ks.shape, NEG_INF)
        phases = np.zeros(ks.shape)
        inside = (ks >= 1) & (ks <= len(self.mags))
        mags[inside] = self.mags[ks[inside] - 1]
        phases[inside] = self.phases[ks[inside] - 1]
        return mags, phases

    def support_size(self):
        return len(self.mags)


@dataclass(frozen=True)
class _PowerDecayCoeffs(_CoeffImpl):
    c: float
    r: float

    def log_coeffs(self, ks, spectrum):
        kf = np.asarray(ks, dtype=float)
        return -self.c * kf**self.r, np.zeros(kf.shape)

    def decay_bounds(self, spectrum):
        return TailBounds.exact(AsymForm.power(self.r, -self.c))


@dataclass(frozen=True)
class _PolyDecayCoeffs(_CoeffImpl):
    d: float

    def log_coeffs(self, ks, spectrum):
        kf = np.asarray(ks, dtype=float)
        return -self.d * np.log(kf), np.zeros(kf.shape)

    def decay_bounds(self, spectrum):
        return TailBounds.exact(AsymForm.log_k(-self.d))


@dataclass(frozen=True)
class _CustomCoeffs(_CoeffImpl):
    fn: Callable[[np.ndarray], tuple]
    bounds: Optional[TailBounds]
    support: Optional[int] = None

    def log_coeffs(self, ks, spectrum):
        mags, phases = self.fn(np.asarray(ks, dtype=np.int64))
        return np.asarray(mags, dtype=float), np.asarray(phases, dtype=float)

    def decay_bounds(self, spectrum):
        return self.bounds

    def support_size(self):
        return self.support


@dataclass(frozen=True)
class _MaskedCoeffs(_CoeffImpl):
    base: _CoeffImpl
    predicate: BorelPredicate

    def log_coeffs(self, ks, spectrum):
        mags, phases = self.base.log_coeffs(ks, spectrum)
        keep = self.predicate.mask(spectrum.eigenvalues(ks))
        mags = np.where(keep, mags, NEG_INF)
        phases = np.where(keep, phases, 0.0)
        return mags, phases

    def decay_bounds(self, spectrum):
        # Masking can only remove atoms: the upper envelope survives, the
        # lower one does not.
        b = self.base.decay_bounds(spectrum)
        if b is None:
            return None
        return TailBounds(None, b.upper, b.k_min)

    def support_size(self):
        return self.base.support_size()


@dataclass(frozen=True)
class _MappedCoeffs(_CoeffImpl):
    base: _CoeffImpl
    symbols: tuple  # SymbolFunction-like objects, canonically sorted

    def log_coeffs(self, ks, spectrum):
        mags, phases = self.base.log_coeffs(np.asarray(ks, dtype=np.int64), spectrum)
        lams = spectrum.eigenvalues(ks)
        add_mag = np.zeros(len(lams))
        add_phase = np.zeros(len(lams))
        for sym in self.symbols:
            add_mag = add_mag + sym.log_abs(lams)
            add_phase = add_phase + sym.phase(lams)
        mags = np.where(mags == NEG_INF, NEG_INF, mags + add_mag)
        phases = np.asarray(wrap_phase(phases + add_phase), dtype=float)
        phases = np.where(mags == NEG_INF, 0.0, phases)
        return mags, phases

    def decay_bounds(self, spectrum):
        b = self.base.decay_bounds(spectrum)
        if b is None:
            return None
        for sym in self.symbols:
            g = sym.growth_bounds_on(spectrum)
            if g is None:
                return None
            b = b + g
        return b

    def support_size(self):
        return self.base.support_size()


def _canonical_symbols(symbols) -> tuple:
    flat = []
    for s in symbols:
        flat.extend(s.factors())
    return tuple(sorted(flat, key=lambda s: s.sort_key()))


@dataclass(frozen=True)
class CoefficientVector:
    """A vector f given coordinatewise in the eigenbasis of its spectrum."""

    spectrum: SpectrumFamily
    p_norm: float
    label: str
    impl: _CoeffImpl
    series_view: Optional[SeriesSpace] = None  # index space other than the eigenvalue order

    def __post_init__(self):
        p = float(self.p_norm)
        if not (1.0 <= p < math.inf):
            raise VectorError("p_norm must lie in [1, inf)")
        object.__setattr__(self, "p_norm", p)

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, spectrum, values=None, log_polars=None, p: float = 2.0, label: str = "explicit"):
        if (values is None) == (log_polars is None):
            raise VectorError("give exactly one of values / log_polars")
        if values is not None:
            entries = tuple(LogPolar.from_complex(v) for v in values)
        else:
            entries = tuple(log_polars)
        if spectrum.size is not None and len(entries) > spectrum.size:
            raise VectorError("more coefficients than eigenvalues in the explicit spectrum")
        impl = _ExplicitCoeffs(
            np.array([e.log_mag for e in entries], dtype=float),
            np.array([e.phase for e in entries], dtype=float),
        )
        return cls(spectrum, p, label, impl)

    @classmethod
    def power_decay(cls, spectrum, c: float, r: float, p: float = 2.0, label: str = ""):
        if not (c > 0 and r > 0):
            raise VectorError("power decay needs c > 0 and r > 0")
        label = label or f"exp(-{c:g}*k^{r:g})"
        return cls(spectrum, p, label, _PowerDecayCoeffs(float(c), float(r)))

    @classmethod
    def polynomial_decay(cls, spectrum, d: float, p: float = 2.0, label: str = ""):
        if not d * p > 1.0:
            raise VectorError(f"k^-{d:g} is not in l^{p:g}: need d*p > 1")
        label = label or f"k^-{d:g}"
        return cls(spectrum, p, label, _PolyDecayCoeffs(float(d)))

    @classmethod
    def custom(
        cls,
        spectrum,
        fn,
        bounds: Optional[TailBounds] = None,
        support_size: Optional[int] = None,
        p: float = 2.0,
        label: str = "custom",
        series_view=None,
    ):
        vec = cls(spectrum, p, label, _CustomCoeffs(fn, bounds, support_size), series_view)
        vec._certify_storable()
        return vec

    @classmethod
    def zero(cls, spectrum, p: float = 2.0):
        return cls(spectrum, p, "zero", _ExplicitCoeffs(np.empty(0), np.empty(0)))

    def _certify_storable(self):
        """Reject vectors whose l^p membership cannot be certified."""
        if self.effective_count() is not None:
            return
        b = self.series_space().coeff_bounds
        if b is None or b.upper is None or not form_converges(b.upper.scale(self.p_norm)):
            raise VectorError(
                f"vector {self.label!r}: l^{self.p_norm:g} summability is not certifiable "
                "(declare a decay envelope or a finite support)"
            )

    # -- accessors ----------------------------------------------------------

    def log_coeffs(self, ks: np.ndarray):
        return self.impl.log_coeffs(np.asarray(ks, dtype=np.int64), self.spectrum)

    def decay_bounds(self) -> Optional[TailBounds]:
        return self.impl.decay_bounds(self.spectrum)

    def support_size(self) -> Optional[int]:
        return self.impl.support_size()

    def effective_count(self) -> Optional[int]:
        """Number of (possibly) nonzero coordinates, when finite."""
        candidates = [n for n in (self.spectrum.size, self.support_size()) if n is not None]
        return min(candidates) if candidates else None

    def to_complex(self, ks: np.ndarray) -> np.ndarray:
        mags, phases = self.log_coeffs(ks)
        out = np.where(mags == NEG_INF, 0.0, np.exp(mags)) * np.exp(1j * phases)
        return out

    def log_norm(self, budget: SeriesBudget = DEFAULT_BUDGET) -> tuple[float, ConvergenceCertificate]:
        """log ||f||_p with its certificate."""
        p = self.p_norm
        space = self.series_space()

        def term(ks):
            mags, _ = space.coeff_log(ks)
            return p * mags

        bounds = space.coeff_bounds
        cert = certify_log_series(
            term,
            count=space.count,
            bounds=bounds.scale(p) if bounds is not None else None,
            budget=budget,
        )
        if cert.status is SeriesStatus.CONVERGES:
            return cert.log_value / p, cert
        if cert.status is SeriesStatus.DIVERGES:
            return math.inf, cert
        return math.nan, cert

    def _with_symbols(self, symbols) -> "CoefficientVector":
        """Internal: coordinatewise multiplication by symbol values F(lam_k)."""
        if self.series_view is not None:
            raise VectorError("symbol application on support-view vectors is not implemented")
        if isinstance(self.impl, _MappedCoeffs):
            merged = _canonical_symbols(self.impl.symbols + tuple(symbols))
            impl = _MappedCoeffs(self.impl.base, merged)
        else:
            impl = _MappedCoeffs(self.impl, _canonical_symbols(symbols))
        names = "*".join(getattr(s, "name", "F") for s in symbols)
        return CoefficientVector(self.spectrum, self.p_norm, f"{names}({self.label})", impl)

    def masked(self, predicate: BorelPredicate) -> "CoefficientVector":
        return CoefficientVector(
            self.spectrum,
            self.p_norm,
            f"[{predicate.description}]{self.label}",
            _MaskedCoeffs(self.impl, predicate),
        )

    def series_space(self) -> SeriesSpace:
        if self.series_view is not None:
            return self.series_view
        return DenseSpace(self)


# ---------------------------------------------------------------------------
# Series spaces
# ---------------------------------------------------------------------------


class SeriesSpace:
    """Index space n = 1, 2, ... over which the series of a vector run.

    - count: number of indices, None for infinitely many.
    - lam(ns), coeff_log(ns): the eigenvalue and the log-polar coefficient
      (log-magnitudes, phases) at each index.
    - coeff_bounds: envelope of the log-magnitudes, None when unknown.
    - selection: the object the indices are drawn from (None: the
      eigenvalue order itself); two vectors pair only over one selection.
    - re_bounds(), im_bounds(), log_abs_bounds(), abs_pow_bounds(q):
      envelopes of Re lam, Im lam, log|lam| and |lam|^q, called exactly
      like SpectrumFamily's, so a symbol's growth_bounds_on takes either.
    - term_bounds(F): envelope of log|c_n| + log|F(lam_n)|, the one
      envelope every series over the space reads.  By default it is the
      sum of the componentwise envelopes; a space whose coefficients are
      tied to lam (a counterexample plan's vectors) overrides it with the
      coupled estimate, which no componentwise envelope expresses.
    """

    count: Optional[int] = None
    coeff_bounds: Optional[TailBounds] = None
    selection: object = None

    def lam(self, ns: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def coeff_log(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def re_bounds(self) -> Optional[TailBounds]:
        return None

    def im_bounds(self) -> Optional[TailBounds]:
        return None

    def log_abs_bounds(self) -> Optional[TailBounds]:
        return None

    def abs_pow_bounds(self, q: float) -> Optional[TailBounds]:
        return None

    def term_bounds(self, F=None) -> Optional[TailBounds]:
        """Envelope of log|c_n| + log|F(lam_n)|; of log|c_n| when F is None."""
        cb = self.coeff_bounds
        if cb is None or F is None:
            return cb
        gb = F.growth_bounds_on(self)
        return cb + gb if gb is not None else None


@dataclass(frozen=True)
class DenseSpace(SeriesSpace):
    """Series index space of a vector indexed directly by eigenvalue order."""

    vector: CoefficientVector

    @property
    def count(self) -> Optional[int]:
        return self.vector.effective_count()

    def lam(self, ks):
        return self.vector.spectrum.eigenvalues(ks)

    def coeff_log(self, ks):
        return self.vector.log_coeffs(ks)

    @property
    def coeff_bounds(self) -> Optional[TailBounds]:
        return self.vector.decay_bounds()

    def re_bounds(self) -> Optional[TailBounds]:
        return self.vector.spectrum.re_bounds()

    def im_bounds(self) -> Optional[TailBounds]:
        return self.vector.spectrum.im_bounds()

    def log_abs_bounds(self) -> Optional[TailBounds]:
        return self.vector.spectrum.log_abs_bounds()

    def abs_pow_bounds(self, q: float) -> Optional[TailBounds]:
        return self.vector.spectrum.abs_pow_bounds(q)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def project(f: CoefficientVector, delta: BorelPredicate) -> CoefficientVector:
    """Spectral-measure action E(delta): keep the coordinates inside delta.

    Idempotent and multiplicative bit for bit; the projected vector never has
    a larger norm, which realizes the measure bound M = 1.
    """
    if delta.is_all:
        return f
    if delta.is_none:
        return CoefficientVector.zero(f.spectrum, f.p_norm)
    if isinstance(f.impl, _ExplicitCoeffs) and len(f.impl.mags):
        n = len(f.impl.mags)
        keep = delta.mask(f.spectrum.eigenvalues(np.arange(1, n + 1, dtype=np.int64)))
        impl = _ExplicitCoeffs(
            np.where(keep, f.impl.mags, NEG_INF), np.where(keep, f.impl.phases, 0.0)
        )
        return CoefficientVector(f.spectrum, f.p_norm, f"[{delta.description}]{f.label}", impl)
    return f.masked(delta)


def multiplicativity_check(
    delta1: BorelPredicate,
    delta2: BorelPredicate,
    f: CoefficientVector,
    prefix: int = 4096,
) -> bool:
    """E(d1)E(d2) = E(d1 and d2), checked coordinatewise exactly.

    Explicit vectors are compared over their whole support; parametric ones
    over a deterministic prefix.
    """
    count = f.effective_count()
    n = count if count is not None else prefix
    ks = np.arange(1, n + 1, dtype=np.int64)
    lhs = project(project(f, delta1), delta2)
    rhs = project(f, predicate_and(delta1, delta2))
    lm, lp = lhs.log_coeffs(ks)
    rm, rp = rhs.log_coeffs(ks)
    return bool(np.array_equal(lm, rm) and np.array_equal(lp, rp))


def total_variation(
    f: CoefficientVector,
    g: CoefficientVector,
    delta: BorelPredicate,
    weight=None,
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> ConvergenceCertificate:
    """Certify sum over {k: lam_k in delta} of weight(lam_k)*|f_k g_k|.

    The sum runs over the series spaces of f and g, which must share one
    selection.  `weight` is a symbol-like object exposing log_abs(lams) and
    growth_bounds_on(space); None means the constant weight 1.  With
    weight 1 and delta = C this is the total variation of the pairing
    measure, bounded by ||f||_p ||g||_q.  `budget=None` only decides the
    status (see certify_log_series).
    """
    if f.spectrum is not g.spectrum and f.spectrum != g.spectrum:
        raise VectorError("total variation needs both vectors on the same spectrum")
    q = conjugate_exponent(f.p_norm)
    if abs(g.p_norm - q) > 1e-9:
        raise VectorError(
            f"dual vector must carry the conjugate exponent q={q:g}, got {g.p_norm:g}"
        )
    space, gspace = f.series_space(), g.series_space()
    if space.selection is not gspace.selection:
        raise VectorError("paired vectors must share the same support selection")

    def term(ns):
        fm, _ = space.coeff_log(ns)
        gm, _ = gspace.coeff_log(ns)
        tot = fm + gm
        if weight is not None:
            tot = tot + weight.log_abs(space.lam(ns))
        if not delta.is_all:
            keep = delta.mask(space.lam(ns))
            tot = np.where(keep, tot, NEG_INF)
        return tot

    counts = [n for n in (space.count, gspace.count) if n is not None]
    count = min(counts) if counts else None
    fb, gb = space.term_bounds(weight), gspace.term_bounds()
    b = fb + gb if fb is not None and gb is not None else None
    if b is not None and not delta.is_all:
        b = TailBounds(None, b.upper, b.k_min)
    return certify_log_series(term, count=count, bounds=b, budget=budget)


@dataclass(frozen=True)
class PairingMeasure:
    """Atomic measure with weight |f_k g_k| at lam_k for a dual pair (f, g)."""

    f: CoefficientVector
    g: CoefficientVector

    def __post_init__(self):
        q = conjugate_exponent(self.f.p_norm)
        if abs(self.g.p_norm - q) > 1e-9:
            raise VectorError("pairing measure needs conjugate exponents")

    def atom_log_mags(self, ks) -> np.ndarray:
        fm, _ = self.f.log_coeffs(ks)
        gm, _ = self.g.log_coeffs(ks)
        return fm + gm

    def total_variation(
        self,
        delta: Optional[BorelPredicate] = None,
        weight=None,
        budget: SeriesBudget = DEFAULT_BUDGET,
    ) -> ConvergenceCertificate:
        return total_variation(
            self.f, self.g, delta if delta is not None else predicate_all(), weight, budget
        )

    def holder_log_bound(self, budget: SeriesBudget = DEFAULT_BUDGET) -> float:
        nf, _ = self.f.log_norm(budget)
        ng, _ = self.g.log_norm(budget)
        return nf + ng
