"""Discrete model of a scalar-type spectral operator on a sequence space.

A spectrum family lists (or generates) the eigenvalues lam_k.  SeriesSpace is
every vector's coordinate model, in log-polar form: each coefficient kind is a
space on the eigenvalue order of its spectrum (a counterexample plan's
selected subsequence is one more spectrum).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .asymptotics import AsymForm, AsymTerm, TailBounds, form_converges
from .errors import SpectrumError, VectorError
from .logdomain import NEG_INF, log_product, wrap_phase
from .series import (
    DEFAULT_BUDGET,
    ConvergenceCertificate,
    SeriesBudget,
    SeriesStatus,
    certify_log_series,
)

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


def _power_form(p: float, c: float, q: float) -> Optional[AsymForm]:
    """c^q k^p for c > 0, or None where c^q leaves the normal float range:
    an overflow, or an underflow to 0 or to a subnormal, which a probe's
    scale s can round to 0, so that as an upper envelope it claims 0."""
    try:
        cq = c**q
    except OverflowError:
        return None
    return AsymForm.power(p, cq) if cq >= sys.float_info.min else None


@dataclass(frozen=True)
class LamBounds:
    """Envelopes of the eigenvalues lam_n of an index space, from n = k_min.

    re, im: the TailBounds of Re lam_n and Im lam_n (None: unknown).  lower,
    upper: modulus terms (p, c, slack) with c n^p <= |lam_n| <= c slack n^p,
    from n = 1,024 where the upper slack is not 1.  signed: on a family that
    declares envelopes, the pair of signed (p, lo, hi) with
    lo n^p <= Re lam_n <= hi n^p and alike for Im lam_n; None on a plan's
    subsequence, whose bounds follow from the plan invariants and whose
    upper slack is 1.  A subsequence is the only holder of None.
    """

    re: Optional[TailBounds]
    im: Optional[TailBounds]
    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    k_min: int
    signed: Optional[tuple[tuple[float, float, float], tuple[float, float, float]]] = None

    @property
    def exact(self) -> bool:
        """Both components equal their leading term, so |lam_n| is nondecreasing."""
        return all(lo == hi for _, lo, hi in self.signed)

    def abs_pow(self, q: float) -> TailBounds:
        """Envelopes of |lam_n|^q.

        The lower envelope is c n^{pq} from the lower modulus term.  With a
        slack and 0 < q <= 1, the upper envelope is sum_i c_i^q n^{p_i q},
        c_i the larger of |lo|, |hi| of each signed component, valid from
        k_min (subadditivity of x^q), so both envelopes share their leading
        term.  Otherwise it is the upper modulus term times its slack.  The
        envelope is exact when both terms agree, as on every power law.  A
        side whose c^q leaves the float range is None.
        """
        if q <= 0:
            raise ValueError("abs_pow expects q > 0")
        (p, lo, _), (p_hi, hi, slack) = self.lower, self.upper
        lower = _power_form(p * q, lo, q)
        if slack == 1.0 and (p_hi, hi) == (p, lo):
            return TailBounds.exact(lower, self.k_min)
        if slack != 1.0 and q <= 1.0:
            parts = tuple(AsymTerm(pc * q, 0, max(abs(a), abs(b)) ** q) for pc, a, b in self.signed)
            return TailBounds(lower, AsymForm.build(parts), self.k_min)
        k_min = self.k_min if slack == 1.0 else max(self.k_min, _MIXED_K0)
        return TailBounds(lower, _power_form(p_hi * q, hi * slack, q), k_min)

    def log_abs(self) -> TailBounds:
        (p, lo, _), (p_hi, hi, slack) = self.lower, self.upper
        lower = AsymForm.log_k(p, const=math.log(lo))
        if slack == 1.0 and (p_hi, hi) == (p, lo):
            return TailBounds.exact(lower, self.k_min)
        k_min = self.k_min if slack == 1.0 else max(self.k_min, _MIXED_K0)
        return TailBounds(lower, AsymForm.log_k(p_hi, const=math.log(hi * slack)), k_min)


class SpectrumFamily:
    """Base class; subclasses provide eigenvalues and tail information.

    A family that declares the envelopes of Re lam_k and Im lam_k passes
    them to _read_envelopes once, at construction, which sets lam_bounds
    from them; a counterexample plan's subsequence holds the lam_bounds its
    plan builds, and it is None on every other family.
    """

    size: Optional[int] = None
    label: str = ""
    lam_bounds: Optional[LamBounds] = None

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eigenvalue(self, k: int) -> complex:
        return complex(self.eigenvalues(np.asarray([k], dtype=np.int64))[0])

    def _read_envelopes(self, re_b: TailBounds, im_b: TailBounds) -> None:
        signed = _component(re_b, "Re"), _component(im_b, "Im")
        if not any(p > 0.0 for p, _, _ in signed):
            raise SpectrumError("the envelopes declare no growing part (some exponent p > 0)")
        lower, upper = (
            _leading([(p, pick(abs(lo), abs(hi))) for p, lo, hi in signed]) for pick in (min, max)
        )
        k_min = max(re_b.k_min, im_b.k_min)
        object.__setattr__(self, "lam_bounds", LamBounds(re_b, im_b, lower, upper, k_min, signed))


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

    def max_abs(self) -> float:
        try:
            return float(max(abs(z) for z in self.points))
        except OverflowError:  # some |lam_k| past the float range
            return math.inf


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
        self._read_envelopes(
            TailBounds.exact(AsymForm.power(self.p_re, self.a_re)),
            TailBounds.exact(AsymForm.power(self.p_im, self.a_im)),
        )

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        kf = np.asarray(ks, dtype=float)
        return self.a_re * kf**self.p_re + 1j * self.a_im * kf**self.p_im


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
            self._read_envelopes(*self.envelopes)

    def eigenvalues(self, ks: np.ndarray) -> np.ndarray:
        return np.asarray([complex(self.fn(int(k))) for k in np.asarray(ks)], dtype=complex)


# ---------------------------------------------------------------------------
# Series spaces: the coordinates of a vector
# ---------------------------------------------------------------------------


class SeriesSpace:
    """Index space n = 1, 2, ... of a vector's coordinates.

    - spectrum: the family the eigenvalues are drawn from.
    - count: number of indices, None for infinitely many (by default the
      spectrum's size).
    - lam(ns), coeff_log(ns): the eigenvalue lam_n of the spectrum and the
      log-polar coefficient (log-magnitudes, phases) at each index.
    - coeff_bounds: envelope of the log-magnitudes, None when unknown.
    - lam_bounds: the spectrum's LamBounds, None when unknown; every symbol
      reads its growth envelope from it.
    - term_bounds(F): envelope of log|c_n| + log|F(lam_n)|, the one
      envelope every series over the space reads.  By default it is the
      sum of the componentwise envelopes; a space whose coefficients are
      tied to lam (a counterexample plan's e^{-decay n Re} vectors)
      overrides it with the coupled estimate, which no componentwise
      envelope expresses.  No override concerns a power of A: power_norms
      works out the envelopes of all powers from coeff_bounds and
      lam_bounds.log_abs() at once.
    """

    spectrum: SpectrumFamily
    coeff_bounds: Optional[TailBounds] = None

    @property
    def count(self) -> Optional[int]:
        return self.spectrum.size

    @property
    def lam_bounds(self) -> Optional[LamBounds]:
        return self.spectrum.lam_bounds

    def lam(self, ns: np.ndarray) -> np.ndarray:
        return self.spectrum.eigenvalues(ns)

    def coeff_log(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def term_bounds(self, F=None) -> Optional[TailBounds]:
        """Envelope of log|c_n| + log|F(lam_n)|; of log|c_n| when F is None."""
        cb = self.coeff_bounds
        if cb is None or F is None:
            return cb
        gb = F.growth_bounds_on(self.lam_bounds)
        return cb + gb if gb is not None else None


@dataclass(frozen=True, eq=False)
class _ExplicitCoeffs(SeriesSpace):
    """Coordinates 1..len(mags) as log-magnitude and phase arrays; zero beyond."""

    spectrum: SpectrumFamily
    mags: np.ndarray
    phases: np.ndarray

    @property
    def count(self) -> int:
        return len(self.mags)

    def coeff_log(self, ks):
        ks = np.asarray(ks, dtype=np.int64)
        mags = np.full(ks.shape, NEG_INF)
        phases = np.zeros(ks.shape)
        inside = (ks >= 1) & (ks <= len(self.mags))
        mags[inside] = self.mags[ks[inside] - 1]
        phases[inside] = self.phases[ks[inside] - 1]
        return mags, phases


@dataclass(frozen=True)
class _PowerDecayCoeffs(SeriesSpace):
    spectrum: SpectrumFamily
    c: float
    r: float

    def coeff_log(self, ks):
        kf = np.asarray(ks, dtype=float)
        with np.errstate(over="ignore"):  # c k^r past the float range: log 0 = -inf
            return -self.c * kf**self.r, np.zeros(kf.shape)

    @property
    def coeff_bounds(self) -> TailBounds:
        return TailBounds.exact(AsymForm.power(self.r, -self.c))


@dataclass(frozen=True)
class _PolyDecayCoeffs(SeriesSpace):
    spectrum: SpectrumFamily
    d: float

    def coeff_log(self, ks):
        kf = np.asarray(ks, dtype=float)
        return -self.d * np.log(kf), np.zeros(kf.shape)

    @property
    def coeff_bounds(self) -> TailBounds:
        return TailBounds.exact(AsymForm.log_k(-self.d))


@dataclass(frozen=True)
class _CustomCoeffs(SeriesSpace):
    spectrum: SpectrumFamily
    fn: Callable[[np.ndarray], tuple]
    coeff_bounds: Optional[TailBounds] = None
    support: Optional[int] = None

    @property
    def count(self) -> Optional[int]:
        return min((n for n in (self.spectrum.size, self.support) if n is not None), default=None)

    def coeff_log(self, ks):
        mags, phases = self.fn(np.asarray(ks, dtype=np.int64))
        return np.asarray(mags, dtype=float), np.asarray(phases, dtype=float)


@dataclass(frozen=True)
class _MappedCoeffs(SeriesSpace):
    """The coordinates of base times symbol values F(lam_k)."""

    base: SeriesSpace
    symbols: tuple  # SymbolFunction-like objects, in the order applied

    @property
    def spectrum(self) -> SpectrumFamily:
        return self.base.spectrum

    @property
    def count(self) -> Optional[int]:
        return self.base.count

    def coeff_log(self, ks):
        mags, phases = self.base.coeff_log(ks)
        lams = self.lam(ks)
        add_mag = np.zeros(len(lams))
        add_phase = np.zeros(len(lams))
        for sym in self.symbols:
            add_mag = add_mag + sym.log_abs(lams)
            add_phase = add_phase + sym.phase(lams)
        mags = log_product(mags, add_mag)
        phases = np.asarray(wrap_phase(phases + add_phase), dtype=float)
        phases = np.where(mags == NEG_INF, 0.0, phases)
        return mags, phases

    @property
    def coeff_bounds(self) -> Optional[TailBounds]:
        """The base's term_bounds of the first symbol, so a space that
        couples its coefficients with lam keeps its coupled envelope, plus
        the growth envelope of each further symbol."""
        b = self.base.term_bounds(self.symbols[0])
        for sym in self.symbols[1:]:
            g = sym.growth_bounds_on(self.lam_bounds)
            if b is None or g is None:
                return None
            b = b + g
        return b


# ---------------------------------------------------------------------------
# Coefficient vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientVector:
    """A vector f: its l^p exponent, a label and the space of its coordinates,
    indexed by the eigenvalue order of its spectrum."""

    p_norm: float
    label: str
    space: SeriesSpace

    def __post_init__(self):
        p = float(self.p_norm)
        if not (1.0 <= p < math.inf):
            raise VectorError("p_norm must lie in [1, inf)")
        object.__setattr__(self, "p_norm", p)

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, spectrum, values, p: float = 2.0, label: str = "explicit"):
        """Coordinates f_k = values[k - 1], stored as log|f_k| and a phase in
        (-pi, pi]; a zero is (-inf, 0.0).  log|f_k| is stored even where |f_k|
        itself passes the float range."""
        mags, phases = [], []
        for v in values:
            z = complex(v)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise VectorError(f"coefficient {len(mags) + 1} is not finite: {z!r}")
            if z == 0:
                mags.append(NEG_INF)
                phases.append(0.0)
                continue
            try:
                mags.append(math.log(abs(z)))
            except OverflowError:  # |z| passes the float range, log|z| does not
                s, m = sorted((abs(z.real), abs(z.imag)))
                mags.append(math.log(m) + 0.5 * math.log1p((s / m) ** 2))
            # math.atan2, not cmath.phase: the latter raises on a subnormal angle
            phases.append(math.atan2(z.imag, z.real))
        if spectrum.size is not None and len(mags) > spectrum.size:
            raise VectorError("more coefficients than eigenvalues in the explicit spectrum")
        mags, phases = np.array(mags, dtype=float), wrap_phase(np.array(phases, dtype=float))
        return cls(p, label, _ExplicitCoeffs(spectrum, mags, phases))

    @classmethod
    def power_decay(cls, spectrum, c: float, r: float, p: float = 2.0, label: str = ""):
        if not (c > 0 and r > 0):
            raise VectorError("power decay needs c > 0 and r > 0")
        label = label or f"exp(-{c:g}*k^{r:g})"
        return cls(p, label, _PowerDecayCoeffs(spectrum, float(c), float(r)))

    @classmethod
    def polynomial_decay(cls, spectrum, d: float, p: float = 2.0, label: str = ""):
        if not d * p > 1.0:
            raise VectorError(f"k^-{d:g} is not in l^{p:g}: need d*p > 1")
        label = label or f"k^-{d:g}"
        return cls(p, label, _PolyDecayCoeffs(spectrum, float(d)))

    @classmethod
    def custom(
        cls,
        spectrum,
        fn,
        bounds: Optional[TailBounds] = None,
        support_size: Optional[int] = None,
        p: float = 2.0,
        label: str = "custom",
    ):
        return cls.on_space(_CustomCoeffs(spectrum, fn, bounds, support_size), p, label)

    @classmethod
    def on_space(cls, space: SeriesSpace, p: float, label: str) -> "CoefficientVector":
        """The vector with the coordinates of space; refused where its l^p
        membership cannot be certified."""
        vec = cls(p, label, space)
        b = space.coeff_bounds
        if space.count is None and (
            b is None or b.upper is None or not form_converges(b.upper.scale(vec.p_norm))
        ):
            raise VectorError(
                f"vector {label!r}: l^{vec.p_norm:g} summability is not certifiable "
                "(declare a decay envelope or a finite support)"
            )
        return vec

    # -- accessors ----------------------------------------------------------

    @property
    def spectrum(self) -> SpectrumFamily:
        return self.space.spectrum

    def log_coeffs(self, ns: np.ndarray):
        """(log|f_n|, phase of f_n) at the indices ns of the vector's space."""
        return self.space.coeff_log(np.asarray(ns, dtype=np.int64))

    def to_complex(self, ns: np.ndarray) -> np.ndarray:
        """f_n at the indices ns; a part of a coordinate past the float range
        is +-inf, and a zero part stays zero."""
        mags, phases = self.log_coeffs(ns)
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.where(mags == NEG_INF, 0.0, np.exp(mags))
            unit = np.exp(1j * phases)
            out = r * unit
        # A part of e^{i phase} below 2^-52 is the rounding residue of an
        # axis phase (cos fl(pi/2) is 6e-17, sin fl(pi) 1.2e-16), or zero,
        # where inf times it is NaN: on an infinite modulus that part is 0.
        big = np.isinf(r)
        out.real[big & (np.abs(unit.real) < 2.0**-52)] = 0.0
        out.imag[big & (np.abs(unit.imag) < 2.0**-52)] = 0.0
        return out

    def log_norm(self, budget: SeriesBudget = DEFAULT_BUDGET) -> tuple[float, ConvergenceCertificate]:
        """log ||f||_p with its certificate."""
        p = self.p_norm
        space = self.space

        def term(ks):
            mags, _ = space.coeff_log(ks)
            with np.errstate(over="ignore"):  # log|f_k|^p past the float range: +-inf
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
        space = self.space
        base, prior = (space.base, space.symbols) if isinstance(space, _MappedCoeffs) else (space, ())
        space = _MappedCoeffs(base, prior + tuple(symbols))
        names = "*".join(getattr(s, "name", "F") for s in symbols)
        return CoefficientVector(self.p_norm, f"{names}({self.label})", space)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def total_variation(
    f: CoefficientVector,
    g: CoefficientVector,
    weight=None,
    budget: Optional[SeriesBudget] = DEFAULT_BUDGET,
) -> ConvergenceCertificate:
    """Certify the sum over all k of weight(lam_k)*|f_k g_k|.

    The sum runs over the series spaces of f and g, which must share one
    spectrum.  `weight` is a symbol-like object exposing log_abs(lams) and
    growth_bounds_on(lam_bounds); None means the constant weight 1.  With
    weight 1 this is the total variation of the pairing of f and g, bounded
    by ||f||_p ||g||_q.  `budget=None` only decides the status (see
    certify_log_series).
    """
    if f.spectrum is not g.spectrum and f.spectrum != g.spectrum:
        raise VectorError("total variation needs both vectors on the same spectrum")
    q = conjugate_exponent(f.p_norm)
    if abs(g.p_norm - q) > 1e-9:
        raise VectorError(
            f"dual vector must carry the conjugate exponent q={q:g}, got {g.p_norm:g}"
        )
    space, gspace = f.space, g.space

    def term(ns):
        fm, _ = space.coeff_log(ns)
        gm, _ = gspace.coeff_log(ns)
        tot = fm + gm
        if weight is not None:
            tot = log_product(tot, weight.log_abs(space.lam(ns)))
        return tot

    counts = [n for n in (space.count, gspace.count) if n is not None]
    count = min(counts) if counts else None
    fb, gb = space.term_bounds(weight), gspace.term_bounds()
    b = fb + gb if fb is not None and gb is not None else None
    return certify_log_series(term, count=count, bounds=b, budget=budget)
