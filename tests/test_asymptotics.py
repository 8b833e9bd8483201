import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gevlab as gl
from gevlab.asymptotics import (
    AsymForm,
    AsymTerm,
    FormRows,
    GrowthKind,
    TailBounds,
    _effective_leading,
    affine_family,
    classify_form,
    form_converges,
    form_diverges,
    mono_decreasing_start,
    tail_bounders,
)
from gevlab.logdomain import NEG_INF, logaddexp
from oracles import log_tail_bound


def test_build_merges_and_cancels_exactly():
    f = AsymForm.power(2.0, 1.0) + AsymForm.power(2.0, -1.0) + AsymForm.log_k(-3.0)
    assert f.terms == (AsymTerm(0.0, 1, -3.0),)
    g = AsymForm.power(0.0, 2.5)  # k^0 folds into the constant
    assert g.terms == () and g.const == 2.5


@pytest.mark.parametrize(
    "c_d, c_g, s, sign",
    [
        (-1.0, 3.0, 1 / 3, -1),
        (-1.0, 3.0, math.nextafter(1 / 3, 1.0), 1),
        (-1.0, 10.0, 0.1, 1),
        (-1.5, 3.0, 0.5, 0),
    ],
)
def test_scaled_merge_keeps_the_exact_sign(c_d, c_g, s, sign):
    # c_d k + s c_g k: 3 fl(1/3) and 10 fl(0.1) both round onto 1, though
    # fl(1/3) lies below 1/3 and fl(0.1) above 0.1.  The merged coefficient
    # has the sign of the real c_d + s c_g, so the symbolic routes are right
    f = AsymForm.power(1.0, c_d) + AsymForm.power(1.0, c_g).scale(s)
    lead = f.leading()
    assert (0 if lead is None else math.copysign(1, lead.coeff)) == sign
    assert form_converges(f) is (sign < 0)
    assert form_diverges(f) is (sign >= 0)


@settings(max_examples=300, deadline=None)
@given(
    c_d=st.floats(-1e6, -1e-6),
    c_g=st.floats(1e-6, 1e6),
    c_low=st.floats(-1e3, 1e3),
    ulps=st.integers(-3, 3),
)
def test_merged_sign_near_a_tie_matches_exact_arithmetic(c_d, c_g, c_low, ulps):
    # s within a few floats of |c_d| / c_g; the scaled form carries a lower
    # order term, as the envelopes of mixed-exponent spectra do
    s = -c_d / c_g
    for _ in range(abs(ulps)):
        s = math.nextafter(s, math.inf if ulps > 0 else 0.0)
    growth = AsymForm.power(1.0, c_g) + AsymForm.power(0.5, c_low)
    f = AsymForm.power(1.0, c_d) + growth.scale(s)
    exact = Fraction(c_d) + Fraction(s) * Fraction(c_g)
    lead = f.terms[0] if f.terms and f.terms[0].power == 1.0 else None
    got = 0 if lead is None else math.copysign(1, lead.coeff)
    assert got == (exact > 0) - (exact < 0)


def test_evaluate_matches_direct():
    f = AsymForm.power(0.5, -2.0) + AsymForm.log_k(3.0, const=1.5)
    ks = np.array([1.0, 4.0, 100.0])
    expect = -2.0 * np.sqrt(ks) + 3.0 * np.log(ks) + 1.5
    assert np.allclose(f.evaluate(ks), expect, rtol=0, atol=1e-12)


def test_scale_by_negative_swaps_tailbound_sides():
    b = TailBounds(AsymForm.power(1.0, 1.0), AsymForm.power(1.0, 2.0), 4)
    s = b.scale(-1.0)
    assert s.lower.terms[0].coeff == -2.0
    assert s.upper.terms[0].coeff == -1.0


@pytest.mark.parametrize(
    "form, kind",
    [
        (AsymForm.power(1.0, 0.5), GrowthKind.GROWS),
        (AsymForm.power(0.5, -2.0) + AsymForm.log_k(40.0), GrowthKind.SUPER_DECAY),
        (AsymForm.log_k(-2.0), GrowthKind.POLY),
        (AsymForm.constant(-3.0), GrowthKind.CONST),
        (AsymForm.build((AsymTerm(0.0, 2, -0.5),)) + AsymForm.log_k(40.0), GrowthKind.SUPER_DECAY),
        (AsymForm.build((AsymTerm(0.0, 2, 0.01),)) + AsymForm.log_k(-3.0), GrowthKind.GROWS),
        # -(log k)^2 / k tends to 0: the terms approach e^0
        (AsymForm.build((AsymTerm(-1.0, 2, -1.0),)), GrowthKind.CONST),
    ],
)
def test_classification(form, kind):
    assert classify_form(form)[0] is kind


def test_log_square_leads_past_every_power_of_k():
    # c (log k)^2 outruns every d log k: k^{-0.5 log k} is summable (its
    # mpmath sum is in tests/test_series.py), while k^{0.01 log k - 3}
    # decays only until log k = 150 and exceeds 1 from log k = 300 on
    decay = AsymForm.build((AsymTerm(0.0, 2, -0.5),))
    assert form_converges(decay) and not form_diverges(decay)
    growth = AsymForm.build((AsymTerm(0.0, 2, 0.01),)) + AsymForm.log_k(-3.0)
    assert form_diverges(growth) and not form_converges(growth)


def test_convergence_divergence_rules():
    assert form_converges(AsymForm.power(1.0, -0.001))
    assert form_converges(AsymForm.log_k(-1.0000001))
    assert not form_converges(AsymForm.log_k(-1.0))  # harmonic boundary
    assert form_diverges(AsymForm.log_k(-1.0))
    assert form_diverges(AsymForm.constant(-500.0))  # flat terms never vanish
    assert not form_diverges(AsymForm.constant(NEG_INF))
    assert form_converges(AsymForm.constant(NEG_INF))
    # exact cancellation leaves the next scale in charge
    f = AsymForm.power(1.0, 1.0) + AsymForm.power(1.0, -1.0) + AsymForm.power(0.5, -2.0)
    assert form_converges(f)


def test_poly_tail_bound_dominates_true_tail():
    # sum_{k>K} k^-2 = psi'(K+1) ~ 1/K; the bound must sit above it
    form = AsymForm.log_k(-2.0)
    for K in (16, 256, 4096):
        bound = log_tail_bound(form, K)
        true_tail = sum((k) ** -2.0 for k in range(K + 1, K + 200000))
        assert bound is not None
        assert math.exp(bound) >= true_tail
        assert math.exp(bound) <= 2.5 * true_tail


def test_super_decay_tail_bound_dominates_true_tail():
    # terms e^{-sqrt(k)}: compare against a long direct sum
    form = AsymForm.power(0.5, -1.0)
    K = 1024
    bound = log_tail_bound(form, K)
    ks = np.arange(K + 1, K + 2_000_000, dtype=float)
    true_tail = float(np.exp(-np.sqrt(ks)).sum())
    assert bound is not None
    assert math.exp(bound) >= true_tail
    assert bound <= math.log(true_tail) + 3.0  # not wildly loose


@pytest.mark.parametrize(
    "form, mp_term",
    [
        (AsymForm.log_k(-2.0), lambda k: k**-2),
        (AsymForm.power(1.0, -0.1), lambda k: mpmath.exp(-k / 10)),
        (
            AsymForm.power(0.5, -1.0) + AsymForm.log_k(-3.0),
            lambda k: k**-3 * mpmath.exp(-mpmath.sqrt(k)),
        ),
        (AsymForm.build((AsymTerm(0.0, 2, -0.5),)), lambda k: mpmath.exp(-mpmath.log(k) ** 2 / 2)),
    ],
    ids=["inverse-square", "geometric", "stretched-exponential", "log-square"],
)
@pytest.mark.parametrize("K", [1024, 4096])
def test_tail_bound_dominates_the_mpmath_tail(form, mp_term, K):
    # log_tail_bound(form, K) >= log sum_{k > K} e^{form(k)}, the tail summed
    # by mpmath at 50 digits
    bound = log_tail_bound(form, K)
    assert bound is not None
    with mpmath.workdps(50):
        tail = mpmath.nsum(mp_term, [K + 1, mpmath.inf], method="r+s+e")
        assert mpmath.log(tail) <= bound


def test_tail_bound_refuses_when_not_monotone_yet():
    # rises until k ~ e^40, far beyond any reasonable K
    form = AsymForm.power(0.5, -1.0) + AsymForm.log_k(20.0)
    assert log_tail_bound(form, 64) is None


def test_mono_start_for_peaked_form():
    form = AsymForm.power(1.0, -1.0) + AsymForm.log_k(10.0)  # peak near k = 10
    start = mono_decreasing_start(form)
    assert start is not None
    ks = np.arange(start, start + 1000, dtype=float)
    vals = form.evaluate(ks)
    assert np.all(np.diff(vals) < 0)


def test_bounds_addition_propagates_unknown_sides():
    a = TailBounds(None, AsymForm.constant(1.0), 2)
    b = TailBounds.exact(AsymForm.power(1.0, -1.0), 8)
    c = a + b
    assert c.lower is None and c.upper is not None and c.k_min == 8


def test_exact_bounds_stay_one_form_through_add_and_scale():
    a = TailBounds.exact(AsymForm.power(1.25, -0.5) + AsymForm.log_k(3.0), 2)
    b = TailBounds.exact(AsymForm.power(0.5, 0.75), 8)
    for got, want in (
        (a + b, a.lower + b.lower),
        (a.scale(2.0), a.lower.scale(2.0)),
        (a.scale(-1.5), a.lower.scale(-1.5)),
    ):
        assert got.lower is got.upper and got.lower == want
    assert (a + b).k_min == 8
    # a side that is not shared is still computed on its own
    c = a + TailBounds(b.lower, AsymForm.power(0.5, 1.0), 1)
    assert c.lower is not c.upper and c.lower == a.lower + b.lower


# The scalar loops that the batched evaluations replaced, kept as the oracle:
# every start and every bound must be the same float, and a numpy warning
# must be raised exactly where these loops raised one.


def _scalar_mono_start(form, start=4):
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


def _scalar_tail_bound(form, start, K):
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


def _outcome(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return repr(fn(*args))
        except RuntimeWarning:
            return "RuntimeWarning"


# slow decays (1e-6 k^0.1) run the bound past its first batch of 8, a
# constant of 1e17 makes neighbouring checkpoints equal, and k^30 overflows
# past the points the scalar loops read
_terms = st.lists(
    st.builds(
        AsymTerm,
        power=st.sampled_from([-1.0, -0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 30.0]),
        log_power=st.integers(0, 2),
        coeff=st.one_of(
            st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3),
            st.sampled_from([-1e-6, 1e-6, -1e-4]),
        ),
    ),
    min_size=1,
    max_size=3,
)
_consts = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-1e17, 1e17]))


@settings(max_examples=500, deadline=None)
@given(terms=_terms, const=_consts)
def test_batched_monotone_start_matches_the_scalar_loop(terms, const):
    form = AsymForm.build(terms, const)
    assert _outcome(mono_decreasing_start, form) == _outcome(_scalar_mono_start, form)


@settings(max_examples=500, deadline=None)
@given(terms=_terms, const=_consts, K=st.sampled_from([4, 7, 100, 1024, 1 << 20, 1 << 30, 1 << 40]))
def test_batched_tail_bound_matches_the_scalar_loop(terms, const, K):
    form = AsymForm.build(terms, const)
    if classify_form(form)[0] is not GrowthKind.SUPER_DECAY:
        return
    assert _outcome(lambda: log_tail_bound(form, K)) == _outcome(
        lambda: _scalar_tail_bound(form, _scalar_mono_start(form), K)
    )


_RISING = AsymForm.build((AsymTerm(40.0, 0, -1e-300), AsymTerm(39.9, 0, 1.0)))


@pytest.mark.parametrize(
    "form, K",
    [
        # the derivative stays positive past 2^43: the scalar loop reads
        # k^39.9 at k = 2^43 and overflows
        (_RISING, 4),
        # decreasing from k = 4 on; k^30 overflows from 2^34 on, inside the
        # bound's first batch but past the three points the scalar loop reads
        (AsymForm.power(30.0, -1.0), 1 << 30),
        # (-L^2 + 8.2 L - 16) / k with L = log k: the derivative is negative
        # at 4, 8 and 16 but not at 32, and negative again past e^5
        (AsymForm.build((AsymTerm(0.0, 3, -1 / 3), AsymTerm(0.0, 2, 4.1), AsymTerm(0.0, 1, -16.0))), 256),
        # the bound stops at j = 8 and j = 9, early in its second batch
        (AsymForm.power(1.0, -0.1), 4),
        (AsymForm.power(0.5, -0.1), 1024),
        # neighbouring checkpoints round to the same value
        (AsymForm.power(0.5, -1.0, 1e17), 4),
    ],
)
def test_batched_loops_match_the_scalar_loops_on_edge_forms(form, K):
    assert _outcome(mono_decreasing_start, form) == _outcome(_scalar_mono_start, form)
    assert _outcome(lambda: log_tail_bound(form, K)) == _outcome(
        lambda: _scalar_tail_bound(form, _scalar_mono_start(form), K)
    )


def test_batched_monotone_start_warns_where_the_scalar_loop_did():
    assert _outcome(_scalar_mono_start, _RISING) == "RuntimeWarning"
    assert _outcome(mono_decreasing_start, _RISING) == "RuntimeWarning"


def _bits(form):
    return [(t.power, t.log_power, t.coeff, t.residual) for t in form.terms], form.const


@settings(max_examples=300, deadline=None)
@given(
    base=st.builds(AsymForm.build, _terms, _consts),
    slope=st.builds(AsymForm.build, _terms, _consts),
    p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    n=st.integers(0, 40),
)
def test_affine_family_rows_are_the_form_arithmetic(base, slope, p, n):
    # every coefficient, residual and constant of row n is the float the
    # AsymForm operations give, shared scales and cancellations included
    want = (base + slope.scale(float(n))).scale(p)
    assert repr(_bits(affine_family(base, slope, p)(float(n)))) == repr(_bits(want))


def test_affine_family_drops_a_cancelled_term():
    # k^-4 on lam_k = k^2: the log k coefficient of row 2 is -4 + 2 * 2 = 0
    base, slope = AsymForm.log_k(-4.0), AsymForm.log_k(2.0, const=0.5)
    row = affine_family(base, slope, 2.0)
    assert row(2.0) == (base + slope.scale(2.0)).scale(2.0) == AsymForm.constant(2.0)
    assert row(3.0).terms == (AsymTerm(0.0, 1, 4.0),)


# The reference arithmetic: every operation normalises its terms through a
# dict and a sort, and _ref_term calls the two error-free transformations as
# functions.  build, +, scale and the constructors must give every
# coefficient, residual and constant as the same float, compared by repr,
# so that 0.0 and -0.0 differ.


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    p = a * b
    t = 134217729.0 * a
    ah = t - (t - a)
    t = 134217729.0 * b
    bh = t - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _ref_term(power, log_power, parts, factor=1.0):
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
    if math.isfinite(coeff) and math.isfinite(residual):
        return AsymTerm(power, log_power, coeff, residual)
    # an overflow on the way: the exact sum, rounded, and the rounded rest
    try:
        exact = Fraction(factor) * sum(Fraction(x) for x in parts)
        coeff = float(exact)
    except (ValueError, OverflowError):  # an inf or nan part, or past the float range
        return AsymTerm(power, log_power, factor * sum(parts))
    return AsymTerm(power, log_power, coeff, float(exact - Fraction(coeff)))


def _ref_build(terms, const=0.0):
    merged = {}
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
        t = ts[0] if len(ts) == 1 else _ref_term(q, m, [x for u in ts for x in (u.coeff, u.residual)])
        if t.coeff != 0.0:
            kept.append(t)
    return AsymForm(tuple(kept), c)


def _ref_scale(form, c):
    if c == 0.0:
        return _ref_build((), 0.0)
    return _ref_build(
        tuple(_ref_term(t.power, t.log_power, (t.coeff, t.residual), c) for t in form.terms),
        c * form.const,
    )


def _reprs(form):
    # the old build left a numpy const numpy; its type is checked apart
    return [repr(t) for t in form.terms], repr(float(form.const))


def _assert_normal_form(form):
    scales = [(t.power, t.log_power) for t in form.terms]
    assert scales == sorted(set(scales), reverse=True)  # descending, one per scale
    assert (0.0, 0) not in scales
    assert all(t.coeff != 0.0 for t in form.terms)
    assert type(form.const) is float


# subnormal, huge and infinite coefficients take _term's float fallback or
# round a product to 0; a few shared scales make merges frequent; numpy
# coefficients and constants occur where a numpy factor made them
_EDGE = [5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
         math.inf, -math.inf, 1 / 3, -0.1, 1.0, np.float64(0.75), np.float64(-2.0)]
_coeffs = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_EDGE), st.floats(allow_nan=False))
_scales = st.sampled_from([(2.0, 0), (1.0, 1), (1.0, 0), (0.5, 0), (0.0, 2), (0.0, 1), (0.0, 0), (-1.0, 0)])
_raw_terms = st.lists(st.builds(lambda s, c: AsymTerm(*s, c), _scales, _coeffs), max_size=5)
# a numpy factor gives numpy coefficients, as in build, and a float const
_factors = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -2.5, 1 / 3, 0.1, 1e300, -1e-300, 5e-324, math.inf, np.float64(0.75)]),
    st.floats(allow_nan=False),
)


@st.composite
def _normal_forms(draw):
    # scaled once, so that coefficients carry residuals as gevlab's do
    terms, const = draw(_raw_terms), draw(st.one_of(st.floats(-50.0, 50.0), st.sampled_from(_EDGE)))
    with np.errstate(all="ignore"):
        form = _ref_scale(_ref_build(terms, const), draw(st.sampled_from([1.0, 1 / 3, -0.7, 0.1])))
    if draw(st.booleans()):  # a numpy const, as the old power(0.0, numpy coeff) made
        form = AsymForm(form.terms, np.float64(form.const))
    return form


@settings(max_examples=500, deadline=None)
@given(terms=_raw_terms, const=st.floats())
def test_build_is_the_reference_normaliser(terms, const):
    with np.errstate(all="ignore"):
        got, want = AsymForm.build(terms, const), _ref_build(terms, const)
    assert _reprs(got) == _reprs(want)
    _assert_normal_form(got)


@settings(max_examples=500, deadline=None)
@given(f=_normal_forms(), g=_normal_forms(), c=_factors)
def test_add_and_scale_are_the_reference_arithmetic(f, g, c):
    # disjoint and shared scales, and exact cancellation of f against -f;
    # numpy scalars warn on inf - inf, in both arithmetics alike
    with np.errstate(all="ignore"):
        cases = (
            (f + g, _ref_build(f.terms + g.terms, f.const + g.const)),
            (g + f, _ref_build(g.terms + f.terms, g.const + f.const)),
            (f + f.scale(-1.0), _ref_build(f.terms + _ref_scale(f, -1.0).terms, f.const - f.const)),
            (f.scale(c), _ref_scale(f, c)),
            ((f + g).scale(c), _ref_scale(_ref_build(f.terms + g.terms, f.const + g.const), c)),
        )
    for got, want in cases:
        assert _reprs(got) == _reprs(want)
        _assert_normal_form(got)
    if all(math.isfinite(t.coeff) for t in f.terms):  # inf - inf is nan
        with np.errstate(all="ignore"):
            assert (f + f.scale(-1.0)).terms == ()


def test_a_huge_coefficient_cancels_against_itself():
    # Dekker's split of 1e308 overflows; the exact sum keeps the residual
    f = AsymForm((AsymTerm(0.5, 0, 1e308, 1.0),), 0.0)
    assert (f + f.scale(-1.0)).terms == ()


@settings(max_examples=500, deadline=None)
@given(
    q=st.sampled_from([2.0, 0.5, 0.0, -0.0, -1.0]),
    coeff=st.one_of(_coeffs, st.sampled_from([0.0, -0.0, np.float64(0.75), np.float64(-2.0)])),
    const=st.one_of(st.floats(), st.sampled_from([0.0, -0.0])),
)
def test_constructors_are_the_reference_build(q, coeff, const):
    for got, want in (
        (AsymForm.constant(const), _ref_build((), const)),
        (AsymForm.power(q, coeff, const), _ref_build((AsymTerm(q, 0, coeff),), const)),
        (AsymForm.log_k(coeff, const), _ref_build((AsymTerm(0.0, 1, coeff),), const)),
        (AsymForm.power_log(q, coeff), _ref_build((AsymTerm(q, 1, coeff),))),
    ):
        assert _reprs(got) == _reprs(want)
        _assert_normal_form(got)


def test_terms_compare_and_hash_without_their_residual():
    a, b = AsymTerm(1.0, 0, 2.0, 1e-17), AsymTerm(power=1.0, log_power=0, coeff=2.0)
    assert a == b and hash(a) == hash(b) and a.scale() == (1.0, 0)
    assert repr(a) == "AsymTerm(power=1.0, log_power=0, coeff=2.0, residual=1e-17)"
    assert AsymTerm(1.0, 0, 1.0) < b < AsymTerm(1.0, 1, -5.0)


@settings(max_examples=300, deadline=None)
@given(forms=st.lists(st.builds(AsymForm.build, _terms, _consts), min_size=1, max_size=5))
def test_form_rows_evaluate_every_form_as_itself(forms):
    ks = np.array([1.0, 2.0, 7.0, 1e3, 2.0**40, 2.0**60])
    with np.errstate(all="ignore"):
        got = FormRows(forms).evaluate(ks)
        for row, form in zip(got, forms):
            assert repr(row.tolist()) == repr(form.evaluate(ks).tolist())


@settings(max_examples=200, deadline=None)
@given(
    forms=st.lists(st.builds(AsymForm.build, _terms, _consts), min_size=1, max_size=5),
    K=st.sampled_from([4, 100, 1024, 1 << 30]),
)
def test_rows_of_starts_and_tail_bounds_are_each_forms_own(forms, K):
    # one call for all rows gives each form the start and bound of its own
    # call, and warns where one of those calls warns
    each = _outcome(lambda: ([mono_decreasing_start(f) for f in forms], [log_tail_bound(f, K) for f in forms]))
    rows = list(range(len(forms)))
    together = _outcome(lambda: (mono_decreasing_start(FormRows(forms)), tail_bounders(forms)(K, rows)))
    assert together == each


def _counted(monkeypatch):
    counts = {"build": 0, "add": 0, "scale": 0, "evaluate": 0, "rows": 0}
    build, evaluate = AsymForm.__dict__["build"].__func__, AsymForm.evaluate
    add, scale, rows_evaluate = AsymForm.__add__, AsymForm.scale, FormRows.evaluate

    def counted_build(cls, *args, **kwargs):
        counts["build"] += 1
        return build(cls, *args, **kwargs)

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counted_scale(self, c):
        counts["scale"] += 1
        return scale(self, c)

    def counted_evaluate(self, ks):
        counts["evaluate"] += 1
        return evaluate(self, ks)

    def counted_rows_evaluate(self, ks):
        counts["rows"] += 1
        return rows_evaluate(self, ks)

    monkeypatch.setattr(AsymForm, "build", classmethod(counted_build))
    monkeypatch.setattr(AsymForm, "__add__", counted_add)
    monkeypatch.setattr(AsymForm, "scale", counted_scale)
    monkeypatch.setattr(AsymForm, "evaluate", counted_evaluate)
    monkeypatch.setattr(FormRows, "evaluate", counted_rows_evaluate)
    return counts


def _guard_cases():
    lin_diag = gl.builtin_spectra()["lin-diag"]
    return {
        # (AsymForm.build, AsymForm.__add__, AsymForm.scale,
        # AsymForm.evaluate, FormRows.evaluate) calls of each, as the series
        # engine makes them.  power_norms reads the two envelopes once,
        # builds one derivative per power for the monotone starts and
        # evaluates all 17 rows together: twice for the starts, once for the
        # tail bounds at K = 1,024
        "power_norms": (
            lambda: gl.power_norms(
                gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(-1.0, 1.0, 1.0, 2.0), 0.5, 1.25),
                n_max=16,
            ),
            (17, 0, 0, 0, 3),
        ),
        "vector_class": (
            lambda: gl.vector_class(gl.builtin_vectors(lin_diag)[1], 1.0, gl.GevreyFlavor.ROUMIEU),
            (0, 2, 4, 0, 0),
        ),
        "harness": (lambda: gl.theorem_equivalence_harness(gl.builtin_spectra()["lin-sqrt"], 1.0), (18, 66, 89, 0, 0)),
    }


@pytest.mark.parametrize("case", ["power_norms", "vector_class", "harness"])
def test_envelope_work_does_not_grow(monkeypatch, case):
    # an exact envelope is one form through + and scale, and the tail
    # checkpoints are read in batches; duplicated work, or a scale of both
    # sides of an exact envelope, raises these counts
    fn, ceiling = _guard_cases()[case]
    counts = _counted(monkeypatch)
    fn()
    assert all(n <= top for n, top in zip(counts.values(), ceiling)), counts
