import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevlab.logdomain import (
    NEG_INF,
    LogPolar,
    complex_logsum,
    logaddexp,
    logsumexp,
    wrap_phase,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
nonzero = finite.filter(lambda x: abs(x) > 1e-12)


@given(st.floats(min_value=-math.pi + 1e-12, max_value=math.pi, allow_nan=False))
def test_wrap_is_bitwise_identity_in_range(phi):
    assert float(wrap_phase(phi)) == phi


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_wrap_lands_in_canonical_interval(phi):
    w = float(wrap_phase(phi))
    assert -math.pi < w <= math.pi
    # same angle modulo 2 pi
    assert abs(cmath.exp(1j * w) - cmath.exp(1j * phi)) < 1e-9


def test_wrap_boundary_maps_minus_pi_to_pi():
    assert float(wrap_phase(-math.pi)) == math.pi
    assert float(wrap_phase(math.pi)) == math.pi


@given(nonzero, nonzero)
def test_logpolar_roundtrip(re, im):
    z = complex(re, im)
    back = LogPolar.from_complex(z).to_complex()
    assert abs(back - z) <= 1e-12 * abs(z)


def test_logpolar_zero_is_canonical():
    zp = LogPolar.from_complex(0j)
    assert zp.is_zero and zp.phase == 0.0
    assert LogPolar(NEG_INF, 2.5).phase == 0.0
    assert zp.to_complex() == 0j


def test_logpolar_rejects_nan_and_posinf():
    with pytest.raises(ValueError):
        LogPolar(math.nan)
    with pytest.raises(ValueError):
        LogPolar(math.inf)


def test_logpolar_multiplication_matches_complex():
    a, b = LogPolar.from_complex(2 + 1j), LogPolar.from_complex(-0.5 + 3j)
    assert abs((a * b).to_complex() - (2 + 1j) * (-0.5 + 3j)) < 1e-12
    assert (a * LogPolar.zero()).is_zero


def test_logsumexp_against_direct_sum():
    vals = np.array([-3.0, -1.0, 0.5, -40.0])
    assert math.isclose(logsumexp(vals), math.log(np.exp(vals).sum()), rel_tol=1e-14)


def test_logsumexp_edges():
    assert logsumexp([]) == NEG_INF
    assert logsumexp([NEG_INF, NEG_INF]) == NEG_INF
    assert math.isclose(logsumexp([700.0, 700.0]), 700.0 + math.log(2.0))


def test_logaddexp_identities():
    assert logaddexp(NEG_INF, 1.5) == 1.5
    assert logaddexp(1.5, NEG_INF) == 1.5
    assert math.isclose(logaddexp(0.0, 0.0), math.log(2.0))


def test_complex_logsum_matches_direct():
    zs = [0.5 + 0.2j, -0.1 + 0.9j, 2.0 - 1.0j, -1.5 - 0.5j]
    mags = [math.log(abs(z)) for z in zs]
    phases = [cmath.phase(z) for z in zs]
    got = complex_logsum(mags, phases).to_complex()
    assert abs(got - sum(zs)) < 1e-12


def test_complex_logsum_of_nothing_is_zero():
    assert complex_logsum([], []).is_zero
    assert complex_logsum([NEG_INF], [0.0]).is_zero


# -- mpmath oracle at 50 digits ---------------------------------------------------

_EPS = 2.0**-53
# log-magnitudes with -inf entries and spreads far beyond the float range
log_mags = st.lists(
    st.one_of(st.just(NEG_INF), st.floats(min_value=-3000.0, max_value=3000.0)),
    min_size=1,
    max_size=24,
)


def _mp_sum(mags, phases):
    """sum_i e^{mags_i + i phases_i} e^{-m}, m = max(mags), at 50 digits."""
    m = max(mags)
    return mpmath.fsum(
        mpmath.exp(mpmath.mpf(a) - m) * mpmath.expj(mpmath.mpf(phi))
        for a, phi in zip(mags, phases)
        if a != NEG_INF
    )


@settings(max_examples=200)
@given(log_mags)
def test_logsumexp_matches_mpmath(mags):
    got = logsumexp(mags)
    m = max(mags)
    if m == NEG_INF:
        assert got == NEG_INF
        return
    with mpmath.workdps(50):
        exact = m + mpmath.log(_mp_sum(mags, [0.0] * len(mags)).real)
        # each scaled term is off by a few ulps of the largest one, the
        # result by the rounding of a float of its size
        assert abs(got - exact) <= 4 * _EPS * (len(mags) + abs(exact))


@settings(max_examples=200)
@given(log_mags, st.data())
def test_complex_logsum_matches_mpmath(mags, data):
    # half the draws pair every entry with its negation, so that the large
    # terms cancel and the sum is much smaller than its largest term
    phases = data.draw(st.lists(st.floats(-math.pi, math.pi), min_size=len(mags), max_size=len(mags)))
    if data.draw(st.booleans()):
        mags = mags + mags + [min(mags) - 30.0]
        phases = phases + [phi + math.pi for phi in phases] + [0.5]
    got = complex_logsum(mags, phases)
    m = max(mags)
    if m == NEG_INF:
        assert got.is_zero
        return
    with mpmath.workdps(50):
        exact = _mp_sum(mags, phases)
        if got.is_zero:
            value = mpmath.mpc(0)
        else:
            value = mpmath.exp(mpmath.mpf(got.log_mag) - m) * mpmath.expj(mpmath.mpf(got.phase))
        # absolute error of a few ulps per term, in units of the largest
        # term, plus a relative error from log_mag and the phase
        tol = 8 * _EPS * (len(mags) + abs(exact) * (1 + abs(got.log_mag)))
        assert abs(value - exact) <= tol


@pytest.mark.parametrize(
    "mags, phases",
    [
        ([0.0, 0.0, -30.0], [0.0, math.pi, 0.3]),  # two unit terms cancel
        ([700.0, NEG_INF, -750.0, 699.0], [0.1, 2.0, -1.0, 0.1 - math.pi]),  # spread 1,450
        ([-1400.0, -1400.0, NEG_INF], [1.0, -2.0, 0.0]),  # every term underflows e^x
    ],
    ids=["cancelling", "wide-spread", "underflowing"],
)
def test_kernels_match_mpmath_on_hard_arrays(mags, phases):
    m = max(mags)
    with mpmath.workdps(50):
        exact = _mp_sum(mags, phases)
        got = complex_logsum(mags, phases)
        value = mpmath.exp(mpmath.mpf(got.log_mag) - m) * mpmath.expj(mpmath.mpf(got.phase))
        assert abs(value - exact) <= 8 * _EPS * (len(mags) + abs(exact) * (1 + abs(got.log_mag)))
        real = m + mpmath.log(_mp_sum(mags, [0.0] * len(mags)).real)
        assert abs(logsumexp(mags) - real) <= 4 * _EPS * (len(mags) + abs(real))


def _fsum_of_every_term(values):
    """logsumexp before underflowed terms were left out of the sum."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(np.max(arr))
    if m == NEG_INF:
        return NEG_INF
    if math.isnan(m):
        raise ValueError("NaN in log-domain summation")
    return m + math.log(math.fsum(np.exp(arr - m).tolist()))


def _both(values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return repr(logsumexp(values)), repr(_fsum_of_every_term(values))


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -800.0, -1000.0, -5.0, -745.5],  # underflowing tail
        [0.0] + [-740.0 - 0.25 * i for i in range(20)],  # subnormal terms stay
        [-1e300, -1e300 + 1e284, -1.0e300 - 1e284],
        [NEG_INF, NEG_INF, NEG_INF],
        [],
        [math.inf, 0.0, -2000.0],
        [math.inf, math.inf],
        [3.0, NEG_INF, -1e6, 2.5],
    ],
)
def test_logsumexp_without_underflowed_terms_is_the_same_float(values):
    got, want = _both(values)
    assert got == want


def test_logsumexp_keeps_nan():
    for values in ([0.0, math.nan], [math.nan], [math.inf, math.nan, -1000.0]):
        with pytest.raises(ValueError):
            logsumexp(values)
    # +inf - +inf is NaN, which the sum keeps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert math.isnan(logsumexp([math.inf, -800.0]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.floats(-2000.0, 50.0), st.just(NEG_INF)),
        max_size=40,
    )
)
def test_logsumexp_matches_the_sum_of_every_term(values):
    got, want = _both(values)
    assert got == want
