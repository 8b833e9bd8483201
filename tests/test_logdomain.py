import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevlab import logdomain
from gevlab.logdomain import NEG_INF, logaddexp, logsumexp, wrap_phase
from oracles import complex_logsum


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
    log_mag, phase = complex_logsum(mags, phases)
    assert abs(cmath.rect(math.exp(log_mag), phase) - sum(zs)) < 1e-12


def test_complex_logsum_of_nothing_is_zero():
    assert complex_logsum([], []) == (NEG_INF, 0.0)
    assert complex_logsum([NEG_INF], [0.0]) == (NEG_INF, 0.0)


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
    log_mag, phase = complex_logsum(mags, phases)
    m = max(mags)
    if m == NEG_INF:
        assert log_mag == NEG_INF
        return
    with mpmath.workdps(50):
        exact = _mp_sum(mags, phases)
        if log_mag == NEG_INF:
            value = mpmath.mpc(0)
        else:
            value = mpmath.exp(mpmath.mpf(log_mag) - m) * mpmath.expj(mpmath.mpf(phase))
        # absolute error of a few ulps per term, in units of the largest
        # term, plus a relative error from log_mag and the phase
        tol = 8 * _EPS * (len(mags) + abs(exact) * (1 + abs(log_mag)))
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
        log_mag, phase = complex_logsum(mags, phases)
        value = mpmath.exp(mpmath.mpf(log_mag) - m) * mpmath.expj(mpmath.mpf(phase))
        assert abs(value - exact) <= 8 * _EPS * (len(mags) + abs(exact) * (1 + abs(log_mag)))
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


# -- the 2^-96 grid path of logsumexp ------------------------------------------

_GRID_MIN = logdomain._GRID_MIN_TERMS
_LOG2 = math.log(2.0)


def _bulk(kind, n, rng):
    """n log-terms of one kind, from log-values that exp maps to [0, 1]."""
    if kind == "normal":
        return rng.normal(-20.0, 15.0, n)
    if kind == "powers-of-two":  # about 2^0 .. 2^-120
        return -_LOG2 * rng.integers(0, 121, n)
    if kind == "sub-grid":  # below 2^-96, and subnormal past 2^-1022
        return rng.uniform(-745.0, -66.0, n)
    if kind == "unit-binade":  # terms in [1/2, 1], on the 2^-96 grid
        return rng.uniform(-_LOG2, 0.0, n)
    return np.full(n, NEG_INF)


_BULK_KINDS = ["normal", "powers-of-two", "sub-grid", "unit-binade", "-inf"]


_SPECIAL = st.one_of(
    st.floats(-800.0, 0.0),
    st.integers(0, 120).map(lambda j: -_LOG2 * j),
    st.sampled_from([NEG_INF, -53 * _LOG2, -200 * _LOG2, math.log(2.0**-53 - 2.0**-96)]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(_GRID_MIN, 4096),
    st.lists(st.sampled_from(_BULK_KINDS), min_size=1, max_size=3),
    st.lists(_SPECIAL, max_size=40),
    st.integers(0, 2**32 - 1),
)
def test_grid_sum_is_the_float_of_fsum(n, kinds, special, seed):
    rng = np.random.default_rng(seed)
    parts = [_bulk(kind, n // len(kinds), rng) for kind in kinds]
    values = np.concatenate([[0.0], *parts, special])
    rng.shuffle(values)
    got, want = _both(values)
    assert got == want


def _padded(*values, n=_GRID_MIN, pad=NEG_INF):
    return np.concatenate([values, np.full(max(0, n - len(values)), pad)])


@pytest.fixture
def grid_results(monkeypatch):
    """What each call of the grid sum returned (None: left to fsum)."""
    seen = []

    def recorded(x, _grid=logdomain._grid_sum):
        seen.append(_grid(x))
        return seen[-1]

    monkeypatch.setattr(logdomain, "_grid_sum", recorded)
    return seen


def test_ordinary_rows_take_the_grid_path(grid_results):
    # a sum near 1 of many tiny terms, and terms below 2^-96: a grid finer
    # than 2^-96 units would leave these roundings open
    rng = np.random.default_rng(3)
    rows = [
        _padded(0.0, *np.full(4095, -25.0)),
        _padded(0.0, *rng.uniform(-80.0, -20.0, 4095)),
        rng.normal(-5.0, 3.0, 1024),
    ]
    for values in rows:
        got, want = _both(values)
        assert got == want
    assert len(grid_results) == len(rows) and None not in grid_results


def test_rows_of_few_nonzero_terms_keep_fsum(grid_results):
    # fsum reads only the nonzero terms: 1,024 entries, 383 of them nonzero
    values = _padded(*np.linspace(-700.0, 0.0, _GRID_MIN - 1), n=1024)
    got, want = _both(values)
    assert got == want
    assert grid_results == []
    logsumexp(_padded(*np.linspace(-700.0, 0.0, _GRID_MIN), n=1024))
    assert len(grid_results) == 1


def test_ambiguous_rows_fall_back_to_fsum(grid_results):
    # the padding adds terms near e^-700, far below 2^-96, to the leftovers
    rows = [
        # 1 + 2^-53 - 2^-96 + 2^-100: N rounds down from 1 unit below the
        # midpoint, and only the leftovers say by how little
        _padded(0.0, math.log(2.0**-53 - 2.0**-96), math.log(2.0**-100), pad=-700.0),
        # 1 unit below the midpoint, and two leftovers of about 3/4 unit
        # push the sum past it: fsum rounds up
        _padded(0.0, math.log(2.0**-53 - 2.0**-98), math.log(0.75 * 2.0**-96), pad=-700.0),
    ]
    for values in rows:
        got, want = _both(values)
        assert got == want
    assert grid_results == [None, None]
    assert logsumexp(rows[1]) == math.log1p(2.0**-52)


# The grid sum itself, on exact terms that no exp reaches: midpoints of the
# 2^-52 grid of [1, 2) and rows just below one.  Zeros pad to the cutoff.
_EXACT_ROWS = [
    ([1.0, 2.0**-53], 1.0),  # a midpoint, the even neighbour below
    ([1.0, 2.0**-52 + 2.0**-53], 1.0 + 2.0**-51),  # the even neighbour above
    ([1.0, 2.0**-53, 2.0**-200], 1.0 + 2.0**-52),  # just past the midpoint
    ([1.0, 2.0**-52 + 2.0**-53, 2.0**-1074], 1.0 + 2.0**-51),
    ([1.0, 2.0**-53 - 2.0**-96, 2.0**-100], None),  # 1 unit below, open
    ([1.0, 2.0**-53 - 2.0**-98, 0.75 * 2.0**-96], None),  # past it by 1/2 unit
    ([1.0, 2.0**-53 - 2.0**-96], 1.0),  # 1 unit below, no leftover
    ([1.0, 0.5, 0.25, 2.0**-60, 2.0**-120], 1.75),
]


@pytest.mark.parametrize(
    "terms, want",
    _EXACT_ROWS,
    ids=[
        "midpoint-even-below",
        "midpoint-even-above",
        "past-midpoint",
        "past-midpoint-subnormal",
        "below-midpoint-open",
        "past-midpoint-open",
        "below-midpoint-exact",
        "powers-of-two",
    ],
)
def test_grid_sum_of_exact_terms(terms, want):
    x = _padded(*terms, pad=0.0)
    assert logdomain._grid_sum(x) == want
    if want is not None:
        assert want == math.fsum(terms)


_EXACT_TERM = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(0, 120).map(lambda j: 2.0**-j),
    st.integers(53, 120).map(lambda j: 2.0**-53 - 2.0**-j),
    st.floats(0.0, 2.0**-1022),  # subnormal
    st.floats(0.0, 2.0**-96),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_EXACT_TERM, max_size=40), st.integers(_GRID_MIN, 4096), st.integers(0, 2**32 - 1))
def test_grid_sum_matches_fsum_or_leaves_it_open(terms, n, seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([[1.0], terms, rng.uniform(0.0, 2.0**-40, n)])
    got = logdomain._grid_sum(x)
    assert got is None or repr(got) == repr(math.fsum(x.tolist()))


def test_long_and_infinite_rows_keep_fsum(grid_results):
    rng = np.random.default_rng(7)
    long_row = rng.normal(-10.0, 5.0, (1 << 21) + 1)
    got, want = _both(long_row)
    assert got == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        infinite = _padded(math.inf, pad=0.0)
        assert math.isnan(logsumexp(infinite))
        assert repr(logsumexp(infinite)) == repr(_fsum_of_every_term(infinite))
    assert grid_results == []
    with pytest.raises(ValueError):
        logsumexp(_padded(0.0, math.nan, pad=0.0))
