import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gevlab import asymptotics
from gevlab.asymptotics import AsymForm, AsymTerm, TailBounds
from gevlab.logdomain import NEG_INF
from gevlab.series import (
    SeriesBudget,
    SeriesStatus,
    certify_log_series,
)


def geometric_terms(ks):
    return -ks.astype(float) * math.log(4.0)


def test_exact_finite_geometric_sum():
    # sum_{k=1}^{20} 4^-k against the closed form
    cert = certify_log_series(geometric_terms, count=20)
    oracle = (1.0 - 4.0**-20) / 3.0
    assert cert.status is SeriesStatus.CONVERGES
    assert cert.route == "exact-finite"
    assert abs(math.exp(cert.log_value) - oracle) < 1e-12
    assert cert.log_tail_bound == NEG_INF


@given(st.floats(min_value=0.05, max_value=5.0))
def test_geometric_rates_certify_to_the_closed_form(rate):
    def term(ks):
        return -rate * ks.astype(float)

    cert = certify_log_series(term, bounds=TailBounds.exact(AsymForm.power(1.0, -rate)))
    assert cert.status is SeriesStatus.CONVERGES
    closed = math.log(math.exp(-rate) / (1.0 - math.exp(-rate)))
    assert abs(cert.log_value - closed) < 1e-9 + abs(closed) * 1e-9


def test_zero_count_is_the_empty_sum():
    cert = certify_log_series(geometric_terms, count=0)
    assert cert.status is SeriesStatus.CONVERGES and cert.log_value == NEG_INF


def test_symbolic_tail_route_value_matches_brute_force():
    def term(ks):
        return -ks.astype(float)

    cert = certify_log_series(term, bounds=TailBounds.exact(AsymForm.power(1.0, -1.0)))
    brute = math.log(math.exp(-1.0) / (1.0 - math.exp(-1.0)))
    assert cert.status is SeriesStatus.CONVERGES
    assert cert.route == "symbolic-tail"
    assert abs(cert.log_value - brute) < 1e-12


def test_symbolic_divergence_beats_misleading_prefix():
    # e^{s sqrt(k)} k^-4 decays over any affordable prefix but diverges:
    # only the declared-exponent route can see it
    s = 2.0**-10

    def term(ks):
        kf = ks.astype(float)
        return s * np.sqrt(kf) - 4.0 * np.log(kf)

    bounds = TailBounds.exact(AsymForm.power(0.5, s) + AsymForm.log_k(-4.0))
    cert = certify_log_series(term, bounds=bounds, budget=SeriesBudget(k_max=1 << 16))
    assert cert.status is SeriesStatus.DIVERGES
    assert cert.route == "symbolic-divergence"
    assert cert.witness["kind"] == "sample-prefix"


def _ten_atoms(ks):
    out = np.full(ks.shape, NEG_INF)
    out[ks <= 10] = -1.0
    return out


_NO_ENVELOPE = "no tail envelope declared"


@pytest.mark.parametrize(
    "term,bounds,detail",
    [
        (lambda ks: -0.1 * ks.astype(float), None, _NO_ENVELOPE),
        (lambda ks: -2.0 * np.log(ks.astype(float)), None, _NO_ENVELOPE),
        (lambda ks: 1000.0 - 0.5 * ks.astype(float), None, _NO_ENVELOPE),
        (lambda ks: np.full(ks.shape, -100.0), None, _NO_ENVELOPE),
        (lambda ks: -np.log(ks.astype(float)), None, _NO_ENVELOPE),
        (_ten_atoms, None, _NO_ENVELOPE),
        (
            lambda ks: -np.log(ks.astype(float)),
            TailBounds(None, AsymForm.log_k(-1.0)),
            "upper envelope -1*k^0*log(k) proves no convergence; no lower envelope",
        ),
    ],
    ids=[
        "geometric", "inverse-square", "huge-prefix", "flat", "harmonic", "ten-atoms",
        "harmonic-upper-only",
    ],
)
def test_no_closed_form_is_inconclusive_at_once(term, bounds, detail):
    # an infinite sum is decided by its envelopes or not at all: no prefix is
    # summed to extrapolate from, whatever the terms do
    calls = []

    def counted(ks):
        calls.append(ks.size)
        return term(ks)

    cert = certify_log_series(counted, bounds=bounds)
    assert cert.status is SeriesStatus.INCONCLUSIVE
    assert cert.route == "no-closed-form"
    assert cert.terms_used == 0 and calls == []
    assert cert.detail == detail


def test_harmonic_series_diverges_with_exponents():
    def term(ks):
        return -np.log(ks.astype(float))

    cert = certify_log_series(term, bounds=TailBounds.exact(AsymForm.log_k(-1.0)))
    assert cert.status is SeriesStatus.DIVERGES
    assert cert.route == "symbolic-divergence"


def test_vanishing_log_square_exponent_diverges():
    # e^{-(log k)^2 / k} tends to 1: a (log k)^2 piece under a negative power
    # of k does not lead the growth, the constant does
    def term(ks):
        k = ks.astype(float)
        return -np.log(k) ** 2 / k

    form = AsymForm.build((AsymTerm(-1.0, 2, -1.0),))
    cert = certify_log_series(term, bounds=TailBounds.exact(form))
    assert cert.status is SeriesStatus.DIVERGES
    assert cert.route == "symbolic-divergence"


def test_decision_mode_keeps_verdict_but_trims_work():
    # without a budget a convergent sum is decided with no term evaluated
    def term(ks):
        return -0.001 * ks.astype(float)

    def untouchable(ks):
        raise AssertionError(f"decision evaluated terms {ks[:4]}...")

    bounds = TailBounds.exact(AsymForm.power(1.0, -0.001))
    full = certify_log_series(term, bounds=bounds)
    fast = certify_log_series(untouchable, bounds=bounds, budget=None)
    assert full.status is fast.status is SeriesStatus.CONVERGES
    assert full.route == fast.route == "symbolic-tail"
    assert full.terms_used > 0 and fast.terms_used == 0
    assert math.isnan(fast.log_value) and math.isnan(fast.log_tail_bound)
    finite = certify_log_series(untouchable, count=100, budget=None)
    assert finite.converged and finite.route == "exact-finite" and finite.terms_used == 0
    assert math.isnan(finite.log_value)


def test_huge_but_finite_sums_stay_convergent_on_symbolic_route():
    # partial sums leave the float range long before the terms turn around;
    # the log domain and the declared envelope keep the verdict convergent
    def term(ks):
        kf = ks.astype(float)
        return 2000.0 * kf - kf**2

    bounds = TailBounds.exact(AsymForm.power(2.0, -1.0) + AsymForm.power(1.0, 2000.0))
    cert = certify_log_series(term, bounds=bounds)
    assert cert.status is SeriesStatus.CONVERGES
    assert cert.log_value > 710.0  # e^710 is no float
    oracle_peak = 2000.0 * 1000.0 - 1000.0**2
    assert cert.log_value >= oracle_peak


@pytest.mark.parametrize(
    "term,upper,mp_term,stop",
    [
        (
            lambda ks: -2.0 * np.log(ks.astype(float)),
            AsymForm.log_k(-2.0),
            lambda k: k**-2,
            mpmath.inf,
        ),
        (
            lambda ks: -0.1 * ks.astype(float),
            AsymForm.power(1.0, -0.1),
            lambda k: mpmath.exp(-k / 10),
            mpmath.inf,
        ),
        (
            lambda ks: -3.0 * np.log(ks.astype(float)) - np.sqrt(ks.astype(float)),
            AsymForm.power(0.5, -1.0) + AsymForm.log_k(-3.0),
            lambda k: k**-3 * mpmath.exp(-mpmath.sqrt(k)),
            mpmath.inf,
        ),
        (
            lambda ks: -0.5 * np.log(ks.astype(float)) ** 2,
            AsymForm.build((AsymTerm(0.0, 2, -0.5),)),
            lambda k: mpmath.exp(-mpmath.log(k) ** 2 / 2),
            mpmath.inf,
        ),
        (
            lambda ks: 2000.0 * ks.astype(float) - ks.astype(float) ** 2,
            AsymForm.power(2.0, -1.0) + AsymForm.power(1.0, 2000.0),
            lambda k: mpmath.exp(2000 * k - k**2),
            # nsum's extrapolation misses the peak at k = 1000; past k = 4000
            # the terms are below e^{-8e6}, far under 50 digits of the sum
            4000,
        ),
    ],
    ids=["inverse-square", "geometric", "stretched-exponential", "log-square", "peaked"],
)
def test_symbolic_tail_brackets_the_mpmath_sum(term, upper, mp_term, stop):
    # the certified partial sum lies below the true sum, and with the tail
    # bound above it; log_value carries the rounding of a float of its size
    cert = certify_log_series(term, bounds=TailBounds.exact(upper))
    assert cert.status is SeriesStatus.CONVERGES and cert.route == "symbolic-tail"
    with mpmath.workdps(50):
        total = mpmath.nsum(mp_term, [1, stop])
        slack = 64 * 2.0**-53 * max(1.0, abs(cert.log_value))
        low = mpmath.exp(mpmath.mpf(cert.log_value) - slack)
        high = mpmath.exp(mpmath.mpf(cert.log_value) + slack) + mpmath.exp(cert.log_tail_bound)
        assert low <= total <= high


def test_monotone_start_is_found_once_per_call(monkeypatch):
    # K = 4,096 takes three blocks; the envelope's monotone start is worked
    # out once for all of them
    calls = []

    def counted(form, *args, _start=asymptotics.mono_decreasing_start):
        calls.append(form)
        return _start(form, *args)

    monkeypatch.setattr(asymptotics, "mono_decreasing_start", counted)
    form = AsymForm.power(0.5, -2.0) + AsymForm.log_k(24.0)
    cert = certify_log_series(form.evaluate, bounds=TailBounds.exact(form))
    assert cert.route == "symbolic-tail" and cert.terms_used == 4096
    assert len(calls) == 1
