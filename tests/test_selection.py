"""Golden selections of the violating subsequence.

The plans of counterexamples.py pick j(1) < j(2) < ... greedily.  These
tests pin the first 2^15 selected indices and the disk radii of every plan
the catalog and the canonical constructions produce, so that any change to
how the selection is computed must reproduce the greedy choice exactly.
2^15 covers the 16,384 orders the series engine reaches in
build_counterexample and the orders on mixed-quart at beta = 2 where
j = n^2 sits exactly on the strict violation boundary (the first is
n = 9,745).  A one-index-at-a-time greedy with its own exact oracle checks
the selection on more families, and a loop checks the disk radii.
"""

import hashlib
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gevlab as gl
import gevlab.cli_reporting as cli
from gevlab.counterexamples import (
    Selection,
    SupportView,
    _dense_inverse_fn,
    _Threshold,
    _verify_plan,
)
from gevlab.logdomain import NEG_INF

N_GOLDEN = 1 << 15

_IDENTITY = "76a2f86baf23eee94a2f7c41aa06f1dc78d48dadadb65f0c6c3c64457e3496b9"
_EPS_512 = "484327c81503fce6bf51e74a397c2e0f2c328c20389165105caf96592864e665"

# sha256 of the int64 bytes of j(1..2^15), and of the float64 bytes of epsilons(512)
GOLDEN = {
    **{
        (name, beta): (_IDENTITY, _EPS_512)
        for name in ("neg-real", "imag-quad", "imag-quart", "bounded", "unbounded")
        for beta in (1.0, 1.5, 2.0)
    },
    ("mixed-quart", 1.0): (_IDENTITY, _EPS_512),
    ("mixed-quart", 1.5): (
        "9d46e2022e672ad84d817375e6c1abeb03a8f8f981be83eb133a6ecde288602b",
        _EPS_512,
    ),
    # j(n) = n^2 + 1 for n >= 2: the boundary j = n^2 is never selected
    ("mixed-quart", 2.0): (
        "ad1ec33b815f251dc2973445571e01f4ffde8badce08a67cc0315606e43582d8",
        _EPS_512,
    ),
}


def _plan(name, beta):
    if name in ("bounded", "unbounded"):
        return gl.build_violating_spectrum(beta, gl.PlanCase(name))
    return gl.plan_for_spectrum(gl.builtin_spectra()[name], beta)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


# -- test-local exact oracle -------------------------------------------------


def _sign(lhs, rhs) -> int:
    """Sign of prod b^q over lhs minus prod b^q over rhs (b > 0, q rational).

    Exact with fractions after clearing the exponents' common denominator;
    for large denominators, the difference of the logarithms at 256 bits,
    where |gap| < 2^-200 counts as a tie.
    """
    terms = [(Fraction(b), Fraction(q)) for b, q in lhs]
    terms += [(Fraction(b), -Fraction(q)) for b, q in rhs]
    den = math.lcm(*(q.denominator for _, q in terms))
    if den <= 100:
        prod = math.prod((b ** int(q * den) for b, q in terms), start=Fraction(1))
        return (prod > 1) - (prod < 1)
    with mpmath.workprec(256):
        gap = mpmath.fsum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.log(mpmath.mpf(b.numerator) / b.denominator)
            for b, q in terms
        )
        return 0 if abs(gap) < mpmath.mpf(2) ** -200 else (1 if gap > 0 else -1)


def _ok(spec, beta: float, j: int, n: int) -> bool:
    """The selection rule at (j, n), on the eigenvalue lam_j = a j^pre + i b j^pim."""
    a, pre, b, pim = (Fraction(v) for v in (spec.a_re, spec.p_re, spec.a_im, spec.p_im))
    inv_beta = 1 / Fraction(beta)
    parts = [(p, c) for p, c in ((pre, a), (pim, b)) if c != 0]
    p_hi = max(p for p, _ in parts)
    lead_sq = sum(c * c for p, c in parts if p == p_hi)
    # |lam_j| >= n through the leading term
    if _sign([(lead_sq, Fraction(1, 2)), (j, p_hi)], [(n, 1)]) < 0:
        return False
    # Re < n^-2 |Im|^{1/beta}, non-strict at n = 1; for a <= 0, Re <= 0 <= rhs
    # with equality only when a = b = 0
    if a > 0:
        s = _sign([(a, 1), (j, pre), (n, 2)], [(abs(b), inv_beta), (j, pim * inv_beta)])
        if s > 0 or (s == 0 and n >= 2):
            return False
    # Re >= n when real parts grow
    if a > 0 and pre > 0 and _sign([(a, 1), (j, pre)], [(n, 1)]) < 0:
        return False
    return True


def _guess(spec, beta: float, n: int) -> int:
    """Float estimate of the least index meeting the rule at order n."""
    a, pre, b, pim = spec.a_re, spec.p_re, spec.a_im, spec.p_im
    parts = [(p, abs(c)) for p, c in ((pre, a), (pim, b)) if c != 0]
    p_hi = max(p for p, _ in parts)
    g = (n / math.hypot(*(c for p, c in parts if p == p_hi))) ** (1.0 / p_hi)
    if a > 0:
        g = max(g, (a * n * n / abs(b) ** (1.0 / beta)) ** (1.0 / (pim / beta - pre)))
        if pre > 0:
            g = max(g, (n / a) ** (1.0 / pre))
    return int(g)


def _least(ok, lo: int, guess: int) -> int:
    """Least j > lo with ok(j), for ok monotone in j, searched from guess."""
    hi, step = max(guess, lo + 1), 1
    while not ok(hi):
        lo, hi, step = hi, hi + step, 2 * step
    step = 1
    while hi - step > lo and ok(hi - step):
        hi, step = hi - step, 2 * step
    lo = max(lo, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _greedy(spec, beta: float, n_top: int) -> list[int]:
    """Reference: the greedy choice made one index at a time with the oracle."""
    js, prev = [], 0
    for n in range(1, n_top + 1):
        prev = _least(lambda j: _ok(spec, beta, j, n), prev, _guess(spec, beta, n))
        js.append(prev)
    return js


def _epsilons_loop(plan, n_top: int) -> np.ndarray:
    """Reference: eps_n = min(1/(2n), half the smaller neighboring gap)."""
    gaps = np.abs(np.diff(plan.selected_lams(np.arange(1, n_top + 2, dtype=np.int64))))
    eps = np.empty(n_top)
    for i in range(n_top):
        gap = gaps[i] if i == 0 else min(gaps[i - 1], gaps[i])
        eps[i] = min(1.0 / (2.0 * (i + 1)), gap / 2.0)
    return eps


@pytest.mark.parametrize("name,beta", list(GOLDEN))
def test_selection_matches_golden(name, beta):
    plan = _plan(name, beta)
    js = plan.selection.indices(np.arange(1, N_GOLDEN + 1, dtype=np.int64))
    assert js.dtype == np.int64
    want_js, want_eps = GOLDEN[(name, beta)]
    assert _sha(js) == want_js
    eps = plan.epsilons(512)
    assert _sha(eps) == want_eps
    assert np.array_equal(eps, _epsilons_loop(plan, 512))
    assert np.array_equal(plan.epsilons(1), _epsilons_loop(plan, 1))


# (a_re, p_re, a_im, p_im, beta, orders): exact boundary ties (j = n^2 on
# k+i*k^4 and j = n^4 on k+i*k^3 at beta = 2), slow moduli, constant real
# parts, candidates above 2^53, and exponents with large dyadic denominators
# (0.2 and beta = 1.3), which the selection decides by interval arithmetic
SCALAR_CASES = [
    (1.0, 1.0, 1.0, 4.0, 2.0, 2000),
    (1.0, 1.0, 1.0, 3.0, 2.0, 10_000),
    (0.0, 0.0, 1.0, 0.2, 1.0, 2000),
    (1.0, 1.0, 2.5, 3.0, 1.3, 2000),
    (0.0, 0.0, 1.0, 0.5, 1.0, 2000),
    (5.0, 0.0, 1.0, 2.0, 1.0, 2000),
    (0.5, 0.0, 1.0, 0.5, 1.3, 2000),
    (-2.0, 0.5, 2.5, 7.0, 3.0, 2000),
    (5.0, 1.5, 2.5, 7.0, 1.5, 2000),
]


@pytest.mark.parametrize("a_re,p_re,a_im,p_im,beta,orders", SCALAR_CASES)
def test_blocks_match_scalar_greedy(a_re, p_re, a_im, p_im, beta, orders):
    spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
    sel = Selection(spec, beta)
    for n in (1, 7, 300, orders):  # extensions seeded at several places
        sel.extend(n)
    assert sel.indices(np.arange(1, orders + 1)).tolist() == _greedy(spec, beta, orders)


@pytest.mark.parametrize(
    "a_re,p_re,a_im,p_im,beta", [(0.0, 0.0, 1.0, 0.2, 1.0), (0.5, 0.0, 1.0, 0.5, 1.3)]
)
def test_thresholds_take_at_most_two_exact_evaluations_per_order(
    monkeypatch, a_re, p_re, a_im, p_im, beta
):
    # float(m/e) rounds the exponent 1/0.2 of i*k^0.2 at beta = 1 to 5.0, and
    # float64 spacing passes 1 near 2^53: both move the estimate of T(n) off
    # by more than one, which costs a bisection of the exact window
    evaluations = Counter()
    holds = _Threshold.holds

    def counted(self, js, ns):
        evaluations[self.name] += np.asarray(js).size
        return holds(self, js, ns)

    monkeypatch.setattr(_Threshold, "holds", counted)
    sel = Selection(gl.PowerLawSpectrum(a_re, p_re, a_im, p_im), beta)
    sel.extend(2000)
    assert evaluations and all(count <= 2 * 2000 for count in evaluations.values())


def test_threshold_constants_past_the_float_range():
    # the modulus threshold's constant is a_re^2 = 1e400, past the float
    # range, while its estimate 1e-200 n is finite: |lam_j| >= n at every j
    sel = Selection(gl.PowerLawSpectrum(-1e200, 1, 0, 0), 1.0)
    assert sel.indices(np.arange(1, 101)).tolist() == list(range(1, 101))


@settings(max_examples=60, deadline=None)
@given(
    a_re=st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    p_re=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    a_im=st.sampled_from([0.0, 0.25, 1.0, 2.5]),
    p_im=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
    beta=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
)
def test_selection_matches_exact_greedy_on_small_denominators(a_re, p_re, a_im, p_im, beta):
    try:
        spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
        sel = Selection(spec, beta)
        for n in (1, 7, 300):
            sel.extend(n)
    except (gl.SpectrumError, gl.PlanError):
        assume(False)
    assert sel.indices(np.arange(1, 301)).tolist() == _greedy(spec, beta, 300)


def test_boundary_order_on_mixed_quart_at_beta_two():
    # j = n^2 sits exactly on Re = n^-2 |Im|^{1/2}: the strict inequality
    # rejects it at every n >= 2, including n = 9745, where float rounding
    # of |Im|^{1/2} used to lift the right side above Re
    sel = _plan("mixed-quart", 2.0).selection
    js = sel.indices(np.asarray([1, 2, 3, 9_744, 9_745, 12_763], dtype=np.int64))
    assert js.tolist() == [1, 5, 10, 9_744**2 + 1, 9_745**2 + 1, 12_763**2 + 1]


def test_plan_on_cubic_imaginary_growth_keeps_off_the_boundary():
    # k+i*k^3 at beta = 2: Re < n^-2 |Im|^{1/2} is j > n^4 (j >= 1 at n = 1)
    plan = gl.plan_for_spectrum(gl.PowerLawSpectrum(1.0, 1.0, 1.0, 3.0), 2.0)
    js = plan.selection.indices(np.arange(1, plan.verified_prefix + 1)).tolist()
    assert js[0] == 1
    assert all(j > n**4 for n, j in enumerate(js[1:], start=2))


@pytest.mark.parametrize("name", ["neg-real", "imag-quad", "imag-quart", "mixed-quart"])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_region_witness_is_the_plan_selection(name, beta):
    spec = gl.builtin_spectra()[name]
    rep = gl.region_condition(spec, beta)
    assert rep.violated
    want = gl.plan_for_spectrum(spec, beta).selected_lams(np.arange(1, 13))
    assert rep.status.witness == tuple(want.tolist())


def test_selection_past_int64_keeps_the_violated_verdict():
    # j(1) ~ (10 / 0.2)^1000: the coefficient leaves the float range
    spec = gl.PowerLawSpectrum(10.0, 1.0, 0.2, 1.001)
    with pytest.raises(gl.PlanError, match="int64 at order n=1"):
        gl.plan_for_spectrum(spec, 1.0)
    rep = gl.region_condition(spec, 1.0)
    assert rep.violated and rep.status.witness == ()
    assert "witness cut to 0 points" in rep.detail
    # k+i*k^1.1 at beta = 1: j(n) ~ n^20 fits int64 up to n = 8 only
    spec = gl.PowerLawSpectrum(1.0, 1.0, 1.0, 1.1)
    rep = gl.region_condition(spec, 1.0)
    assert rep.violated
    want = spec.eigenvalues(np.asarray(_greedy(spec, 1.0, 8)))
    assert rep.status.witness == tuple(want.tolist())
    assert "witness cut to 8 points: selected index leaves int64 at order n=9" in rep.detail
    job = cli.parse_jobspec(
        '{"command":"classify-spectrum","beta":1,'
        '"spectrum":{"power_law":{"a_re":1,"p_re":1,"a_im":1,"p_im":1.1}}}'
    )
    report = cli.run(job)
    assert report.status == "ok" and report.error is None
    assert report.verdicts[0]["status"] == "violated"
    assert len(report.verdicts[0]["witness"]) == 8


@pytest.mark.parametrize("params, n", [((1.0, 0.5, 1.0, 1.2), 700), ((1.0, 1.0, 1.0, 2.1), 6209)])
def test_bisection_midpoint_stays_in_int64(monkeypatch, params, n):
    # near the int64 edge lo + hi passes 2^63 and wraps to a negative index;
    # the midpoint lo + (hi - lo) // 2 does not, so the harness ends in the
    # structured int64 error instead of mpmath's log of a negative number
    seen = []
    holds = _Threshold.holds

    def counted(self, js, ns):
        seen.extend(js.tolist())
        return holds(self, js, ns)

    monkeypatch.setattr(_Threshold, "holds", counted)
    with pytest.raises(gl.PlanError, match=f"^selected index leaves int64 at order n={n}$"):
        gl.theorem_equivalence_harness(gl.PowerLawSpectrum(*params), 1.5)
    assert seen and min(seen) > 0


def test_verification_reads_the_eigenvalues_not_the_thresholds():
    # a selection that lost its violation threshold picks j(n) = n on
    # k+i*k^4 at beta = 2, where Re = n > n^-2 |Im|^{1/2} = 1 for n >= 2
    spec = gl.builtin_spectra()["mixed-quart"]
    sel = Selection(spec, 2.0)
    sel.thresholds = [sel.modulus, sel.re_ge_n]
    plan = gl.ViolatingSpectrumPlan(
        beta=2.0, case=gl.PlanCase.UNBOUNDED_REAL_PARTS, spectrum=spec,
        selection=sel, omega=None, verified_prefix=0,
    )
    assert sel.indices(np.arange(1, 4)).tolist() == [1, 2, 3]
    with pytest.raises(gl.PlanError, match="violation inequality"):
        _verify_plan(plan)


def test_custom_family_region_has_no_witness():
    zero = gl.TailBounds.exact(gl.AsymForm.constant(0.0))
    spec = gl.CustomSpectrum(
        lambda k: 1j * k * k, (zero, gl.TailBounds.exact(gl.AsymForm.power(2.0, 1.0)))
    )
    rep = gl.region_condition(spec, 1.0)
    assert rep.violated and rep.status.witness == ()
    assert "no witness" in rep.detail


@pytest.mark.parametrize("decay", [None, 1.0])
def test_dense_inverse_matches_brute_force(decay):
    plan = _plan("mixed-quart", 1.5)
    sel = plan.selection
    view = SupportView(plan, decay)
    prefix_top = int(sel.indices(np.asarray([10_000]))[0])
    # selected and skipped indices, inside and beyond the extended prefix
    js = np.unique(
        np.concatenate(
            [
                np.arange(1, 200),
                np.arange(prefix_top - 50, prefix_top + 50),
                np.arange(80_000, 80_100),
                sel.indices(np.arange(9_990, 10_010)),
            ]
        )
    ).astype(np.int64)
    mags, phases = _dense_inverse_fn(view)(js)

    chosen = sel.indices(np.arange(1, int(js.max()) + 1))
    order = {int(j): n for n, j in enumerate(chosen.tolist(), start=1)}
    want = np.full(js.shape, NEG_INF)
    for i, j in enumerate(js.tolist()):
        if j in order:
            want[i] = view.coeff_log(np.asarray([order[j]], dtype=np.int64))[0][0]
    assert np.any(want == NEG_INF) and np.any(want > NEG_INF)
    assert np.any(js > prefix_top) and np.any(want[js > prefix_top] > NEG_INF)
    assert np.array_equal(mags, want)
    assert np.all(phases == 0.0)

    # every j up to 2^20 on a fresh selection at beta = 2, where j(n) = n^2 + 1:
    # the selection grows only to the order whose index reaches 2^20
    spec = gl.builtin_spectra()["mixed-quart"]
    fresh = gl.ViolatingSpectrumPlan(
        beta=2.0, case=gl.PlanCase.UNBOUNDED_REAL_PARTS, spectrum=spec,
        selection=Selection(spec, 2.0), omega=None, verified_prefix=0,
    )
    view = SupportView(fresh, decay)
    js = np.arange(1, (1 << 20) + 1, dtype=np.int64)
    mags, _ = _dense_inverse_fn(view)(js)
    assert fresh.selection.indices(np.arange(1, 3)).tolist() == [1, 5]
    assert fresh.selection._js.size <= 2048
    ns = np.arange(1, 1025)
    ref = np.asarray(_greedy(spec, 2.0, 1024), dtype=np.int64)
    assert ref[-1] >= js[-1]
    keep = ref <= js[-1]
    want = np.full(js.shape, NEG_INF)
    want[ref[keep] - 1] = view.coeff_log(ns[keep])[0]
    assert np.array_equal(mags, want)
