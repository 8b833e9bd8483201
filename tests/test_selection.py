"""Golden selections of the violating subsequence.

The plans of counterexamples.py pick j(1) < j(2) < ... by a margin rule:
each index passes the float estimate of every threshold by a factor 1 + mu.
These tests pin the first 2^15 selected indices and the disk radii of every
plan the catalog and the canonical constructions produce, so that any change
to how the selection is computed shows.  2^15 covers the 16,384 orders the
series engine reaches in build_counterexample.  A test-local exact oracle
checks what the proof needs on more families: every index meets every
threshold, the indices increase strictly, and each stays within
(1 + 2 mu) T(n) + 1 of the least greedy choice T(n).  A loop checks the disk
radii.
"""

import hashlib
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gevlab as gl
import gevlab.cli_reporting as cli
from gevlab.counterexamples import Selection, _verify_plan

N_GOLDEN = 1 << 15

# j(n) = n + 1: the margin lifts j(1) past the estimate T*(1) = 1
_SHIFTED = "4ea3281962ee8fc741f66aca9e54e17d0fd5b5bc9e6d35582ddd394d8d4ee380"
_EPS_512 = "484327c81503fce6bf51e74a397c2e0f2c328c20389165105caf96592864e665"

# sha256 of the int64 bytes of j(1..2^15), and of the float64 bytes of epsilons(512)
GOLDEN = {
    **{
        (name, beta): (_SHIFTED, _EPS_512)
        for name in ("neg-real", "imag-quad", "imag-quart", "bounded", "unbounded")
        for beta in (1.0, 1.5, 2.0)
    },
    ("mixed-quart", 1.0): (_SHIFTED, _EPS_512),
    ("mixed-quart", 1.5): (
        "2acb4c9c26ffe01e59d2e88323ce46cc9186831f34571c9ff4f27516ce249fdb",
        _EPS_512,
    ),
    # j(n) = ceil((1 + 2^-20) n^2): the boundary j = n^2 is never selected
    ("mixed-quart", 2.0): (
        "155d242f9ae7c72e7190a35bd576e3cd6a964187e58d36b04f455f675fdd081c",
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


def _env(spec):
    """The envelopes the selection reads, ((p_re, re_lo, re_hi), (p_im,
    im_lo, im_hi), k_min); on a power law each component is its own term."""
    lam = spec.lam_bounds
    return (*lam.signed, lam.k_min)


def _ok(env, beta: float, j: int, n: int) -> bool:
    """The selection rule at (j, n), in its worst case over the envelopes
    env = ((p_re, re_lo, re_hi), (p_im, im_lo, im_hi), k_min): re_lo j^pre
    <= Re lam_j <= re_hi j^pre and the same for Im lam_j."""
    (pre, re_lo, re_hi), (pim, im_lo, im_hi), _ = env
    pre, pim, lo, a = (Fraction(v) for v in (pre, pim, re_lo, re_hi))
    b = min(abs(Fraction(im_lo)), abs(Fraction(im_hi)))  # |Im lam_j| >= b j^pim
    inv_beta = 1 / Fraction(beta)
    parts = [(p, c) for p, c in ((pre, min(abs(lo), abs(a))), (pim, b)) if c != 0]
    p_hi = max(p for p, _ in parts)
    lead_sq = sum(c * c for p, c in parts if p == p_hi)
    # |lam_j| >= n through the lower leading term
    if _sign([(lead_sq, Fraction(1, 2)), (j, p_hi)], [(n, 1)]) < 0:
        return False
    # Re < n^-2 |Im|^{1/beta}, non-strict at n = 1; for re_hi <= 0, Re <= 0 <= rhs
    # with equality only when Re = Im = 0
    if a > 0:
        s = _sign([(a, 1), (j, pre), (n, 2)], [(b, inv_beta), (j, pim * inv_beta)])
        if s > 0 or (s == 0 and n >= 2):
            return False
    # Re >= n when real parts grow
    if lo > 0 and pre > 0 and _sign([(lo, 1), (j, pre)], [(n, 1)]) < 0:
        return False
    return True


def _guess(env, beta: float, n: int) -> int:
    """Float estimate of the least index meeting the rule at order n."""
    (pre, re_lo, re_hi), (pim, im_lo, im_hi), _ = env
    b = min(abs(im_lo), abs(im_hi))
    parts = [(p, c) for p, c in ((pre, min(abs(re_lo), abs(re_hi))), (pim, b)) if c != 0]
    p_hi = max(p for p, _ in parts)
    g = (n / math.hypot(*(c for p, c in parts if p == p_hi))) ** (1.0 / p_hi)
    if re_hi > 0:
        g = max(g, (re_hi * n * n / b ** (1.0 / beta)) ** (1.0 / (pim / beta - pre)))
    if re_lo > 0 and pre > 0:
        g = max(g, (n / re_lo) ** (1.0 / pre))
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


def _greedy(env, beta: float, n_top: int) -> list[int]:
    """Reference: the least greedy choice T(1) < T(2) < ..., made one index at
    a time with the oracle, from T(0) = k_min - 1."""
    js, prev = [], env[2] - 1
    for n in range(1, n_top + 1):
        prev = _least(lambda j: _ok(env, beta, j, n), prev, _guess(env, beta, n))
        js.append(prev)
    return js


def _epsilons_loop(plan, n_top: int) -> np.ndarray:
    """Reference: eps_n = min(1/(2n), half the smaller neighboring gap)."""
    gaps = np.abs(np.diff(plan.subsequence.eigenvalues(np.arange(1, n_top + 2, dtype=np.int64))))
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


def _check_margin_rule(sel: Selection, env, beta: float, n_top: int) -> None:
    """What the proof needs of j(1..n_top), against the exact oracle: every
    j(n) meets every threshold, from k_min on the indices increase strictly,
    and j(n) <= (1 + 2 mu) T(n) + 1 against the least greedy choice T(n)."""
    js = sel.indices(np.arange(1, n_top + 1)).tolist()
    assert all(_ok(env, beta, j, n) for n, j in enumerate(js, 1))
    assert js[0] >= env[2] and all(a < b for a, b in zip(js, js[1:]))
    slack = 1 + 2 * Fraction(max(t.mu for t in sel.thresholds))
    assert all(j <= slack * t + 1 for j, t in zip(js, _greedy(env, beta, n_top)))


# (a_re, p_re, a_im, p_im, beta, orders): exact boundary ties (j = n^2 on
# k+i*k^4 and j = n^4 on k+i*k^3 at beta = 2), slow moduli, constant real
# parts, indices above 2^53, and exponents with large dyadic denominators
# (0.2 and beta = 1.3), which the oracle decides at 256 bits
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
    # extensions seeded at several places select what one order at a time
    # selects, and that meets the exact oracle within the margin
    spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
    blocks, scalar = Selection(spec, beta), Selection(spec, beta)
    for n in (1, 7, 300, orders):
        blocks.extend(n)
    for n in range(1, orders + 1):
        scalar.extend(n)
    ns = np.arange(1, orders + 1)
    assert blocks.indices(ns).tolist() == scalar.indices(ns).tolist()
    _check_margin_rule(blocks, _env(spec), beta, orders)


def test_threshold_constants_past_the_float_range():
    # the modulus threshold's constant is a_re^2 = 1e400, past the float
    # range, while its estimate 1e-200 n is finite: |lam_j| >= n at every j
    sel = Selection(gl.PowerLawSpectrum(-1e200, 1, 0, 0), 1.0)
    assert sel.indices(np.arange(1, 101)).tolist() == list(range(1, 101))


_VIOLATED_CATALOG = [
    (name, beta)
    for name, spec in gl.builtin_spectra().items()
    for beta in (1.0, 1.5, 2.0)
    if gl.region_condition(spec, beta).violated
]


@settings(max_examples=50, deadline=None)
@given(
    family=st.one_of(
        st.sampled_from(_VIOLATED_CATALOG),
        st.tuples(
            st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
            st.sampled_from([0.0, 0.25, 1.0, 2.5]),
            st.sampled_from([0.0, 0.2, 0.5, 1.0, 1.05, 2.0, 2.1, 3.0, 4.0]),
            st.sampled_from([1.0, 1.3, 1.5, 2.0, 2.5, 3.0]),
        ),
    ),
)
def test_selection_meets_every_threshold_within_the_margin(family):
    # power laws with dyadic and non-dyadic exponents, and the catalog; a
    # selection that leaves int64 is checked on the orders it selected
    try:
        if len(family) == 2:
            spec, beta = gl.builtin_spectra()[family[0]], family[1]
        else:
            spec, beta = gl.PowerLawSpectrum(*family[:4]), family[4]
        sel = Selection(spec, beta)
    except (gl.SpectrumError, gl.PlanError):
        assume(False)
    try:
        sel.extend(300)
    except gl.PlanError:
        assume(len(sel) > 0)
    _check_margin_rule(sel, _env(spec), beta, len(sel))


def test_boundary_order_on_mixed_quart_at_beta_two():
    # j = n^2 sits exactly on Re = n^-2 |Im|^{1/2}; the margin selects
    # ceil((1 + 2^-20) n^2), n^2 + 1 up to n = 1024 and n^2 + 91 at n = 9745,
    # where float rounding of |Im|^{1/2} once lifted the right side above Re
    plan = _plan("mixed-quart", 2.0)
    js = plan.selection.indices(np.asarray([1, 2, 3, 1024, 1025, 9_745], dtype=np.int64))
    assert js.tolist() == [2, 5, 10, 1024**2 + 1, 1025**2 + 2, 9_745**2 + 91]


def test_plan_on_cubic_imaginary_growth_keeps_off_the_boundary():
    # k+i*k^3 at beta = 2: Re < n^-2 |Im|^{1/2} is j > n^4
    plan = gl.plan_for_spectrum(gl.PowerLawSpectrum(1.0, 1.0, 1.0, 3.0), 2.0)
    js = plan.selection.indices(np.arange(1, plan.verified_prefix + 1)).tolist()
    assert js[0] == 2
    assert all(j > n**4 for n, j in enumerate(js, start=1))


@pytest.mark.parametrize("name", ["neg-real", "imag-quad", "imag-quart", "mixed-quart"])
@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_region_witness_is_the_plan_selection(name, beta):
    spec = gl.builtin_spectra()[name]
    rep = gl.region_condition(spec, beta)
    assert rep.violated
    want = gl.plan_for_spectrum(spec, beta).subsequence.eigenvalues(np.arange(1, 13))
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
    sel = Selection(spec, 1.0)
    with pytest.raises(gl.PlanError, match="int64 at order n=9"):
        sel.extend(9)
    assert len(sel) == 8
    _check_margin_rule(sel, _env(spec), 1.0, 8)
    assert rep.status.witness == tuple(sel.lam(np.arange(1, 9)).tolist())
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
def test_selection_stops_at_the_int64_edge(params, n):
    # near the int64 edge the harness ends in the structured int64 error at
    # the first order whose index would leave int64
    with pytest.raises(gl.PlanError, match=f"^selected index leaves int64 at order n={n}$"):
        gl.theorem_equivalence_harness(gl.PowerLawSpectrum(*params), 1.5)


def test_verification_reads_the_eigenvalues_not_the_thresholds():
    # a selection that lost its violation threshold picks j(n) = n + 1 on
    # k+i*k^4 at beta = 2, where Re = j > n^-2 |Im|^{1/2} = j^2 / n^2 for n >= 2
    spec = gl.builtin_spectra()["mixed-quart"]
    sel = Selection(spec, 2.0)
    sel.thresholds = [sel.modulus, sel.re_ge_n]
    plan = gl.ViolatingSpectrumPlan(
        beta=2.0, case=gl.PlanCase.UNBOUNDED_REAL_PARTS, spectrum=spec,
        selection=sel, omega=None, verified_prefix=0,
    )
    assert sel.indices(np.arange(1, 4)).tolist() == [2, 3, 4]
    with pytest.raises(gl.PlanError, match="violation inequality"):
        _verify_plan(plan)


# lam_k = k (1 + 0.1 sin k) + i k^2, declared by 0.9 k <= Re lam_k <= 1.1 k and
# Im lam_k = k^2: the region condition fails at beta = 1 from the envelopes alone
_LOOSE_ENV = ((1.0, 0.9, 1.1), (2.0, 1.0, 1.0), 1)


def _loose_family():
    re = gl.TailBounds(gl.AsymForm.power(1.0, 0.9), gl.AsymForm.power(1.0, 1.1))
    im = gl.TailBounds.exact(gl.AsymForm.power(2.0, 1.0))
    return gl.CustomSpectrum(
        lambda k: complex(k * (1.0 + 0.1 * math.sin(k)), k * k), (re, im), label="loose"
    )


def test_custom_family_witness_is_the_plan_selection():
    spec = _loose_family()
    rep = gl.region_condition(spec, 1.0)
    assert rep.violated and len(rep.status.witness) == 12
    plan = gl.plan_for_spectrum(spec, 1.0)
    assert plan.case is gl.PlanCase.UNBOUNDED_REAL_PARTS
    assert rep.status.witness == tuple(plan.subsequence.eigenvalues(np.arange(1, 13)).tolist())


def test_custom_family_harness_certifies_its_counterexample():
    report = gl.theorem_equivalence_harness(_loose_family(), 1.0)
    art = report.counterexample
    assert report.region.violated and not report.notes
    assert art.admissibility.admissible and art.non_membership.member is False


def test_loose_family_matches_the_envelope_greedy():
    # the selection meets the envelope oracle within the margin of its greedy
    sel = Selection(_loose_family(), 1.0)
    assert _env(_loose_family()) == _LOOSE_ENV
    _check_margin_rule(sel, _LOOSE_ENV, 1.0, 1000)


def test_selection_starts_where_the_envelopes_hold():
    # lam_1 = 5 breaks Re lam_k = 0, declared from k = 2 only: j(1) = 1 would
    # fail the violation inequality 5 < |Im lam_1| = 0
    exact = gl.TailBounds.exact
    spec = gl.CustomSpectrum(
        lambda k: 5.0 if k == 1 else 1j * k * k,
        (exact(gl.AsymForm.constant(0.0), 2), exact(gl.AsymForm.power(2.0, 1.0), 2)),
    )
    plan = gl.plan_for_spectrum(spec, 1.0)
    js = plan.selection.indices(np.arange(1, plan.verified_prefix + 1))
    assert js.min() == js[0] == 2
    assert js.tolist()[:4] == _greedy(((0.0, 0.0, 0.0), (2.0, 1.0, 1.0), 2), 1.0, 4)
    _verify_plan(plan)
    assert plan.omega == 0.0 and plan.selection.env_coeff >= 2.0


def test_overlapping_disks_off_a_monotone_selection_are_refused():
    # lam_k = i k^2 but lam_5 = 49.9i and lam_7 = 49.95i, inside the declared
    # k^2 <= Im <= 2 k^2: j(n) = n + 1, and Im is not monotone along it, so
    # the disks at n = 4 and n = 6 (0.05 apart, radii 1/8 and 1/12) overlap
    # although every pair of neighbours is disjoint
    def lam(k):
        return {5: 49.9j, 7: 49.95j}.get(k, 1j * k * k)

    im = gl.TailBounds(gl.AsymForm.power(2.0, 1.0), gl.AsymForm.power(2.0, 2.0))
    spec = gl.CustomSpectrum(lam, (gl.TailBounds.exact(gl.AsymForm.constant(0.0)), im))
    assert Selection(spec, 1.0).indices(np.arange(1, 10)).tolist() == list(range(2, 11))
    with pytest.raises(gl.PlanError, match="pairwise disjoint"):
        gl.plan_for_spectrum(spec, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    a_re=st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    p_re=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
    a_im=st.sampled_from([0.0, 0.25, 1.0, 2.5]),
    p_im=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0]),
    beta=st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]),
)
def test_power_law_envelopes_declared_on_a_custom_family_plan_alike(a_re, p_re, a_im, p_im, beta):
    # the plan reads only lam_bounds, so the power law's own exact
    # envelopes, declared on a custom family with the same rule, give the same
    # selection, case and omega, or the same PlanError
    try:
        spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
    except gl.SpectrumError:
        assume(False)
    custom = gl.CustomSpectrum(spec.eigenvalue, (spec.lam_bounds.re, spec.lam_bounds.im))
    plans = []
    for family in (spec, custom):
        try:
            plans.append(gl.plan_for_spectrum(family, beta))
        except gl.PlanError as exc:
            plans.append(str(exc))
    want, got = plans
    if isinstance(want, str):
        assert got == want
        return
    ns = np.arange(1, 4097)
    assert np.array_equal(got.selection.indices(ns), want.selection.indices(ns))
    assert (got.case, got.omega) == (want.case, want.omega)
