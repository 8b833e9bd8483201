import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gevlab as gl
from gevlab.series import SeriesStatus

R, B = gl.GevreyFlavor.ROUMIEU, gl.GevreyFlavor.BEURLING


# -- vector classes -------------------------------------------------------------


def test_finite_support_is_entire_for_every_order():
    spec = gl.builtin_spectra()["explicit16"]
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
    for beta in (1.0, 1.5, 2.0):
        r = gl.vector_class(f, beta, R)
        b = gl.vector_class(f, beta, B)
        assert r.member is True and b.member is True
        assert b.s_star_low == math.inf


def test_critical_scale_bracket_matches_closed_form():
    # lam_k = -k, f_k = e^{-ck}: membership iff s < c, so s* = c exactly
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    for c in (0.5, 1.0, 2.0):
        f = gl.CoefficientVector.power_decay(spec, c, 1.0)
        r = gl.vector_class(f, 1.0, R)
        assert r.member is True
        assert r.s_star_low <= c <= r.s_star_high
        assert r.s_star_high - r.s_star_low < 1e-6
        assert abs(r.critical_exponent - c) < 1e-6
        b = gl.vector_class(f, 1.0, B)
        assert b.member is False


def test_mixed_growth_boundary_keeps_a_sound_bracket():
    # lam = k + i sqrt(k): |lam| = k + 1/2 + O(1/k), so s* = 1 exactly.  The
    # envelopes of |lam| are k and k + sqrt(k), which share their leading
    # term, so the closed-form tie bracket is certified at both ends: a
    # convergence just below 1 and a divergence at 1
    spec = gl.PowerLawSpectrum(1, 1, 1, 0.5)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    r = gl.vector_class(f, 1.0, gl.GevreyFlavor.ROUMIEU)
    assert r.member is True
    assert r.s_star_low <= 1.0 <= r.s_star_high
    assert r.s_star_high - r.s_star_low < 1e-3
    statuses = {status for _, status in r.probes}
    assert "converges" in statuses and "diverges" in statuses


def _traced_classification(monkeypatch, f, beta):
    """Both verdicts of f, with the certificate route of every probe."""
    from gevlab import gevrey_classifier as gc

    routes = []
    probe = gc._probe

    def traced(*args):
        cert = probe(*args)
        routes.append(cert.route)
        return cert

    monkeypatch.setattr(gc, "_probe", traced)
    r, b = gc._classify_both(f, beta)
    return r, b, routes


def _solution(spectrum, label, t):
    """y(t) from the catalog vector `label` on a builtin spectrum name or a family."""
    spec = gl.builtin_spectra()[spectrum] if isinstance(spectrum, str) else spectrum
    (v,) = [v for v in gl.builtin_vectors(spec) if v.label == label]
    return gl.solve(gl.SolutionHandle(v, gl.check_admissible(v)), t)


_BELOW_ONE = math.nextafter(1.0, 0.0)
_THIRD = (1 / 3, math.nextafter(1 / 3, 1.0))


@pytest.mark.parametrize(
    "make, beta, s_star, bracket",
    [
        # e^{-k^2 + t k} against |lam|^{1/2} in [k^2, k^2 + k^{1/2}]: s* = 1
        (lambda: _solution("mixed-quart", "gauss", 0.0), 2.0, 1, (_BELOW_ONE, 1.0)),
        (lambda: _solution("mixed-quart", "gauss", 1.0), 2.0, 1, (_BELOW_ONE, 1.0)),
        (lambda: _solution("imag-quad", "gauss", 0.0), 1.0, 1, (_BELOW_ONE, 1.0)),
        (lambda: _solution("imag-quart", "gauss", 0.0), 2.0, 1, (_BELOW_ONE, 1.0)),
        # k^-2 e^{-t k} against |lam| = k: the series still converges at s* = t
        (lambda: _solution("neg-real", "poly2", 0.5), 1.0, 0.5, (0.5, math.nextafter(0.5, 2))),
        (lambda: _solution("neg-real", "poly2", 1.0), 1.0, 1, (1.0, math.nextafter(1.0, 2))),
        (lambda: _solution("neg-real", "poly2", 2.0), 1.0, 2, (2.0, math.nextafter(2.0, 3))),
        # s* = 1/3 is no float.  fl(1/3) lies below it and converges, though
        # 3 fl(1/3) rounds onto 1: the merged coefficient keeps its sign
        (
            lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(3, 1, 0, 0), 1.0, 1.0),
            1.0,
            Fraction(1, 3),
            _THIRD,
        ),
        # k^-2 e^{-3 fl(1/3) k} against |lam| = 3k: s* = fl(1/3) exactly
        (
            lambda: _solution(gl.PowerLawSpectrum(-3, 1, 0, 0), "poly2", 1 / 3),
            1.0,
            Fraction(1 / 3),
            _THIRD,
        ),
    ],
    ids=[
        "mixed-quart-t0", "mixed-quart-t1", "imag-quad", "imag-quart",
        "neg-real-t0.5", "neg-real-t1", "neg-real-t2", "e^-k-on-3k", "k^-2-on--3k-t1/3",
    ],
)
def test_tie_brackets_are_closed_form_and_rigorous(monkeypatch, make, beta, s_star, bracket):
    r, b, routes = _traced_classification(monkeypatch, make(), beta)
    assert (r.member, b.member) == (True, False)
    assert (r.s_star_low, r.s_star_high) == bracket
    assert (b.s_star_low, b.s_star_high) == bracket
    assert Fraction(r.s_star_low) <= s_star <= Fraction(r.s_star_high)
    assert len(r.probes) <= 3 and len(routes) == len(r.probes)
    assert set(routes) <= {"exact-finite", "symbolic-tail", "symbolic-divergence"}
    assert routes[-1] == "symbolic-divergence"


def test_tie_left_open_at_the_ratio_is_closed_one_float_up(monkeypatch):
    # y(1) = e^{A} gauss on -k + i k^2 has coefficients e^{-k^2 - k}; at
    # beta = 1, s* = 1.  At s = 1 the envelopes of |lam| (k^2 below, k^2 + k
    # above) decide nothing, but the next float up diverges from the lower
    # envelope: the bracket is two ulps wide after three probes
    y = _solution(gl.PowerLawSpectrum(-1, 1, 1, 2), "gauss", 1.0)
    r, b, routes = _traced_classification(monkeypatch, y, 1.0)
    assert (r.member, b.member) == (True, False)
    assert (r.s_star_low, r.s_star_high) == (_BELOW_ONE, math.nextafter(1.0, 2.0))
    assert routes == ["symbolic-tail", "no-closed-form", "symbolic-divergence"]


def _upper_only(spectrum, log_coeffs, upper):
    """A custom vector with log-coefficients log_coeffs(k) and only an upper envelope."""

    def coeffs(ks):
        return log_coeffs(ks.astype(float)), np.zeros(ks.shape)

    return gl.CoefficientVector.custom(spectrum, coeffs, gl.TailBounds(None, upper, 1))


def _assert_upper_only_tie(f, beta, bracket):
    # the tie's probe under the ratio certifies Roumieu; without a lower
    # envelope the top probe s = 2^20 refutes nothing, so Beurling stays
    # Unknown and says what is missing.  Nothing is searched
    r, b = gl.vector_class(f, beta, R), gl.vector_class(f, beta, B)
    assert (r.member, b.member) == (True, None)
    assert (r.s_star_low, r.s_star_high) == (b.s_star_low, b.s_star_high) == bracket
    assert r.probes == ((bracket[0], "converges"), (2.0**20, "inconclusive"))
    assert len(r.probes) <= 3
    assert b.detail == "no lower envelope: no scale refutes (undecided at s = 2^20)"
    return r


@pytest.mark.parametrize(
    "lead, floor", [(-1.0, _BELOW_ONE), (-0.5, math.nextafter(0.5, 0.0))], ids=["-1.0", "-0.5"]
)
def test_upper_only_tie_certifies_only_its_floor(lead, floor):
    # coefficients e^{k - k^2} on k + i k^4 at beta = 2: s* = 1.  With only an
    # upper envelope, lead k^2 + k, the tie is certified only from below (one
    # probe under the ratio -lead).  Past that ratio no envelope decides a
    # probe: nothing refutes, and the bracket keeps no upper end
    upper = gl.AsymForm.power(2.0, lead) + gl.AsymForm.power(1.0, 1.0)
    f = _upper_only(gl.builtin_spectra()["mixed-quart"], lambda k: k - k**2, upper)
    r = _assert_upper_only_tie(f, 2.0, (floor, math.inf))
    assert r.s_star_low <= 1.0 <= r.s_star_high == math.inf
    assert r.probes[0] == (math.nextafter(-lead, 0.0), "converges")
    assert r.s_star_low >= r.probes[0][0]  # the tie floor bounds the low end
    assert "diverges" not in {status for _, status in r.probes}


def test_upper_only_tie_keeps_the_critical_scale_above_its_low_end():
    # log-coefficients -k - 2 log k on lam = 3k at beta = 1: s* = 1/3, where
    # the series still converges.  Only the upper envelope is declared, so no
    # probe above s* may count as a convergence
    upper = gl.AsymForm.power(1.0, -1.0) + gl.AsymForm.log_k(-2.0)
    f = _upper_only(gl.PowerLawSpectrum(3, 1, 0, 0), lambda k: -k - 2.0 * np.log(k), upper)
    r = _assert_upper_only_tie(f, 1.0, (0.33333333333333326, math.inf))
    assert Fraction(r.s_star_low) <= Fraction(1, 3) and r.s_star_high == math.inf
    # the tie's certified floor, just under fl(1/3), bounds the low end
    assert r.s_star_low >= math.nextafter(1.0 / 3.0, 0.0)


def test_upper_only_tie_below_the_probe_floor_is_roumieu():
    # log-coefficients -1e-7 k^2 against |lam|^{1/2} in [k^2, k^2 + k^{1/2}]:
    # s* = 1e-7 lies under the low probe 2^-20, which no envelope decides;
    # the tie's probe just under 1e-7 still certifies Roumieu, and without a
    # lower envelope nothing refutes Beurling
    f = _upper_only(gl.builtin_spectra()["mixed-quart"], lambda k: -1e-7 * k**2,
                    gl.AsymForm.power(2.0, -1e-7))
    r = _assert_upper_only_tie(f, 2.0, (9.999999999999998e-08, math.inf))
    assert 0.0 < r.s_star_low <= 1e-7 <= r.s_star_high


def test_a_tie_at_the_smallest_subnormal_says_no_float_lies_below_it():
    # e^{-5e-324 k} on -k at beta = 1: s* = 5e-324, and nextafter(s*, 0) is
    # 0, so the tie has no convergent probe under it and Roumieu stays Unknown
    f = gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(-1, 1, 0, 0), 5e-324, 1.0)
    r = gl.vector_class(f, 1.0, R)
    assert r.member is None and r.probes == ((2.0**20, "diverges"),)
    assert r.detail == "no float lies below the tie ratio 5e-324, so no probe can certify a scale under it"


def test_beurling_detail_names_the_refuting_divergence():
    # k^-2 on -k at t = 0 diverges at every scale: 2^-20 refutes Roumieu, so
    # Beurling fails there too and no top probe is made
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    (f,) = [v for v in gl.builtin_vectors(spec) if v.label == "poly2"]
    r, b = gl.vector_class(f, 1.0, R), gl.vector_class(f, 1.0, B)
    assert (r.member, b.member) == (False, False)
    assert b.probes == ((2.0**-20, "diverges"),)
    assert b.detail == "divergence at s = 2^-20 refutes the Roumieu class"
    # a tie bracket refutes at its top, the closed-form rule proves Beurling
    tie = gl.vector_class(_solution("neg-real", "poly2", 1.0), 1.0, B)
    assert tie.detail == "closed-form tie bracket: divergence at its top"
    entire = gl.vector_class(gl.CoefficientVector.power_decay(spec, 1.0, 2.0), 1.0, B)
    assert entire.member is True
    assert entire.detail == "closed-form tail rule with top-scale certificate"


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.0])
def test_catalog_probes_only_fixed_scales_and_tie_points(beta):
    from gevlab import gevrey_classifier as gc

    for name, spec in gl.builtin_spectra().items():
        for v in gl.builtin_vectors(spec):
            scales = {1.0, 2.0**-20, 2.0**20}
            _, tie = gc._closed_forms(v, beta)
            if tie is not None:
                scales |= {math.nextafter(tie[0], 0.0)}
                if tie[1] is not None:
                    scales |= {tie[1], math.nextafter(tie[1], math.inf)}
            for flavor in (R, B):
                probed = [s for s, _ in gl.vector_class(v, beta, flavor).probes]
                assert len(probed) <= 3, (name, v.label, beta)
                assert set(probed) <= scales, (name, v.label, beta, probed)


def test_fast_spectrum_refutes_roumieu():
    spec = gl.PowerLawSpectrum(0, 0, 1, 2)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    r = gl.vector_class(f, 1.0, R)
    assert r.member is False
    assert r.s_star_high <= 2.0**-20
    assert r.critical_exponent == 0.0


def test_beta_zero_rejected_by_exponential_classifier():
    spec = gl.builtin_spectra()["explicit16"]
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
    with pytest.raises(ValueError):
        gl.vector_class(f, 0.0, R)


def test_beta0_support_classification():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    supported = gl.CoefficientVector.explicit(spec, values=[1.0] * 10)
    v = gl.vector_class_beta0(supported)
    assert v.member is True and v.support_bound == 10.0

    # the bound is the largest |lam_k| over the nonzero coordinates k = 2, 4
    gapped = gl.CoefficientVector.explicit(spec, values=[0.0, 1.0, 0.0, 2.0, 0.0, 0.0])
    v = gl.vector_class_beta0(gapped)
    assert v.member is True and v.support_bound == 4.0

    decaying = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    assert gl.vector_class_beta0(decaying).member is False

    zero = gl.CoefficientVector.explicit(spec, values=[0.0, 0.0])
    vz = gl.vector_class_beta0(zero)
    assert vz.member is True and vz.support_bound == 0.0


def test_beta0_unknown_for_custom_family_without_bounds():
    spec = gl.CustomSpectrum(lambda k: complex(0, k))
    f = gl.CoefficientVector.custom(
        spec,
        lambda ks: (-(ks.astype(float) ** 2), np.zeros(ks.shape)),
        bounds=gl.TailBounds(None, gl.AsymForm.power(2.0, -1.0), 1),
    )
    assert gl.vector_class_beta0(f).member is None


def test_solution_smoothing_on_left_halfplane_spectrum():
    # k^-2 on lam = -k: rough at t = 0, analytic-type at t = 1
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    h = gl.SolutionHandle.admit(f)
    assert gl.vector_class(gl.solve(h, 0.0), 1.0, R).member is False
    r1 = gl.vector_class(gl.solve(h, 1.0), 1.0, R)
    assert r1.member is True
    assert r1.s_star_low <= 1.0 <= r1.s_star_high


def test_critical_scale_matches_closed_form_at_order_two():
    # f = e^{-3 sqrt(k)} on lam_k = k: membership at order 2 iff s < 3
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 3.0, 0.5)
    r = gl.vector_class(f, 2.0, gl.GevreyFlavor.ROUMIEU)
    assert r.member is True
    assert r.s_star_low <= 3.0 <= r.s_star_high
    assert r.s_star_high - r.s_star_low < 1e-6


def test_critical_scale_is_monotone_in_beta():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    lows = [gl.vector_class(f, beta, R).s_star_low for beta in (1.0, 1.5, 2.0)]
    assert lows[0] <= lows[1] + 1e-9 and lows[1] <= lows[2] + 1e-9


def test_inclusion_chain_across_orders():
    order = {None: 0, False: 0, True: 1}
    for name, spec in gl.builtin_spectra().items():
        for v in gl.builtin_vectors(spec):
            if not gl.check_admissible(v).admissible:
                continue
            verdicts = {}
            for beta in (1.0, 1.5, 2.0):
                verdicts[(beta, "r")] = gl.vector_class(v, beta, R).member
                verdicts[(beta, "b")] = gl.vector_class(v, beta, B).member
            for beta in (1.0, 1.5, 2.0):
                if verdicts[(beta, "b")] is True:
                    assert verdicts[(beta, "r")] is True, (name, v.label, beta)
            for b1, b2 in ((1.0, 1.5), (1.5, 2.0), (1.0, 2.0)):
                if verdicts[(b1, "r")] is True and verdicts[(b2, "b")] is not None:
                    assert verdicts[(b2, "b")] is True, (name, v.label, b1, b2)


def test_decisions_build_no_text(monkeypatch):
    # a certificate words its envelope only when its detail is read, so no
    # admissibility or class decision on the catalog lattice describes a form
    def refuse(self):
        raise AssertionError("a decision described an envelope")

    monkeypatch.setattr(gl.AsymForm, "describe", refuse)
    kept = gl.certify_log_series(None, bounds=gl.TailBounds.exact(gl.AsymForm.power(1.0, -1.0)), budget=None)
    for spec in gl.builtin_spectra().values():
        for v in gl.builtin_vectors(spec):
            if gl.check_admissible(v).admissible:
                for beta in (1.0, 1.5, 2.0):
                    gl.vector_class(v, beta, R)
                    gl.vector_class(v, beta, B)
    monkeypatch.undo()
    assert kept.to_dict()["detail"] == "upper envelope -1*k^1"


_CATALOG = gl.builtin_spectra()
_ORDERS = (1.0, 1.25, 1.5, 2.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_CATALOG)),
    index=st.integers(min_value=0, max_value=4),
    orders=st.lists(st.sampled_from(_ORDERS), min_size=2, max_size=2, unique=True).map(sorted),
    flavor=st.sampled_from([R, B]),
)
def test_membership_is_monotone_in_beta(name, index, orders, flavor):
    # the order-beta classes grow with beta for each flavor: a vector
    # certified in the class of order b1 is never refuted at b2 > b1
    b1, b2 = orders
    f = gl.builtin_vectors(_CATALOG[name])[index]
    if gl.vector_class(f, b1, flavor).member is True:
        assert gl.vector_class(f, b2, flavor).member is not False, (name, f.label, b1, b2)


# the valid power-law families: a term with a zero coefficient or exponent
# only adds a constant, and families without an increasing part are refused
_FAMILIES = [
    (a_re, p_re, a_im, p_im)
    for a_re in (0, 1, -1)
    for p_re in (0, 0.5, 1)
    for a_im in (0, 1, -1)
    for p_im in (0, 1, 2)
    if (a_re and p_re) or (a_im and p_im)
]
_S_GRID = [2.0**e for e in np.linspace(-20.0, 20.0, 33)]


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    decay=st.one_of(
        st.tuples(st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.5, 1.0, 2.0])),
        st.sampled_from([1.0, 2.0, 3.0]),
    ),
    t=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_membership_is_monotone_in_s_and_the_classes_nest(family, decay, t):
    # the classifier probes only at closed-form tie points and at 2^-20 and
    # 2^20; that rests on every probe certificate being monotone in s.  On a
    # log grid over [2^-20, 2^20] and at both bracket ends, no probe above
    # s_star_high converges, none below s_star_low diverges, and under a
    # Roumieu low end every probe converges
    from gevlab import gevrey_classifier as gc

    assert len(_FAMILIES) == 56
    spec = gl.PowerLawSpectrum(*family)
    if isinstance(decay, tuple):
        f = gl.CoefficientVector.power_decay(spec, *decay)
    else:
        f = gl.CoefficientVector.polynomial_decay(spec, decay)
    if t > 0:
        admissible = gl.check_admissible(f)
        assume(admissible.admissible)
        f = gl.solve(gl.SolutionHandle(f, admissible), t)
    members = {}
    for beta in (1.0, 1.5, 2.0):
        r, b = gc._classify_both(f, beta)
        members[beta] = (r.member, b.member)
        ends = [s for s in (r.s_star_low, r.s_star_high) if 0.0 < s < math.inf]
        for s in _S_GRID + ends:
            got = gc._probe(f, s, beta).status
            if s >= r.s_star_high:
                assert got is not SeriesStatus.CONVERGES, (beta, s)
            if s <= r.s_star_low:
                assert got is not SeriesStatus.DIVERGES, (beta, s)
                assert got is SeriesStatus.CONVERGES or r.member is not True, (beta, s)
    # inclusion chain: Beurling(beta) implies Roumieu(beta), and Roumieu(b1)
    # implies Beurling(b2) for b1 < b2 wherever that is decided
    for beta, (roumieu, beurling) in members.items():
        assert beurling is not True or roumieu is True, beta
    for b1, b2 in ((1.0, 1.5), (1.5, 2.0), (1.0, 2.0)):
        if members[b1][0] is True:
            assert members[b2][1] is not False, (b1, b2)


# -- region test -----------------------------------------------------------------


def test_region_diagonal_line_has_unit_slope():
    rep = gl.region_condition(gl.builtin_spectra()["lin-diag"], 1.0)
    assert rep.holds
    assert abs(rep.status.b_plus - 1.0) < 1e-12


def test_region_negative_axis_is_violated():
    rep = gl.region_condition(gl.builtin_spectra()["neg-real"], 1.0)
    assert rep.violated
    wit = rep.status.witness
    assert len(wit) >= 3
    mods = [abs(z) for z in wit]
    assert mods == sorted(mods) and mods[-1] > mods[0]


def test_region_imaginary_parabola_violated_for_all_orders():
    spec = gl.builtin_spectra()["imag-quad"]
    for beta in (1.0, 1.5, 2.0):
        rep = gl.region_condition(spec, beta)
        assert rep.violated


def test_region_positive_axis_holds_with_infinite_ratios():
    rep = gl.region_condition(gl.builtin_spectra()["pos-real"], 1.0)
    assert rep.holds and rep.status.b_plus == 1.0


def test_region_explicit_spectrum_bounded():
    spec = gl.builtin_spectra()["explicit16"]
    rep = gl.region_condition(spec, 1.5)
    assert rep.holds
    assert rep.status.exception_radius == spec.max_abs() + 1.0


def test_region_monotone_in_beta():
    for name, spec in gl.builtin_spectra().items():
        for b1, b2 in ((1.0, 1.5), (1.5, 2.0)):
            r1 = gl.region_condition(spec, b1)
            if r1.holds:
                assert gl.region_condition(spec, b2).holds, (name, b1, b2)


def test_region_equality_slope_from_coefficients():
    rep = gl.region_condition(gl.PowerLawSpectrum(2, 1, 3, 1), 1.0)
    assert rep.holds
    assert abs(rep.status.b_plus - 2.0 / 3.0) < 1e-12


def _declared(fn, re, im):
    """A custom family whose Re and Im envelopes are exactly a k^p, (a, p) = re, im."""
    env = tuple(gl.TailBounds.exact(gl.AsymForm.power(p, a)) for a, p in (re, im))
    return gl.CustomSpectrum(fn, env)


def test_region_custom_spectrum_paths():
    holds = gl.region_condition(_declared(lambda k: complex(k * k, k), (1, 2), (1, 1)), 1.0)
    assert holds.holds
    # equal exponents: the declared coefficients decide, as on a power law
    boundary = gl.region_condition(_declared(lambda k: complex(2 * k, k), (2, 1), (1, 1)), 1.0)
    b_plus = 2.0
    for _ in range(4):
        b_plus = math.nextafter(b_plus, 0.0)
    assert boundary.holds and boundary.status.b_plus == b_plus
    violated = gl.region_condition(_declared(lambda k: complex(-k, k * k), (-1, 1), (1, 2)), 1.0)
    assert violated.violated
    no_decl = gl.region_condition(gl.CustomSpectrum(lambda k: complex(k, 0)), 1.0)
    assert isinstance(no_decl.status, gl.RegionUnknown)


def test_region_without_envelopes_calls_no_rule():
    # the verdict reads envelopes only, so a family that declares none is
    # Unknown without a single eigenvalue evaluated
    asked = []

    def rule(k):
        asked.append(k)
        return complex(k, 0)

    for beta in (1.0, 2.0):
        rep = gl.region_condition(gl.CustomSpectrum(rule), beta)
        assert isinstance(rep.status, gl.RegionUnknown)
    assert asked == []


def test_region_radius_covers_points_the_envelopes_leave_open():
    exact = gl.TailBounds.exact
    # Re lam_k = k and Im lam_k in [0, 100]: k = 49 lies outside Re >= |Im|
    # and beyond |lam_{k_star}| + 1 = 102, but within the upper modulus
    # k + 100 at k_star = 101
    im = gl.TailBounds(gl.AsymForm.constant(0.0), gl.AsymForm.constant(100.0))
    step = gl.CustomSpectrum(
        lambda k: complex(k, 100.0 if k < 50 else 0.0), (exact(gl.AsymForm.power(1.0, 1.0)), im)
    )
    rep = gl.region_condition(step, 1.0)
    assert rep.holds and rep.status.exception_radius == 202.0
    # envelopes declared from k = 2 leave lam_1 = -50 to the radius
    late = gl.CustomSpectrum(
        lambda k: complex(2 * k, k) if k > 1 else -50.0,
        tuple(exact(gl.AsymForm.power(1.0, a), 2) for a in (2.0, 1.0)),
    )
    rep = gl.region_condition(late, 1.0)
    assert rep.holds and rep.status.exception_radius == 51.0


def test_region_constant_imaginary_offset_holds_past_a_radius():
    rep = gl.region_condition(gl.PowerLawSpectrum(1, 1, 5, 0, label="k+5i"), 1.0)
    assert rep.holds and rep.status.b_plus == 1.0
    # the first few points sit below Re >= |Im|; the radius must cover them
    assert rep.status.exception_radius > abs(complex(4, 5))


def test_region_falling_real_part_with_growing_imaginary_is_violated():
    assert gl.region_condition(gl.PowerLawSpectrum(-1, 1, 1, 2), 1.0).violated


def test_region_detail_prints_exponents_that_read_back():
    # :g alone prints 1.999998 as 2, so the detail would state 1 > 1
    spec = gl.PowerLawSpectrum(0.5, 1, 3, 1.999998)
    want = "real-part exponent 1 > |Im| exponent 1.999998/beta"
    assert gl.region_condition(spec, 2.0).detail == want
    with pytest.raises(gl.PlanError, match=r"exponent 1 >= \|Im\| exponent 1\.999998/beta"):
        gl.plan_for_spectrum(spec, 2.0)


def test_region_below_one_needs_the_extrapolation_flag():
    spec = gl.builtin_spectra()["lin-diag"]
    with pytest.raises(ValueError):
        gl.region_condition(spec, 0.5)


def test_region_mixed_strict_dominance_radius():
    # k + i sqrt(k): every point already satisfies Re >= |Im| for beta = 1
    rep = gl.region_condition(gl.builtin_spectra()["lin-sqrt"], 1.0)
    assert rep.holds
    spec = gl.builtin_spectra()["lin-sqrt"]
    ks = np.arange(1, 4097, dtype=np.int64)
    lams = spec.eigenvalues(ks)
    outside = np.abs(lams) > rep.status.exception_radius
    assert np.all(lams.real[outside] >= rep.status.b_plus * np.abs(lams.imag[outside]))


# -- order estimation --------------------------------------------------------------


def test_estimate_order_pure_geometric_growth():
    spec = gl.ExplicitSpectrum((2 + 0j,))
    f = gl.CoefficientVector.explicit(spec, values=[1.0])
    est = gl.estimate_order(f, n_max=40)
    assert abs(est.beta_hat) < 1e-10
    assert abs(est.alpha_hat - 2.0) < 1e-9
    assert est.fit_residual < 1e-10


def test_estimate_order_recovers_two_for_root_decay():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 0.5)
    est = gl.estimate_order(f, n_max=40)
    assert abs(est.beta_hat - 2.0) < 0.15
    # dense-scan oracle for the norms themselves
    ks = np.arange(1, (1 << 20) + 1, dtype=float)
    for n in (10, 40):
        t = 2.0 * (n * np.log(ks) - np.sqrt(ks))
        m = t.max()
        oracle = 0.5 * (m + math.log(np.exp(t - m).sum()))
        assert abs(est.log_norms[n] - oracle) < 1e-9


def test_estimate_order_superfactorial_decay_converges_slowly_from_below():
    # k^-k sits exactly at order one, but its norms carry a -n log log n
    # correction, so the local curvature n * (second difference) reads
    # 1 - 1/log n + 1/log^2 n + ...; its extrapolation to 1/log n -> 0 meets
    # criterion 4's tolerance and still approaches 1 from below
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)

    def fn(ks):
        kf = ks.astype(float)
        return -kf * np.log(kf), np.zeros(ks.shape)

    f = gl.CoefficientVector.custom(
        spec, fn, bounds=gl.TailBounds.exact(gl.AsymForm.power_log(1.0, -1.0)), label="k^-k"
    )
    e40 = gl.estimate_order(f, n_max=40)
    e80 = gl.estimate_order(f, n_max=80)
    assert abs(e40.beta_hat - 1.0) <= 0.1
    assert abs(e80.beta_hat - 1.0) <= 0.1
    assert e40.beta_hat < e80.beta_hat < 1.0


def _random_explicit_vector(seed):
    rng = np.random.default_rng(seed)
    spec = gl.ExplicitSpectrum(tuple(rng.normal(size=32) + 1j * rng.normal(size=32)))
    return gl.CoefficientVector.explicit(spec, values=list(rng.normal(size=32) + 1j * rng.normal(size=32)))


# |lam_k| ~ k^p and |f_k| = e^{-c k^r} give order p / r; a finite support
# gives order 0.  e^{-k^2} keeps its maximiser hopping between k = 2..5, so
# its local curvature oscillates, and extrapolating it to 1/log n -> 0 reads
# about 1.2.  On the random 32-point spectra the curvature rises from near
# zero and decays exponentially instead of like 1/log n: extrapolated,
# seed 4 reads 0.35, and the least-squares fit reads 0.106 for seed 30,
# whose two largest moduli nearly tie.
@pytest.mark.parametrize(
    "make, order",
    [
        (lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(1, 1, 0, 0), 1.0, 1.0), 1.0),
        (lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(1, 1, 0, 0), 2.0, 0.75), 4.0 / 3.0),
        (lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(1, 1, 0, 0), 0.5, 1.25), 0.8),
        (lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(1, 1, 0, 0), 1.0, 2.0), 0.5),
        (lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(0, 0, 1, 2), 1.0, 1.0), 2.0),
        (lambda: _random_explicit_vector(4), 0.0),
        (lambda: _random_explicit_vector(30), 0.0),
    ],
    ids=["k,e^-k", "k,e^-2k^0.75", "k,e^-0.5k^1.25", "k,e^-k^2", "ik^2,e^-k", "random32", "random32-seed30"],
)
def test_estimate_order_matches_closed_form_order(make, order):
    est = gl.estimate_order(make(), n_max=40)
    assert abs(est.beta_hat - order) <= 0.1


def test_estimate_order_propagates_power_norm_cutoff():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    with pytest.raises(gl.DomainError):
        gl.estimate_order(f, n_max=40)


def test_estimate_order_window_validation():
    # the window [max(4, n_max // 4), n_max] needs n_max >= 5, the one
    # field a job sets
    spec = gl.ExplicitSpectrum((2 + 0j,))
    f = gl.CoefficientVector.explicit(spec, values=[1.0])
    with pytest.raises(ValueError, match=r"^n_max must be >= 5$"):
        gl.estimate_order(f, n_max=4)
    assert gl.estimate_order(f, n_max=5).n_range == (4, 5)


# -- harness -------------------------------------------------------------------


def test_harness_holds_run_certifies_beurling_everywhere():
    rep = gl.theorem_equivalence_harness(gl.builtin_spectra()["lin-diag"], 1.0)
    assert rep.region.holds
    admissible_rows = [r for r in rep.rows if r.admissible]
    assert len(admissible_rows) >= 3
    for row in admissible_rows:
        for t, flavor, member in row.verdicts:
            assert member is True, (row.vector, t, flavor)
    assert rep.counterexample is None


def test_harness_violated_run_builds_refuting_vector():
    rep = gl.theorem_equivalence_harness(gl.builtin_spectra()["imag-quad"], 1.0)
    assert rep.region.violated
    assert rep.counterexample is not None
    assert rep.counterexample.admissibility.admissible
    assert rep.counterexample.non_membership.member is False


def test_harness_raises_on_a_certified_contradiction(monkeypatch):
    # force a "Beurling certified, Roumieu refuted" pair: the report must be
    # attached to the hard failure
    import gevlab.gevrey_classifier as gc

    real = gc._classify_both

    def forged(f, beta):
        r, b = real(f, beta)
        broken_r = gl.GevreyVerdict(gl.GevreyFlavor.ROUMIEU, False, 0.0, 0.0)
        broken_b = gl.GevreyVerdict(gl.GevreyFlavor.BEURLING, True, float("inf"), float("inf"))
        return broken_r, broken_b

    monkeypatch.setattr(gc, "_classify_both", forged)
    with pytest.raises(gl.HarnessError) as err:
        gl.theorem_equivalence_harness(gl.builtin_spectra()["lin-diag"], 1.0)
    assert err.value.report is not None
    assert any("Roumieu refuted" in note for note in err.value.report.notes)


def _harness_records():
    """One structured record per catalog harness call.  Reports hold vectors
    and closures whose reprs carry object addresses, so only their values
    are kept: the region, each row's (t, flavor, member), and the
    counterexample's case, bracket, probes and dual-probe routes."""
    for name, spec in gl.builtin_spectra().items():
        for beta in (1.0, 1.5, 2.0):
            rep = gl.theorem_equivalence_harness(spec, beta)
            region = (repr(rep.region.status), rep.region.detail)
            rows = tuple(
                (r.vector, r.admissible, r.admissible_unknown, r.verdicts) for r in rep.rows
            )
            ce = rep.counterexample
            if ce is not None:
                v = ce.non_membership
                ce = (
                    ce.plan.case.value,
                    repr(ce.admissibility),
                    (v.member, v.s_star_low, v.s_star_high),
                    len(v.probes),
                    v.probes,
                    tuple((s, c.status.value, c.route) for s, c in ce.probe_certificates.items()),
                )
            yield repr((name, beta, region, rows, ce, rep.notes))


# sha256 of the newline-joined _harness_records()
_HARNESS_DIGEST = "ebe65c70afbf63c55aa5fdd8471681b09eb94e3b909e20209e280ecee5d0d40c"


def test_catalog_harness_reports_are_pinned():
    records = list(_harness_records())
    assert len(records) == 24
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == _HARNESS_DIGEST


def test_harness_explicit_spectrum_trivially_consistent():
    rep = gl.theorem_equivalence_harness(gl.builtin_spectra()["explicit16"], 2.0)
    assert rep.region.holds
    assert all(m is True for r in rep.rows for _, _, m in r.verdicts)


def test_decisions_evaluate_no_coefficient():
    # lam_k = -k, f_k = e^{-k}: admissible at every t, and at beta = 1 the
    # tie at s* = 1 gives a convergent probe under the ratio and a divergent
    # one at it.  Verdicts read only envelopes: no coefficient is evaluated,
    # not even for the divergent probe
    asked = []

    def coeffs(ks):
        asked.append(ks.tolist())
        return -ks.astype(float), np.zeros(ks.shape)

    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.custom(spec, coeffs, gl.TailBounds.exact(gl.AsymForm.power(1.0, -1.0)))
    assert gl.check_admissible(f).admissible
    assert asked == []
    r = gl.vector_class(f, 1.0, R)
    assert [st for _, st in r.probes] == ["converges", "diverges"]
    assert asked == []


def test_a_power_past_the_float_range_leaves_the_class_unknown():
    # |lam_k| = k/2 at beta = 0.0005: 0.5^2000 underflows to 0, and an upper
    # envelope |lam_k|^2000 <= 0 once put e^{-k}, which lies in no class of
    # order beta < 1, in both classes.  At beta = 1/1060, 0.5^1060 = 8.1e-320
    # is subnormal, and the probe at s = 2^-20 rounds it to 0 in the same
    # way.  On k + 2ik at beta = 0.001, sqrt(5)^1000 overflows.  Either way
    # the envelope keeps no side
    spec = gl.PowerLawSpectrum(0.5, 1, 0, 0)
    assert spec.lam_bounds.abs_pow(2000.0) == gl.TailBounds(None, None)
    assert spec.lam_bounds.abs_pow(1060.0) == gl.TailBounds(None, None)
    f = gl.CoefficientVector.power_decay(spec, 1, 1)
    for beta in (0.0005, 1 / 1060):
        assert [gl.vector_class(f, beta, fl).member for fl in gl.GevreyFlavor] == [None, None]
    g = gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(1, 1, 2, 1), 1, 1)
    assert gl.vector_class(g, 0.001).member is None
    # at beta = 0.002, 0.5^500 is normal: the envelope decides e^{-k} out of
    # both classes, and no term is evaluated whose power could overflow
    assert [gl.vector_class(f, 0.002, fl).member for fl in gl.GevreyFlavor] == [False, False]
