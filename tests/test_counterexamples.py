import math

import numpy as np
import pytest

import gevlab as gl
import oracles
from gevlab.series import SeriesStatus


def check_plan_invariants(plan, prefix=2000):
    ns = np.arange(1, prefix + 1, dtype=np.int64)
    lams = plan.subsequence.eigenvalues(ns)
    mods = np.abs(lams)
    assert np.all(mods >= ns)
    assert np.all(np.diff(mods) > 0)
    rhs = np.abs(lams.imag) ** (1.0 / plan.beta) / ns.astype(float) ** 2
    assert np.all(lams.real[1:] < rhs[1:])
    assert lams.real[0] <= rhs[0]


def test_bounded_plan_uses_imaginary_power_rule():
    for beta, p_im in ((1.0, 2.0), (2.0, 4.0)):
        plan = gl.build_violating_spectrum(beta, gl.PlanCase.BOUNDED_REAL_PARTS)
        spec = plan.spectrum
        assert isinstance(spec, gl.PowerLawSpectrum)
        assert spec.a_re == 0.0 and spec.a_im == 1.0 and spec.p_im == p_im
        assert plan.omega == 0.0
        check_plan_invariants(plan)


def test_unbounded_plan_uses_mixed_power_rule():
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.UNBOUNDED_REAL_PARTS)
    spec = plan.spectrum
    assert (spec.a_re, spec.p_re, spec.a_im, spec.p_im) == (1.0, 1.0, 1.0, 4.0)
    check_plan_invariants(plan)
    ns = np.arange(1, 2001, dtype=np.int64)
    assert np.all(plan.subsequence.eigenvalues(ns).real >= ns)  # Re >= n subsequence


def test_disk_radii_small_and_disjoint():
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    n_top = 300
    eps = plan.epsilons(n_top)
    ns = np.arange(1, n_top + 1)
    assert np.all(eps > 0) and np.all(eps < 1.0 / ns)
    lams = plan.subsequence.eigenvalues(np.arange(1, n_top + 1, dtype=np.int64))
    gaps = np.abs(np.diff(lams))
    assert np.all(gaps >= eps[:-1] + eps[1:])


def test_plan_rejected_for_explicit_or_holding_spectra():
    with pytest.raises(gl.PlanError):
        gl.plan_for_spectrum(gl.builtin_spectra()["explicit16"], 1.0)
    with pytest.raises(gl.PlanError):
        gl.plan_for_spectrum(gl.builtin_spectra()["lin-diag"], 1.0)
    with pytest.raises(gl.PlanError):
        gl.plan_for_spectrum(gl.builtin_spectra()["pos-real"], 1.0)


def test_plan_case_mismatch_rejected():
    with pytest.raises(gl.PlanError):
        gl.plan_for_spectrum(
            gl.builtin_spectra()["imag-quad"], 1.0, gl.PlanCase.UNBOUNDED_REAL_PARTS
        )


def test_bounded_counterexample_matches_proof_coefficients():
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    art = gl.build_counterexample(plan)
    ks = np.arange(1, 65, dtype=np.int64)
    mags, phases = art.f.log_coeffs(ks)
    assert np.array_equal(mags, -2.0 * np.log(ks.astype(float)))
    assert np.all(phases == 0.0)
    assert art.admissibility.admissible
    assert art.non_membership.member is False
    assert art.h is None


def test_unbounded_counterexample_matches_proof_coefficients():
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.UNBOUNDED_REAL_PARTS)
    art = gl.build_counterexample(plan)
    ks = np.arange(1, 65, dtype=np.int64)
    mags, _ = art.f.log_coeffs(ks)
    # coefficients e^{-n Re lam_{j(n)}} with Re lam_{j(n)} = j(n) = n + 1: the
    # selection passes the modulus threshold T*(n) = n by its margin
    assert plan.selection.indices(ks).tolist() == (ks + 1).tolist()
    assert np.allclose(mags, -(ks * (ks + 1.0)), rtol=0, atol=0)
    hm, _ = art.h.log_coeffs(ks)
    assert np.allclose(hm, -0.5 * ks * (ks + 1.0), rtol=0, atol=0)
    # log L = max over t in {0, 1, 50, 100} and n <= 512 of -(n/2 - t)(n + 1),
    # at t = 100 and n = 99 or 100; L = e^5050 is past the float range
    assert art.log_l_bound == 5050.0


def test_auxiliary_bound_log_matches_a_scalar_loop():
    # on 1e6 k + i k^5 at beta = 1, Re lam_{j(n)} = 1e6 j(n) puts log L near
    # 1.7e10, far past the e^700 at which L once was clipped
    plan = gl.plan_for_spectrum(gl.PowerLawSpectrum(1e6, 1, 1, 5), 1.0, gl.PlanCase.UNBOUNDED_REAL_PARTS)
    art = gl.build_counterexample(plan)
    re = plan.subsequence.eigenvalues(np.arange(1, 513, dtype=np.int64)).real
    expected = max(-(n / 2.0 - t) * float(r) for n, r in enumerate(re, 1) for t in (0.0, 1.0, 50.0, 100.0))
    assert art.log_l_bound == expected and 1e10 < expected < 1e11


def test_probe_certificates_diverge_at_all_scales():
    for beta in (1.0, 2.0):
        for case in (gl.PlanCase.BOUNDED_REAL_PARTS, gl.PlanCase.UNBOUNDED_REAL_PARTS):
            art = gl.build_counterexample(gl.build_violating_spectrum(beta, case))
            assert set(art.probe_certificates) == {2.0**-10, 1.0, 2.0**10}
            for cert in art.probe_certificates.values():
                assert cert.status is SeriesStatus.DIVERGES


def test_dual_probe_pairs_exactly_in_log_domain():
    # <e_k, h*> = 1 * k^-2: the coordinate-model distance constants are 1
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    art = gl.build_counterexample(plan)
    for k in (1, 2, 7, 31):
        e_k = gl.CoefficientVector.explicit(plan.spectrum, values=[0.0] * (k - 1) + [1.0])
        norm, _ = e_k.log_norm()
        assert norm == 0.0  # ||e_k|| = 1 exactly
        got = oracles.pairing(e_k, art.h_star, k_cap=k)
        assert got == pytest.approx(k**-2.0, rel=1e-15)
        hm, _ = art.h_star.log_coeffs(np.asarray([k], dtype=np.int64))
        assert hm[0] == -2.0 * np.log(float(k))


def test_selection_subsequence_for_steep_imaginary_growth():
    spec = gl.builtin_spectra()["mixed-quart"]
    plan = gl.plan_for_spectrum(spec, 2.0)
    ns = np.arange(1, 101, dtype=np.int64)
    js = plan.selection.indices(ns)
    # the strict violation inequality needs j > n^2
    assert np.all(js > ns**2)
    check_plan_invariants(plan, prefix=100)
    art = gl.build_counterexample(plan)
    assert isinstance(art.f.space, gl.SupportView)
    assert art.admissibility.admissible
    assert art.non_membership.member is False


def test_bounded_case_subsequence_for_slow_modulus_growth():
    # |lam_j| = sqrt(j) forces j(n) past n^2 before the modulus reaches n:
    # j(n) = ceil((1 + 2^-20) n^2) = n^2 + 1 on these orders
    spec = gl.PowerLawSpectrum(0, 0, 1, 0.5, label="i*sqrt(k)")
    plan = gl.plan_for_spectrum(spec, 1.0)
    js = plan.selection.indices(np.arange(1, 7, dtype=np.int64))
    assert js.tolist() == [2, 5, 10, 17, 26, 37]
    check_plan_invariants(plan, prefix=200)
    art = gl.build_counterexample(plan)
    assert art.f.spectrum is plan.subsequence
    assert art.admissibility.admissible
    assert art.non_membership.member is False
    for cert in art.probe_certificates.values():
        assert cert.status is SeriesStatus.DIVERGES


def test_bounded_case_with_constant_positive_real_part():
    # 5 + i k^2: the violating tail starts only once |Im|^{1/beta} > 5 n^2
    spec = gl.PowerLawSpectrum(5.0, 0.0, 1.0, 2.0, label="5+i*k^2")
    plan = gl.plan_for_spectrum(spec, 1.0)
    assert plan.omega == 5.0
    ns = np.arange(1, 9, dtype=np.int64)
    js = plan.selection.indices(ns)
    lams = plan.subsequence.eigenvalues(ns)
    assert np.all(lams.real[1:] < (np.abs(lams.imag) / ns.astype(float) ** 2)[1:])
    assert js[0] >= 3  # j^2 > 5 already needed at n = 1
    art = gl.build_counterexample(plan)
    assert art.admissibility.admissible and art.non_membership.member is False


def test_counterexamples_on_all_violated_catalog_entries():
    for name in ("neg-real", "imag-quad", "imag-quart", "mixed-quart"):
        spec = gl.builtin_spectra()[name]
        for beta in (1.0, 1.5, 2.0):
            art = gl.build_counterexample(gl.plan_for_spectrum(spec, beta))
            assert art.admissibility.admissible, (name, beta)
            assert art.non_membership.member is False, (name, beta)
    # the canonical plans select j(n) = n, and their vectors live on the
    # plan's subsequence all the same: f and h* with n^-2, and on unbounded
    # plans f with e^{-n Re} and h with e^{-n Re/2}
    for beta in (1.0, 2.0):
        for case in gl.PlanCase:
            plan = gl.build_violating_spectrum(beta, case)
            art = gl.build_counterexample(plan)
            unbounded = case is gl.PlanCase.UNBOUNDED_REAL_PARTS
            views = {"f": art.f.space, "h*": art.h_star.space}
            if unbounded:
                views["h"] = art.h.space
            assert all(v.spectrum is plan.subsequence for v in views.values())
            decays = {"f": 1.0, "h": 0.5, "h*": None} if unbounded else {"f": None, "h*": None}
            assert {k: getattr(v, "decay", None) for k, v in views.items()} == decays, (beta, case)
            assert (art.h is None) is not unbounded
            statuses = [c.status for c in art.probe_certificates.values()]
            assert statuses == [SeriesStatus.DIVERGES] * 3, (beta, case)


@pytest.mark.parametrize("case", list(gl.PlanCase))
def test_dual_probe_criterion_on_a_plan_vector_is_the_probe_certificate(case):
    # h* = n^-2 on f's own spectrum, the plan's subsequence, is the proof's dual
    art = gl.build_counterexample(gl.build_violating_spectrum(1.0, case))
    for s, cert in art.probe_certificates.items():
        assert repr(gl.domain_member_prop31(gl.GevreyExpSymbol(s, 1.0), art.f)) == repr(cert)


def test_solution_of_a_plan_vector_reads_the_coupled_envelope():
    # e^{tA} f keeps the plan view's coupled envelope, so its norm sums as
    # the direct test of e^{tA} on f does
    art = gl.build_counterexample(gl.build_violating_spectrum(1.0, gl.PlanCase.UNBOUNDED_REAL_PARTS))
    handle = gl.SolutionHandle(art.f, art.admissibility)
    for t in (0.0, 1.0, 50.0):
        norm, cert = gl.solve(handle, t).log_norm()
        assert cert.status is SeriesStatus.CONVERGES
        assert norm == gl.domain_member_direct(gl.ExpSymbol(t), art.f).log_value / 2


# -- order-1 verdicts at t = 0 ------------------------------------------------
# The Taylor series of y at 0 has radius s*, the critical scale of f at
# beta = 1, so the order-1 Roumieu verdict decides analyticity at t = 0.


def test_probe_explicit_spectrum_reports_inverse_radius():
    # a finite spectrum makes y(t) a finite sum of exponentials: entire
    spec = gl.builtin_spectra()["explicit16"]
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
    out = gl.vector_class(f, 1.0)
    assert out.member is True
    assert out.s_star_low == math.inf


def test_probe_detects_finite_order_breakdown():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    assert gl.vector_class(f, 1.0).member is False
    norms = gl.power_norms(f, 40, budget=None)
    assert norms.cutoff == 2
    assert norms.cutoff_certificate.status is SeriesStatus.DIVERGES


def test_probe_refutes_counterexample_at_order_one():
    art = gl.build_counterexample(
        gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    )
    assert gl.vector_class(art.f, 1.0).member is False


def test_probe_analytic_for_smooth_data_on_growing_spectrum():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    assert gl.vector_class(f, 1.0).member is True


def test_jump_probe_consistency_on_holding_spectra():
    # analytic at zero (order-1 Roumieu) + region holds at order one => entire
    for name in ("lin-diag", "pos-real", "lin-sqrt"):
        spec = gl.builtin_spectra()[name]
        assert gl.region_condition(spec, 1.0).holds
        for v in gl.builtin_vectors(spec):
            if not gl.check_admissible(v).admissible:
                continue
            if gl.vector_class(v, 1.0).member is True:
                assert gl.vector_class(v, 1.0, gl.GevreyFlavor.BEURLING).member is True
