import math

import numpy as np
import pytest

import gevlab as gl
from gevlab.series import SeriesStatus


def check_plan_invariants(plan, prefix=2000):
    ns = np.arange(1, prefix + 1, dtype=np.int64)
    lams = plan.selected_lams(ns)
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
    assert np.all(plan.selected_lams(ns).real >= ns)  # Re >= n subsequence


def test_disk_radii_small_and_disjoint():
    plan = gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    n_top = 300
    eps = plan.epsilons(n_top)
    ns = np.arange(1, n_top + 1)
    assert np.all(eps > 0) and np.all(eps < 1.0 / ns)
    lams = plan.selected_lams(np.arange(1, n_top + 1, dtype=np.int64))
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
    # coefficients e^{-n Re lam_n} with Re lam_n = n
    assert np.allclose(mags, -(ks.astype(float) ** 2), rtol=0, atol=0)
    hm, _ = art.h.log_coeffs(ks)
    assert np.allclose(hm, -0.5 * ks.astype(float) ** 2, rtol=0, atol=0)
    assert art.l_bound is not None and math.isfinite(art.l_bound)


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
        e_k = gl.CoefficientVector.explicit(
            plan.spectrum,
            log_polars=[gl.LogPolar.zero()] * (k - 1) + [gl.LogPolar(0.0, 0.0)],
        )
        norm, _ = e_k.log_norm()
        assert norm == 0.0  # ||e_k|| = 1 exactly
        got = gl.pairing(e_k, art.h_star, k_cap=k)
        assert got == pytest.approx(k**-2.0, rel=1e-15)
        hm, _ = art.h_star.log_coeffs(np.asarray([k], dtype=np.int64))
        assert hm[0] == -2.0 * np.log(float(k))


def test_selection_subsequence_for_steep_imaginary_growth():
    spec = gl.builtin_spectra()["mixed-quart"]
    plan = gl.plan_for_spectrum(spec, 2.0)
    assert not plan.selection.identity_certified()
    ns = np.arange(1, 101, dtype=np.int64)
    js = plan.selection.indices(ns)
    # strict violation needs j > n^2 for n >= 2 (n = 1 sits on the boundary)
    assert np.all(js[1:] > ns[1:].astype(np.int64) ** 2)
    check_plan_invariants(plan, prefix=100)
    art = gl.build_counterexample(plan)
    assert art.admissibility.admissible
    assert art.non_membership.member is False


def test_bounded_case_subsequence_for_slow_modulus_growth():
    # |lam_j| = sqrt(j) forces j(n) = n^2 before the modulus reaches n
    spec = gl.PowerLawSpectrum(0, 0, 1, 0.5, label="i*sqrt(k)")
    plan = gl.plan_for_spectrum(spec, 1.0)
    assert not plan.selection.identity_certified()
    js = plan.selection.indices(np.arange(1, 7, dtype=np.int64))
    assert js.tolist() == [1, 4, 9, 16, 25, 36]
    check_plan_invariants(plan, prefix=200)
    art = gl.build_counterexample(plan)
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
    lams = plan.selected_lams(ns)
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


# -- analyticity probe -----------------------------------------------------------


def test_probe_explicit_spectrum_reports_inverse_radius():
    # a finite spectrum makes y(t) a finite sum of exponentials: entire
    spec = gl.builtin_spectra()["explicit16"]
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
    h = gl.SolutionHandle.admit(f)
    out = gl.analytic_at_zero_probe(h)
    assert isinstance(out, gl.AnalyticAtZero)
    assert out.delta == math.inf


def test_probe_detects_finite_order_breakdown():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    h = gl.SolutionHandle.admit(f)
    out = gl.analytic_at_zero_probe(h)
    assert isinstance(out, gl.NotAnalytic)
    assert "n = 2" in out.reason


def test_probe_refutes_counterexample_at_order_one():
    art = gl.build_counterexample(
        gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    )
    h = gl.SolutionHandle(art.f, art.admissibility)
    assert isinstance(gl.analytic_at_zero_probe(h), gl.NotAnalytic)


def test_probe_analytic_for_smooth_data_on_growing_spectrum():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    h = gl.SolutionHandle.admit(f)
    out = gl.analytic_at_zero_probe(h)
    assert isinstance(out, gl.AnalyticAtZero)


def test_jump_probe_consistency_on_holding_spectra():
    # analytic at zero + region holds at order one => entire
    for name in ("lin-diag", "pos-real", "lin-sqrt"):
        spec = gl.builtin_spectra()[name]
        assert gl.region_condition(spec, 1.0).holds
        for v in gl.builtin_vectors(spec):
            cert = gl.check_admissible(v)
            if not cert.admissible:
                continue
            h = gl.SolutionHandle(v, cert)
            if isinstance(gl.analytic_at_zero_probe(h), gl.AnalyticAtZero):
                assert gl.vector_class(v, 1.0, gl.GevreyFlavor.BEURLING).member is True
