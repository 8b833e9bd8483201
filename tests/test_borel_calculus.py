import math
from collections import Counter

import numpy as np
import pytest

import gevlab as gl
from gevlab.logdomain import NEG_INF
from gevlab.series import SeriesStatus


def test_power_zero_and_exp_zero_are_bitwise_identity():
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(3)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, rng.normal(size=16) + 1j * rng.normal(size=16)))
    )
    ks = np.arange(1, 17, dtype=np.int64)
    mf, pf = f.log_coeffs(ks)
    for F in (gl.PowerSymbol(0), gl.ExpSymbol(0.0)):
        g = gl.apply_symbol(F, f)
        mg, pg = g.log_coeffs(ks)
        assert np.array_equal(mf, mg) and np.array_equal(pf, pg)


def test_power_two_squares_eigenvalues():
    spec = gl.ExplicitSpectrum((1 + 0j, 2 + 0j, 3 + 0j))
    f = gl.CoefficientVector.explicit(spec, values=[1.0, 1.0, 1.0])
    g = gl.apply_symbol(gl.PowerSymbol(2), f)
    assert np.allclose(g.to_complex(np.arange(1, 4)), [1.0, 4.0, 9.0])


def test_apply_symbol_rejects_outside_domain():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    with pytest.raises(gl.DomainError):
        gl.apply_symbol(gl.ExpSymbol(1.0), f)


def test_composition_law_exact_on_dyadic_data():
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(9)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, rng.normal(size=16) + 1j * rng.normal(size=16)))
    )
    z1, z2 = 0.5 + 0.25j, 0.25 - 0.5j
    one = gl.apply_symbol(gl.ExpSymbol(z1 + z2), f)
    two = gl.apply_symbol(gl.ExpSymbol(z1), gl.apply_symbol(gl.ExpSymbol(z2), f))
    ks = np.arange(1, 17, dtype=np.int64)
    m1, p1 = one.log_coeffs(ks)
    m2, p2 = two.log_coeffs(ks)
    assert np.array_equal(m1, m2) and np.array_equal(p1, p2)


def test_composite_equals_chained_application_bitwise():
    spec = gl.builtin_spectra()["explicit16"]
    f = gl.CoefficientVector.explicit(spec, values=[complex(k + 1) for k in range(16)])
    F, G = gl.PowerSymbol(2), gl.ExpSymbol(0.5)
    ks = np.arange(1, 17, dtype=np.int64)
    a = gl.apply_symbol(gl.compose(F, G), f)
    b = gl.apply_symbol(F, gl.apply_symbol(G, f))
    ma, pa = a.log_coeffs(ks)
    mb, pb = b.log_coeffs(ks)
    assert np.array_equal(ma, mb) and np.array_equal(pa, pb)


def test_gevrey_weight_is_one_at_the_origin():
    sym = gl.GevreyExpSymbol(3.0, 2.0)
    vals = sym.log_abs(np.array([0j, 16j]))
    assert vals[0] == 0.0
    assert math.isclose(vals[1], 3.0 * 4.0)


# -- direct membership ---------------------------------------------------------


def test_direct_membership_with_partial_sum_oracle():
    # lam_k = -k, f_k = e^-k, F = exp(5 A): oracle by direct summation
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    v = gl.domain_member_direct(gl.ExpSymbol(5.0), f)
    assert v.member is True
    ks = np.arange(1, 1_000_001, dtype=float)
    oracle = 0.5 * math.log(np.exp(2.0 * (-5.0 * ks - ks)).sum())
    assert abs(v.log_norm - oracle) < 1e-12


def test_direct_membership_divergence_witness():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    v = gl.domain_member_direct(gl.ExpSymbol(1.0), f)
    assert v.member is False
    assert v.certificate.status is SeriesStatus.DIVERGES


def test_identity_symbol_keeps_stored_vectors_in_domain():
    for spec in (gl.builtin_spectra()["explicit16"], gl.PowerLawSpectrum(1, 1, 1, 4)):
        f = (
            gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
            if spec.size is not None
            else gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
        )
        assert gl.domain_member_direct(gl.PowerSymbol(0), f).member is True


# -- dual-probe criterion --------------------------------------------------------


def test_prop31_agrees_with_direct_on_random_explicit_spectra():
    rng = np.random.default_rng(42)
    for _ in range(6):
        pts = rng.normal(size=32) + 1j * rng.normal(size=32)
        spec = gl.ExplicitSpectrum(tuple(map(complex, pts)))
        f = gl.CoefficientVector.explicit(
            spec, values=list(map(complex, rng.normal(size=32) + 1j * rng.normal(size=32)))
        )
        for F in gl.catalog_symbols():
            d = gl.domain_member_direct(F, f)
            p = gl.domain_member_prop31(F, f)
            assert d.member == p.member


def test_prop31_divergence_via_slow_dual():
    spec = gl.PowerLawSpectrum(0, 0, 1, 2)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    v = gl.domain_member_prop31(gl.GevreyExpSymbol(1.0, 1.0), f)
    assert v.member is False
    assert "h*" in v.detail


def test_prop31_accepts_identity():
    spec = gl.PowerLawSpectrum(1, 1, 1, 1)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    v = gl.domain_member_prop31(gl.PowerSymbol(0), f)
    assert v.member is True


def test_prop31_rejects_zero_budget():
    spec = gl.PowerLawSpectrum(1, 1, 1, 1)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    with pytest.raises(ValueError):
        gl.domain_member_prop31(gl.PowerSymbol(0), f, probe_budget=0)


# -- power norms ----------------------------------------------------------------


def test_power_norms_single_eigenvalue_is_geometric():
    spec = gl.ExplicitSpectrum((2 + 0j,))
    f = gl.CoefficientVector.explicit(spec, values=[1.0])
    norms = gl.power_norms(f, 12)
    for n, value in enumerate(norms.log_norms):
        assert value == n * np.log(2.0)


def test_power_norms_zero_vector():
    spec = gl.ExplicitSpectrum((2 + 0j, 3 + 0j))
    f = gl.CoefficientVector.explicit(spec, values=[0.0, 0.0])
    norms = gl.power_norms(f, 4)
    assert all(v == NEG_INF for v in norms.log_norms)


def test_power_norms_closed_form_base():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    norms = gl.power_norms(f, 6)
    oracle0 = 0.5 * math.log(1.0 / (math.e**2 - 1.0))
    assert abs(norms.log_norms[0] - oracle0) < 1e-12
    ks = np.arange(1, 200_000, dtype=float)
    oracle3 = 0.5 * math.log(np.sum(ks**6 * np.exp(-2 * ks)))
    assert abs(norms.log_norms[3] - oracle3) < 1e-10


def test_power_norms_cutoff_at_first_uncertified_order():
    # lam_k = k, f_k = k^-2: ||A^n f|| leaves l^2 at n = 2
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    norms = gl.power_norms(f, 10)
    assert norms.cutoff == 2
    assert norms.cutoff_certificate.status is SeriesStatus.DIVERGES
    assert len(norms.log_norms) == 2


def test_power_norms_log_convex_for_l2():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    y = gl.power_norms(f, 12).log_norms
    for n in range(1, 11):
        assert y[n] <= 0.5 * (y[n - 1] + y[n + 1]) + 1e-9


def test_power_norms_without_envelopes_keep_engine_certificates():
    # no log|lam| envelope: A^0 f = f is certified by its own decay
    # envelope, and the powers stop at n = 1 on the engine's own
    # no-closed-form certificate
    spec = gl.CustomSpectrum(lambda k: complex(k, 0))
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    norms = gl.power_norms(f, 4)
    assert norms.cutoff == 1 and len(norms.log_norms) == 1
    assert norms.certificates[0].route == "symbolic-tail"
    cert = norms.cutoff_certificate
    assert cert.status is SeriesStatus.INCONCLUSIVE
    assert cert.route == "no-closed-form" and cert.terms_used == 0


def _power_decay(params, c, r):
    return lambda: gl.CoefficientVector.power_decay(gl.PowerLawSpectrum(*params), c, r)


def _explicit_70000():
    # 70,000 indices: two exact-finite blocks of the series engine
    rng = np.random.default_rng(5)
    points = rng.normal(size=70_000) + 1j * rng.normal(size=70_000)
    values = rng.normal(size=70_000) + 1j * rng.normal(size=70_000)
    return gl.CoefficientVector.explicit(gl.ExplicitSpectrum(tuple(points)), values=values)


@pytest.mark.parametrize(
    "make,n_max",
    [
        (_power_decay((1, 1, 0, 0), 1.0, 0.5), 8),
        (_power_decay((1, 0.5, 1, 2), 2.0, 1.25), 8),
        (_power_decay((-1, 1, 1, 1), 0.5, 0.75), 8),
        (_explicit_70000, 6),
    ],
    ids=["k", "sqrt(k)+i*k^2", "-k+i*k", "explicit-70000"],
)
def test_power_norms_match_direct_power_certificates(make, n_max):
    # each power norm is the series engine's certificate for A^n f, the same
    # one the direct domain test gives
    f = make()
    norms = gl.power_norms(f, n_max)
    assert norms.cutoff is None and len(norms.certificates) == n_max + 1
    for n, cert in enumerate(norms.certificates):
        direct = gl.domain_member_direct(gl.PowerSymbol(n), f).certificate
        assert (cert.status, cert.route, cert.terms_used, cert.log_value, cert.log_tail_bound) == (
            direct.status,
            direct.route,
            direct.terms_used,
            direct.log_value / f.p_norm,
            direct.log_tail_bound,
        )


def test_power_norms_read_each_index_once():
    # the coefficients of every index block are read once for all 13 powers
    asked = Counter()

    def coeffs(ks):
        asked.update(ks.tolist())
        return -np.sqrt(ks.astype(float)), np.zeros(len(ks))

    spec = gl.PowerLawSpectrum(1, 1, 0, 0)  # lam_k = k
    f = gl.CoefficientVector.custom(spec, coeffs, gl.TailBounds.exact(gl.AsymForm.power(0.5, -1.0)))
    norms = gl.power_norms(f, 12)
    assert norms.cutoff is None and max(c.terms_used for c in norms.certificates) == 4096
    assert asked == Counter(range(1, 4097))


def test_estimate_cond_i_instance():
    # weighted total variation <= 4 ||F(A)f|| ||g|| when both sides certify
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    g = gl.CoefficientVector.power_decay(spec, 0.5, 1.0)
    F = gl.ExpSymbol(2.0)
    tv = gl.total_variation(f, g, gl.predicate_all(), weight=F)
    vf = gl.domain_member_direct(F, f)
    gnorm, _ = g.log_norm()
    assert tv.status is SeriesStatus.CONVERGES and vf.member is True
    assert tv.log_value <= math.log(4.0) + vf.log_norm + gnorm + 1e-12
