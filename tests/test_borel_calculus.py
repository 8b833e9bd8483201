import math
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gevlab as gl
import oracles
from gevlab.borel_calculus import power_bounds
from gevlab.logdomain import NEG_INF
from gevlab.series import DEFAULT_BUDGET, SeriesBudget, SeriesStatus, certify_log_series


def test_power_zero_and_exp_zero_are_bitwise_identity():
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(3)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, rng.normal(size=16) + 1j * rng.normal(size=16)))
    )
    ks = np.arange(1, 17, dtype=np.int64)
    mf, pf = f.log_coeffs(ks)
    for F in (gl.PowerSymbol(0), gl.ExpSymbol(0.0)):
        g = oracles.apply_symbol(F, f)
        mg, pg = g.log_coeffs(ks)
        assert np.array_equal(mf, mg) and np.array_equal(pf, pg)


def test_power_two_squares_eigenvalues():
    spec = gl.ExplicitSpectrum((1 + 0j, 2 + 0j, 3 + 0j))
    f = gl.CoefficientVector.explicit(spec, values=[1.0, 1.0, 1.0])
    g = oracles.apply_symbol(gl.PowerSymbol(2), f)
    assert np.allclose(g.to_complex(np.arange(1, 4)), [1.0, 4.0, 9.0])


def test_apply_symbol_rejects_outside_domain():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    with pytest.raises(gl.DomainError):
        oracles.apply_symbol(gl.ExpSymbol(1.0), f)


def test_composition_law_exact_on_dyadic_data():
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(9)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, rng.normal(size=16) + 1j * rng.normal(size=16)))
    )
    z1, z2 = 0.5 + 0.25j, 0.25 - 0.5j
    one = oracles.apply_symbol(gl.ExpSymbol(z1 + z2), f)
    two = oracles.apply_symbol(gl.ExpSymbol(z1), oracles.apply_symbol(gl.ExpSymbol(z2), f))
    ks = np.arange(1, 17, dtype=np.int64)
    m1, p1 = one.log_coeffs(ks)
    m2, p2 = two.log_coeffs(ks)
    assert np.array_equal(m1, m2) and np.array_equal(p1, p2)


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
    assert v.status is SeriesStatus.CONVERGES
    ks = np.arange(1, 1_000_001, dtype=float)
    oracle = 0.5 * math.log(np.exp(2.0 * (-5.0 * ks - ks)).sum())
    assert abs(v.log_value / f.p_norm - oracle) < 1e-12


def test_direct_membership_weight_past_the_float_range_on_a_zero_coordinate():
    # log|F(lam_2)| = 2^20 * 1.7e308 is +inf, meant so, and f_2 = 0 keeps
    # the term zero
    spec = gl.ExplicitSpectrum((1, 1.7e308))
    f = gl.CoefficientVector.explicit(spec, values=[1, 0])
    v = gl.domain_member_direct(gl.GevreyExpSymbol(2**20, 1), f)
    assert (v.route, v.log_value) == ("exact-finite", 2.0 * 2**20)


def test_direct_membership_divergence_witness():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    v = gl.domain_member_direct(gl.ExpSymbol(1.0), f)
    assert v.status is SeriesStatus.DIVERGES


def test_identity_symbol_keeps_stored_vectors_in_domain():
    for spec in (gl.builtin_spectra()["explicit16"], gl.PowerLawSpectrum(1, 1, 1, 4)):
        f = (
            gl.CoefficientVector.explicit(spec, values=[1.0] * 16)
            if spec.size is not None
            else gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
        )
        assert gl.domain_member_direct(gl.PowerSymbol(0), f).status is SeriesStatus.CONVERGES


# -- dual-probe criterion --------------------------------------------------------


def test_prop31_agrees_with_direct_on_random_explicit_spectra():
    rng = np.random.default_rng(42)
    for _ in range(6):
        pts = rng.normal(size=32) + 1j * rng.normal(size=32)
        spec = gl.ExplicitSpectrum(tuple(map(complex, pts)))
        f = gl.CoefficientVector.explicit(
            spec, values=list(map(complex, rng.normal(size=32) + 1j * rng.normal(size=32)))
        )
        for F in oracles.catalog_symbols():
            d = gl.domain_member_direct(F, f)
            p = gl.domain_member_prop31(F, f)
            assert d.status is p.status


def _h_star_pairing(F, f):
    """The certificate of condition (i) of the dual criterion for the dual
    h*_k = k^-2 in l^q."""
    h_star = gl.CoefficientVector.polynomial_decay(f.spectrum, 2.0, p=gl.conjugate_exponent(f.p_norm))
    return gl.total_variation(f, h_star, weight=F, budget=None)


def test_prop31_divergence_via_slow_dual():
    spec = gl.PowerLawSpectrum(0, 0, 1, 2)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    F = gl.GevreyExpSymbol(1.0, 1.0)
    v = gl.domain_member_prop31(F, f)
    assert v.status is SeriesStatus.DIVERGES
    # the refutation is the h* pairing's own certificate
    assert repr(v) == repr(_h_star_pairing(F, f))


def test_prop31_accepts_identity():
    spec = gl.PowerLawSpectrum(1, 1, 1, 1)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    v = gl.domain_member_prop31(gl.PowerSymbol(0), f)
    assert v.status is SeriesStatus.CONVERGES


def test_prop31_equals_direct_on_the_catalog():
    # the dual criterion's certificate is the h* pairing's where that
    # diverges and the direct decision's everywhere else, and its status is
    # always the direct one
    cases = refuted = 0
    for spec in gl.builtin_spectra().values():
        for f in gl.builtin_vectors(spec):
            for F in oracles.catalog_symbols():
                direct = gl.domain_member_direct(F, f, budget=None)
                pairing = _h_star_pairing(F, f)
                dual = gl.domain_member_prop31(F, f)
                want = pairing if pairing.status is SeriesStatus.DIVERGES else direct
                assert repr(dual) == repr(want), (spec.label, f.label, F.name)
                assert dual.status is direct.status, (spec.label, f.label, F.name)
                refuted += pairing.status is SeriesStatus.DIVERGES
                cases += 1
    assert cases == 360 and refuted > 0


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


def test_power_norms_refuse_a_nan_eigenvalue_as_the_direct_test_does():
    # lam_3 = NaN must not drop the k = 3 term: ||Af|| would read log sqrt(21)
    spec = gl.CustomSpectrum(lambda k: complex(math.nan if k == 3 else k, 0))
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 4)
    with pytest.raises(ValueError, match="NaN in log-domain summation"):
        gl.domain_member_direct(gl.PowerSymbol(1), f)
    with pytest.raises(ValueError, match="NaN in log-domain summation"):
        gl.power_norms(f, 2)


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
        direct = gl.domain_member_direct(gl.PowerSymbol(n), f)
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


def _bits(bounds):
    if bounds is None:
        return None
    sides = [
        None if f is None else ([(t.power, t.log_power, t.coeff, t.residual) for t in f.terms], f.const)
        for f in (bounds.lower, bounds.upper)
    ]
    return repr((sides, bounds.k_min))


def _bound_spaces():
    mixed = gl.PowerLawSpectrum(-1.0, 1.0, 1.0, 2.0)  # log|lam| envelopes valid from k = 1,024
    lin = gl.PowerLawSpectrum(1.0, 1.0, 0.0, 0.0)
    yield gl.CoefficientVector.power_decay(mixed, 0.5, 1.25)
    yield gl.CoefficientVector.polynomial_decay(lin, 4.0)  # the log k terms cancel at n = 4
    yield gl.CoefficientVector.power_decay(gl.CustomSpectrum(lambda k: complex(k, 0)), 1.0, 1.0)
    art = gl.build_counterexample(gl.plan_for_spectrum(gl.builtin_spectra()["mixed-quart"], 2.0))
    yield art.f  # a plan view: the family's and the selection's envelopes
    yield art.h_star


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_power_bounds_are_each_powers_term_bounds(p):
    # row n is space.term_bounds(A^n).scale(p), every coefficient, residual,
    # constant and k_min the same float, on finite-k_min, cancelling,
    # envelope-free and plan-view spaces
    for f in _bound_spaces():
        space = f.space
        rows = list(power_bounds(space, 12, p))
        want = [space.term_bounds(gl.PowerSymbol(n)) for n in range(13)]
        assert [_bits(b) for b in rows] == [_bits(w.scale(p) if w is not None else None) for w in want]


def _power_norms_one_call_per_power(f, n_max, budget):
    # the reference: one series engine call per power, each with the space's
    # own term_bounds(A^n), stopping at the first power not certified
    space, p = f.space, f.p_norm

    def term(ks, n):
        mags = space.coeff_log(ks)[0]
        if n == 0:
            return p * mags
        with np.errstate(divide="ignore"):
            logabs = np.log(np.abs(space.lam(ks)))
        out = p * np.where(mags == NEG_INF, NEG_INF, mags + n * logabs)
        return np.where(np.isnan(out), NEG_INF, out)

    certs = []
    for n in range(n_max + 1):
        bounds = space.term_bounds(gl.PowerSymbol(n))
        bounds = bounds.scale(p) if bounds is not None else None
        cert = certify_log_series(lambda ks, n=n: term(ks, n), count=space.count, bounds=bounds, budget=budget)
        if cert.status is not SeriesStatus.CONVERGES:
            return gl.PowerNorms(tuple(c.log_value for c in certs), tuple(certs), n, cert)
        certs.append(replace(cert, log_value=cert.log_value / p))
    return gl.PowerNorms(tuple(c.log_value for c in certs), tuple(certs))


_FAMILIES = st.tuples(
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.sampled_from([0.0, 1.0, -0.5]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
).filter(lambda x: (x[0] != 0.0 and x[1] > 0.0) or (x[2] != 0.0 and x[3] > 0.0))


@st.composite
def _power_norm_cases(draw):
    p = draw(st.sampled_from([1.0, 2.0, 3.0]))
    n_max = draw(st.integers(0, 20))
    kind = draw(st.sampled_from(["power-decay", "power-decay", "polynomial-decay", "explicit"]))
    if kind == "explicit":
        size = draw(st.integers(1, 40))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        spec = gl.ExplicitSpectrum(tuple(rng.normal(size=size) + 1j * rng.normal(size=size)))
        f = gl.CoefficientVector.explicit(spec, values=rng.normal(size=size) + 1j * rng.normal(size=size), p=p)
        return f, n_max, draw(st.sampled_from([None, DEFAULT_BUDGET]))
    spec = gl.PowerLawSpectrum(*draw(_FAMILIES))
    if kind == "power-decay":
        c = draw(st.sampled_from([0.5, 1.0, 2.0]))
        r = draw(st.sampled_from([0.5, 0.75, 1.0, 1.25, 2.5]))
        f = gl.CoefficientVector.power_decay(spec, c, r, p=p)
        return f, n_max, draw(st.sampled_from([None, DEFAULT_BUDGET]))
    # k^-d leaves l^p at a finite power on a growing spectrum; slowly
    # converging rows sum to a budget of 2^14 terms
    d = draw(st.sampled_from([1.5, 2.0, 3.0, 4.5, 8.0]))
    f = gl.CoefficientVector.polynomial_decay(spec, d, p=p)
    return f, n_max, draw(st.sampled_from([None, SeriesBudget(k_max=1 << 14)]))


@settings(max_examples=200, deadline=None)
@given(case=_power_norm_cases())
def test_power_norms_equal_one_engine_call_per_power(case):
    # the family engine gives every power the certificate a call of its own
    # gives it: status, route, value, tail bound, terms used and detail, and
    # the same cutoff; repr tells every float apart
    f, n_max, budget = case
    got = gl.power_norms(f, n_max, budget)
    assert repr(got) == repr(_power_norms_one_call_per_power(f, n_max, budget))


def test_power_norms_leave_lp_where_one_call_per_power_does():
    # lam_k = k, f_k = k^-3 in l^1: A^n f leaves l^1 at n = 2
    f = gl.CoefficientVector.polynomial_decay(gl.PowerLawSpectrum(1, 1, 0, 0), 3.0, p=1.0)
    got = gl.power_norms(f, 10)
    assert got.cutoff == 2 and got.cutoff_certificate.route == "symbolic-divergence"
    assert repr(got) == repr(_power_norms_one_call_per_power(f, 10, DEFAULT_BUDGET))


def test_power_norms_read_each_index_once_in_groups_of_rows():
    # e^{-sqrt(k)} on lam_k = k, n_max = 40: the powers stop from K = 1,024
    # to 32,768, so the blocks of 8,192 and 16,384 indices are summed for
    # up to 26 rows in groups of rows; each index is still read once, and
    # every certificate is the one a call of its own gives
    asked = Counter()

    def coeffs(ks):
        asked.update(ks.tolist())
        return -np.sqrt(ks.astype(float)), np.zeros(len(ks))

    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.custom(spec, coeffs, gl.TailBounds.exact(gl.AsymForm.power(0.5, -1.0)))
    norms = gl.power_norms(f, 40)
    assert asked == Counter(range(1, 32769))
    assert [c.terms_used for c in norms.certificates][24:27] == [16384, 16384, 16384]
    assert repr(norms) == repr(_power_norms_one_call_per_power(f, 40, DEFAULT_BUDGET))


def test_power_norms_match_mpmath_on_a_job_stream_pair():
    # ||A^n f||_2 for f_k = e^{-2 k^1.25} on lam_k = k^0.5 + i k^2, against
    # sum_k |lam_k|^{2n} e^{-4 k^1.25} summed by mpmath to 30 digits
    spec = gl.PowerLawSpectrum(1.0, 0.5, 1.0, 2.0)
    norms = gl.power_norms(gl.CoefficientVector.power_decay(spec, 2.0, 1.25), 16)
    mpmath.mp.dps = 30
    for n in (0, 8, 16):
        total = mpmath.nsum(lambda k: (k + k**4) ** n * mpmath.exp(-4 * k ** mpmath.mpf(1.25)), [1, mpmath.inf])
        oracle = float(mpmath.log(total) / 2)
        assert abs(norms.log_norms[n] - oracle) <= 1e-9 * abs(oracle) + 1e-12, (n, norms.log_norms[n], oracle)


def test_estimate_cond_i_instance():
    # weighted total variation <= 4 ||F(A)f|| ||g|| when both sides certify
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    g = gl.CoefficientVector.power_decay(spec, 0.5, 1.0)
    F = gl.ExpSymbol(2.0)
    tv = gl.total_variation(f, g, weight=F)
    vf = gl.domain_member_direct(F, f)
    gnorm, _ = g.log_norm()
    assert tv.status is SeriesStatus.CONVERGES and vf.status is SeriesStatus.CONVERGES
    assert tv.log_value <= math.log(4.0) + vf.log_value / f.p_norm + gnorm + 1e-12
