import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gevlab as gl
from gevlab.logdomain import NEG_INF
from gevlab.series import SeriesStatus

KS10 = np.arange(1, 11, dtype=np.int64)


def ten_point_spectrum():
    pts = tuple(complex(k % 4 - 1.5, (k * 7) % 5 - 2) for k in range(10))
    return gl.ExplicitSpectrum(pts)


def mask_predicate(bits):
    pts = ten_point_spectrum().points
    allowed = {pts[i] for i in range(10) if bits[i]}
    return gl.BorelPredicate(lambda z: z in allowed, f"mask{bits}")


# -- validation ---------------------------------------------------------------


def test_duplicate_eigenvalues_rejected():
    with pytest.raises(gl.SpectrumError):
        gl.ExplicitSpectrum((1 + 0j, 1 + 0j))


def test_nonfinite_eigenvalue_rejected():
    with pytest.raises(gl.SpectrumError):
        gl.ExplicitSpectrum((complex(math.nan, 0),))


def test_explicit_spectrum_array_keeps_equality_and_hash():
    # the eigenvalue array is built once and is not a field: equal points
    # still mean equal spectra, and eigenvalues reads the points
    pts = tuple(complex(k % 4 - 1.5, (k * 7) % 5 - 2) for k in range(10))
    a, b = gl.ExplicitSpectrum(pts), gl.ExplicitSpectrum(list(pts))
    assert a == b and hash(a) == hash(b)
    assert a != gl.ExplicitSpectrum(pts[:9])
    ks = np.array([3, 1, 10, 3], dtype=np.int64)
    assert a.eigenvalues(ks).tolist() == [pts[k - 1] for k in ks]
    assert a.eigenvalues(np.arange(1, 11)).tolist() == list(pts)
    got = a.eigenvalues(ks)
    got[0] = 0j  # a copy: the spectrum's own array is untouched
    assert a.eigenvalues(ks)[0] == pts[2]
    with pytest.raises(gl.SpectrumError):
        a.eigenvalues(np.array([11]))


def test_constant_power_law_rejected():
    with pytest.raises(gl.SpectrumError):
        gl.PowerLawSpectrum(2.0, 0.0, 3.0, 0.0)


def test_power_law_negative_exponent_rejected():
    with pytest.raises(gl.SpectrumError):
        gl.PowerLawSpectrum(1.0, -0.5, 0.0, 0.0)


def test_polynomial_decay_needs_summability():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.polynomial_decay(spec, 0.5, p=2.0)


def test_custom_vector_needs_an_envelope_or_support():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.custom(spec, lambda ks: (np.zeros(len(ks)), np.zeros(len(ks))))


def test_custom_vector_accepts_a_log_square_envelope():
    # e^{-0.5 (log k)^2} decays faster than every power of k: summable
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    form = gl.AsymForm.build((gl.AsymTerm(0.0, 2, -0.5),))
    f = gl.CoefficientVector.custom(
        spec,
        lambda ks: (-0.5 * np.log(ks.astype(float)) ** 2, np.zeros(len(ks))),
        gl.TailBounds.exact(form),
    )
    assert f.effective_count() is None


def test_custom_vector_refuses_a_vanishing_log_square_envelope():
    # e^{-(log k)^2 / k} tends to 1: not square-summable
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    form = gl.AsymForm.build((gl.AsymTerm(-1.0, 2, -1.0),))
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.custom(
            spec,
            lambda ks: (-np.log(ks.astype(float)) ** 2 / ks, np.zeros(len(ks))),
            gl.TailBounds.exact(form),
        )


def test_explicit_vector_cannot_outrun_explicit_spectrum():
    spec = gl.ExplicitSpectrum((1 + 0j, 2 + 0j))
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.explicit(spec, values=[1.0, 1.0, 1.0])


def test_p_norm_range_enforced():
    spec = gl.ExplicitSpectrum((1 + 0j,))
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.explicit(spec, values=[1.0], p=0.5)
    with pytest.raises(gl.VectorError):
        gl.conjugate_exponent(1.0)


# -- projection ---------------------------------------------------------------


def test_project_full_plane_is_identity_object():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 10)
    assert gl.project(f, gl.predicate_all()) is f


def test_project_empty_set_is_zero():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 10)
    g = gl.project(f, gl.predicate_none())
    mags, _ = g.log_coeffs(KS10)
    assert np.all(mags == NEG_INF)


def test_project_halfplane_masks_coordinatewise():
    spec = gl.ExplicitSpectrum((1 + 0j, 2j, -3 + 0j))
    f = gl.CoefficientVector.explicit(spec, values=[1.0, 1.0, 1.0])
    g = gl.project(f, gl.halfplane_re_ge(0.0))
    assert np.allclose(g.to_complex(np.arange(1, 4)), [1.0, 1.0, 0.0])


def test_projection_idempotent_bitwise():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[complex(k, -k) for k in range(10)])
    delta = gl.halfplane_re_ge(-0.5)
    once = gl.project(f, delta)
    twice = gl.project(once, delta)
    m1, p1 = once.log_coeffs(KS10)
    m2, p2 = twice.log_coeffs(KS10)
    assert np.array_equal(m1, m2) and np.array_equal(p1, p2)


def test_multiplicativity_exhaustive_over_masks():
    # every 10-bit mask, paired with its complement, a shift, and itself
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(
        spec, values=[complex(1.0 / (k + 1), k) for k in range(10)]
    )
    for m in range(1024):
        bits1 = [(m >> i) & 1 for i in range(10)]
        partners = (
            bits1,
            [1 - b for b in bits1],
            bits1[1:] + bits1[:1],
            [(m >> ((i + 3) % 10)) & 1 for i in range(10)],
        )
        for bits2 in partners:
            assert gl.multiplicativity_check(mask_predicate(bits1), mask_predicate(bits2), f)


def test_multiplicativity_on_parametric_prefix():
    spec = gl.PowerLawSpectrum(1, 1, 1, 1)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    assert gl.multiplicativity_check(gl.abs_le(100.0), gl.halfplane_re_ge(3.0), f)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=1023), st.integers(min_value=0, max_value=1023))
def test_multiplicativity_property(m1, m2):
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[complex(k + 1) for k in range(10)])
    b1 = [(m1 >> i) & 1 for i in range(10)]
    b2 = [(m2 >> i) & 1 for i in range(10)]
    assert gl.multiplicativity_check(mask_predicate(b1), mask_predicate(b2), f)


@settings(max_examples=40)
@given(
    st.lists(st.floats(min_value=-3, max_value=3), min_size=10, max_size=10),
    st.integers(min_value=0, max_value=1023),
)
def test_projection_never_expands_the_norm(res, mask_bits):
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[complex(x) for x in res])
    bits = [(mask_bits >> i) & 1 for i in range(10)]
    nf, _ = f.log_norm()
    ng, _ = gl.project(f, mask_predicate(bits)).log_norm()
    assert ng <= nf + 1e-12


def test_unit_vector_projection_norms_are_zero_or_one():
    spec = ten_point_spectrum()
    delta = gl.halfplane_re_ge(0.0)
    for j in range(1, 11):
        e_j = gl.CoefficientVector.explicit(
            spec, values=[1.0 if i == j - 1 else 0.0 for i in range(10)]
        )
        log_norm, cert = gl.project(e_j, delta).log_norm()
        assert cert.status is SeriesStatus.CONVERGES
        assert log_norm == NEG_INF or abs(log_norm) < 1e-15
    assert gl.SPECTRAL_MEASURE_BOUND == 1.0


# -- total variation ----------------------------------------------------------


def test_total_variation_geometric_value():
    spec = gl.ExplicitSpectrum(tuple(complex(k) for k in range(1, 21)))
    vals = [2.0**-k for k in range(1, 21)]
    f = gl.CoefficientVector.explicit(spec, values=vals)
    g = gl.CoefficientVector.explicit(spec, values=vals)
    cert = gl.total_variation(f, g, gl.predicate_all())
    oracle = (1.0 - 4.0**-20) / 3.0
    assert cert.status is SeriesStatus.CONVERGES
    assert abs(math.exp(cert.log_value) - oracle) < 1e-12


def test_total_variation_empty_domain_is_zero():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 10)
    cert = gl.total_variation(f, f, gl.predicate_none())
    assert cert.status is SeriesStatus.CONVERGES and cert.log_value == NEG_INF


def test_total_variation_gevrey_weight_diverges():
    # polynomially paired atoms against e^{s|lam|^{1/beta}} with |lam_k| >= k
    spec = gl.PowerLawSpectrum(0, 0, 1, 2)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    g = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    for s in (2.0**-10, 1.0, 2.0**10):
        cert = gl.total_variation(f, g, gl.predicate_all(), weight=gl.GevreyExpSymbol(s, 1.0))
        assert cert.status is SeriesStatus.DIVERGES


def test_holder_bound_on_weightless_total_variation():
    rng = np.random.default_rng(11)
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=list(map(complex, rng.normal(size=10))))
    g = gl.CoefficientVector.explicit(spec, values=list(map(complex, rng.normal(size=10))))
    cert = gl.total_variation(f, g, gl.predicate_all())
    pm = gl.PairingMeasure(f, g)
    assert cert.log_value <= pm.holder_log_bound() + 1e-12

    spec2 = gl.PowerLawSpectrum(1, 1, 0, 0)
    f2 = gl.CoefficientVector.power_decay(spec2, 1.0, 1.0)
    g2 = gl.CoefficientVector.power_decay(spec2, 0.5, 1.0)
    cert2 = gl.total_variation(f2, g2, gl.predicate_all())
    assert cert2.status is SeriesStatus.CONVERGES
    assert cert2.log_value <= gl.PairingMeasure(f2, g2).holder_log_bound() + 1e-12


def test_countable_additivity_over_disjoint_masks():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[complex(k + 1, 1) for k in range(10)])
    g = gl.CoefficientVector.explicit(spec, values=[complex(2, -k) for k in range(10)])
    parts = [mask_predicate([1 if i % 3 == r else 0 for i in range(10)]) for r in range(3)]
    union_bits = [1 if i % 3 in (0, 1, 2) else 0 for i in range(10)]
    whole = gl.total_variation(f, g, mask_predicate(union_bits))
    total = sum(
        math.exp(gl.total_variation(f, g, d).log_value) for d in parts
    )
    assert abs(math.exp(whole.log_value) - total) < 1e-12


def test_dual_exponent_mismatch_rejected():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 10, p=3.0)
    g = gl.CoefficientVector.explicit(spec, values=[1.0] * 10, p=2.0)
    with pytest.raises(gl.VectorError):
        gl.total_variation(f, g, gl.predicate_all())
    with pytest.raises(gl.VectorError):
        gl.PairingMeasure(f, g)


def test_parametric_vector_norm_closed_form():
    # ||f||_2^2 = sum e^{-2k} = 1/(e^2 - 1)
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    log_norm, cert = f.log_norm()
    oracle = 0.5 * math.log(1.0 / (math.e**2 - 1.0))
    assert cert.status is SeriesStatus.CONVERGES
    assert abs(log_norm - oracle) < 1e-12


def test_disk_projection_keeps_one_atom():
    spec = gl.ExplicitSpectrum((1 + 0j, 2j, -3 + 0j))
    f = gl.CoefficientVector.explicit(spec, values=[1.0, 1.0, 1.0])
    g = gl.project(f, gl.disk(2j, 0.5))
    assert np.allclose(g.to_complex(np.arange(1, 4)), [0.0, 1.0, 0.0])


def test_pairing_measure_atoms():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[complex(k + 1) for k in range(10)])
    g = gl.CoefficientVector.explicit(spec, values=[0.5] * 10)
    pm = gl.PairingMeasure(f, g)
    atoms = pm.atom_log_mags(KS10)
    expect = np.log(np.arange(1, 11, dtype=float) * 0.5)
    assert np.allclose(atoms, expect)
    cert = pm.total_variation()
    assert abs(math.exp(cert.log_value) - 0.5 * sum(range(1, 11))) < 1e-12


def test_custom_spectrum_without_exponents_refuses_analysis():
    spec = gl.CustomSpectrum(lambda k: complex(k, k))
    assert spec.re_bounds() is None and spec.abs_pow_bounds(1.0) is None
    assert spec.unbounded is None


def _interval_family():
    """lam_k = (2 + sin k) k - i (3 + cos k) k^2, declared by the intervals
    Re lam_k in [1, 3] k and Im lam_k in [-4, -2] k^2."""
    re = gl.TailBounds(gl.AsymForm.power(1.0, 1.0), gl.AsymForm.power(1.0, 3.0))
    im = gl.TailBounds(gl.AsymForm.power(2.0, -4.0), gl.AsymForm.power(2.0, -2.0))
    return gl.CustomSpectrum(
        lambda k: complex((2.0 + math.sin(k)) * k, -(3.0 + math.cos(k)) * k * k), (re, im)
    )


def test_custom_spectrum_with_exponents_estimates_envelopes():
    spec = _interval_family()
    assert spec.re_bounds() is spec.envelopes[0] and spec.unbounded is True
    # |lam_k| >= 2 k^2, and |lam_k| <= 3 k + 4 k^2 by the triangle inequality
    env = spec.abs_pow_bounds(1.0)
    assert env.lower == gl.AsymForm.power(2.0, 2.0)
    assert env.upper == gl.AsymForm.power(2.0, 4.0) + gl.AsymForm.power(1.0, 3.0)


def _mp_form(form, k):
    """An envelope's value at k in mpmath, from its float coefficients."""
    import mpmath

    k = mpmath.mpf(k)
    return mpmath.mpf(form.const) + sum(
        mpmath.mpf(t.coeff) * k ** mpmath.mpf(t.power) * mpmath.log(k) ** t.log_power
        for t in form.terms
    )


@pytest.mark.parametrize(
    "a_re, p_re, a_im, p_im",
    [
        (1, 1, 1, 4),
        (1, 1, 1, 0.5),
        (2, 1.5, 0.5, 0.5),
        (-3, 2, 0.25, 1),
        (0.5, 0, 1, 2),
        (1, 3, -2, 1),
        (1, 6, 1, 0),
        pytest.param(None, None, None, None, id="interval"),
    ],
)
@pytest.mark.parametrize("q", [1.0, 1 / 1.5, 0.5, 2.0, 3.0, "log"])
def test_abs_pow_envelopes_hold_against_an_oracle(a_re, p_re, a_im, p_im, q):
    # lower(k) <= |lam_k|^q (or log|lam_k|) <= upper(k) from k_min on, with
    # lam_k at 50 digits.  The envelopes' float coefficients and exponents sit
    # a few ulps off their real values, an error that k^power magnifies by
    # log k: hence the relative slack of 2^-48 (1 + log k), taken absolute
    # on log|lam_k|, which can be 0
    import mpmath

    if a_re is None:
        spec = _interval_family()

        def lam(k):
            return mpmath.mpc((2 + mpmath.sin(k)) * k, -(3 + mpmath.cos(k)) * k**2)

    else:
        spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)

        def lam(k):
            re = mpmath.mpf(a_re) * k ** mpmath.mpf(p_re)
            return mpmath.mpc(re, mpmath.mpf(a_im) * k ** mpmath.mpf(p_im))

    if q == "log":
        env, value = spec.log_abs_bounds(), lambda k: mpmath.log(abs(lam(k)))
    else:
        env, value = spec.abs_pow_bounds(q), lambda k: abs(lam(k)) ** mpmath.mpf(q)
    # sums of powers hold from k = 1; leading terms with a slack from k = 1,024
    assert env.k_min == 1 if q != "log" and q <= 1 else env.k_min in (1, 1024)
    rng = np.random.default_rng(7)
    ks = sorted({1, 2, 3, 10, *(2**j for j in range(41)), *rng.integers(1, 2**40, 20).tolist()})
    with mpmath.workdps(50):
        for k in (mpmath.mpf(k) for k in ks if k >= env.k_min):
            v = value(k)
            slack = mpmath.mpf(2) ** -48 * (1 + mpmath.log(k)) * (1 if q == "log" else v)
            assert _mp_form(env.lower, k) <= v + slack, k
            assert v <= _mp_form(env.upper, k) + slack, k


def test_region_reads_declared_intervals():
    # Re lam_k >= k against |Im lam_k| <= 4 k^2: outrun at beta = 1, and at
    # beta = 2 inside Re >= |Im|^{1/2} / 2, the lower Re over the upper |Im|
    # coefficient
    spec = _interval_family()
    violated = gl.region_condition(spec, 1.0)
    assert violated.violated and violated.status.witness == ()
    holds = gl.region_condition(spec, 2.0)
    b_plus = 0.5
    for _ in range(4):
        b_plus = math.nextafter(b_plus, 0.0)
    assert holds.holds and holds.status.b_plus == b_plus
    assert holds.status.exception_radius == 0.0


_K = gl.TailBounds.exact(gl.AsymForm.power(1.0, 1.0))
_K2 = gl.TailBounds.exact(gl.AsymForm.power(2.0, 1.0))
_ZERO = gl.TailBounds.exact(gl.AsymForm.constant(0.0))


def _re(lower, upper=None):
    """A custom family's envelopes: Re from the given sides, Im lam_k = k^2."""
    return gl.TailBounds(lower, lower if upper is None else upper), _K2


@pytest.mark.parametrize(
    "envelopes",
    [
        _re(gl.AsymForm.power(1.0, 1.0) + gl.AsymForm.power(0.5, 1.0)),
        _re(gl.AsymForm.power_log(1.0, 1.0)),
        _re(gl.AsymForm.power(1.0, 1.0), gl.AsymForm.power(2.0, 1.0)),
        _re(gl.AsymForm.power(1.0, -1.0), gl.AsymForm.power(1.0, 1.0)),
        _re(gl.AsymForm.power(1.0, 3.0), gl.AsymForm.power(1.0, 1.0)),
        _re(None, gl.AsymForm.power(1.0, 1.0)),
        (_K, None),
        (_K,),
        (gl.TailBounds.exact(gl.AsymForm.constant(1.0)), _ZERO),
    ],
    ids=[
        "two-term", "log-k", "mixed-exponents", "lo<0<hi", "lo>hi",
        "missing-side", "missing-component", "not-a-pair", "no-growing-part",
    ],
)
def test_bad_envelope_declarations_are_spectrum_errors(envelopes):
    with pytest.raises(gl.SpectrumError):
        gl.CustomSpectrum(lambda k: complex(k, k * k), envelopes)


def _envelope_reprs():
    """The reprs of every modulus envelope over a grid of power-law families."""
    coeffs = (0.0, 1.0, -1.0, 0.5, -3.0, 2.0, 0.25)
    powers = (0.0, 0.5, 1.0, 1.5, 2.0, 4.0)
    for a_re, p_re, a_im, p_im in itertools.product(coeffs, powers, coeffs, powers):
        try:
            spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
        except gl.SpectrumError:
            continue
        for q in (1.0, 1 / 1.5, 0.5, 1 / 3, 2.0, 3.0):
            yield repr(spec.abs_pow_bounds(q))
        yield repr(spec.log_abs_bounds())
        yield repr(spec.unbounded)
        yield repr(spec._abs_leading())


# sha256 of _envelope_reprs(), one repr per line
_ENVELOPE_DIGEST = "deaa56f0570f56b87518b97b2e856990dd7e01792f08408fb431444cdf3cd06a"


def test_power_law_envelopes_are_pinned():
    digest = hashlib.sha256()
    count = 0
    for text in _envelope_reprs():
        digest.update(text.encode() + b"\n")
        count += 1
    assert count == 1620 * 9
    assert digest.hexdigest() == _ENVELOPE_DIGEST
