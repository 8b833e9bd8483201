import hashlib
import itertools
import math

import numpy as np
import pytest

import gevlab as gl
from gevlab.logdomain import NEG_INF
from gevlab.series import SeriesStatus


def ten_point_spectrum():
    pts = tuple(complex(k % 4 - 1.5, (k * 7) % 5 - 2) for k in range(10))
    return gl.ExplicitSpectrum(pts)


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
    assert f.space.count is None


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


@pytest.mark.parametrize(
    "value, stored",
    [
        (complex(math.nan, 0.0), gl.VectorError),
        (complex(1.0, math.nan), gl.VectorError),
        (complex(math.inf, 0.0), gl.VectorError),
        (complex(0.0, -math.inf), gl.VectorError),
        (0.0, (NEG_INF, 0.0)),
        (complex(-0.0, -0.0), (NEG_INF, 0.0)),
        (complex(-1.0, -0.0), (0.0, math.pi)),  # phase -pi is stored as +pi
        (complex(-2.0, 0.0), (math.log(2.0), math.pi)),
        (2j, (math.log(2.0), math.pi / 2)),
    ],
    ids=["nan-re", "nan-im", "inf-re", "inf-im", "zero", "negative-zero", "minus-one", "minus-two", "two-i"],
)
def test_explicit_refuses_nonfinite_and_stores_log_and_phase(value, stored):
    spec = gl.ExplicitSpectrum((1 + 0j, 2 + 0j))
    values = [1.0, value]
    if isinstance(stored, type):
        with pytest.raises(stored) as err:
            gl.CoefficientVector.explicit(spec, values=values)
        assert isinstance(err.value, ValueError)  # callers catching ValueError still see it
        return
    mags, phases = gl.CoefficientVector.explicit(spec, values=values).log_coeffs(np.array([1, 2]))
    assert mags.tolist() == [0.0, stored[0]] and phases.tolist() == [0.0, stored[1]]


def test_explicit_stores_the_log_of_a_modulus_past_the_float_range():
    # |z| overflows although log|z| does not; every other entry keeps
    # math.log(abs(z)) bit for bit
    import mpmath

    big = [
        complex(1.7e308, 1.7e308), complex(-1e308, 1.7e308),
        complex(1.7e308, -1.5e308), complex(-1.3e308, -1.3e308),
    ]
    small = [3 - 4j, 1e-300 + 1e-300j, complex(1.7e308, -2.0)]
    mags, phases = gl.CoefficientVector.explicit(gl.PowerLawSpectrum(1, 1, 0, 0), big + small).log_coeffs(
        np.arange(1, 8)
    )
    for z, got in zip(big, mags[:4]):
        want = mpmath.log(mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2))
        assert abs(got - float(want)) <= 2 * math.ulp(float(want))
    assert mags[4:].tolist() == [math.log(abs(z)) for z in small]
    assert phases.tolist() == [math.atan2(z.imag, z.real) for z in big + small]


def test_p_norm_range_enforced():
    spec = gl.ExplicitSpectrum((1 + 0j,))
    with pytest.raises(gl.VectorError):
        gl.CoefficientVector.explicit(spec, values=[1.0], p=0.5)
    with pytest.raises(gl.VectorError):
        gl.conjugate_exponent(1.0)


# -- total variation ----------------------------------------------------------


def test_total_variation_geometric_value():
    spec = gl.ExplicitSpectrum(tuple(complex(k) for k in range(1, 21)))
    vals = [2.0**-k for k in range(1, 21)]
    f = gl.CoefficientVector.explicit(spec, values=vals)
    g = gl.CoefficientVector.explicit(spec, values=vals)
    cert = gl.total_variation(f, g)
    oracle = (1.0 - 4.0**-20) / 3.0
    assert cert.status is SeriesStatus.CONVERGES
    assert abs(math.exp(cert.log_value) - oracle) < 1e-12


def test_total_variation_empty_domain_is_zero():
    # disjoint supports leave no atom: the sum is exactly zero
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[float(k % 2) for k in range(10)])
    g = gl.CoefficientVector.explicit(spec, values=[float(1 - k % 2) for k in range(10)])
    cert = gl.total_variation(f, g)
    assert cert.status is SeriesStatus.CONVERGES and cert.log_value == NEG_INF


def test_total_variation_gevrey_weight_diverges():
    # polynomially paired atoms against e^{s|lam|^{1/beta}} with |lam_k| >= k
    spec = gl.PowerLawSpectrum(0, 0, 1, 2)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    g = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    for s in (2.0**-10, 1.0, 2.0**10):
        cert = gl.total_variation(f, g, weight=gl.GevreyExpSymbol(s, 1.0))
        assert cert.status is SeriesStatus.DIVERGES


def test_total_variation_weight_past_the_float_range_on_a_zero_term():
    # e^{2^20 |lam_2|} is past the float range where f_2 = 0: the term stays
    # zero, not -inf + inf
    spec = gl.ExplicitSpectrum((1, 1.7e308))
    f = gl.CoefficientVector.explicit(spec, values=[1, 0])
    g = gl.CoefficientVector.explicit(spec, values=[1, 1])
    cert = gl.total_variation(f, g, weight=gl.GevreyExpSymbol(2**20, 1))
    assert (cert.route, cert.log_value) == ("exact-finite", 1048576.0)


def test_holder_bound_on_weightless_total_variation():
    rng = np.random.default_rng(11)
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=list(map(complex, rng.normal(size=10))))
    g = gl.CoefficientVector.explicit(spec, values=list(map(complex, rng.normal(size=10))))
    cert = gl.total_variation(f, g)
    assert cert.log_value <= f.log_norm()[0] + g.log_norm()[0] + 1e-12

    spec2 = gl.PowerLawSpectrum(1, 1, 0, 0)
    f2 = gl.CoefficientVector.power_decay(spec2, 1.0, 1.0)
    g2 = gl.CoefficientVector.power_decay(spec2, 0.5, 1.0)
    cert2 = gl.total_variation(f2, g2)
    assert cert2.status is SeriesStatus.CONVERGES
    assert cert2.log_value <= f2.log_norm()[0] + g2.log_norm()[0] + 1e-12


def test_dual_exponent_mismatch_rejected():
    spec = ten_point_spectrum()
    f = gl.CoefficientVector.explicit(spec, values=[1.0] * 10, p=3.0)
    g = gl.CoefficientVector.explicit(spec, values=[1.0] * 10, p=2.0)
    with pytest.raises(gl.VectorError):
        gl.total_variation(f, g)


def test_parametric_vector_norm_closed_form():
    # ||f||_2^2 = sum e^{-2k} = 1/(e^2 - 1)
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    log_norm, cert = f.log_norm()
    oracle = 0.5 * math.log(1.0 / (math.e**2 - 1.0))
    assert cert.status is SeriesStatus.CONVERGES
    assert abs(log_norm - oracle) < 1e-12


def test_custom_spectrum_without_exponents_refuses_analysis():
    spec = gl.CustomSpectrum(lambda k: complex(k, k))
    assert spec.lam_bounds is None


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
    assert spec.lam_bounds.re is spec.envelopes[0]
    assert spec.lam_bounds.signed == ((1.0, 1.0, 3.0), (2.0, -4.0, -2.0))
    assert not spec.lam_bounds.exact
    # |lam_k| >= 2 k^2, and |lam_k| <= 3 k + 4 k^2 by the triangle inequality
    env = spec.lam_bounds.abs_pow(1.0)
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
        env, value = spec.lam_bounds.log_abs(), lambda k: mpmath.log(abs(lam(k)))
    else:
        env, value = spec.lam_bounds.abs_pow(q), lambda k: abs(lam(k)) ** mpmath.mpf(q)
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
    # Re lam_k >= k against |Im lam_k| <= 4 k^2: outrun at beta = 1, with the
    # witness selected from Re <= 3 k and |Im| >= 2 k^2, and at beta = 2 inside
    # Re >= |Im|^{1/2} / 2, the lower Re over the upper |Im| coefficient
    spec = _interval_family()
    violated = gl.region_condition(spec, 1.0)
    want = gl.plan_for_spectrum(spec, 1.0).subsequence.eigenvalues(np.arange(1, 13))
    assert violated.violated and violated.status.witness == tuple(want.tolist())
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
            yield repr(spec.lam_bounds.abs_pow(q))
        yield repr(spec.lam_bounds.log_abs())
        yield repr(spec.lam_bounds is not None)
        yield repr(spec.lam_bounds.upper)


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


def _coefficient_kind_reprs():
    """Admissibility, both classes at beta 1 and 2, the norm and the first
    powers of A, on one vector of each coefficient kind: explicit on a finite
    and on an infinite spectrum, power and polynomial decay, custom with an
    envelope and with finite support, a weak solution, and a plan's vectors."""
    budget = gl.SeriesBudget(1 << 13)
    line = gl.PowerLawSpectrum(-1.0, 1.0, 1.0, 0.5)

    def kk(ks):  # k^-k
        kf = ks.astype(float)
        return -kf * np.log(kf), np.zeros(ks.shape)

    def tilted(ks):  # e^{-k} with phase k/3
        kf = ks.astype(float)
        return -kf, kf / 3.0

    art = gl.build_counterexample(gl.plan_for_spectrum(gl.builtin_spectra()["mixed-quart"], 2.0))
    vectors = [
        gl.CoefficientVector.explicit(ten_point_spectrum(), [complex(k, 1 - k) / 8 for k in range(10)]),
        gl.CoefficientVector.explicit(line, [0.5, -0.25j, 0.0, 1 + 1j], p=3.0),
        gl.CoefficientVector.power_decay(line, 1.0, 1.5),
        gl.CoefficientVector.polynomial_decay(line, 2.0, p=1.5),
        gl.CoefficientVector.custom(line, kk, gl.TailBounds.exact(gl.AsymForm.power_log(1.0, -1.0))),
        gl.CoefficientVector.custom(line, tilted, support_size=6),
        gl.solve(gl.SolutionHandle.admit(gl.CoefficientVector.power_decay(line, 1.0, 2.0)), 0.5),
        art.f,
        art.h,
        art.h_star,
    ]
    for f in vectors:
        yield repr(gl.check_admissible(f))
        for beta, flavor in itertools.product((1.0, 2.0), gl.GevreyFlavor):
            yield repr(gl.vector_class(f, beta, flavor))
        yield repr(f.log_norm(budget))
        yield repr(gl.power_norms(f, 8, budget))


# sha256 of the newline-joined _coefficient_kind_reprs()
_COEFFICIENT_KIND_DIGEST = "2b865cfe3de88ed0bd164099948ee4364824023d783f5e32e474e41dc41e0417"


def test_every_coefficient_kind_is_pinned():
    reprs = list(_coefficient_kind_reprs())
    assert len(reprs) == 10 * 7
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == _COEFFICIENT_KIND_DIGEST
