import collections
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import gevlab as gl
import gevlab.evolution as ev


def explicit16_pair(seed=5, scale=0.5):
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(seed)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, scale * (rng.normal(size=16) + 1j * rng.normal(size=16))))
    )
    g = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, scale * (rng.normal(size=16) + 1j * rng.normal(size=16))))
    )
    return spec, f, g


# -- admissibility -------------------------------------------------------------


def test_explicit_spectra_always_admissible():
    spec, f, _ = explicit16_pair()
    cert = gl.check_admissible(f)
    assert cert.admissible and isinstance(cert.tail_rule, gl.ExplicitFinite)
    assert 0.0 in cert.checked_times and 100.0 in cert.checked_times


def test_decay_dominates_with_direct_summation_oracle():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    cert = gl.check_admissible(f)
    assert cert.admissible
    assert cert.tail_rule == gl.DecayDominates(r=2.0, p_re=1.0)
    # oracle: y(100) stays in l^2 by direct summation
    v = gl.domain_member_direct(gl.ExpSymbol(100.0), f)
    ks = np.arange(1, 1 << 17, dtype=float)
    terms = 2.0 * (100.0 * ks - ks**2)
    m = terms.max()
    oracle = 0.5 * (m + math.log(np.exp(terms - m).sum()))
    assert v.member is True
    assert abs(v.log_norm - oracle) < 1e-10


def test_boundary_decay_fails_with_witness_time_two():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 1.0)
    cert = gl.check_admissible(f)
    assert not cert.admissible
    assert cert.tail_rule == gl.WitnessFailure(t=2.0)
    assert 2.0 in cert.checked_times


def test_bounded_real_parts_make_every_stored_vector_admissible():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    cert = gl.check_admissible(f)
    assert cert.admissible
    assert isinstance(cert.tail_rule, gl.ReBoundedAbove)
    assert cert.tail_rule.omega == -1.0


def test_custom_family_without_exponents_is_undetermined():
    spec = gl.CustomSpectrum(lambda k: complex(k, 0))
    f = gl.CoefficientVector.custom(
        spec,
        lambda ks: (-ks.astype(float) ** 2, np.zeros(ks.shape)),
        bounds=gl.TailBounds.exact(gl.AsymForm.power(2.0, -1.0)),
    )
    cert = gl.check_admissible(f)
    assert not cert.admissible and cert.unknown
    with pytest.raises(gl.VectorError):
        gl.SolutionHandle(f, cert)


def test_growth_below_the_coefficient_rounding_is_no_decay():
    # e^{-k} against Re lam_k = 1e-19 k: at t = 100 the merged leading
    # coefficient -1 + 1e-17 rounds to -1, yet e^{tA} f diverges past t = 1e19
    spec = gl.PowerLawSpectrum(1e-19, 1, 0, 0)
    cert = gl.check_admissible(gl.CoefficientVector.power_decay(spec, 1.0, 1.0))
    assert cert.tail_rule == gl.WitnessFailure(2e19) and not cert.admissible


def _admissibility_reprs():
    """The reprs of check_admissible over a grid of power-law families and
    five decay profiles: e^-k, e^-k^2, e^{-0.5 sqrt k}, e^-2k and k^-2."""
    grid = ((0.0, 1.0, -1.0, 0.5), (0.0, 0.5, 1.0, 2.0), (0.0, 1.0, -1.0), (0.0, 1.0, 2.0))
    for a_re, p_re, a_im, p_im in itertools.product(*grid):
        try:
            spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
        except gl.SpectrumError:
            continue
        vectors = [
            gl.CoefficientVector.power_decay(spec, c, r)
            for c, r in ((1.0, 1.0), (1.0, 2.0), (0.5, 0.5), (2.0, 1.0))
        ]
        vectors.append(gl.CoefficientVector.polynomial_decay(spec, 2.0))
        for f in vectors:
            yield repr(gl.check_admissible(f))


# sha256 of the newline-joined _admissibility_reprs()
_ADMISSIBILITY_DIGEST = "fab2c81191460f8d465c5767261dbd4ac8f323db3b6e2c7ba416b4ae85d8cfbf"


def test_admissibility_certificates_are_pinned():
    reprs = list(_admissibility_reprs())
    rules = collections.Counter(r.split("tail_rule=")[1].split("(")[0] for r in reprs)
    assert rules == {"ReBoundedAbove": 275, "WitnessFailure": 198, "DecayDominates": 72}
    assert hashlib.sha256("\n".join(reprs).encode()).hexdigest() == _ADMISSIBILITY_DIGEST


def _sup_bound_loop(form, lo):
    """Reference: the checkpoints lo, 2 max(lo, 1), 4 max(lo, 1), ... read one at a time."""
    vals, k = [form.at(float(lo))], max(lo, 1)
    for _ in range(60):
        k *= 2
        vals.append(form.at(float(k)))
    if all(t.power < 0 for t in form.terms):
        vals.append(form.const)
    return max(vals)


def _read_with_warnings(read):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        value = read()
    return value, {(w.category, str(w.message)) for w in seen}


@pytest.mark.parametrize(
    "form, lo",
    [
        (gl.AsymForm.power(-1.0, -1.0, 3.0), 1),  # the limit 3 is the supremum
        (gl.AsymForm.power(0.5, -1.0) + gl.AsymForm.log_k(10.0), 1),
        (gl.AsymForm.power(0.5, -1.0) + gl.AsymForm.log_k(10.0), 5),
        (gl.AsymForm.power(2.0, -1.0) + gl.AsymForm.power(1.9, 1e300), 3),  # overflows
    ],
)
def test_sup_bound_reads_the_checkpoints_of_a_scalar_loop(form, lo):
    value, warned = _read_with_warnings(lambda: ev._sup_bound(form, lo))
    assert (value, warned) == _read_with_warnings(lambda: _sup_bound_loop(form, lo))


# -- solving -------------------------------------------------------------------


def test_solve_at_zero_is_identity_bitwise():
    spec, f, _ = explicit16_pair()
    h = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)
    m0, p0 = gl.solve(h, 0.0).log_coeffs(ks)
    mf, pf = f.log_coeffs(ks)
    assert np.array_equal(m0, mf) and np.array_equal(p0, pf)


def test_scalar_solutions():
    h = gl.SolutionHandle.admit(
        gl.CoefficientVector.explicit(gl.ExplicitSpectrum((1 + 0j,)), values=[1.0])
    )
    assert abs(gl.solve(h, 1.0).to_complex(np.array([1]))[0] - math.e) < 1e-15

    hi = gl.SolutionHandle.admit(
        gl.CoefficientVector.explicit(gl.ExplicitSpectrum((1j,)), values=[1.0])
    )
    assert abs(gl.solve(hi, math.pi).to_complex(np.array([1]))[0] + 1.0) < 1e-15


def test_solve_rejects_negative_time():
    spec, f, _ = explicit16_pair()
    h = gl.SolutionHandle.admit(f)
    with pytest.raises(ValueError):
        gl.solve(h, -0.1)


def test_semigroup_law_bitwise_on_dyadic_times():
    spec, f, _ = explicit16_pair(seed=12)
    h = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)
    for t1, t2 in ((0.5, 0.25), (1.0, 2.0), (0.125, 0.5)):
        a = gl.solve(h, t1 + t2)
        b = gl.apply_symbol(gl.ExpSymbol(t2), gl.solve(h, t1))
        ma, pa = a.log_coeffs(ks)
        mb, pb = b.log_coeffs(ks)
        assert np.array_equal(ma, mb) and np.array_equal(pa, pb)


def test_trajectories_are_deterministic():
    spec, f, _ = explicit16_pair(seed=21)
    h1 = gl.SolutionHandle.admit(f)
    h2 = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)
    m1, p1 = gl.solve(h1, 0.7).log_coeffs(ks)
    m2, p2 = gl.solve(h2, 0.7).log_coeffs(ks)
    assert np.array_equal(m1, m2) and np.array_equal(p1, p2)


# -- derivatives ---------------------------------------------------------------


def test_derivative_order_zero_is_solve():
    spec, f, _ = explicit16_pair()
    h = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)
    a = gl.derivative(h, 0.5, 0)
    b = gl.solve(h, 0.5)
    assert np.array_equal(a.log_coeffs(ks)[0], b.log_coeffs(ks)[0])


def test_third_derivative_of_single_mode():
    h = gl.SolutionHandle.admit(
        gl.CoefficientVector.explicit(gl.ExplicitSpectrum((2 + 0j,)), values=[1.0])
    )
    assert abs(gl.derivative(h, 0.0, 3).to_complex(np.array([1]))[0] - 8.0) < 1e-14


def test_derivative_forward_difference_oracle():
    spec, f, _ = explicit16_pair(seed=8)
    h = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)
    eps, t = 1e-5, 0.5
    fd = (gl.solve(h, t + eps).to_complex(ks) - gl.solve(h, t).to_complex(ks)) / eps
    ay = gl.derivative(h, t, 1).to_complex(ks)
    err = np.linalg.norm(fd - ay)
    assert err < 50 * eps  # O(eps) one-sided difference
    assert err > 0


def test_derivative_reports_first_failing_order():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)  # leaves C^inf at n = 2
    h = gl.SolutionHandle.admit(f)
    with pytest.raises(gl.DomainError) as err:
        gl.derivative(h, 0.0, 5)
    assert "first failing order 2" in str(err.value)


# -- weak-solution residual ------------------------------------------------------


def test_weak_residual_scalar_second_order():
    h = gl.SolutionHandle.admit(
        gl.CoefficientVector.explicit(gl.ExplicitSpectrum((1 + 0j,)), values=[1.0])
    )
    g = gl.CoefficientVector.explicit(h.f.spectrum, values=[1.0])
    res = gl.weak_solution_residual(h, g, [0.5, 1.0], eps=1e-5)
    # central differences: |(e^{t+e}-e^{t-e})/2e - e^t| = e^t * eps^2/6 + O(eps^4)
    oracle = math.e * 1e-10 / 6.0
    assert res < 10 * oracle
    assert res > oracle / 10


def test_weak_residual_zero_dual_vanishes():
    spec, f, _ = explicit16_pair()
    h = gl.SolutionHandle.admit(f)
    g = gl.CoefficientVector.explicit(spec, values=[0.0] * 16)
    assert gl.weak_solution_residual(h, g, [0.25, 1.0]) == 0.0


def test_weak_residual_sixteen_point_below_tolerance():
    spec, f, g = explicit16_pair(seed=2024)
    h = gl.SolutionHandle.admit(f)
    assert gl.weak_solution_residual(h, g, [0.25, 0.5, 1.0], eps=1e-5) < 1e-6


def test_weak_residual_rejects_dual_outside_adjoint_domain():
    spec = gl.PowerLawSpectrum(1, 1, 0, 0)
    f = gl.CoefficientVector.power_decay(spec, 1.0, 2.0)
    h = gl.SolutionHandle.admit(f)
    g = gl.CoefficientVector.polynomial_decay(spec, 1.2, p=2.0)  # lam*g leaves l^2
    with pytest.raises(gl.VectorError):
        gl.weak_solution_residual(h, g, [1.0])


def test_weak_residual_needs_time_margin_on_infinite_spectra():
    spec = gl.PowerLawSpectrum(-1, 1, 0, 0)
    f = gl.CoefficientVector.polynomial_decay(spec, 2.0)
    h = gl.SolutionHandle.admit(f)
    g = gl.CoefficientVector.power_decay(spec, 1.0, 1.0, p=2.0)
    with pytest.raises(ValueError):
        gl.weak_solution_residual(h, g, [0.0])
