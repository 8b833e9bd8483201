"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance and runtime limit is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np

import gevlab as gl
import oracles
from gevlab.series import SeriesStatus

BETAS = (1.0, 1.5, 2.0)


def _verdict_line(num: int, ok: bool, message: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {message}")
    assert ok, f"criterion {num}: {message}"


def test_criterion_1_theorem_equivalence_at_desk_scale():
    t0 = time.perf_counter()
    spectra = gl.builtin_spectra()
    assert len(spectra) >= 8
    problems = []
    for name, spec in spectra.items():
        for beta in BETAS:
            report = gl.theorem_equivalence_harness(spec, beta)
            if report.region.holds:
                for row in report.rows:
                    if not row.admissible:
                        continue
                    for t, flavor, member in row.verdicts:
                        if flavor == "beurling" and member is not True:
                            problems.append(f"{name}/beta={beta}: {row.vector} at t={t}")
            elif report.region.violated:
                ce = report.counterexample
                if ce is None or not ce.admissibility.admissible:
                    problems.append(f"{name}/beta={beta}: no admissible counterexample")
                elif ce.non_membership.member is not False:
                    problems.append(f"{name}/beta={beta}: counterexample not refuted")
            else:
                problems.append(f"{name}/beta={beta}: region Unknown")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _verdict_line(
        1,
        ok,
        f"{len(spectra)} spectra x {len(BETAS)} orders, zero contradictions, "
        f"{elapsed:.1f}s (< 60s); problems={problems!r}",
    )


def test_criterion_2_counterexample_reproduction():
    t0 = time.perf_counter()
    scales = (2.0**-10, 1.0, 2.0**10)
    problems = []
    for beta in (1.0, 2.0):
        for case in (gl.PlanCase.BOUNDED_REAL_PARTS, gl.PlanCase.UNBOUNDED_REAL_PARTS):
            art = gl.build_counterexample(gl.build_violating_spectrum(beta, case))
            if not art.admissibility.admissible:
                problems.append(f"beta={beta}/{case.value}: inadmissible")
            for s in scales:
                cert = art.probe_certificates[s]
                if cert.status is not SeriesStatus.DIVERGES:
                    problems.append(f"beta={beta}/{case.value}/s={s}: {cert.status.value}")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 10.0
    _verdict_line(
        2,
        ok,
        f"both cases, beta in (1, 2), dual-probe series diverge at s in {scales}, "
        f"{elapsed:.1f}s (< 10s); problems={problems!r}",
    )


def test_criterion_3_oracle_equivalence_on_random_spectra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    symbols = oracles.catalog_symbols()
    mismatches = 0
    checks = 0
    for _ in range(50):
        pts = rng.normal(size=32) + 1j * rng.normal(size=32)
        spec = gl.ExplicitSpectrum(tuple(map(complex, pts)))
        vals = rng.normal(size=32) + 1j * rng.normal(size=32)
        f = gl.CoefficientVector.explicit(spec, values=list(map(complex, vals)))
        lams = np.asarray(pts)
        for F in symbols:
            direct = gl.domain_member_direct(F, f)
            dual = gl.domain_member_prop31(F, f)
            # exact finite-sum evaluation: 32 atoms always sum to a finite value
            image = np.abs(vals) * np.exp(F.log_abs(lams))
            exact_member = bool(np.isfinite((image**2).sum()))
            checks += 1
            if not (direct.converged and dual.converged and exact_member):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 5.0
    _verdict_line(
        3,
        ok,
        f"{checks} verdict triples equal exactly on 50 random 32-point spectra, "
        f"{elapsed:.1f}s (< 5s); mismatches={mismatches}",
    )


def test_criterion_4_order_estimator_soundness():
    t0 = time.perf_counter()
    speck = gl.PowerLawSpectrum(1, 1, 0, 0)

    def kk_fn(ks):
        kf = ks.astype(float)
        return -kf * np.log(kf), np.zeros(ks.shape)

    pair1 = gl.CoefficientVector.custom(
        speck, kk_fn, bounds=gl.TailBounds.exact(gl.AsymForm.power_log(1.0, -1.0)), label="k^-k"
    )
    pair2 = gl.CoefficientVector.power_decay(speck, 1.0, 0.5, label="e^-sqrt(k)")
    est1 = gl.estimate_order(pair1, n_max=40)
    est2 = gl.estimate_order(pair2, n_max=40)

    # dense-k-scan norm oracle for both designs
    ks = np.arange(1, (1 << 20) + 1, dtype=float)
    oracle_ok = True
    for est, decay in ((est1, ks * np.log(ks)), (est2, np.sqrt(ks))):
        for n in (10, 40):
            terms = 2.0 * (n * np.log(ks) - decay)
            m = terms.max()
            oracle = 0.5 * (m + math.log(np.exp(terms - m).sum()))
            if abs(est.log_norms[n] - oracle) > 1e-8:
                oracle_ok = False
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and abs(est1.beta_hat - 1.0) <= 0.1 and abs(est2.beta_hat - 2.0) <= 0.15 and elapsed < 5.0
    _verdict_line(
        4,
        ok,
        f"beta_hat(k^-k)={est1.beta_hat:.3f} (target 1 +- 0.1), "
        f"beta_hat(e^-sqrt(k))={est2.beta_hat:.3f} (target 2 +- 0.15), "
        f"norms match the dense-scan oracle: {oracle_ok}, {elapsed:.1f}s (< 5s)",
    )


def test_criterion_5_evolution_correctness():
    t0 = time.perf_counter()
    spec = gl.builtin_spectra()["explicit16"]
    rng = np.random.default_rng(55)
    f = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, 0.5 * (rng.normal(size=16) + 1j * rng.normal(size=16))))
    )
    g = gl.CoefficientVector.explicit(
        spec, values=list(map(complex, 0.5 * (rng.normal(size=16) + 1j * rng.normal(size=16))))
    )
    h = gl.SolutionHandle.admit(f)
    ks = np.arange(1, 17, dtype=np.int64)

    # semigroup law, exact in log arithmetic
    semigroup_ok = True
    for t1, t2 in ((0.5, 0.25), (1.0, 2.0), (0.125, 0.5)):
        a = gl.solve(h, t1 + t2)
        b = oracles.apply_symbol(gl.ExpSymbol(t2), gl.solve(h, t1))
        ma, pa = a.log_coeffs(ks)
        mb, pb = b.log_coeffs(ks)
        if not (np.array_equal(ma, mb) and np.array_equal(pa, pb)):
            semigroup_ok = False

    # identity at t = 0, bitwise
    m0, p0 = gl.solve(h, 0.0).log_coeffs(ks)
    mf, pf = f.log_coeffs(ks)
    identity_ok = np.array_equal(m0, mf) and np.array_equal(p0, pf)

    residual = oracles.weak_solution_residual(h, g, [0.25, 0.5, 1.0], eps=1e-5)
    residual_ok = residual < 1e-6

    elapsed = time.perf_counter() - t0
    ok = semigroup_ok and identity_ok and residual_ok
    _verdict_line(
        5,
        ok,
        f"semigroup exact: {semigroup_ok}, t=0 identity bitwise: {identity_ok}, "
        f"weak residual {residual:.2e} < 1e-6, {elapsed:.1f}s",
    )


def test_criterion_6_smoothness_jump():
    t0 = time.perf_counter()
    problems = []
    for name, spec in gl.builtin_spectra().items():
        for beta in BETAS:
            region = gl.region_condition(spec, beta)
            if not region.holds:
                continue
            all_roumieu = True
            any_beurling_refuted = False
            for v in gl.builtin_vectors(spec):
                if not gl.check_admissible(v).admissible:
                    continue
                if gl.vector_class(v, beta, gl.GevreyFlavor.ROUMIEU).member is not True:
                    all_roumieu = False
                if gl.vector_class(v, beta, gl.GevreyFlavor.BEURLING).member is False:
                    any_beurling_refuted = True
            if all_roumieu and any_beurling_refuted:
                problems.append(f"{name}/beta={beta}")

    art = gl.build_counterexample(
        gl.build_violating_spectrum(1.0, gl.PlanCase.BOUNDED_REAL_PARTS)
    )
    order1 = gl.vector_class(art.f, 1.0)
    order1_ok = order1.member is False

    elapsed = time.perf_counter() - t0
    ok = not problems and order1_ok
    _verdict_line(
        6,
        ok,
        f"no jump violation on Holds runs (problems={problems!r}); order-1 "
        f"counterexample Roumieu member: {order1.member}, {elapsed:.1f}s",
    )


def test_criterion_7_inclusion_chain():
    t0 = time.perf_counter()
    violations = []
    for name, spec in gl.builtin_spectra().items():
        for v in gl.builtin_vectors(spec):
            if not gl.check_admissible(v).admissible:
                continue
            members = {}
            for beta in BETAS:
                members[(beta, "r")] = gl.vector_class(v, beta, gl.GevreyFlavor.ROUMIEU).member
                members[(beta, "b")] = gl.vector_class(v, beta, gl.GevreyFlavor.BEURLING).member
            for beta in BETAS:
                if members[(beta, "b")] is True and members[(beta, "r")] is False:
                    violations.append(f"{name}/{v.label}: Beurling({beta}) without Roumieu({beta})")
            for b1 in BETAS:
                for b2 in BETAS:
                    if b1 < b2 and members[(b1, "r")] is True and members[(b2, "b")] is False:
                        violations.append(
                            f"{name}/{v.label}: Roumieu({b1}) but Beurling({b2}) refuted"
                        )
    elapsed = time.perf_counter() - t0
    ok = not violations
    _verdict_line(
        7,
        ok,
        f"verdict lattice respected over the catalog ({elapsed:.1f}s); "
        f"violations={violations!r}",
    )
