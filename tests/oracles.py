"""Test oracles: checks of the theory that no decision of gevlab needs.

The symbol catalog and symbol application, the weak form of y' = A y, the
bilinear pairing with its complex log-sum, and the one-form tail bound.
The tests import this module as `oracles`.
"""

import cmath
import math

import numpy as np

import gevlab as gl
from gevlab.asymptotics import form_converges, tail_bounders
from gevlab.logdomain import NEG_INF


def catalog_symbols() -> list:
    """Representative symbols used by cross-checks and agreement tests."""
    return [
        gl.PowerSymbol(0),
        gl.PowerSymbol(1),
        gl.PowerSymbol(2),
        gl.PowerSymbol(5),
        gl.ExpSymbol(1.0),
        gl.ExpSymbol(-0.5),
        gl.ExpSymbol(0.5j),
        gl.GevreyExpSymbol(1.0, 1.0),
        gl.GevreyExpSymbol(0.25, 2.0),
    ]


def apply_symbol(F, f):
    """Coordinatewise g_k = F(lam_k) f_k; refuses when membership is not certified."""
    cert = gl.domain_member_direct(F, f, budget=None)
    if not cert.converged:
        raise gl.DomainError(
            f"{F.name} applied outside its certified domain (status {cert.status.value})",
            cert,
        )
    return f._with_symbols((F,))


def log_tail_bound(form, K):
    """Certified upper bound on log( sum_{k > K} e^{form(k)} ), or None."""
    return tail_bounders([form])(K, [0])[0]


def complex_logsum(log_mags, phases):
    """(log|s|, arg s) of s = sum_i e^{log_mags[i] + i phases[i]}; s = 0 is
    (-inf, 0.0) and the phase lies in (-pi, pi]."""
    mags = np.asarray(log_mags, dtype=float)
    phis = np.asarray(phases, dtype=float)
    m = float(np.max(mags)) if mags.size else NEG_INF
    if m == NEG_INF:
        return NEG_INF, 0.0
    scaled = np.exp(mags - m)
    re = math.fsum((scaled * np.cos(phis)).tolist())
    im = math.fsum((scaled * np.sin(phis)).tolist())
    r = math.hypot(re, im)
    if r == 0.0:
        return NEG_INF, 0.0
    phase = math.atan2(im, re)
    return m + math.log(r), math.pi if phase == -math.pi else phase


def pairing(v, w, k_cap=1 << 16) -> complex:
    """Bilinear pairing <v, w> = sum_k v_k w_k (dual coordinates)."""
    counts = [n for n in (v.space.count, w.space.count) if n is not None]
    tail = None
    if counts:
        n = min(counts)
    else:
        n = k_cap
        vb, wb = v.space.coeff_bounds, w.space.coeff_bounds
        if vb is None or wb is None or vb.upper is None or wb.upper is None:
            raise gl.VectorError("pairing of two infinite vectors needs decay envelopes")
        prod = vb.upper + wb.upper
        if not form_converges(prod):
            raise gl.VectorError("pairing series is not certifiably convergent")
        tail = log_tail_bound(prod, n) if n >= max(vb.k_min, wb.k_min) else None
        if tail is None:
            raise gl.VectorError(f"pairing tail beyond k={n} has no certified bound")
    ks = np.arange(1, n + 1, dtype=np.int64)
    vm, vp = v.log_coeffs(ks)
    wm, wp = w.log_coeffs(ks)
    log_mag, phase = complex_logsum(vm + wm, vp + wp)
    if tail is not None and log_mag != NEG_INF and tail > log_mag + math.log(1e-9):
        raise gl.VectorError(
            f"pairing tail beyond k={n} is not negligible (bound exp({tail:.3g}))"
        )
    return 0j if log_mag == NEG_INF else cmath.rect(math.exp(log_mag), phase)


def weak_solution_residual(h, g, t_grid, eps=1e-5) -> float:
    """Max over the grid of |d/dt <y(t), g> - <y(t), A* g>| (central differences).

    g must carry the conjugate exponent and lie in the coordinatewise domain
    of the adjoint, i.e. {lam_k g_k} in l^q.
    """
    q = gl.conjugate_exponent(h.f.p_norm)
    if abs(g.p_norm - q) > 1e-9:
        raise gl.VectorError(f"dual vector must carry q={q:g}")
    adj_check = gl.domain_member_direct(gl.PowerSymbol(1), g, budget=None)
    if not adj_check.converged:
        raise gl.VectorError("g is outside the coordinatewise adjoint domain")
    infinite = h.f.space.count is None
    for t in t_grid:
        if t < 0 or (infinite and t < eps):
            raise ValueError(
                "grid times must be >= 0, and >= eps for infinite spectra "
                "(the backward difference point must stay admissible)"
            )
    a_star_g = g._with_symbols((gl.PowerSymbol(1),))
    worst = 0.0
    for t in t_grid:
        y_plus = h.f._with_symbols((gl.ExpSymbol(float(t + eps)),))
        y_minus = h.f._with_symbols((gl.ExpSymbol(float(t - eps)),))
        y_t = gl.solve(h, t)
        fd = (pairing(y_plus, g) - pairing(y_minus, g)) / (2.0 * eps)
        rhs = pairing(y_t, a_star_g)
        worst = max(worst, abs(fd - rhs))
    return worst
