"""Golden selections of the violating subsequence.

The plans of counterexamples.py pick j(1) < j(2) < ... greedily.  These
tests pin the first 2^15 selected indices and the disk radii of every plan
the catalog and the canonical constructions produce, so that any change to
how the selection is computed (blocking, rounding, repair of rejects) must
reproduce the greedy choice exactly.  2^15 covers the 16,384 orders the
series engine reaches in build_counterexample and the order 12,763 on
mixed-quart at beta = 2, where the violation inequality is decided by the
last bit of |Im lam|^{1/beta}.  Reference loops check the block selection
against the one-index-at-a-time greedy on more families, and the disk radii
against the per-order loop.
"""

import hashlib
import math

import numpy as np
import pytest

import gevlab as gl
from gevlab.counterexamples import Selection, SupportView, _dense_inverse_fn
from gevlab.logdomain import NEG_INF

N_GOLDEN = 1 << 15

_IDENTITY = "76a2f86baf23eee94a2f7c41aa06f1dc78d48dadadb65f0c6c3c64457e3496b9"
_EPS_512 = "484327c81503fce6bf51e74a397c2e0f2c328c20389165105caf96592864e665"

# sha256 of the int64 bytes of j(1..2^15), and of the float64 bytes of epsilons(512)
GOLDEN = {
    **{
        (name, beta): (_IDENTITY, _EPS_512)
        for name in ("neg-real", "imag-quad", "imag-quart", "bounded", "unbounded")
        for beta in (1.0, 1.5, 2.0)
    },
    ("mixed-quart", 1.0): (_IDENTITY, _EPS_512),
    ("mixed-quart", 1.5): (
        "9d46e2022e672ad84d817375e6c1abeb03a8f8f981be83eb133a6ecde288602b",
        _EPS_512,
    ),
    ("mixed-quart", 2.0): (
        "eefc92dd4da462f7e111c8b117b15c9d83b3297345e24b61bb9ecc703b07762d",
        _EPS_512,
    ),
}


def _plan(name, beta):
    if name in ("bounded", "unbounded"):
        return gl.build_violating_spectrum(beta, gl.PlanCase(name))
    return gl.plan_for_spectrum(gl.builtin_spectra()[name], beta)


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _greedy(sel: Selection, n_top: int) -> list[int]:
    """Reference: the greedy choice made one index at a time."""
    spec, js, prev = sel.spectrum, [], 0
    for n in range(1, n_top + 1):
        prev_abs = abs(spec.eigenvalue(prev)) if prev else 0.0
        cand = max([prev + 1] + [math.ceil(t.coeff * n**t.exponent) for t in sel.thresholds])
        while not sel._ok(spec.eigenvalue(cand), n, prev_abs):
            cand += 1
        js.append(cand)
        prev = cand
    return js


def _epsilons_loop(plan, n_top: int) -> np.ndarray:
    """Reference: eps_n = min(1/(2n), half the smaller neighboring gap)."""
    gaps = np.abs(np.diff(plan.selected_lams(np.arange(1, n_top + 2, dtype=np.int64))))
    eps = np.empty(n_top)
    for i in range(n_top):
        gap = gaps[i] if i == 0 else min(gaps[i - 1], gaps[i])
        eps[i] = min(1.0 / (2.0 * (i + 1)), gap / 2.0)
    return eps


@pytest.mark.parametrize("name,beta", list(GOLDEN))
def test_selection_matches_golden(name, beta):
    plan = _plan(name, beta)
    js = plan.selection.indices(np.arange(1, N_GOLDEN + 1, dtype=np.int64))
    assert js.dtype == np.int64
    want_js, want_eps = GOLDEN[(name, beta)]
    assert _sha(js) == want_js
    eps = plan.epsilons(512)
    assert _sha(eps) == want_eps
    assert np.array_equal(eps, _epsilons_loop(plan, 512))
    assert np.array_equal(plan.epsilons(1), _epsilons_loop(plan, 1))


# (a_re, p_re, a_im, p_im, beta, orders): rounding-decided violation
# boundaries, slow moduli, constant real parts, and candidates n^4 and n^5
# above 2^53, where numpy's and Python's rounding of the power differ
SCALAR_CASES = [
    (1.0, 1.0, 1.0, 4.0, 2.0, 2000),
    (1.0, 1.0, 1.0, 3.0, 2.0, 10_000),
    (0.0, 0.0, 1.0, 0.2, 1.0, 2000),
    (1.0, 1.0, 2.5, 3.0, 1.3, 2000),
    (0.0, 0.0, 1.0, 0.5, 1.0, 2000),
    (5.0, 0.0, 1.0, 2.0, 1.0, 2000),
    (0.5, 0.0, 1.0, 0.5, 1.3, 2000),
    (-2.0, 0.5, 2.5, 7.0, 3.0, 2000),
    (5.0, 1.5, 2.5, 7.0, 1.5, 2000),
]


@pytest.mark.parametrize("a_re,p_re,a_im,p_im,beta,orders", SCALAR_CASES)
def test_blocks_match_scalar_greedy(a_re, p_re, a_im, p_im, beta, orders):
    spec = gl.PowerLawSpectrum(a_re, p_re, a_im, p_im)
    require = a_re > 0 and p_re > 0
    sel = Selection(spec, beta, require)
    for n in (1, 7, 300, orders):  # blocks seeded at several places
        sel.extend(n)
    want = _greedy(Selection(spec, beta, require), orders)
    assert sel.indices(np.arange(1, orders + 1)).tolist() == want


def test_boundary_order_on_mixed_quart_at_beta_two():
    # j = n^2 sits exactly on Re = n^-2 |Im|^{1/2}: the strict inequality
    # rejects it, except where the rounding of |Im|^{1/2} lifts the right
    # side above Re (n = 9745 is the first such order)
    sel = _plan("mixed-quart", 2.0).selection
    js = sel.indices(np.asarray([1, 2, 3, 9_744, 9_745, 12_763], dtype=np.int64))
    assert js.tolist() == [1, 5, 10, 9_744**2 + 1, 9_745**2, 12_763**2 + 1]


@pytest.mark.parametrize("decay", [None, 1.0])
def test_dense_inverse_matches_brute_force(decay):
    plan = _plan("mixed-quart", 1.5)
    sel = plan.selection
    view = SupportView(plan, decay)
    prefix_top = int(sel.indices(np.asarray([10_000]))[0])
    # selected and skipped indices, inside and beyond the extended prefix
    js = np.unique(
        np.concatenate(
            [
                np.arange(1, 200),
                np.arange(prefix_top - 50, prefix_top + 50),
                np.arange(80_000, 80_100),
                sel.indices(np.arange(9_990, 10_010)),
            ]
        )
    ).astype(np.int64)
    mags, phases = _dense_inverse_fn(view)(js)

    chosen = sel.indices(np.arange(1, int(js.max()) + 1))
    order = {int(j): n for n, j in enumerate(chosen.tolist(), start=1)}
    want = np.full(js.shape, NEG_INF)
    for i, j in enumerate(js.tolist()):
        if j in order:
            want[i] = view.coeff_log(np.asarray([order[j]], dtype=np.int64))[0][0]
    assert np.any(want == NEG_INF) and np.any(want > NEG_INF)
    assert np.any(js > prefix_top) and np.any(want[js > prefix_top] > NEG_INF)
    assert np.array_equal(mags, want)
    assert np.all(phases == 0.0)
