"""Golden certificates for the support-view envelope paths.

Every counterexample vector lives on its plan's subsequence.  The vectors
with decay e^{-decay n Re} are the plan's views, which override
SeriesSpace.term_bounds with coupled envelopes (the lower envelope of the
Gevrey weight on the refuting vector, the upper envelope of e^{tA} on
vectors with decay) that no componentwise envelope can express.  The
subsequence runs on every plan the catalog harness builds; these tests pin every
series certificate that build_counterexample makes on three plans whose
selection is not the identity, in call order, so any change to how those
overrides reach the series engine shows up as a byte difference.
"""

import importlib
import pkgutil

import pytest

import gevlab as gl
from gevlab.series import certify_log_series

SPECTRA = {
    "i*sqrt(k)": gl.PowerLawSpectrum(0, 0, 1, 0.5, label="i*sqrt(k)"),
    "5+i*k^2": gl.PowerLawSpectrum(5.0, 0.0, 1.0, 2.0, label="5+i*k^2"),
    "mixed-quart": gl.builtin_spectra()["mixed-quart"],
}

_DIVERGES = "('symbolic-divergence', 'diverges', 0, inf, nan)"
# the admissibility probes only decide: no value, no term summed
_ADMISSIBILITY_PROBE = "('symbolic-tail', 'converges', 0, nan, nan)"
_PROBES_DIVERGE = {"0.0009765625": _DIVERGES, "1.0": _DIVERGES, "1024.0": _DIVERGES}
_CONVERGES_ALL_T = "((0.0, 'converges'), (1.0, 'converges'), (50.0, 'converges'), (100.0, 'converges'))"

GOLDEN = {
    ("i*sqrt(k)", 1.0): {
        "probe_status": _CONVERGES_ALL_T,
        "tail_rule": "ReBoundedAbove(omega=0.0)",
        "class_probes": "((9.5367431640625e-07, 'diverges'),)",
        "probe_certificates": _PROBES_DIVERGE,
        "series_calls": [_ADMISSIBILITY_PROBE] * 4 + [_DIVERGES] * 4,
    },
    ("5+i*k^2", 1.0): {
        "probe_status": _CONVERGES_ALL_T,
        "tail_rule": "ReBoundedAbove(omega=5.0)",
        "class_probes": "((9.5367431640625e-07, 'diverges'),)",
        "probe_certificates": _PROBES_DIVERGE,
        "series_calls": [_ADMISSIBILITY_PROBE] * 4 + [_DIVERGES] * 4,
    },
    ("mixed-quart", 2.0): {
        "probe_status": _CONVERGES_ALL_T,
        "tail_rule": "DecayDominates(r=2.0, p_re=None)",
        "class_probes": "((9.5367431640625e-07, 'diverges'),)",
        "probe_certificates": _PROBES_DIVERGE,
        "series_calls": [_ADMISSIBILITY_PROBE] * 4 + [_DIVERGES] * 4,
    },
}


def _pinned(cert) -> str:
    return repr((cert.route, cert.status.value, cert.terms_used, cert.log_value, cert.log_tail_bound))


@pytest.fixture
def series_calls(monkeypatch):
    """Record every certificate issued by the series engine, in call order."""
    calls = []

    def recording(*args, **kwargs):
        cert = certify_log_series(*args, **kwargs)
        calls.append(_pinned(cert))
        return cert

    for info in pkgutil.iter_modules(gl.__path__):
        module = importlib.import_module(f"gevlab.{info.name}")
        if hasattr(module, "certify_log_series"):
            monkeypatch.setattr(module, "certify_log_series", recording)
    return calls


@pytest.mark.parametrize("name,beta", list(GOLDEN))
def test_counterexample_certificates_match_golden(series_calls, name, beta):
    art = gl.build_counterexample(gl.plan_for_spectrum(SPECTRA[name], beta))
    want = GOLDEN[(name, beta)]
    assert art.f.spectrum is art.plan.subsequence  # f lives on the plan's subsequence
    assert repr(art.admissibility.probe_status) == want["probe_status"]
    assert repr(art.admissibility.tail_rule) == want["tail_rule"]
    assert repr(art.non_membership.probes) == want["class_probes"]
    got = {repr(s): _pinned(c) for s, c in art.probe_certificates.items()}
    assert got == want["probe_certificates"]
    assert series_calls == want["series_calls"]
