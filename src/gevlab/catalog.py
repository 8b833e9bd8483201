"""Built-in spectrum families and test vectors used by the harness and CLI.

The explicit family uses dyadic coordinates so that exponential rescaling
and semigroup compositions stay exact in floating point.
"""

from __future__ import annotations

from .spectral_core import CoefficientVector, ExplicitSpectrum, PowerLawSpectrum, SpectrumFamily

_EXPLICIT16 = (
    0.5 + 0.0j,
    1.0 + 0.0j,
    1.5 + 0.0j,
    2.0 + 0.0j,
    -0.5 + 0.0j,
    -1.0 + 0.0j,
    -1.5 + 0.0j,
    -2.0 + 0.0j,
    0.5 + 0.5j,
    1.0 - 0.5j,
    -1.0 + 1.0j,
    1.5 + 1.0j,
    -0.5 - 1.0j,
    0.25 + 0.75j,
    -1.25 + 0.5j,
    2.0 - 1.0j,
)


def builtin_spectra() -> dict[str, SpectrumFamily]:
    return {
        "explicit16": ExplicitSpectrum(_EXPLICIT16, label="explicit16"),
        "lin-diag": PowerLawSpectrum(1.0, 1.0, 1.0, 1.0, label="k+i*k"),
        "lin-sqrt": PowerLawSpectrum(1.0, 1.0, 1.0, 0.5, label="k+i*sqrt(k)"),
        "neg-real": PowerLawSpectrum(-1.0, 1.0, 0.0, 0.0, label="-k"),
        "imag-quad": PowerLawSpectrum(0.0, 0.0, 1.0, 2.0, label="i*k^2"),
        "imag-quart": PowerLawSpectrum(0.0, 0.0, 1.0, 4.0, label="i*k^4"),
        "mixed-quart": PowerLawSpectrum(1.0, 1.0, 1.0, 4.0, label="k+i*k^4"),
        "pos-real": PowerLawSpectrum(1.0, 1.0, 0.0, 0.0, label="k"),
    }


def builtin_vectors(spectrum: SpectrumFamily, p: float = 2.0) -> list[CoefficientVector]:
    """Test vectors spanning finite support, super-polynomial and polynomial decay.

    Vectors that are not admissible for a given family are skipped by the
    harness; the polynomial one is there precisely to exercise that path.
    """
    head = min(8, spectrum.size or 8)
    out = [
        CoefficientVector.explicit(
            spectrum,
            values=[(k + 1.0) ** -2 for k in range(head)],
            p=p,
            label="prefix8",
        ),
        CoefficientVector.power_decay(spectrum, 1.0, 2.0, p=p, label="gauss"),
        CoefficientVector.power_decay(spectrum, 0.5, 3.0, p=p, label="cubic"),
        CoefficientVector.power_decay(spectrum, 2.0, 1.5, p=p, label="stretch15"),
    ]
    if spectrum.size is None:
        out.append(CoefficientVector.polynomial_decay(spectrum, 2.0, p=p, label="poly2"))
    else:
        out.append(
            CoefficientVector.explicit(
                spectrum,
                values=[(k + 1.0) ** -2 for k in range(spectrum.size)],
                p=p,
                label="poly2",
            )
        )
    return out
