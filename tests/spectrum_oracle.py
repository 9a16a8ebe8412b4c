"""Reference spectrum: a least-squares fit of sampled circuit outputs,
and the complex-exponential series.

`empirical_spectrum` here is how `spectrum.empirical_spectrum` found an
edge's Fourier coefficients before they were propagated through the
circuit in closed form. It samples the raw expectation over a period
chosen from the frequency set, builds the dense |samples| x |F| design
matrix exp(i x f), refuses an ill-conditioned one and solves it with
lstsq. The design costs O(|F|^2) memory, so it fits only small edges.
It serves as the oracle for the closed-form coefficients.

`series` and `residual_l2` are the audit as it was before the series
went through tan(theta / 2): one complex exp per point and frequency,
a block of AUDIT_BLOCK frequencies at a time. They serve as the oracle
for `spectrum._series` and the report's residual_l2.
"""

import numpy as np

from qkan.daruan import circuit_expectation
from qkan.network import QkanLayer
from qkan.spectrum import (AUDIT_BLOCK, AUDIT_POINTS, DEDUP_TOL,
                           SpectrumReport, enumerate_frequencies)

#: condition-number ceiling for the basis fit
COND_LIMIT = 1e12


def _sample_grid(freqs, count):
    nonzero = np.abs(freqs[np.abs(freqs) > DEDUP_TOL])
    integral = np.all(np.abs(nonzero - np.round(nonzero)) < DEDUP_TOL)
    if integral or nonzero.size == 0:
        period = 2.0 * np.pi
    else:
        gaps = np.diff(freqs)
        period = 8.0 * np.pi / np.min(gaps[gaps > DEDUP_TOL])
    return np.linspace(0.0, period, count, endpoint=False)


def empirical_spectrum(p, frequencies=None):
    """Fit sampled raw expectations onto the enumerated frequency basis.

    Encoding biases are absorbed into the complex coefficients. The
    sample grid oversamples the basis 4x to stabilize the fit. An
    explicit `frequencies` array overrides the enumerated set.
    """
    if frequencies is None:
        freqs = enumerate_frequencies(p.enc_w)
    else:
        freqs = np.asarray(frequencies, dtype=np.float64)
    xs = _sample_grid(freqs, 4 * (2 * freqs.size + 1))
    edge = QkanLayer.of_edge(p)
    ys = circuit_expectation(edge.enc_w, edge.enc_b, edge.angles,
                             xs[:, None])[:, 0, 0]
    design = np.exp(1j * np.outer(xs, freqs))
    cond = np.linalg.cond(design)
    if cond > COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"frequency basis is ill-conditioned (cond={cond:.3e})")
    coeffs, *_ = np.linalg.lstsq(design, ys.astype(np.complex128), rcond=None)
    resid = ys - design @ coeffs
    residual_l2 = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
    return SpectrumReport(
        weights=p.enc_w.copy(),
        frequencies=freqs,
        coefficients={float(w): complex(c) for w, c in zip(freqs, coeffs)},
        residual_l2=residual_l2,
    )


def series(freqs, coeffs):
    """sum_f c_f exp(i f x) at AUDIT_POINTS, complex."""
    out = np.zeros(AUDIT_POINTS.size, dtype=complex)
    for k in range(0, freqs.size, AUDIT_BLOCK):
        out += np.exp(np.outer(AUDIT_POINTS, 1j * freqs[k:k + AUDIT_BLOCK])) \
            @ coeffs[k:k + AUDIT_BLOCK]
    return out


def residual_l2(p, freqs, coeffs):
    """RMS of circuit_expectation minus the series at AUDIT_POINTS."""
    edge = QkanLayer.of_edge(p)
    resid = circuit_expectation(edge.enc_w, edge.enc_b, edge.angles,
                                AUDIT_POINTS[:, None])[:, 0, 0].astype(complex)
    resid -= series(freqs, coeffs)
    return float(np.sqrt(np.mean(np.abs(resid) ** 2)))
