"""Numerical verification of the circuit frequency spectrum.

The raw expectation of an activation edge, as a function of its input,
is supported on the frequency set {sum_l m_l w_l : m_l in {-1, 0, 1}}
built from the encoding weights. This module enumerates that set and
least-squares fits sampled circuit outputs onto the basis
{exp(i w x)}, reporting the fit residual. Least squares is used instead
of an FFT so non-integer (non-periodic) weights are handled uniformly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .daruan import DaruanParams, circuit_expectation
from .errors import DegenerateSpectrumError
from .network import QkanLayer

#: merging tolerance for numerically equal signed sums
DEDUP_TOL = 1e-9

#: condition-number ceiling for the basis fit
COND_LIMIT = 1e12


@dataclass
class SpectrumReport:
    """Enumerated frequency set and fitted Fourier coefficients."""

    weights: np.ndarray          # encoding weights the set was built from
    frequencies: np.ndarray      # sorted, closed under negation, contains 0
    coefficients: dict           # frequency -> complex coefficient
    residual_l2: float           # RMS fit residual over the sample grid

    @property
    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.frequencies) > DEDUP_TOL))

    @property
    def max_frequency(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def to_json(self) -> str:
        doc = {
            "weights": list(self.weights),
            "frequencies": list(self.frequencies),
            "nonzero_count": self.nonzero_count,
            "max_frequency": self.max_frequency,
            "coefficients": [
                [w, [c.real, c.imag]] for w, c in sorted(self.coefficients.items())
            ],
            "residual_l2": self.residual_l2,
        }
        return json.dumps(doc, indent=2)


def enumerate_frequencies(weights) -> np.ndarray:
    """All 3^r signed sums of the weights, deduplicated within DEDUP_TOL.

    The set grows one weight at a time: the sums S of the first l
    weights become S - w, S and S + w, sorted, and a value is dropped
    when it lies within DEDUP_TOL of the value below it. The cost is
    O(r |F|) for a final set F rather than 3^r. The result is sorted,
    contains 0 and is closed under negation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    freqs = np.zeros(1)
    for w in weights:
        sums = np.sort(np.concatenate([freqs - w, freqs, freqs + w]))
        freqs = sums[np.concatenate([[True], np.diff(sums) > DEDUP_TOL])]
    return freqs


def _sample_grid(freqs: np.ndarray, count: int) -> np.ndarray:
    nonzero = np.abs(freqs[np.abs(freqs) > DEDUP_TOL])
    integral = np.all(np.abs(nonzero - np.round(nonzero)) < DEDUP_TOL)
    if integral or nonzero.size == 0:
        period = 2.0 * np.pi
    else:
        gaps = np.diff(freqs)
        period = 8.0 * np.pi / np.min(gaps[gaps > DEDUP_TOL])
    return np.linspace(0.0, period, count, endpoint=False)


def empirical_spectrum(p: DaruanParams,
                       frequencies: np.ndarray | None = None) -> SpectrumReport:
    """Fit sampled raw expectations onto the enumerated frequency basis.

    Encoding biases are absorbed into the complex coefficients. The
    sample grid oversamples the basis 4x to stabilize the fit. An
    explicit `frequencies` array overrides the enumerated set (used to
    probe deliberately truncated bases).
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
        raise DegenerateSpectrumError(
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


def verify_spectrum(p: DaruanParams, tol: float):
    """True iff the basis fit residual stays below tol.

    Returns (ok, report) so the claim can be audited.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = empirical_spectrum(p)
    return report.residual_l2 < tol, report
