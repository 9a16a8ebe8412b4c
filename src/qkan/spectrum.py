"""Closed-form Fourier spectrum of one activation edge.

An edge's raw expectation is <Z>(x) = sum_f c_f exp(i f x) over the
signed sums f = sum_l m_l w_l, m_l in {-1, 0, 1}, of its encoding
weights. One pass through the circuit carries (v_x, v_y, v_z) as
coefficient vectors over the frequencies F: rz(w_l x + off_l) sends
v_x +- i v_y to F +- w_l times exp(+-i off_l) / 2, and ry mixes v_z and
v_x. The audit compares the series with circuit_expectation. It sums
each term's cos and sin of theta = f x through t = tan(theta / 2), the
identity the circuit kernel uses for its rz angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import write_json
from .daruan import (DaruanParams, _cos_sin, circuit_expectation,
                     theta_offsets)
from .errors import ConfigError, NumericalError
from .network import QkanLayer

#: merging tolerance for numerically equal signed sums
DEDUP_TOL = 1e-9

#: most candidate frequencies (3 |F|) one rz may build; 3^12 admits an
#: r=12 edge with weights 3^k, which `qkan spectrum` reports within 1 GiB
MAX_FREQUENCIES = 3 ** 12

#: where the series is checked against the circuit, in frequency blocks
AUDIT_POINTS = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 257)
AUDIT_BLOCK = 1024


@dataclass
class SpectrumReport:
    """Enumerated frequency set and exact Fourier coefficients."""

    weights: np.ndarray          # encoding weights the set was built from
    frequencies: np.ndarray      # sorted, closed under negation, contains 0
    coefficients: np.ndarray     # complex, one per frequency
    residual_l2: float           # RMS series-minus-circuit at AUDIT_POINTS

    @property
    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.frequencies) > DEDUP_TOL))

    @property
    def max_frequency(self) -> float:
        return float(np.sum(np.abs(self.weights)))

    def to_json(self) -> str:
        return write_json(None, {
            "weights": list(self.weights),
            "frequencies": list(self.frequencies),
            "nonzero_count": self.nonzero_count,
            "max_frequency": self.max_frequency,
            "coefficients": [[w, [c.real, c.imag]] for w, c in zip(
                self.frequencies.tolist(), self.coefficients.tolist())],
            "residual_l2": self.residual_l2,
        })


def _propagate(p: DaruanParams):
    """Frequencies and coefficients of <Z>(x), in O(r |F| log |F|) time and
    O(|F|) memory; rz(alpha_0) acts as an rz(theta) with w = 0. After each
    rz a sum within DEDUP_TOL of the sorted sum below it joins that run,
    which keeps its first sum and adds up its coefficients. An rz whose
    3 |F| sums exceed MAX_FREQUENCIES raises ConfigError first."""
    offsets = np.append(p.angles[0, 0], theta_offsets(p.enc_b, p.angles))
    freqs, v = np.zeros(1), np.array([[1.0], [0.0], [0.0]], dtype=complex)
    for w, off, beta in zip(np.append(0.0, p.enc_w), offsets, p.angles[:, 1]):
        if 3 * freqs.size > MAX_FREQUENCIES:
            raise ConfigError(f"spectrum audit: {3 * freqs.size} candidate "
                              f"frequencies exceed the budget of "
                              f"{MAX_FREQUENCIES}")
        up = 0.5 * np.exp(1j * off) * (v[0] + 1j * v[1])     # to F + w
        down = 0.5 * np.exp(-1j * off) * (v[0] - 1j * v[1])  # to F - w
        zero = np.zeros(freqs.size)
        v = np.array([np.concatenate(row) for row in (
            (down, zero, up), (1j * down, zero, -1j * up), (zero, v[2], zero))])
        sums = np.concatenate([freqs - w, freqs, freqs + w])
        order = np.argsort(sums, kind="stable")
        freqs = sums[order]
        first = np.flatnonzero(np.append(True, np.diff(freqs) > DEDUP_TOL))
        freqs, v = freqs[first], np.add.reduceat(v[:, order], first, axis=1)
        c, s = np.cos(beta), np.sin(beta)
        v[2], v[0] = v[2] * c - v[0] * s, v[2] * s + v[0] * c
    return freqs, v[2]


def enumerate_frequencies(weights) -> np.ndarray:
    """All 3^r signed sums of the weights, deduplicated within DEDUP_TOL.

    The set does not depend on the angles or biases, so it is the one
    _propagate builds for these weights with all of those zero. The cost
    is O(r |F| log |F|) for a final set F rather than 3^r. The result is
    sorted, contains 0 and is closed under negation.
    """
    w = np.asarray(weights, dtype=np.float64)
    edge = DaruanParams(w, np.zeros(w.shape), np.zeros((w.size + 1, 3)))
    return _propagate(edge)[0]


def _series(freqs, coeffs):
    """Real and imaginary parts of sum_f c_f exp(i f x) at AUDIT_POINTS.

    exp(i f x) = cos theta + i sin theta for theta = f x, which
    daruan._cos_sin rebuilds from t = tan(theta / 2) as the circuit
    kernel does: one SIMD tan per term rather than a complex exp. The
    series is then four real mat-vecs per block of AUDIT_BLOCK
    frequencies. The three (points, block) buffers are one allocation,
    reused by every block; three separate fresh ones were returned to
    the OS and page-faulted in again on every call.
    """
    half = 0.5 * AUDIT_POINTS             # exact: (x / 2) f is (x f) / 2
    re, im = np.zeros(half.size), np.zeros(half.size)
    t, cos, sin = np.empty((3, half.size * min(AUDIT_BLOCK, freqs.size)))
    for k in range(0, freqs.size, AUDIT_BLOCK):
        f, c = freqs[k:k + AUDIT_BLOCK], coeffs[k:k + AUDIT_BLOCK]
        tb, cb, sb = (a[:half.size * f.size].reshape(half.size, f.size)
                      for a in (t, cos, sin))
        # einsum, unlike a broadcast multiply, takes no 128 KiB buffer
        np.einsum("i,j->ij", half, f, out=tb)
        np.tan(tb, out=tb)
        _cos_sin(tb, (cb, sb))
        re += cb @ c.real
        re -= sb @ c.imag
        im += sb @ c.real
        im += cb @ c.imag
    return re, im


def empirical_spectrum(p: DaruanParams) -> SpectrumReport:
    """The edge's exact frequencies and coefficients, with the RMS
    difference of their series from the circuit at AUDIT_POINTS.

    Encoding biases are absorbed into the complex coefficients. The
    series uses every frequency that _propagate finds. Weights whose
    absolute sum overflows raise NumericalError before any of that work,
    and so does a residual that is not finite.
    """
    max_frequency = float(np.sum(np.abs(p.enc_w)))   # the report's
    if not np.isfinite(max_frequency):
        raise NumericalError(f"spectrum audit: the encoding weights sum to "
                             f"{max_frequency}")
    freqs, coeffs = _propagate(p)
    edge = QkanLayer.of_edge(p)
    re, im = _series(freqs, coeffs)
    re -= circuit_expectation(edge.enc_w, edge.enc_b, edge.angles,
                              AUDIT_POINTS[:, None])[:, 0, 0]
    report = SpectrumReport(
        weights=p.enc_w.copy(),
        frequencies=freqs,
        coefficients=coeffs,
        residual_l2=float(np.sqrt(np.mean(re * re + im * im))),
    )
    if not np.isfinite(report.residual_l2):
        raise NumericalError(f"spectrum audit: the series residual is "
                             f"{report.residual_l2}")
    return report


def verify_spectrum(p: DaruanParams, tol: float):
    """True iff the series residual against the circuit stays below tol.

    Returns (ok, report) so the claim can be audited.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    report = empirical_spectrum(p)
    return report.residual_l2 < tol, report
