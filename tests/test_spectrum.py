"""Tests for frequency-set enumeration and the basis-fit verifier."""

import itertools

import numpy as np
import pytest

from qkan import spectrum
from qkan.daruan import DaruanParams, init_daruan
from qkan.errors import DegenerateSpectrumError


def enumerate_sign_patterns(weights):
    """Reference enumeration: every one of the 3^r signed sums, sorted,
    keeping a value when it lies more than DEDUP_TOL above the last kept
    one."""
    sums = sorted(
        sum(m * w for m, w in zip(signs, weights))
        for signs in itertools.product((-1, 0, 1), repeat=len(weights))
    )
    merged = [sums[0]]
    for v in sums[1:]:
        if v - merged[-1] > spectrum.DEDUP_TOL:
            merged.append(v)
    return np.array(merged)


class TestEnumeration:
    @pytest.mark.parametrize("family", ["unit", "geometric", "integer",
                                        "normal", "near-unit"])
    @pytest.mark.parametrize("r", range(1, 10))
    def test_matches_sign_pattern_enumeration(self, family, r):
        rng = np.random.default_rng(1000 + r)
        weights = {"unit": np.ones(r),
                   "geometric": 2.0 ** np.arange(r),
                   "integer": rng.integers(-4, 5, size=r).astype(float),
                   "normal": rng.normal(size=r),
                   # sums that differ by < DEDUP_TOL must merge
                   "near-unit": 1.0 + 1e-12 * np.arange(r)}[family]
        ref = enumerate_sign_patterns(weights)
        freqs = spectrum.enumerate_frequencies(weights)
        assert freqs.size == ref.size
        np.testing.assert_allclose(freqs, ref, rtol=0.0, atol=1e-12)

    def test_unit_weights(self):
        freqs = spectrum.enumerate_frequencies([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(freqs, [-3, -2, -1, 0, 1, 2, 3])

    def test_geometric_weights_are_gapless(self):
        # weights 1, 2, 4, 8 tile every integer in [-15, 15]
        freqs = spectrum.enumerate_frequencies([1.0, 2.0, 4.0, 8.0])
        np.testing.assert_array_equal(freqs, np.arange(-15, 16))

    def test_incommensurate_weights(self):
        freqs = spectrum.enumerate_frequencies([1.0, np.sqrt(2.0)])
        assert freqs.size == 9   # no collisions, all 3^2 sums distinct
        np.testing.assert_allclose(freqs, -freqs[::-1], atol=1e-12)
        assert np.any(np.abs(freqs) < 1e-12)

    def test_nonzero_count_bound(self):
        for r in (1, 2, 3):
            w = np.random.default_rng(r).uniform(0.5, 2.0, size=r)
            freqs = spectrum.enumerate_frequencies(w)
            nonzero = np.sum(np.abs(freqs) > spectrum.DEDUP_TOL)
            assert nonzero <= 3 ** r - 1

    def test_duplicates_merged(self):
        # weights (1, 1): sums collide heavily, only -2..2 remain
        freqs = spectrum.enumerate_frequencies([1.0, 1.0])
        np.testing.assert_array_equal(freqs, [-2, -1, 0, 1, 2])

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            spectrum.enumerate_frequencies([])
        with pytest.raises(ValueError):
            spectrum.enumerate_frequencies([1.0, np.inf])


class TestEmpiricalSpectrum:
    def test_sine_configuration_coefficients(self):
        # raw expectation sin(x) = (e^{ix} - e^{-ix}) / 2i
        p = DaruanParams(enc_w=np.array([1.0]),
                         enc_b=np.array([np.pi / 2.0]),
                         angles=np.array([[0.0, 0.0, 0.0],
                                          [0.0, np.pi / 2.0, 0.0]]))
        report = spectrum.empirical_spectrum(p)
        np.testing.assert_array_equal(report.frequencies, [-1, 0, 1])
        np.testing.assert_allclose(report.coefficients[1.0], -0.5j, atol=1e-12)
        np.testing.assert_allclose(report.coefficients[-1.0], 0.5j, atol=1e-12)
        np.testing.assert_allclose(report.coefficients[0.0], 0.0, atol=1e-12)
        assert report.residual_l2 < 1e-12

    def test_random_unit_weight_circuits_fit(self):
        rng = np.random.default_rng(101)
        for r in range(1, 6):
            p = init_daruan(r, rng, angle_scale=2.0, geometric=False)
            p.enc_b = rng.normal(size=r)
            ok, report = spectrum.verify_spectrum(p, tol=1e-8)
            assert ok, f"r={r}: residual {report.residual_l2}"
            assert report.nonzero_count == 2 * r

    def test_geometric_weights_reach_full_band(self):
        p = init_daruan(4, np.random.default_rng(102), angle_scale=2.0)
        ok, report = spectrum.verify_spectrum(p, tol=1e-8)
        assert ok
        assert report.max_frequency == 15.0
        assert report.nonzero_count == 30

    def test_truncated_basis_fails(self):
        # dropping the +-max frequencies must leave visible residual
        rng = np.random.default_rng(103)
        p = init_daruan(2, rng, angle_scale=2.0, geometric=False)
        p.enc_b = rng.normal(size=2)
        full = spectrum.enumerate_frequencies(p.enc_w)
        truncated = full[1:-1]
        report = spectrum.empirical_spectrum(p, frequencies=truncated)
        assert report.residual_l2 > 1e-6

    def test_irrational_weights_fit(self):
        p = init_daruan(2, np.random.default_rng(104), angle_scale=1.0)
        p.enc_w = np.array([1.0, np.sqrt(2.0)])
        ok, report = spectrum.verify_spectrum(p, tol=1e-7)
        assert ok, report.residual_l2

    def test_degenerate_basis_detected(self):
        # near-identical frequencies make e^{iwx} columns collinear
        p = init_daruan(1, np.random.default_rng(105), geometric=False)
        bad = np.array([-1.0, 0.0, 1.0, 1.0 + 1e-13])
        with pytest.raises(DegenerateSpectrumError):
            spectrum.empirical_spectrum(p, frequencies=bad)

    def test_sample_count_floor(self):
        p = init_daruan(1, np.random.default_rng(106))
        with pytest.raises(ValueError):
            spectrum.empirical_spectrum(p, sample_count=3)

    def test_report_json(self):
        p = init_daruan(2, np.random.default_rng(107), geometric=False)
        _, report = spectrum.verify_spectrum(p, tol=1e-8)
        import json
        doc = json.loads(report.to_json())
        assert doc["nonzero_count"] == report.nonzero_count
        assert len(doc["coefficients"]) == report.frequencies.size
        assert doc["residual_l2"] == report.residual_l2
