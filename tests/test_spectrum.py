"""Tests for frequency-set enumeration and the closed-form spectrum."""

import itertools
import tracemalloc

import numpy as np
import pytest

import spectrum_oracle
from qkan import spectrum
from qkan.daruan import DaruanParams, init_daruan
from qkan.errors import ConfigError, NumericalError


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


def family_weights(family, r, rng):
    return {"unit": np.ones(r),
            "geometric": 2.0 ** np.arange(r),
            "integer": rng.integers(-4, 5, size=r).astype(float),
            "normal": rng.normal(size=r),
            # sums that differ by < DEDUP_TOL must merge
            "near-unit": 1.0 + 1e-12 * np.arange(r)}[family]


class TestEnumeration:
    @pytest.mark.parametrize("family", ["unit", "geometric", "integer",
                                        "normal", "near-unit"])
    @pytest.mark.parametrize("r", range(1, 10))
    def test_matches_sign_pattern_enumeration(self, family, r):
        weights = family_weights(family, r, np.random.default_rng(1000 + r))
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

    def test_frequency_budget_boundary(self, monkeypatch):
        # geometric r=3: the last rz builds 3 * 7 = 21 candidate sums
        p = init_daruan(3, np.random.default_rng(0))
        monkeypatch.setattr(spectrum, "MAX_FREQUENCIES", 21)
        assert spectrum.empirical_spectrum(p).frequencies.size == 15
        monkeypatch.setattr(spectrum, "MAX_FREQUENCIES", 20)
        for audit in (spectrum.empirical_spectrum,
                      lambda p: spectrum.enumerate_frequencies(p.enc_w)):
            with pytest.raises(ConfigError, match="^spectrum audit: 21 "
                               "candidate frequencies exceed the budget "
                               "of 20$"):
                audit(p)


class TestEmpiricalSpectrum:
    def test_sine_configuration_coefficients(self):
        # raw expectation sin(x) = (e^{ix} - e^{-ix}) / 2i
        p = DaruanParams(enc_w=np.array([1.0]),
                         enc_b=np.array([np.pi / 2.0]),
                         angles=np.array([[0.0, 0.0, 0.0],
                                          [0.0, np.pi / 2.0, 0.0]]))
        report = spectrum.empirical_spectrum(p)
        np.testing.assert_array_equal(report.frequencies, [-1, 0, 1])
        np.testing.assert_allclose(report.coefficients, [0.5j, 0.0, -0.5j],
                                   atol=1e-12)
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

    def test_truncated_basis_fails(self, monkeypatch):
        # dropping the +-max frequencies must leave visible residual
        rng = np.random.default_rng(103)
        p = init_daruan(2, rng, angle_scale=2.0, geometric=False)
        p.enc_b = rng.normal(size=2)
        propagate = spectrum._propagate

        def truncated(edge):
            freqs, coeffs = propagate(edge)
            assert freqs[-1] == -freqs[0] == 2.0
            return freqs[1:-1], coeffs[1:-1]

        monkeypatch.setattr(spectrum, "_propagate", truncated)
        report = spectrum.empirical_spectrum(p)
        assert report.residual_l2 > 1e-6

    def test_irrational_weights_fit(self):
        p = init_daruan(2, np.random.default_rng(104), angle_scale=1.0)
        p.enc_w = np.array([1.0, np.sqrt(2.0)])
        ok, report = spectrum.verify_spectrum(p, tol=1e-7)
        assert ok, report.residual_l2

    def test_non_finite_audit_names_its_stage(self, monkeypatch):
        p = init_daruan(2, np.random.default_rng(108), geometric=False)
        p.enc_w = np.array([1e308, 1e308])
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^spectrum audit: the encoding weights "
                                      "sum to inf$"):
            spectrum.empirical_spectrum(p)
        p.enc_w = np.ones(2)
        monkeypatch.setattr(
            spectrum, "circuit_expectation",
            lambda *args: np.full((spectrum.AUDIT_POINTS.size, 1, 1), np.inf))
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^spectrum audit: the series residual "
                                      "is inf$"):
            spectrum.verify_spectrum(p, tol=1e-8)

    def test_overflowing_weights_fail_before_any_series_work(self,
                                                             monkeypatch):
        p = init_daruan(2, np.random.default_rng(108), geometric=False)
        p.enc_w = np.array([1e308, 1e308])

        def unreachable(*args):
            raise AssertionError("ran before the weight check")

        for name in ("_propagate", "circuit_expectation", "_series"):
            monkeypatch.setattr(spectrum, name, unreachable)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^spectrum audit: the encoding weights "
                                      "sum to inf$"):
            spectrum.empirical_spectrum(p)

    def test_report_json(self):
        p = init_daruan(2, np.random.default_rng(107), geometric=False)
        _, report = spectrum.verify_spectrum(p, tol=1e-8)
        import json
        doc = json.loads(report.to_json())
        assert doc["nonzero_count"] == report.nonzero_count
        assert len(doc["coefficients"]) == report.frequencies.size
        assert doc["residual_l2"] == report.residual_l2


def trained_like_r10_edge():
    """Weights 2^l plus noise keep all 3^10 sums apart."""
    rng = np.random.default_rng(110)
    p = init_daruan(10, rng, angle_scale=2.0)
    p.enc_w = 2.0 ** np.arange(10) + rng.normal(0.0, 0.05, size=10)
    p.enc_b = rng.normal(size=10)
    return p


class TestClosedForm:
    """The propagated coefficients against the sampled least-squares fit
    of spectrum_oracle, at sizes where its dense design fits in memory."""

    @pytest.mark.parametrize("family, r", [
        *[(family, r) for family in ("unit", "geometric", "integer")
          for r in range(1, 9)],
        *[("normal", r) for r in range(1, 6)]])
    def test_matches_sampled_fit(self, family, r):
        rng = np.random.default_rng(2000 + r)
        p = init_daruan(r, rng, angle_scale=2.0, geometric=False)
        p.enc_b = rng.normal(size=r)
        p.enc_w = family_weights(family, r, rng)
        report = spectrum.empirical_spectrum(p)
        assert report.frequencies.tobytes() == \
            spectrum.enumerate_frequencies(p.enc_w).tobytes()
        ref = spectrum_oracle.empirical_spectrum(p)
        want = np.array([ref.coefficients[w] for w in ref.frequencies])
        np.testing.assert_allclose(report.coefficients, want, rtol=0.0,
                                   atol=1e-10)
        assert report.residual_l2 < 1e-12

    def test_trained_like_r10_edge_audits_in_small_memory(self):
        # the sampled fit's design would need 4 * (2 * 3^10 + 1) * 3^10 * 16
        # bytes, about 446 GB
        p = trained_like_r10_edge()
        tracemalloc.start()
        try:
            ok, report = spectrum.verify_spectrum(p, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.frequencies.size == 3 ** 10
        assert ok, report.residual_l2
        assert peak < 32 * 2 ** 20
        # the complex-exp series peaked at 11.19 MiB; the tan series must not
        # take more
        assert peak <= 11.2 * 2 ** 20


def series_case(case):
    rng = np.random.default_rng(120)
    if case == "r10-trained-like":
        return trained_like_r10_edge()
    if case == "r6-geometric":
        p = init_daruan(6, rng, angle_scale=2.0)
    elif case == "weights-near-1e3":
        # |theta| = |f x| reaches 2 pi * 2e3, about 1.3e4 rad
        p = init_daruan(2, rng, angle_scale=2.0)
        p.enc_w = 1e3 + rng.normal(size=2)
    else:                                  # frequencies 0 and +-w only
        p = init_daruan(1, rng, angle_scale=2.0)
        p.enc_w = np.array([1.7])
    p.enc_b = rng.normal(size=p.enc_w.size)
    return p


class TestSeries:
    """The tan(theta / 2) series against the complex-exp one of
    spectrum_oracle."""

    @pytest.mark.parametrize("case", ["r6-geometric", "r10-trained-like",
                                      "weights-near-1e3", "single-weight"])
    def test_matches_complex_exp_series(self, case):
        p = series_case(case)
        freqs, coeffs = spectrum._propagate(p)
        if case == "r10-trained-like":
            assert -(-freqs.size // spectrum.AUDIT_BLOCK) == 58
        if case == "single-weight":
            np.testing.assert_array_equal(freqs, [-1.7, 0.0, 1.7])
        if case == "weights-near-1e3":
            assert np.max(np.abs(np.outer(spectrum.AUDIT_POINTS,
                                          freqs))) > 1e4
        re, im = spectrum._series(freqs, coeffs)
        want = spectrum_oracle.series(freqs, coeffs)
        np.testing.assert_allclose(re, want.real, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(im, want.imag, rtol=0.0, atol=1e-13)
        report = spectrum.empirical_spectrum(p)
        assert abs(report.residual_l2 - spectrum_oracle.residual_l2(
            p, freqs, coeffs)) <= 1e-13
