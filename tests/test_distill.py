"""Tests for B-spline fitting and network distillation.

scipy.interpolate.BSpline serves as the independent oracle for the
Cox-de Boor basis evaluation; the per-edge loop in `spline_oracle`
is the oracle for the stacked piecewise-polynomial network kernel.
"""

import numpy as np
import pytest

from qkan import daruan, distill
from qkan.daruan import init_daruan
from qkan.errors import FitError
from qkan.network import QkanNetwork, make_hqkan

import spline_oracle

scipy_interp = pytest.importorskip("scipy.interpolate")


class TestBasis:
    def test_partition_of_unity(self):
        knots = distill.make_knots(-1.0, 2.0, grid_size=7, degree=3)
        xs = np.linspace(-1.0, 2.0, 101)
        basis = distill.bspline_basis(knots, 3, xs)
        assert basis.shape == (101, 7 + 3)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(basis >= -1e-14)

    def test_matches_scipy(self):
        for degree in (1, 2, 3):
            knots = distill.make_knots(0.0, 1.0, grid_size=5, degree=degree)
            xs = np.linspace(0.0, 1.0, 57)
            ours = distill.bspline_basis(knots, degree, xs)
            n_coef = 5 + degree
            for i in range(n_coef):
                coef = np.zeros(n_coef)
                coef[i] = 1.0
                ref = scipy_interp.BSpline(knots, coef, degree)(xs)
                np.testing.assert_allclose(ours[:, i], ref, atol=1e-12)

    def test_endpoint_included(self):
        knots = distill.make_knots(0.0, 1.0, grid_size=4, degree=3)
        b = distill.bspline_basis(knots, 3, 1.0)
        np.testing.assert_allclose(b.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(b[-1], 1.0, atol=1e-12)

    def test_out_of_domain_rejected(self):
        knots = distill.make_knots(0.0, 1.0, grid_size=4, degree=3)
        with pytest.raises(ValueError):
            distill.bspline_basis(knots, 3, 1.5)


class TestFit:
    def test_recovers_polynomial_exactly(self):
        # a cubic lies in the span of degree-3 splines on any grid
        xs = np.linspace(-1.0, 1.0, 80)
        ys = 2.0 - xs + 0.5 * xs ** 2 - 0.25 * xs ** 3
        model = distill.fit_spline(xs, ys, grid_size=6, degree=3)
        assert model.fit_max_err < 1e-10
        np.testing.assert_allclose(model.eval(xs), ys, atol=1e-10)

    def test_error_decreases_with_grid(self):
        xs = np.linspace(0.0, 2.0 * np.pi, 400)
        ys = np.sin(3.0 * xs)
        errs = [distill.fit_spline(xs, ys, grid_size=g).fit_rms_err
                for g in (5, 10, 20, 40)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_too_few_samples_rejected(self):
        with pytest.raises(FitError):
            distill.fit_spline(np.linspace(0, 1, 5), np.zeros(5), grid_size=10)

    def test_clustered_samples_rank_deficient(self):
        # all samples in one knot interval cannot determine 13 coefficients
        xs = np.full(40, 0.05) + np.linspace(0, 1e-4, 40)
        with pytest.raises(FitError):
            distill.fit_spline(xs, np.sin(xs), grid_size=10,
                               domain=(0.0, 1.0))

    def test_model_round_trip(self):
        xs = np.linspace(0.0, 1.0, 60)
        model = distill.fit_spline(xs, np.cos(4 * xs), grid_size=8)
        clone = distill.SplineModel.from_dict(model.to_dict())
        np.testing.assert_allclose(clone.eval(xs), model.eval(xs), atol=0.0)


class TestEdgeDistillation:
    def test_edge_matches_activation_in_domain(self):
        rng = np.random.default_rng(201)
        p = init_daruan(3, rng, angle_scale=1.0)
        p.enc_b = rng.normal(size=3)
        p.w_base, p.w_quant, p.out_bias = 0.4, 1.2, -0.1
        model = distill.distill_edge(p, -1.0, 1.0, grid_size=25)
        xs = np.linspace(-1.0, 1.0, 201)
        ref = np.array([daruan.forward(p, float(x)) for x in xs])
        np.testing.assert_allclose(model.eval(xs), ref, atol=1e-3)

    def test_out_of_domain_clamps(self):
        p = init_daruan(2, np.random.default_rng(202))
        model = distill.distill_edge(p, 0.0, 1.0)
        # silu path keeps moving, the spline part freezes at the boundary
        inside = model.eval(1.0) - model.w_base * float(daruan.silu(1.0))
        outside = model.eval(5.0) - model.w_base * float(daruan.silu(5.0))
        np.testing.assert_allclose(outside, inside, atol=1e-12)


class TestNetworkDistillation:
    def build_trained_like_net(self, seed=203):
        rng = np.random.default_rng(seed)
        net = QkanNetwork.init([2, 3, 1], 2, rng, angle_scale=0.8)
        # vary mixing weights so the silu path matters
        for layer in net.layers:
            layer.w_base[:] = rng.uniform(0.2, 1.0, size=layer.w_base.shape)
            layer.out_bias[:] = rng.normal(0.0, 0.1, size=layer.out_bias.shape)
        return net

    def test_distilled_network_tracks_source(self):
        net = self.build_trained_like_net()
        rng = np.random.default_rng(204)
        calib = rng.uniform(0.0, 1.0, size=(300, 2))
        domains = distill.calibrate_domains(net, calib)
        snet, report = distill.distill_network(net, domains, grid_size=20)
        probe = rng.uniform(0.0, 1.0, size=(200, 2))
        err = np.sqrt(np.mean((snet.forward(probe) - net.forward(probe)) ** 2))
        assert err < 5e-2
        assert all(v["max_err"] >= v["rms_err"] for v in report.values())

    def test_fidelity_improves_with_grid(self):
        net = self.build_trained_like_net()
        rng = np.random.default_rng(205)
        calib = rng.uniform(0.0, 1.0, size=(300, 2))
        probe = rng.uniform(0.0, 1.0, size=(200, 2))
        domains = distill.calibrate_domains(net, calib)
        ref = net.forward(probe)
        errs = []
        for g in (5, 10, 20):
            snet, _ = distill.distill_network(net, domains, grid_size=g)
            errs.append(np.sqrt(np.mean((snet.forward(probe) - ref) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_calibration_widens_domains(self):
        net = self.build_trained_like_net()
        calib = np.random.default_rng(206).uniform(0.0, 1.0, size=(100, 2))
        domains = distill.calibrate_domains(net, calib, widen=0.1)
        lo, hi = domains[(0, 0, 0)]
        xmin, xmax = calib[:, 0].min(), calib[:, 0].max()
        span = xmax - xmin
        np.testing.assert_allclose(lo, xmin - 0.05 * span, atol=1e-12)
        np.testing.assert_allclose(hi, xmax + 0.05 * span, atol=1e-12)

    def test_json_round_trip(self):
        net = self.build_trained_like_net()
        calib = np.random.default_rng(207).uniform(0.0, 1.0, size=(100, 2))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib))
        clone = distill.SplineNetwork.from_json(snet.to_json())
        probe = np.random.default_rng(208).uniform(0.0, 1.0, size=(50, 2))
        np.testing.assert_allclose(clone.forward(probe), snet.forward(probe),
                                   atol=1e-15)

    def test_clamp_count(self):
        net = self.build_trained_like_net()
        calib = np.random.default_rng(209).uniform(0.0, 1.0, size=(100, 2))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib))
        assert snet.clamp_count(calib) == 0
        assert snet.clamp_count(calib + 10.0) > 0


def assert_matches_oracle(snet, x):
    ref, ref_count = spline_oracle.evaluate(snet, x)
    out, count = snet.evaluate(x)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert count == ref_count
    assert type(count) is int


class TestStackedKernel:
    """The stacked tables against one Cox-de Boor evaluation per edge."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("hqkan", [False, True])
    def test_network_matches_per_edge_loop(self, degree, hqkan):
        rng = np.random.default_rng(210 + degree)
        net = (make_hqkan(5, 2, r=2, hidden_shape=(3,), rng=rng,
                          angle_scale=1.0) if hqkan
               else QkanNetwork.init([3, 4, 2], 2, rng, angle_scale=1.0))
        calib = rng.uniform(-1.0, 1.0, size=(200, net.in_dim))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib), grid_size=7,
            degree=degree)
        assert (snet.encoder is not None) == hqkan
        # inside, at the calibration extremes, and well outside the domains
        probe = np.vstack([calib, 3.0 * calib, calib[:1] + 50.0])
        assert_matches_oracle(snet, probe)
        assert snet.clamp_count(probe) > 0
        assert_matches_oracle(snet, probe[0])          # single sample

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_inputs_on_knots_and_domain_ends(self, degree):
        # one layer: every edge of input i shares its domain, hence knots
        rng = np.random.default_rng(220 + degree)
        net = QkanNetwork.init([2, 3], 3, rng, angle_scale=1.0)
        calib = rng.uniform(-2.0, 1.0, size=(100, 2))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib), grid_size=6,
            degree=degree)
        knots = np.stack([snet.edges[0][0][i].knots for i in range(2)], axis=1)
        lo, hi = knots[0], knots[-1]
        probe = np.vstack([knots, hi + 1e-12, lo - 1.0,
                           np.nextafter(hi, np.inf), np.nextafter(lo, -np.inf)])
        assert_matches_oracle(snet, probe)
        assert snet.clamp_count(knots) == 0
        edge = snet.edges[0][1][0]
        np.testing.assert_allclose(edge.eval(knots[:, 0]),
                                   spline_oracle.edge_eval(edge, knots[:, 0]),
                                   rtol=1e-12, atol=1e-14)

    def test_edges_of_mixed_grid_size_and_degree(self):
        # a hand-made spline.json whose edges differ in grid and degree
        xs = np.linspace(-1.0, 2.0, 90)
        grid = [[distill.fit_spline(xs, np.sin((j + 1) * xs + i), grid_size=g,
                                    degree=d)
                 for i, (g, d) in enumerate([(3, 1), (17, 3), (8, 2)])]
                for j in range(2)]
        for j, row in enumerate(grid):
            for i, edge in enumerate(row):
                edge.w_base = 0.3 * i - 0.2 * j
        snet = distill.SplineNetwork.from_json(
            distill.SplineNetwork(edges=[grid]).to_json())
        layer = snet._layers[0]
        assert layer.breaks.shape[:2] == (2, 3)
        assert np.isinf(layer.breaks[0, 0, 4:]).all()
        assert not layer.coefs[0, 0, :, 2:].any()
        probe = np.concatenate([xs, [-3.0, 5.0, -1.0, 2.0]])
        assert_matches_oracle(snet, np.stack([probe, probe[::-1], probe + 0.1],
                                             axis=1))

    def test_scalar_and_array_edge_eval(self):
        xs = np.linspace(0.0, 1.0, 40)
        model = distill.fit_spline(xs, np.exp(xs), grid_size=5)
        model.w_base = 0.7
        assert np.ndim(model.eval(0.5)) == 0
        grid = xs.reshape(5, 8) * 1.4 - 0.2
        np.testing.assert_allclose(model.eval(grid),
                                   spline_oracle.edge_eval(model, grid),
                                   rtol=1e-12, atol=1e-14)

    def test_malformed_edges_rejected(self):
        xs = np.linspace(0.0, 1.0, 40)
        good = distill.fit_spline(xs, xs ** 2, grid_size=4)
        unclamped = distill.SplineModel.from_dict(
            dict(good.to_dict(), knots=list(np.linspace(0.0, 1.0, 11))))
        wide = distill.SplineModel.from_dict(
            dict(good.to_dict(), domain=[-1.0, 1.0]))
        short = distill.SplineModel.from_dict(
            dict(good.to_dict(), coefficients=[1.0, 2.0]))
        for bad in (unclamped, wide, short):
            with pytest.raises(ValueError):
                distill.SplineNetwork(edges=[[[good], [bad]]])
        with pytest.raises(ValueError):      # layer widths do not chain
            distill.SplineNetwork(edges=[[[good, good]], [[good, good]]])
        with pytest.raises(ValueError):
            distill.SplineNetwork(edges=[[[good], [good, good]]])

    def test_non_finite_coefficient_not_serialized(self):
        xs = np.linspace(0.0, 1.0, 40)
        model = distill.fit_spline(xs, xs, grid_size=4)
        model.coefficients[2] = np.nan
        with pytest.raises(ValueError):
            distill.SplineNetwork(edges=[[[model]]]).to_json()
