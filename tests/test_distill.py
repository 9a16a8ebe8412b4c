"""Tests for B-spline fitting and network distillation.

scipy.interpolate.BSpline serves as the independent oracle for the
Cox-de Boor basis evaluation; the per-edge loop in `spline_oracle`
and the Horner kernel in `horner_spline_kernel` are the oracles for the
one-table spline-layer kernel, and the edge-by-edge loop in
`distill_oracle` the oracle for the layer-batched distillation.
"""

import json
import warnings

import numpy as np
import pytest

from qkan import daruan, distill
from qkan.daruan import init_daruan
from qkan.errors import DataError, FitError, NumericalError
from qkan.network import QkanLayer, QkanNetwork, make_hqkan

import distill_oracle
import horner_spline_kernel
from edge_oracle import edge_forward
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


def distill_one_edge(p, lo, hi, **kw):
    """The spline that distill_network gives edge p as a 1x1 network on
    the domain [lo, hi]."""
    net = QkanNetwork(layers=[QkanLayer.of_edge(p)])
    snet, _ = distill.distill_network(net, [np.array([[lo, hi]])], **kw)
    return snet.edges[0][0][0]


def kernel_eval(model, x):
    """w_base * silu(x) + spline(clamp(x)) of one SplineModel, shaped like
    x: the layer kernel run on a 1x1 layer."""
    x = np.asarray(x, dtype=np.float64)
    y = distill._PiecewiseLayer([[model]]).forward(x.reshape(-1, 1))
    return y.reshape(x.shape)[()]


class TestFit:
    def test_recovers_polynomial_exactly(self):
        # a cubic lies in the span of degree-3 splines on any grid
        xs = np.linspace(-1.0, 1.0, 80)
        ys = 2.0 - xs + 0.5 * xs ** 2 - 0.25 * xs ** 3
        model, = distill._fit_columns(xs, ys[:, None], 6, 3, (-1.0, 1.0))
        assert model.fit_max_err < 1e-10
        np.testing.assert_allclose(kernel_eval(model, xs), ys, atol=1e-10)

    def test_error_decreases_with_grid(self):
        xs = np.linspace(0.0, 2.0 * np.pi, 400)
        ys = np.sin(3.0 * xs)[:, None]
        errs = [distill._fit_columns(xs, ys, g, 3, (0.0, 2.0 * np.pi))[0]
                .fit_rms_err for g in (5, 10, 20, 40)]
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_too_few_samples_rejected(self, monkeypatch):
        p = init_daruan(2, np.random.default_rng(200))
        monkeypatch.setattr(distill, "SAMPLES", 12)
        with pytest.raises(FitError, match="^need at least 13 samples, "
                                           "got 12$"):
            distill_one_edge(p, 0.0, 1.0, grid_size=10)

    def test_clustered_samples_rank_deficient(self):
        # all samples in one knot interval cannot determine 13 coefficients
        xs = np.full(40, 0.05) + np.linspace(0, 1e-4, 40)
        with pytest.raises(FitError, match="^rank-deficient"):
            distill._fit_columns(xs, np.sin(xs)[:, None], 10, 3, (0.0, 1.0))
        # a domain four floats wide holds five distinct sample points
        p = init_daruan(2, np.random.default_rng(200))
        with pytest.raises(FitError, match=r"^edge \(layer 0, out 0, in 0\): "
                                           r"rank-deficient"):
            distill_one_edge(p, 1.0, 1.0 + 4 * np.spacing(1.0), grid_size=10)

    @pytest.mark.parametrize("grid_size, degree, rank", [
        (20, 3, 23), (252, 3, 255), (253, 3, 254), (246, 4, 250),
        (247, 4, 249), (254, 1, 255)])
    def test_design_rank_tells_which_fits_fail(self, grid_size, degree,
                                               rank):
        # the design built on [0, 1] has the rank of one on a calibrated
        # domain; (253, 3) has as many coefficients as samples but is
        # numerically singular
        assert distill.design_rank(grid_size, degree) == rank
        n_coef = grid_size + degree
        lo, hi = -0.3, 1.7
        xs = np.linspace(lo, hi, distill.SAMPLES)
        if rank < n_coef:
            with pytest.raises(FitError,
                               match=rf"\(rank {rank} < {n_coef}\)$"):
                distill._fit_columns(xs, np.sin(xs)[:, None], grid_size,
                                     degree, (lo, hi))
        else:
            distill._fit_columns(xs, np.sin(xs)[:, None], grid_size, degree,
                                 (lo, hi))

    def test_model_round_trip(self):
        xs = np.linspace(0.0, 1.0, 60)
        model, = distill._fit_columns(xs, np.cos(4 * xs)[:, None], 8, 3,
                                      (0.0, 1.0))
        clone = distill.SplineModel.from_dict(model.to_dict())
        np.testing.assert_allclose(kernel_eval(clone, xs),
                                   kernel_eval(model, xs), atol=0.0)


class TestEdgeDistillation:
    def test_edge_matches_activation_in_domain(self):
        rng = np.random.default_rng(201)
        p = init_daruan(3, rng, angle_scale=1.0)
        p.enc_b = rng.normal(size=3)
        p.w_base, p.w_quant, p.out_bias = 0.4, 1.2, -0.1
        model = distill_one_edge(p, -1.0, 1.0, grid_size=25)
        xs = np.linspace(-1.0, 1.0, 201)
        ref = np.array([edge_forward(p, float(x)) for x in xs])
        np.testing.assert_allclose(kernel_eval(model, xs), ref, atol=1e-3)

    def test_out_of_domain_clamps(self):
        p = init_daruan(2, np.random.default_rng(202))
        model = distill_one_edge(p, 0.0, 1.0)
        # silu path keeps moving, the spline part freezes at the boundary
        inside = (kernel_eval(model, 1.0)
                  - model.w_base * float(daruan.silu(1.0)))
        outside = (kernel_eval(model, 5.0)
                   - model.w_base * float(daruan.silu(5.0)))
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
        domains = distill.calibrate_domains(net, calib)
        assert distill.CALIBRATION_WIDEN == 0.1
        lo, hi = domains[0][0]
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


def assert_matches_horner(snet, x, out, count):
    """out and count agree with the Horner kernel: elementwise to
    rounding, NaN where it has NaN, and the clamp count exactly."""
    ref, ref_count = horner_spline_kernel.evaluate(snet, x)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
    assert count == ref_count


def assert_matches_oracle(snet, x):
    ref, ref_count = spline_oracle.evaluate(snet, x)
    out, count = snet.evaluate(x)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert count == ref_count
    assert type(count) is int
    assert_matches_horner(snet, x, out, count)


def assert_close_to_oracle(snet, x):
    """Elementwise agreement with the per-edge loop, NaN where it has
    NaN, and the same clamp count; any RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref, ref_count = spline_oracle.evaluate(snet, x)
        out, count = snet.evaluate(x)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)
    assert count == ref_count
    assert_matches_horner(snet, x, out, count)
    return out, count


def breakpoint_probe(grid):
    """Inputs of a one-layer network on every breakpoint of every edge
    and one float to either side of it; column i probes the edges of
    input i, padded by repetition to a common length."""
    columns = []
    for i in range(len(grid[0])):
        knots = np.unique(np.concatenate([row[i].knots for row in grid]))
        columns.append(np.concatenate([knots, np.nextafter(knots, -np.inf),
                                       np.nextafter(knots, np.inf)]))
    rows = max(map(len, columns))
    return np.stack([np.resize(c, rows) for c in columns], axis=1)


def mixed_grid(degree=None):
    """Two outputs by three inputs, whose edges differ from input to
    input in grid size and domain and, unless `degree` is given, from
    edge to edge in degree; one fit per edge."""
    grid = []
    for j in range(2):
        row = []
        for i, (g, d, lo, hi) in enumerate([(3, 1, -1.0, 2.0),
                                            (17, 3, 0.5, 0.75),
                                            (8, 2, -40.0, 7.0)]):
            xs = np.linspace(lo, hi, 90)
            edge = distill_oracle.fit_spline(xs, np.sin((j + 1) * xs + i),
                                             grid_size=g,
                                             degree=degree or (d + j) % 3 + 1)
            edge.w_base = 0.3 * i - 0.2 * j
            row.append(edge)
        grid.append(row)
    return grid


class TestStackedKernel:
    """The layer kernel against one Cox-de Boor evaluation per edge and
    against the Horner kernel."""

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
        assert_matches_oracle(snet, probe[0][None])    # single sample

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
        np.testing.assert_allclose(kernel_eval(edge, knots[:, 0]),
                                   spline_oracle.edge_eval(edge, knots[:, 0]),
                                   rtol=1e-12, atol=1e-14)

    def test_edges_of_mixed_grid_size_and_degree(self):
        # a hand-made spline.json whose edges differ in grid and degree
        xs = np.linspace(-1.0, 2.0, 90)
        grid = [[distill_oracle.fit_spline(xs, np.sin((j + 1) * xs + i),
                                           grid_size=g, degree=d)
                 for i, (g, d) in enumerate([(3, 1), (17, 3), (8, 2)])]
                for j in range(2)]
        for j, row in enumerate(grid):
            for i, edge in enumerate(row):
                edge.w_base = 0.3 * i - 0.2 * j
        snet = distill.SplineNetwork.from_json(
            distill.SplineNetwork(edges=[grid]).to_json())
        # one table: (in, piece, power, out); W = 17, the most pieces,
        # and D + 2 = 5 rows, t^0 .. t^3 and the silu weight
        table = snet._layers[0]._table.reshape(3, 17, 5, 2)
        assert not table[0, 3:, :, 0].any()
        assert not table[0, :, 2:4, 0].any()
        probe = np.concatenate([xs, [-3.0, 5.0, -1.0, 2.0]])
        assert_matches_oracle(snet, np.stack([probe, probe[::-1], probe + 0.1],
                                             axis=1))

    @pytest.mark.parametrize("degree", [1, 2, 3, None])
    def test_direct_index_at_every_breakpoint(self, degree):
        """trunc((x - first) * scale) may land one piece off on a
        breakpoint; continuity keeps the value."""
        grid = mixed_grid(degree)
        snet = distill.SplineNetwork(edges=[grid])
        probe = breakpoint_probe(grid)
        _, count = assert_close_to_oracle(snet, probe)
        assert count > 0                       # the outermost neighbours

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1e-300), (-3e-300, 2e-300), (1e300, 3e300), (-8e307, 8e307),
        (-1e-100, 1e-100), (0.0, 1e100), (72.77, 72.79)])
    def test_extreme_domain_spans(self, lo, hi, degree):
        # a power form in x - left breakpoint would scale its m-th
        # coefficient by span^-m and overflow (or underflow) for
        # degree >= 2; in piece widths it does not depend on the span.
        # On a narrow domain far from 0, linspace rounds the knots off
        # the uniform grid by a visible share of a piece
        rng = np.random.default_rng(290)
        edges = [distill.SplineModel(
            degree=degree, knots=distill.make_knots(lo, hi, g, degree),
            coefficients=rng.normal(size=g + degree), domain=(lo, hi))
            for g in (5, 12)]
        snet = distill.SplineNetwork(edges=[[edges]])
        inside = lo + (hi - lo) * rng.uniform(size=(40, 2))
        probe = np.vstack([breakpoint_probe([edges]), inside,
                           [[lo - (hi - lo) / 4, hi + (hi - lo) / 4]]])
        assert_close_to_oracle(snet, probe)

    def test_infinite_inputs_give_the_clamped_value(self, monkeypatch):
        grid = mixed_grid()
        snet = distill.SplineNetwork(edges=[grid])
        lo = [edge.domain[0] for edge in grid[0]]
        hi = [edge.domain[1] for edge in grid[0]]
        x = np.array([[np.inf, -np.inf, np.inf], [-np.inf, np.inf, 0.6]])
        ends = np.where(x == np.inf, hi, np.where(x == -np.inf, lo, x))
        # silu(+-inf) is +-inf or NaN, so only the spline part can show
        # the clamp
        for module in (distill, spline_oracle, horner_spline_kernel):
            monkeypatch.setattr(module, "silu", np.zeros_like)
        out, count = assert_close_to_oracle(snet, x)
        assert np.array_equal(out, snet.evaluate(ends)[0])
        assert count == 2 * 5

    def test_nan_inputs_give_nan_outputs(self):
        grid = mixed_grid()
        snet = distill.SplineNetwork(edges=[grid])
        probe = breakpoint_probe(grid)[:30].copy()
        probe[3, 0] = probe[7, 2] = probe[8, :] = np.nan
        probe[9, 1] = 100.0                     # clamped beside a NaN
        probe[9, 2] = np.nan
        out, count = assert_close_to_oracle(snet, probe)
        assert np.isnan(out[[3, 7, 8, 9]]).all()
        assert np.isfinite(np.delete(out, [3, 7, 8, 9], axis=0)).all()
        assert count == spline_oracle.clamp_count(snet, probe) > 0

    def test_scalar_and_array_edge_eval(self):
        xs = np.linspace(0.0, 1.0, 40)
        model = distill_oracle.fit_spline(xs, np.exp(xs), grid_size=5)
        model.w_base = 0.7
        assert np.ndim(kernel_eval(model, 0.5)) == 0
        grid = xs.reshape(5, 8) * 1.4 - 0.2
        np.testing.assert_allclose(kernel_eval(model, grid),
                                   spline_oracle.edge_eval(model, grid),
                                   rtol=1e-12, atol=1e-14)

    def test_malformed_edges_rejected(self):
        xs = np.linspace(0.0, 1.0, 40)
        good = distill_oracle.fit_spline(xs, xs ** 2, grid_size=4)
        unclamped = distill.SplineModel.from_dict(
            dict(good.to_dict(), knots=list(np.linspace(0.0, 1.0, 11))))
        wide = distill.SplineModel.from_dict(
            dict(good.to_dict(), domain=[-1.0, 1.0]))
        short = distill.SplineModel.from_dict(
            dict(good.to_dict(), coefficients=[1.0, 2.0]))
        knots = good.knots.copy()
        knots[5] += 0.25 / 3.0                 # a third of a piece
        non_uniform = distill.SplineModel.from_dict(
            dict(good.to_dict(), knots=list(knots)))
        for bad in (unclamped, wide, short, non_uniform):
            with pytest.raises(ValueError):
                distill.SplineNetwork(edges=[[[good], [bad]]])
        with pytest.raises(ValueError):      # layer widths do not chain
            distill.SplineNetwork(edges=[[[good, good]], [[good, good]]])
        with pytest.raises(ValueError):
            distill.SplineNetwork(edges=[[[good], [good, good]]])

    def test_non_finite_coefficient_not_serialized(self):
        xs = np.linspace(0.0, 1.0, 40)
        model = distill_oracle.fit_spline(xs, xs, grid_size=4)
        model.coefficients[2] = np.nan
        with pytest.raises(NumericalError):
            distill.SplineNetwork(edges=[[[model]]]).to_json()

    @pytest.mark.parametrize("value, outside", [
        (np.nan, False), (np.inf, True), (-np.inf, True), (0.0, False),
        (1.0, False), (-0.0, False)],
        ids=["nan", "+inf", "-inf", "at-lo", "at-hi", "-0.0-at-lo-0.0"])
    def test_clamp_count_of_one_value(self, value, outside):
        """A value in three of four cells of a 2 x 2 layer on [0, 1]
        counts once per output where it lies outside the domain, as in
        the per-edge loop; NaN is not counted."""
        snet = distill.SplineNetwork(edges=[input_edge_grid()])
        x = np.array([[0.5, value], [value, value]])
        with np.errstate(invalid="ignore"):    # silu(-inf) is NaN
            count = snet.evaluate(x)[1]
            assert count == spline_oracle.evaluate(snet, x)[1]
            assert count == horner_spline_kernel.evaluate(snet, x)[1]
        assert count == (2 * 3 if outside else 0)

    @pytest.mark.parametrize("hqkan", [False, True])
    def test_empty_batch(self, hqkan):
        rng = np.random.default_rng(295)
        net = (make_hqkan(5, 2, r=2, hidden_shape=(3,), rng=rng)
               if hqkan else QkanNetwork.init([3, 4, 2], 2, rng))
        calib = rng.uniform(-1.0, 1.0, size=(50, net.in_dim))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib), grid_size=5)
        out, count = snet.evaluate(np.empty((0, net.in_dim)))
        assert out.shape == (0, net.out_dim)
        assert count == 0 and type(count) is int
        edge = snet.edges[-1][0][0]
        assert kernel_eval(edge, np.empty(0)).shape == (0,)
        assert kernel_eval(edge, np.empty((0, 3))).shape == (0, 3)


def input_edge_grid(change=None):
    """Two outputs by two inputs fitted on [0, 1] with G = 4. `change`
    makes edge (out 1, in 1) differ from edge (out 0, in 1) in its
    domain alone (its knots stay), in its grid size, or in the sign of
    its zero lower end alone (domain and first knot)."""
    xs = np.linspace(0.0, 1.0, 40)
    grid = [[distill_oracle.fit_spline(xs, np.sin((j + 1) * xs + i),
                                       grid_size=4, domain=(0.0, 1.0))
             for i in range(2)] for j in range(2)]
    ys = np.sin(2 * xs + 1)
    if change == "domain":
        grid[1][1].domain = (0.0, 0.5)
    elif change == "grid size":
        grid[1][1] = distill_oracle.fit_spline(xs, ys, grid_size=5,
                                               domain=(0.0, 1.0))
    elif change == "signed zero":
        grid[1][1] = distill_oracle.fit_spline(xs, ys, grid_size=4,
                                               domain=(-0.0, 1.0))
    return grid


class TestOneTable:
    """Every edge fed by one input shares that input's domain and knots,
    so a layer is one table and each input has one piece index; degrees
    may differ. Layers match both oracles, and an input whose edges
    differ is refused."""

    @pytest.mark.parametrize("hqkan", [False, True])
    def test_calibrated_layers_are_one_table(self, hqkan):
        rng = np.random.default_rng(296)
        net = (make_hqkan(5, 2, r=2, hidden_shape=(3,), rng=rng,
                          angle_scale=1.0) if hqkan
               else QkanNetwork.init([3, 4, 2], 2, rng, angle_scale=1.0))
        calib = rng.uniform(-1.0, 1.0, size=(100, net.in_dim))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib), grid_size=7)
        # (n_in * G, D + 2, n_out): t^0 .. t^3 and the silu weight
        assert [layer._table.shape for layer in snet._layers] == [
            (layer.n_in * 7, 5, layer.n_out) for layer in net.layers]
        _, count = assert_close_to_oracle(snet, np.vstack([calib,
                                                           3.0 * calib]))
        assert count > 0

    def test_degrees_may_differ_per_edge(self):
        xs = np.linspace(-1.0, 2.0, 90)
        grid = [[distill_oracle.fit_spline(xs, np.sin((j + 1) * xs + i),
                                           grid_size=6, degree=d)
                 for i in range(2)] for j, d in enumerate([1, 3, 2])]
        snet = distill.SplineNetwork(edges=[grid])
        assert snet._layers[0]._table.shape == (2 * 6, 5, 3)
        assert_close_to_oracle(snet, breakpoint_probe(grid))

    @pytest.mark.parametrize("change", ["domain", "grid size", "signed zero"])
    def test_edges_of_one_input_must_share_domain_and_knots(self, change):
        text = distill.SplineNetwork(edges=[input_edge_grid()]).to_json()
        grid = input_edge_grid(change)
        with pytest.raises(ValueError, match="^the edges of input 1 differ"):
            distill.SplineNetwork(edges=[grid])
        doc = json.loads(text)
        doc["layers"][0][1][1] = grid[1][1].to_dict()
        with pytest.raises(DataError, match="^spline network: the edges of "
                                            "input 1 differ"):
            distill.SplineNetwork.from_json(json.dumps(doc))


def _hqkan_spline_doc():
    net = make_hqkan(4, 2, r=2, rng=np.random.default_rng(230))
    calib = np.random.default_rng(231).uniform(0.0, 1.0, size=(40, 4))
    snet, _ = distill.distill_network(
        net, distill.calibrate_domains(net, calib), grid_size=4)
    return snet.to_json()


def _edge(doc):
    return doc["layers"][0][0][0]


def _move_interior_knot(doc):
    """Moves one interior knot of a degree-3, G=4 edge by a third of a
    piece."""
    knots = _edge(doc)["knots"]
    knots[5] += (knots[-1] - knots[0]) / 4 / 3


def _degree_zero(doc):
    """A degree-0 edge with consistent counts: G + 1 knots, G
    coefficients."""
    edge = _edge(doc)
    edge.update(degree=0, knots=edge["knots"][3:-3],
                coefficients=edge["coefficients"][:4])


# (name, mutation of the parsed spline.json); each must raise DataError
SPLINE_JSON_MUTATIONS = [
    ("format_version 2", lambda d: d.update(format_version=2)),
    ("format_version true", lambda d: d.update(format_version=True)),
    ("format_version 1.0", lambda d: d.update(format_version=1.0)),
    ("format_version a string", lambda d: d.update(format_version="1")),
    ("unknown key", lambda d: d.update(comment="an unknown key")),
    ("edge unknown key", lambda d: _edge(d).update(grid_size=20)),
    ("encoder unknown key", lambda d: d["encoder"].update(scale=1.0)),
    ("format_version missing", lambda d: d.pop("format_version")),
    ("other format tag", lambda d: d.update(format="qkan-checkpoint")),
    ("format tag missing", lambda d: d.pop("format")),
    ("layers missing", lambda d: d.pop("layers")),
    ("layers not a list", lambda d: d.update(layers={"0": []})),
    ("no layers", lambda d: d.update(layers=[])),
    ("row not a list", lambda d: d["layers"][0].__setitem__(0, 1.0)),
    ("edge not an object", lambda d: d["layers"][0][0].__setitem__(0, [])),
    ("null coefficient", lambda d: _edge(d)["coefficients"].__setitem__(1, None)),
    ("NaN coefficient", lambda d: _edge(d)["coefficients"].__setitem__(1, float("nan"))),
    ("string knot", lambda d: _edge(d)["knots"].__setitem__(0, "0.0")),
    ("boolean knot", lambda d: _edge(d)["knots"].__setitem__(0, True)),
    ("huge integer knot", lambda d: _edge(d)["knots"].__setitem__(0, 10 ** 400)),
    ("coefficients missing", lambda d: _edge(d).pop("coefficients")),
    ("coefficients empty", lambda d: _edge(d).update(coefficients=[])),
    ("too few coefficients", lambda d: _edge(d)["coefficients"].pop()),
    ("degree missing", lambda d: _edge(d).pop("degree")),
    ("degree a float", lambda d: _edge(d).update(degree=3.0)),
    ("degree 0", _degree_zero),
    ("non-uniform interior knot", _move_interior_knot),
    ("domain of three", lambda d: _edge(d)["domain"].append(1.0)),
    ("domain outside knots", lambda d: _edge(d).update(domain=[-1e9, 1e9])),
    ("w_base missing", lambda d: _edge(d).pop("w_base")),
    ("w_base a string", lambda d: _edge(d).update(w_base="1")),
    ("infinite fit error", lambda d: _edge(d).update(fit_max_err=float("inf"))),
    ("encoder not an object", lambda d: d.update(encoder=[1.0])),
    ("encoder weight ragged",
     lambda d: d["encoder"]["weight"][0].append(1.0)),
    ("encoder bias too short", lambda d: d["encoder"]["bias"].pop()),
    ("decoder width", lambda d: d["decoder"]["weight"].pop()),
]


class TestSplineJson:
    def test_valid_documents_round_trip_byte_identical(self):
        text = _hqkan_spline_doc()
        assert distill.SplineNetwork.from_json(text).to_json() == text
        # the fit errors are optional
        doc = json.loads(text)
        for row in doc["layers"][0]:
            for edge in row:
                del edge["fit_max_err"], edge["fit_rms_err"]
        distill.SplineNetwork.from_json(json.dumps(doc))

    @pytest.mark.parametrize("mutate", [m for _, m in SPLINE_JSON_MUTATIONS],
                             ids=[name for name, _ in SPLINE_JSON_MUTATIONS])
    def test_malformed_document_raises_data_error(self, mutate):
        doc = json.loads(_hqkan_spline_doc())
        mutate(doc)
        with pytest.raises(DataError):
            distill.SplineNetwork.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["", "[]", "null", "{\"format\": "],
                             ids=["empty", "list", "null", "truncated"])
    def test_unparsable_or_not_an_object(self, text):
        with pytest.raises(DataError):
            distill.SplineNetwork.from_json(text)

    def test_truncated_file(self):
        text = _hqkan_spline_doc()
        for cut in (1, len(text) // 2, len(text) - 2):
            with pytest.raises(DataError):
                distill.SplineNetwork.from_json(text[:cut])


def edge_domains(net, domains):
    """The per-edge dict {(layer, out, in): (lo, hi)} that the oracles
    take, from one (n_in, 2) array per layer."""
    return {(li, j, i): tuple(b[i].tolist())
            for li, (layer, b) in enumerate(zip(net.layers, domains))
            for j in range(layer.n_out) for i in range(layer.n_in)}


def assert_distilled_like_oracle(net, domains, probe, **kw):
    ref, ref_report = distill_oracle.distill_network(
        net, edge_domains(net, domains), samples=distill.SAMPLES, **kw)
    snet, report = distill.distill_network(net, domains, **kw)
    assert list(report) == list(ref_report)
    for key, errs in report.items():
        for name in ("max_err", "rms_err"):
            want = ref_report[key][name]
            assert type(errs[name]) is float
            assert abs(errs[name] - want) <= max(1e-12 * abs(want), 1e-15)
    for grid, ref_grid in zip(snet.edges, ref.edges, strict=True):
        for row, ref_row in zip(grid, ref_grid, strict=True):
            for edge, want in zip(row, ref_row, strict=True):
                assert edge.degree == want.degree
                assert np.array_equal(edge.knots, want.knots)
                assert edge.domain == want.domain
                assert edge.w_base == want.w_base
                assert edge.out_bias == want.out_bias
                scale = np.max(np.abs(want.coefficients))
                assert (np.max(np.abs(edge.coefficients - want.coefficients))
                        <= 1e-12 * scale)
    assert snet.clamp_count(probe) == ref.clamp_count(probe)
    assert snet.clamp_count(probe) > 0
    return snet


def hand_built_domains(net, rng):
    """For each layer input in order, lo = uniform(-2, 0) and then
    hi = lo + uniform(0.5, 3), drawn from rng."""
    domains = []
    for layer in net.layers:
        b = np.empty((layer.n_in, 2))
        for i in range(layer.n_in):
            lo = rng.uniform(-2.0, 0.0)
            b[i] = lo, lo + rng.uniform(0.5, 3.0)
        domains.append(b)
    return domains


class TestBatchedDistillation:
    """Layer-batched sampling and shared solves against one circuit call
    and one least-squares fit per edge."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("case", ["calibrated", "hand-built", "hqkan"])
    def test_network_matches_per_edge_loop(self, case, degree):
        rng = np.random.default_rng(230 + degree)
        net = (make_hqkan(5, 2, r=2, hidden_shape=(3,), rng=rng,
                          angle_scale=1.0) if case == "hqkan"
               else QkanNetwork.init([3, 4, 2], 2, rng, angle_scale=1.0))
        for layer in net.layers:
            layer.w_base[:] = rng.uniform(-1.0, 1.0, size=layer.w_base.shape)
            layer.w_quant[:] = rng.uniform(0.5, 2.0, size=layer.w_quant.shape)
            layer.out_bias[:] = rng.normal(0.0, 0.3,
                                           size=layer.out_bias.shape)
        calib = rng.uniform(-1.0, 1.0, size=(150, net.in_dim))
        domains = (hand_built_domains(net, rng) if case == "hand-built"
                   else distill.calibrate_domains(net, calib))
        snet = assert_distilled_like_oracle(net, domains, 3.0 * calib,
                                            grid_size=7, degree=degree)
        assert (snet.encoder is not None) == (case == "hqkan")

    @pytest.mark.parametrize("r", [1, 10])
    def test_repetition_counts(self, r, monkeypatch):
        rng = np.random.default_rng(240 + r)
        net = QkanNetwork.init([2, 3, 2], r, rng, angle_scale=1.0)
        calib = rng.uniform(-1.0, 1.0, size=(120, 2))
        domains = distill.calibrate_domains(net, calib)
        monkeypatch.setattr(distill, "SAMPLES", 97)
        assert_distilled_like_oracle(net, domains, 3.0 * calib, grid_size=12)

    def test_input_errors_raise_before_any_circuit(self, monkeypatch):
        """A grid size or degree below 1, a short sample count, then a
        bad domain in any layer, raise before any circuit runs; a good
        call runs one per layer."""
        rng = np.random.default_rng(260)
        net = QkanNetwork.init([2, 3, 2], 2, rng)
        domains = distill.calibrate_domains(net, rng.uniform(size=(50, 2)))
        calls = []
        forward = daruan.circuit_forward

        def counted(*args):
            calls.append(args[3].shape)
            return forward(*args)

        monkeypatch.setattr(daruan, "circuit_forward", counted)
        default = distill.SAMPLES

        def distill_with(samples, domains, **kw):
            monkeypatch.setattr(distill, "SAMPLES", samples)
            return distill.distill_network(net, domains, **kw)

        for samples, bad_size in [(default, dict(grid_size=0)),
                                  (default, dict(degree=0)),
                                  (1, dict(grid_size=-1))]:
            with pytest.raises(ValueError, match="^grid_size and degree "
                                                 "must be >= 1$"):
                distill_with(samples, domains, **bad_size)
        too_few = dict(grid_size=10, degree=3)
        with pytest.raises(FitError, match="^need at least 13 samples, "
                                           "got 12$"):
            distill_with(12, domains, **too_few)
        with pytest.raises(FitError, match="^need at least 23 samples"):
            distill_with(1, domains)
        for lo_hi in [(0.5, 0.5), (1.0, -1.0), (np.nan, 1.0)]:
            bad = [b.copy() for b in domains]
            bad[1][2] = lo_hi                   # the last layer's last input
            with pytest.raises(ValueError, match="^lo must be below hi$"):
                distill_with(default, bad)
            # the sample count is checked first
            with pytest.raises(FitError, match="^need at least 13"):
                distill_with(12, bad, **too_few)
        for bad in [domains[:1], domains + domains[:1]]:
            with pytest.raises(ValueError, match=r"^domains must hold one "
                                                 r"array per layer \(2\)"):
                distill_with(default, bad)
        for b in [domains[1][:2], np.zeros((3, 3)), domains[1].T]:
            with pytest.raises(ValueError, match=r"^layer 1 domains must "
                                                 r"have shape \(3, 2\)"):
                distill_with(default, [domains[0], b])
        assert calls == []
        distill_with(40, domains)
        assert calls == [(40, 2), (40, 3)]

    def test_non_finite_edge_is_named(self):
        rng = np.random.default_rng(261)
        net = QkanNetwork.init([2, 2], 4, rng, angle_scale=3.0)
        domains = [np.array([[-2.0, 2.0], [-2.0, 2.0]])]
        layer = net.layers[0]
        # samples 1e307 <Z> + (max - 1e307) are finite, but the fit
        # overshoots them past the largest float
        top = np.finfo(np.float64).max
        layer.w_quant[1, 0], layer.out_bias[1, 0] = 1e307, top - 1e307
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match=r"^edge \(layer 0, out 1, in 0\): "
                                      r"fitted spline coefficients are not"):
            distill.distill_network(net, domains, grid_size=4)
        # an earlier edge's samples overflow where <Z> > 0.06
        layer.w_quant[0, 1] = layer.out_bias[0, 1] = 1.7e308
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match=r"^edge \(layer 0, out 0, in 1\): "
                                      r"circuit samples are not finite$"):
            distill.distill_network(net, domains, grid_size=4)

    @pytest.mark.parametrize("shape", [[3], [2, 3], [2, 3, 4, 1]])
    def test_calibration_matches_oracle(self, shape, monkeypatch):
        rng = np.random.default_rng(270 + len(shape))
        net = (QkanNetwork.init(shape + [2], 2, rng, angle_scale=1.0)
               if len(shape) > 1
               else make_hqkan(4, 1, r=2, hidden_shape=(3,), rng=rng))
        calib = rng.uniform(-1.0, 1.0, size=(80, net.in_dim))
        calib[:, -1] = 0.25                     # one constant input
        want = distill_oracle.calibrate_domains(net, calib, widen=0.3)
        monkeypatch.setattr(distill, "CALIBRATION_WIDEN", 0.3)
        calls = []
        forward = daruan.circuit_forward

        def counted(*args, **kwargs):
            calls.append(args[3].shape)
            return forward(*args, **kwargs)

        monkeypatch.setattr(daruan, "circuit_forward", counted)
        got = distill.calibrate_domains(net, calib)
        assert [(b.shape, b.dtype) for b in got] == [
            ((layer.n_in, 2), np.float64) for layer in net.layers]
        assert edge_domains(net, got) == want
        assert len(calls) == len(net.layers) - 1
