"""Tests for QKAN layers, networks and the HQKAN wrapper.

Layer outputs are checked against a per-edge loop that runs each edge
as its own 1x1 layer, and all stacked gradients against central finite
differences through the flat parameter vector.
"""

from dataclasses import fields

import numpy as np
import pytest

from edge_oracle import edge_forward
from qkan import daruan
from qkan.daruan import DaruanParams
from qkan.network import (LinearLayer, QkanLayer, QkanNetwork, latent_dim,
                          make_hqkan)


def scalar_layer_forward(layer: QkanLayer, x: np.ndarray) -> np.ndarray:
    """Edge-by-edge evaluation, each edge a 1x1 layer."""
    b = x.shape[0]
    y = np.zeros((b, layer.n_out))
    for bi in range(b):
        for j in range(layer.n_out):
            for i in range(layer.n_in):
                y[bi, j] += edge_forward(layer.get_edge(j, i), x[bi, i])
    return y


def taped_backward(net: QkanNetwork, x, upstream):
    """backward after the forward pass that records its tape."""
    tape: list = []
    net.forward(x, tape)
    return net.backward(upstream, tape)


class TestEdgeLayout:
    """get_edge fills DaruanParams by position, so its fields must follow
    QkanLayer.PARAMS; a reordering would silently swap w_base, w_quant
    and out_bias. One edge runs as the 1x1 layer of_edge builds, the
    inverse of get_edge(0, 0)."""

    @staticmethod
    def distinct_edge(seed: int) -> DaruanParams:
        rng = np.random.default_rng(seed)
        p = daruan.init_daruan(3, rng, angle_scale=2.0)
        p.enc_w, p.enc_b = rng.normal(size=(2, 3))
        p.w_base, p.w_quant, p.out_bias = -0.5, 1.25, 0.375
        return p

    @staticmethod
    def edge_bytes(p: DaruanParams) -> list:
        return [np.asarray(getattr(p, name)).tobytes()
                for name in QkanLayer.PARAMS]

    def test_fields_follow_params(self):
        assert [f.name for f in fields(DaruanParams)] == list(QkanLayer.PARAMS)

    def test_of_edge_is_the_inverse_of_get_edge(self):
        p = self.distinct_edge(46)
        layer = QkanLayer.of_edge(p)
        assert (layer.n_out, layer.n_in, layer.r) == (1, 1, 3)
        assert np.shares_memory(layer.angles, p.angles)
        assert self.edge_bytes(layer.get_edge(0, 0)) == self.edge_bytes(p)


class TestLayer:
    def test_forward_matches_scalar_loop(self):
        rng = np.random.default_rng(41)
        layer = QkanLayer.init(3, 2, 2, rng, angle_scale=1.0)
        x = rng.normal(size=(4, 3))
        np.testing.assert_allclose(layer.forward(x),
                                   scalar_layer_forward(layer, x), atol=1e-12)

    def test_single_sample_shape(self):
        layer = QkanLayer.init(3, 2, 2, np.random.default_rng(42))
        y = layer.forward(np.zeros(3))
        assert y.shape == (2,)

    def test_param_count(self):
        layer = QkanLayer.init(4, 3, 5, np.random.default_rng(44))
        # 5r + 6 scalars per edge
        assert layer.param_count() == 4 * 3 * (5 * 5 + 6)

    def test_extension_preserves_forward(self):
        rng = np.random.default_rng(45)
        layer = QkanLayer.init(2, 2, 2, rng, angle_scale=1.0)
        x = rng.normal(size=(8, 2))
        before = layer.forward(x)
        layer.extend(4)
        assert layer.r == 4
        np.testing.assert_allclose(layer.forward(x), before, atol=0.0)


class TestNetworkGradients:
    def check_fd(self, net, x, upstream, n_probe=40, seed=0):
        grads = net.grad_vector(taped_backward(net, x, upstream))
        pv = net.param_vector()
        eps = 1e-6
        rng = np.random.default_rng(seed)
        probe = rng.choice(pv.size, size=min(n_probe, pv.size), replace=False)
        for i in probe:
            v = pv.copy()
            v[i] += eps
            net.set_param_vector(v)
            hi = float(np.sum(upstream * net.forward(x)))
            v[i] -= 2.0 * eps
            net.set_param_vector(v)
            lo = float(np.sum(upstream * net.forward(x)))
            np.testing.assert_allclose(grads[i], (hi - lo) / (2.0 * eps),
                                       atol=1e-7)
        net.set_param_vector(pv)

    def test_plain_network(self):
        rng = np.random.default_rng(51)
        net = QkanNetwork.init([2, 3, 1], 2, rng, angle_scale=0.5)
        x = rng.normal(size=(5, 2))
        upstream = rng.normal(size=(5, 1))
        self.check_fd(net, x, upstream)

    def test_hqkan_network(self):
        rng = np.random.default_rng(52)
        net = make_hqkan(6, 3, r=2, hidden_shape=(3,), rng=rng)
        x = rng.normal(size=(4, 6))
        upstream = rng.normal(size=(4, 3))
        self.check_fd(net, x, upstream)

    @pytest.mark.parametrize("case", ["plain", "hqkan"])
    def test_every_gradient_slot(self, case):
        # backward fills an uninitialized buffer: probe every coordinate
        rng = np.random.default_rng(54)
        if case == "plain":
            net = QkanNetwork.init([1, 2, 1], 2, rng, angle_scale=0.5)
        else:
            net = make_hqkan(3, 1, r=1, rng=rng, angle_scale=0.5)
        x = rng.normal(size=(4, net.in_dim))
        upstream = rng.normal(size=(4, net.out_dim))
        pv = net.param_vector()
        self.check_fd(net, x, upstream, n_probe=pv.size)
        # find the gamma_r slots by loading each slot's own index
        net.set_param_vector(np.arange(float(pv.size)))
        gamma_r = np.concatenate([lay.angles[:, :, -1, 2].ravel()
                                  for lay in net.layers]).astype(int)
        net.set_param_vector(pv)
        g = net.grad_vector(taped_backward(net, x, upstream))
        assert np.all(g[gamma_r] == 0.0)

    def test_input_derivative(self):
        rng = np.random.default_rng(53)
        net = QkanNetwork.init([3, 2], 2, rng)
        x = rng.normal(size=(3, 3))
        upstream = rng.normal(size=(3, 2))
        g = taped_backward(net, x, upstream)
        eps = 1e-6
        for bi in (0, 2):
            for i in range(3):
                xp, xm = x.copy(), x.copy()
                xp[bi, i] += eps
                xm[bi, i] -= eps
                fd = (float(np.sum(upstream * net.forward(xp)))
                      - float(np.sum(upstream * net.forward(xm)))) / (2 * eps)
                np.testing.assert_allclose(g.d_input[bi, i], fd, atol=1e-7)


class TestParamVector:
    def test_round_trip(self):
        rng = np.random.default_rng(61)
        net = make_hqkan(5, 2, r=2, rng=rng)
        pv = net.param_vector()
        assert pv.size == net.param_count()
        other = make_hqkan(5, 2, r=2, rng=np.random.default_rng(99))
        other.set_param_vector(pv)
        x = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(other.forward(x), net.forward(x))

    def test_wrong_size_rejected(self):
        net = QkanNetwork.init([2, 1], 2, np.random.default_rng(62))
        with pytest.raises(ValueError):
            net.set_param_vector(np.zeros(net.param_count() + 1))

    def test_grad_vector_alignment(self):
        # perturbing coordinate i must change only grad coordinate i's
        # matching parameter, checked via a directional derivative
        rng = np.random.default_rng(63)
        net = QkanNetwork.init([2, 2], 1, rng)
        x = rng.normal(size=(3, 2))
        upstream = np.ones((3, 2))
        g = net.grad_vector(taped_backward(net, x, upstream))
        direction = rng.normal(size=g.size)
        eps = 1e-6
        pv = net.param_vector()
        net.set_param_vector(pv + eps * direction)
        hi = float(np.sum(upstream * net.forward(x)))
        net.set_param_vector(pv - eps * direction)
        lo = float(np.sum(upstream * net.forward(x)))
        np.testing.assert_allclose(float(g @ direction),
                                   (hi - lo) / (2.0 * eps), atol=1e-6)


class TestBoundedness:
    def test_unit_weight_output_interval(self):
        # with w_base = 0, w_quant = 1, out_bias = 0 a node output is a
        # sum of n_in expectations, each in [-1, 1]
        rng = np.random.default_rng(71)
        n_in = 4
        layer = QkanLayer.init(n_in, 2, 3, rng, angle_scale=3.0)
        layer.w_base[:] = 0.0
        layer.w_quant[:] = 1.0
        layer.out_bias[:] = 0.0
        x = rng.normal(scale=4.0, size=(500, n_in))
        y = layer.forward(x)
        assert np.all(np.abs(y) <= n_in + 1e-10)


class TestHqkan:
    def test_latent_dim(self):
        assert latent_dim(2) == 2
        assert latent_dim(10) == 4
        assert latent_dim(64) == 7
        assert latent_dim(784) == 10
        assert latent_dim(1) == 2
        with pytest.raises(ValueError):
            latent_dim(0)

    def test_structure(self):
        net = make_hqkan(64, 10, r=3, rng=np.random.default_rng(81))
        assert net.encoder.n_in == 64 and net.encoder.n_out == 7
        assert net.decoder.n_in == 4 and net.decoder.n_out == 10
        assert net.shape == [7, 4]

    def test_param_count_beats_flat_layer(self):
        hq = make_hqkan(64, 10, r=3, rng=np.random.default_rng(82))
        flat = QkanNetwork.init([64, 10], 3, np.random.default_rng(82))
        assert hq.param_count() < flat.param_count()

    def test_forward_shape(self):
        net = make_hqkan(12, 3, r=2, rng=np.random.default_rng(83))
        y = net.forward(np.random.default_rng(0).normal(size=(6, 12)))
        assert y.shape == (6, 3)


class TestLinearLayer:
    def test_forward(self):
        lin = LinearLayer(weight=np.array([[1.0, 2.0], [0.0, -1.0]]),
                          bias=np.array([0.5, 0.0]))
        np.testing.assert_allclose(lin.forward(np.array([[1.0, 1.0]])),
                                   [[3.5, -1.0]])

    def test_backward(self):
        rng = np.random.default_rng(91)
        lin = LinearLayer.init(3, 2, rng)
        x = rng.normal(size=(4, 3))
        up = rng.normal(size=(4, 2))
        d_w, d_b = np.empty((2, 3)), np.empty(2)
        d_x = lin.backward(x, up, [d_w, d_b])
        np.testing.assert_allclose(d_w, up.T @ x, atol=1e-14)
        np.testing.assert_allclose(d_b, up.sum(axis=0), atol=1e-14)
        np.testing.assert_allclose(d_x, up @ lin.weight, atol=1e-14)


class TestValidation:
    def test_inconsistent_layers_rejected(self):
        l1 = QkanLayer.init(2, 3, 1, np.random.default_rng(0))
        l2 = QkanLayer.init(2, 1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            QkanNetwork(layers=[l1, l2])

    def test_bad_input_dim_rejected(self):
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((3, 5)))

    @pytest.mark.parametrize("tape, error", [
        pytest.param((), TypeError, id="no-tape"),
        pytest.param(([],), ValueError, id="empty-tape"),
    ])
    def test_backward_needs_the_forward_tape(self, tape, error):
        net = make_hqkan(3, 1, r=1, rng=np.random.default_rng(0))
        with pytest.raises(error):
            net.backward(np.ones((2, 1)), *tape)

    @pytest.mark.parametrize("hqkan", [False, True], ids=["plain", "hqkan"])
    def test_upstream_rows_must_match_the_tape(self, hqkan, monkeypatch):
        """A 1-row upstream against a 3-row tape raises before any
        adjoint runs; the last stage of the HQKAN is its linear decoder."""
        rng = np.random.default_rng(5)
        net = (make_hqkan(3, 1, r=2, rng=rng) if hqkan
               else QkanNetwork.init([2, 3, 1], 2, rng))
        tape: list = []
        net.forward(rng.normal(size=(3, net.in_dim)), tape)
        calls = []
        adjoint = daruan.circuit_adjoint
        monkeypatch.setattr(daruan, "circuit_adjoint",
                            lambda *args: calls.append(1) or adjoint(*args))
        with pytest.raises(ValueError):
            net.backward(np.ones((1, 1)), tape)
        assert calls == []
