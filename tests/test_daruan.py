"""Tests for the activation-edge circuit, gradients and extension.

The reference oracle below rebuilds the circuit from explicit 2x2
matrix products with its own gate definitions, so agreement with the
vectorized implementation is a real cross-check rather than a identity.
"""

import warnings
from copy import deepcopy

import numpy as np
import pytest

import batch_first_kernel
import statevector_oracle as complex_kernel
from edge_oracle import (edge_backward, edge_extend, edge_forward,
                         parameter_shift_grad)
from qkan import daruan
from qkan.daruan import DaruanParams, init_daruan, silu
from qkan.network import QkanLayer


def oracle_rz(a):
    return np.array([[np.exp(-0.5j * a), 0.0], [0.0, np.exp(0.5j * a)]])


def oracle_ry(a):
    c, s = np.cos(a / 2.0), np.sin(a / 2.0)
    return np.array([[c, -s], [s, c]])


def oracle_expectation(p: DaruanParams, x: float) -> float:
    """Literal matrix-chain evaluation of <Z| for one edge."""
    r = p.enc_w.size
    psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    for l in range(r):
        al, be, ga = p.angles[l]
        psi = oracle_rz(ga) @ (oracle_ry(be) @ (oracle_rz(al) @ psi))
        psi = oracle_rz(p.enc_w[l] * x + p.enc_b[l]) @ psi
    al, be, ga = p.angles[r]
    psi = oracle_rz(ga) @ (oracle_ry(be) @ (oracle_rz(al) @ psi))
    return float(abs(psi[0]) ** 2 - abs(psi[1]) ** 2)


def fixed_params() -> DaruanParams:
    return DaruanParams(
        enc_w=np.array([1.0, 2.0]),
        enc_b=np.array([0.3, -0.4]),
        angles=np.array([[0.1, 0.2, 0.3],
                         [-0.2, 0.5, 0.1],
                         [0.4, -0.3, 0.2]]),
        w_base=0.7, w_quant=1.3, out_bias=-0.2,
    )


def sine_params() -> DaruanParams:
    # W1 identity, W2 = ry(pi/2), u = x + pi/2: raw expectation sin(x)
    return DaruanParams(
        enc_w=np.array([1.0]),
        enc_b=np.array([np.pi / 2.0]),
        angles=np.array([[0.0, 0.0, 0.0], [0.0, np.pi / 2.0, 0.0]]),
        w_base=0.0, w_quant=1.0, out_bias=0.0,
    )


class TestForward:
    # frozen matrix-chain values for fixed_params
    FROZEN = {0.0: -0.37934581463449657,
              0.5: -0.5756688491924454,
              -1.25: -0.7447180701728333}

    def test_matches_frozen_values(self):
        p = fixed_params()
        for x, expected in self.FROZEN.items():
            np.testing.assert_allclose(daruan.raw_expectation(p, x), expected,
                                       atol=1e-14)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(11)
        for r in (1, 2, 4):
            p = init_daruan(r, rng, angle_scale=1.5)
            p.enc_b = rng.normal(size=r)
            for x in rng.normal(size=4):
                np.testing.assert_allclose(daruan.raw_expectation(p, x),
                                           oracle_expectation(p, x),
                                           atol=1e-13)

    def test_sine_configuration(self):
        p = sine_params()
        for x in np.linspace(-3.0, 3.0, 13):
            np.testing.assert_allclose(daruan.raw_expectation(p, x),
                                       np.sin(x), atol=1e-14)

    def test_raw_expectation_bounded(self):
        rng = np.random.default_rng(12)
        p = init_daruan(3, rng, angle_scale=3.0)
        for x in rng.normal(scale=5.0, size=50):
            assert abs(daruan.raw_expectation(p, x)) <= 1.0 + 1e-12

    def test_periodicity_with_integer_weights(self):
        p = init_daruan(3, np.random.default_rng(13), geometric=False)
        p.enc_b = np.array([0.2, -0.1, 0.5])
        for x in (0.0, 0.9, -1.7):
            np.testing.assert_allclose(
                daruan.raw_expectation(p, x + 2.0 * np.pi),
                daruan.raw_expectation(p, x), atol=1e-13)

    def test_forward_combines_paths(self):
        p = fixed_params()
        x = 0.5
        expected = (p.w_base * x / (1.0 + np.exp(-x))
                    + p.w_quant * daruan.raw_expectation(p, x) + p.out_bias)
        np.testing.assert_allclose(edge_forward(p, x), expected, atol=1e-14)

    def test_nonfinite_input_rejected(self):
        p = fixed_params()
        with pytest.raises(ValueError):
            daruan.raw_expectation(p, np.nan)


class TestSilu:
    def test_large_negative_input_is_silent_and_exact(self):
        x = np.array([-800.0, -1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [daruan.silu(x), daruan.silu_grad(x),
                      daruan.silu(-800.0), daruan.silu_grad(-1e4)]
        for v in values:
            assert np.all(v == 0.0)

    def test_bit_equal_to_plain_formula(self):
        x = np.linspace(-709.0, 50.0, 20001)
        s = 1.0 / (1.0 + np.exp(-x))
        assert daruan.silu(x).tobytes() == (x / (1.0 + np.exp(-x))).tobytes()
        assert (daruan.silu_grad(x).tobytes()
                == (s * (1.0 + x * (1.0 - s))).tobytes())


class TestParamsValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DaruanParams(enc_w=np.ones(2), enc_b=np.ones(3),
                         angles=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            DaruanParams(enc_w=np.ones(2), enc_b=np.ones(2),
                         angles=np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DaruanParams(enc_w=np.array([1.0, np.nan]), enc_b=np.zeros(2),
                         angles=np.zeros((3, 3)))

    def test_geometric_init_weights(self):
        p = init_daruan(4, np.random.default_rng(0))
        np.testing.assert_array_equal(p.enc_w, [1.0, 2.0, 4.0, 8.0])
        q = init_daruan(4, np.random.default_rng(0), geometric=False)
        np.testing.assert_array_equal(q.enc_w, np.ones(4))


class TestGradients:
    def all_params(self, p):
        r = p.enc_w.size
        for l in range(r):
            yield ("enc_w", l)
            yield ("enc_b", l)
        for l in range(r + 1):
            for k in range(3):
                yield ("angle", l, k)

    def perturbed(self, p, which, eps):
        q = deepcopy(p)
        if which[0] == "enc_w":
            q.enc_w[which[1]] += eps
        elif which[0] == "enc_b":
            q.enc_b[which[1]] += eps
        else:
            q.angles[which[1], which[2]] += eps
        return q

    def grad_field(self, g, which):
        if which[0] == "enc_w":
            return g.enc_w[which[1]]
        if which[0] == "enc_b":
            return g.enc_b[which[1]]
        return g.angles[which[1], which[2]]

    def test_adjoint_matches_finite_differences(self):
        p = fixed_params()
        eps = 1e-6
        for x in (0.0, 0.83, -1.4):
            g, _ = edge_backward(p, x)
            for which in self.all_params(p):
                fd = (edge_forward(self.perturbed(p, which, eps), x)
                      - edge_forward(self.perturbed(p, which, -eps), x)) \
                    / (2.0 * eps)
                np.testing.assert_allclose(self.grad_field(g, which), fd,
                                           atol=1e-8)

    def test_adjoint_matches_parameter_shift(self):
        p = fixed_params()
        p.w_base, p.w_quant, p.out_bias = 0.0, 1.0, 0.0
        for x in (0.3, -0.9):
            g, _ = edge_backward(p, x)
            for which in self.all_params(p):
                ps = parameter_shift_grad(p, x, which)
                np.testing.assert_allclose(self.grad_field(g, which), ps,
                                           atol=1e-12)

    def test_sine_configuration_derivative(self):
        p = sine_params()
        for x in (0.0, 0.6, 2.1):
            _, d_input = edge_backward(p, x)
            np.testing.assert_allclose(d_input, np.cos(x), atol=1e-12)

    def test_classical_path_gradients(self):
        p = fixed_params()
        x = 0.4
        g, _ = edge_backward(p, x, upstream=2.0)
        silu = x / (1.0 + np.exp(-x))
        np.testing.assert_allclose(g.w_base, 2.0 * silu, atol=1e-14)
        np.testing.assert_allclose(g.w_quant,
                                   2.0 * daruan.raw_expectation(p, x),
                                   atol=1e-14)
        np.testing.assert_allclose(g.out_bias, 2.0, atol=1e-15)

    def test_input_derivative_finite_differences(self):
        p = fixed_params()
        eps = 1e-6
        for x in (0.2, -0.7):
            _, d_input = edge_backward(p, x)
            fd = (edge_forward(p, x + eps)
                  - edge_forward(p, x - eps)) / (2.0 * eps)
            np.testing.assert_allclose(d_input, fd, atol=1e-8)

    def test_parameter_shift_rejects_classical_params(self):
        p = fixed_params()
        for which in (("w_base",), ("w_quant",), ("out_bias",)):
            with pytest.raises(ValueError):
                parameter_shift_grad(p, 0.5, which)


class TestBatchedConsistency:
    def test_batched_expectation_matches_scalar(self):
        rng = np.random.default_rng(21)
        n, m, r, b = 3, 2, 2, 5
        enc_w = rng.normal(size=(n, m, r))
        enc_b = rng.normal(size=(n, m, r))
        angles = rng.normal(size=(n, m, r + 1, 3))
        x = rng.normal(size=(b, m))
        f = daruan.circuit_expectation(enc_w, enc_b, angles, x)
        assert f.shape == (b, n, m)
        for bi in range(b):
            for ni in range(n):
                for mi in range(m):
                    p = DaruanParams(enc_w[ni, mi], enc_b[ni, mi],
                                     angles[ni, mi])
                    np.testing.assert_allclose(
                        f[bi, ni, mi], daruan.raw_expectation(p, x[bi, mi]),
                        atol=1e-13)

    def test_batched_gradients_match_scalar(self):
        rng = np.random.default_rng(22)
        n, m, r, b = 2, 2, 3, 3
        enc_w = rng.normal(size=(n, m, r))
        enc_b = rng.normal(size=(n, m, r))
        angles = rng.normal(size=(n, m, r + 1, 3))
        x = rng.normal(size=(b, m))
        f, g_enc, g_ang = daruan.circuit_gradients(enc_w, enc_b, angles, x)
        for bi in range(b):
            for ni in range(n):
                for mi in range(m):
                    p = DaruanParams(enc_w[ni, mi], enc_b[ni, mi],
                                     angles[ni, mi], w_base=0.0)
                    g, _ = edge_backward(p, x[bi, mi])
                    np.testing.assert_allclose(g_enc[bi, ni, mi], g.enc_b,
                                               atol=1e-12)
                    np.testing.assert_allclose(g_ang[bi, ni, mi], g.angles,
                                               atol=1e-12)


class TestFusedKernelOracle:
    """The fused Bloch-vector kernel against the complex 2-amplitude
    kernel that applies every one of the 4r+3 gates separately."""

    @staticmethod
    def random_circuits(r, seed):
        rng = np.random.default_rng(seed)
        n, m, b = 3, 2, 5
        return (rng.uniform(-2.0, 2.0, size=(n, m, r)),
                rng.uniform(-np.pi, np.pi, size=(n, m, r)),
                rng.uniform(-np.pi, np.pi, size=(n, m, r + 1, 3)),
                rng.uniform(-np.pi, np.pi, size=(b, m)))

    @pytest.mark.parametrize("r", range(1, 11))
    def test_forward_matches(self, r):
        args = self.random_circuits(r, 40 + r)
        want, _ = complex_kernel.circuit_forward(*args)
        got = daruan.circuit_expectation(*args)
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("r", range(1, 11))
    def test_per_sample_gradients_match(self, r):
        args = self.random_circuits(r, 50 + r)
        f_want, enc_want, ang_want = complex_kernel.circuit_gradients(*args)
        f, g_enc, g_ang = daruan.circuit_gradients(*args)
        assert g_enc.shape == enc_want.shape
        assert g_ang.shape == ang_want.shape
        assert np.max(np.abs(f - f_want)) <= 1e-13
        assert np.max(np.abs(g_enc - enc_want)) <= 1e-12
        assert np.max(np.abs(g_ang - ang_want)) <= 1e-12
        # rz(gamma_r) follows the last ry and commutes with the readout
        assert np.all(g_ang[..., r, 2] == 0.0)

    def test_large_angles_match(self):
        # |theta| up to 2^9 * 50 = 25600, so tan(theta / 2) is far past its
        # poles. The inputs are dyadic (x on a 2^-6 grid, biases and angles
        # on a 2^-30 grid), so every angle sum is exact in both kernels and
        # the comparison measures the trigonometry, not summation order,
        # which alone would move <Z> by ~ulp(25600) = 3.6e-12.
        rng = np.random.default_rng(70)
        n, m, b, r = 3, 2, 6, 10
        enc_w = (rng.choice([-1.0, 1.0], size=(n, m, r))
                 * 2.0 ** rng.integers(0, 10, size=(n, m, r)))
        enc_w[0, 0, 0] = 2.0 ** 9
        enc_b = np.round(rng.uniform(-np.pi, np.pi, size=(n, m, r)) * 2 ** 30)
        angles = np.round(rng.uniform(-np.pi, np.pi, size=(n, m, r + 1, 3))
                          * 2 ** 30)
        x = np.round(rng.uniform(-50.0, 50.0, size=(b, m)) * 64) / 64
        x[0] = [50.0, -50.0]
        args = (enc_w, enc_b / 2 ** 30, angles / 2 ** 30, x)
        f_want, enc_want, ang_want = complex_kernel.circuit_gradients(*args)
        f, g_enc, g_ang = daruan.circuit_gradients(*args)
        assert np.max(np.abs(f - f_want)) <= 1e-13
        assert np.max(np.abs(g_enc - enc_want)) <= 1e-12
        assert np.max(np.abs(g_ang - ang_want)) <= 1e-12

    @staticmethod
    def batch_sums(enc_w, x, weights, g_enc, g_ang):
        """The five circuit_adjoint outputs as weighted batch sums of
        per-sample derivatives g_enc (B, N, M, r), g_ang (B, N, M, r+1, 3)."""
        wg = weights[..., None] * g_enc
        return (np.moveaxis(wg.sum(axis=0), -1, 0),
                np.moveaxis((weights[..., None] * g_ang[..., 1]).sum(axis=0),
                            -1, 0),
                (weights * g_ang[..., 0, 0]).sum(axis=0),
                np.moveaxis(np.einsum("bnml,bm->nml", wg, x), -1, 0),
                np.einsum("bnml,nml->bm", wg, enc_w))

    @pytest.mark.parametrize("r", range(1, 11))
    def test_reduced_adjoint_matches_oracle_sums(self, r):
        args = self.random_circuits(r, 80 + r)
        enc_w, _, angles, x = args
        _, tape = daruan.circuit_forward(*args)
        weights = np.random.default_rng(90 + r).normal(
            size=tape.final[2].shape)
        _, g_enc, g_ang = complex_kernel.circuit_gradients(*args)
        want = self.batch_sums(enc_w, x, weights.transpose(2, 0, 1),
                               g_enc, g_ang)
        got = daruan.circuit_adjoint(enc_w, angles, tape, x, weights)
        for name, g, w in zip(("g_theta", "g_beta", "g_alpha0", "g_w", "d_x"),
                              got, want):
            assert g.shape == w.shape, name
            assert np.max(np.abs(g - w)) <= 1e-12, name

    def test_weighted_adjoint_scales_readout(self):
        # weights * <Z> summed over the batch: each output is the
        # weighted batch sum of the unweighted per-sample derivatives
        args = self.random_circuits(4, 60)
        enc_w, _, angles, x = args
        _, tape = daruan.circuit_forward(*args)
        weights = np.random.default_rng(61).normal(size=tape.final[2].shape)
        _, g_enc, g_ang = daruan.circuit_gradients(*args)
        plain = self.batch_sums(enc_w, x, weights.transpose(2, 0, 1),
                                g_enc, g_ang)
        weighted = daruan.circuit_adjoint(enc_w, angles, tape, x, weights)
        for g, gw in zip(plain, weighted):
            np.testing.assert_allclose(gw, g, rtol=0, atol=1e-14)


class TestBatchFirstOracle:
    """The batch-last kernel against the batch-first one it replaced
    (tests/batch_first_kernel.py): the same arithmetic on transposed
    arrays, so forward values and tape agree bitwise and the adjoint's
    batch sums up to summation order."""

    @staticmethod
    def random_layer(b, n, m, r, seed):
        rng = np.random.default_rng(seed)
        layer = QkanLayer(rng.uniform(-4.0, 4.0, size=(n, m, r)),
                          rng.uniform(-np.pi, np.pi, size=(n, m, r)),
                          rng.uniform(-np.pi, np.pi, size=(n, m, r + 1, 3)),
                          rng.normal(size=(n, m)), rng.normal(size=(n, m)),
                          rng.normal(size=(n, m)))
        return layer, rng.uniform(-3.0, 3.0, size=(b, m)), rng

    SHAPES = [(1000, 2, 2, 3), (1000, 1, 2, 3), (2000, 2, 7, 10),
              (64, 16, 16, 6), (1, 1, 1, 1), (5, 3, 1, 2)]

    @pytest.mark.parametrize("b, n, m, r", SHAPES)
    def test_forward_and_tape_bitwise(self, b, n, m, r):
        layer, x, _ = self.random_layer(b, n, m, r, b + n + m + r)
        args = (layer.enc_w, layer.enc_b, layer.angles, x)
        want, want_tape = batch_first_kernel.circuit_forward(*args)
        got, tape = daruan.circuit_forward(*args)
        assert got.shape == (n, m, b) and tape.tan_half.shape == (r, n, m, b)
        np.testing.assert_array_equal(got.transpose(2, 0, 1), want)
        np.testing.assert_array_equal(tape.tan_half.transpose(0, 3, 1, 2),
                                      want_tape.tan_half)
        for v, v_want in zip(tape.final, want_tape.final):
            np.testing.assert_array_equal(v.transpose(2, 0, 1), v_want)
        np.testing.assert_array_equal(daruan.circuit_expectation(*args), want)

    @pytest.mark.parametrize("b, n, m, r", SHAPES)
    def test_adjoint_sums_match(self, b, n, m, r):
        layer, x, rng = self.random_layer(b, n, m, r, 7 * b + n + m + r)
        args = (layer.enc_w, layer.enc_b, layer.angles, x)
        weights = rng.normal(size=(b, n, m))
        _, want_tape = batch_first_kernel.circuit_forward(*args)
        want = batch_first_kernel.circuit_adjoint(
            layer.enc_w, layer.angles, want_tape, x, weights)
        _, tape = daruan.circuit_forward(*args)
        got = daruan.circuit_adjoint(layer.enc_w, layer.angles, tape, x,
                                     weights.transpose(1, 2, 0))
        for name, g, w in zip(("g_theta", "g_beta", "g_alpha0", "g_w", "d_x"),
                              got, want):
            assert g.shape == w.shape, name
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name

    @pytest.mark.parametrize("b, n, m, r", SHAPES)
    def test_layer_forward_bitwise(self, b, n, m, r):
        layer, x, _ = self.random_layer(b, n, m, r, 3 * b + n + m + r)
        f, _ = batch_first_kernel.circuit_forward(
            layer.enc_w, layer.enc_b, layer.angles, x)
        phi = (layer.w_base[None] * silu(x)[:, None, :]
               + layer.w_quant[None] * f + layer.out_bias[None])
        np.testing.assert_array_equal(layer.forward(x), phi.sum(axis=2))


class TestHalfAngle:
    """cos and sin rebuilt from t = tan(theta / 2), as the kernel does,
    against numpy's cos and sin."""

    @staticmethod
    def cos_sin(theta):
        t = np.tan(0.5 * theta)
        return daruan._cos_sin(t, (np.empty(t.shape), np.empty(t.shape)))

    def test_hard_angles(self):
        rng = np.random.default_rng(71)
        theta = np.concatenate([
            [0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0),
             3 * np.pi, -3 * np.pi, 0.5 * np.pi, 1e300, -1e300],
            rng.uniform(-4 * np.pi, 4 * np.pi, size=2000),
            rng.uniform(-1e300, 1e300, size=2000),
            # magnitudes spread over 1 .. 1e300
            rng.choice([-1.0, 1.0], size=2000)
            * 10.0 ** rng.uniform(0.0, 300.0, size=2000)])
        c, s = self.cos_sin(theta)
        assert np.max(np.abs(c - np.cos(theta))) <= 4.5e-16
        assert np.max(np.abs(s - np.sin(theta))) <= 4.5e-16

    def test_zero_is_exact_and_keeps_its_sign(self):
        c, s = self.cos_sin(np.array([0.0, -0.0]))
        assert np.array_equal(c, [1.0, 1.0])
        assert np.array_equal(s, [0.0, 0.0])
        assert np.array_equal(np.signbit(s), [False, True])


class TestExtension:
    def test_forward_invariance(self):
        rng = np.random.default_rng(31)
        p = init_daruan(2, rng, angle_scale=1.0)
        p.enc_b = rng.normal(size=2)
        q = edge_extend(p, 5)
        assert q.enc_w.size == 5
        for x in np.linspace(-4.0, 4.0, 17):
            np.testing.assert_allclose(edge_forward(q, x),
                                       edge_forward(p, x), atol=0.0)

    def test_appended_blocks_are_zero(self):
        p = init_daruan(2, np.random.default_rng(32))
        q = edge_extend(p, 4)
        np.testing.assert_array_equal(q.enc_w[2:], 0.0)
        np.testing.assert_array_equal(q.enc_b[2:], 0.0)
        np.testing.assert_array_equal(q.angles[3:], 0.0)
        np.testing.assert_array_equal(q.angles[:3], p.angles)

    def test_must_grow(self):
        p = init_daruan(3, np.random.default_rng(33))
        with pytest.raises(ValueError):
            edge_extend(p, 3)
        with pytest.raises(ValueError):
            edge_extend(p, 2)
