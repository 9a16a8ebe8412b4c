"""QKAN layers and networks.

A layer holds one activation edge per (output node, input node) pair,
with all edge parameters stacked into arrays of leading shape
(n_out, n_in) so forward/backward vectorize over batch and edges. Node
values are sums of incoming edge activations. A network optionally
wraps the stack with linear encoder/decoder layers (HQKAN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import daruan
from .daruan import DaruanParams, silu, silu_grad


def _as_batch(x, dim: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
        squeeze = True
    elif x.ndim == 2:
        squeeze = False
    else:
        raise ValueError(f"{what} must be a vector or (batch, dim) matrix")
    if x.shape[1] != dim:
        raise ValueError(f"{what} has dimension {x.shape[1]}, expected {dim}")
    return x, squeeze


@dataclass
class QkanLayer:
    """n_out x n_in grid of activation edges sharing one repetition count."""

    enc_w: np.ndarray    # (n_out, n_in, r)
    enc_b: np.ndarray    # (n_out, n_in, r)
    angles: np.ndarray   # (n_out, n_in, r+1, 3)
    w_base: np.ndarray   # (n_out, n_in)
    w_quant: np.ndarray  # (n_out, n_in)
    out_bias: np.ndarray # (n_out, n_in)

    @property
    def n_out(self) -> int:
        return self.enc_w.shape[0]

    @property
    def n_in(self) -> int:
        return self.enc_w.shape[1]

    @property
    def r(self) -> int:
        return self.enc_w.shape[2]

    @classmethod
    def init(cls, n_in: int, n_out: int, r: int, rng: np.random.Generator,
             angle_scale: float = 0.1, geometric: bool = True) -> "QkanLayer":
        if n_in < 1 or n_out < 1 or r < 1:
            raise ValueError("n_in, n_out and r must be >= 1")
        if geometric:
            enc_w = np.broadcast_to(2.0 ** np.arange(r),
                                    (n_out, n_in, r)).copy()
        else:
            enc_w = np.ones((n_out, n_in, r))
        return cls(
            enc_w=enc_w,
            enc_b=np.zeros((n_out, n_in, r)),
            angles=rng.uniform(-angle_scale, angle_scale,
                               size=(n_out, n_in, r + 1, 3)),
            w_base=np.ones((n_out, n_in)),
            w_quant=np.ones((n_out, n_in)),
            out_bias=np.zeros((n_out, n_in)),
        )

    def get_edge(self, j: int, i: int) -> DaruanParams:
        return DaruanParams(
            enc_w=self.enc_w[j, i].copy(),
            enc_b=self.enc_b[j, i].copy(),
            angles=self.angles[j, i].copy(),
            w_base=float(self.w_base[j, i]),
            w_quant=float(self.w_quant[j, i]),
            out_bias=float(self.out_bias[j, i]),
        )

    def set_edge(self, j: int, i: int, p: DaruanParams) -> None:
        if p.r != self.r:
            raise ValueError("edge repetition count must match the layer")
        self.enc_w[j, i] = p.enc_w
        self.enc_b[j, i] = p.enc_b
        self.angles[j, i] = p.angles
        self.w_base[j, i] = p.w_base
        self.w_quant[j, i] = p.w_quant
        self.out_bias[j, i] = p.out_bias

    def forward(self, x, tape: list | None = None) -> np.ndarray:
        """y_j = sum_i phi_{j,i}(x_i); x (B, n_in) -> (B, n_out).

        When `tape` is a list, (x, circuit tape) is appended to it for
        backward.
        """
        x, squeeze = _as_batch(x, self.n_in, "layer input")
        f, circuit_tape = daruan.circuit_forward(
            self.enc_w, self.enc_b, self.angles, x, tape is not None)
        if tape is not None:
            tape.append((x, circuit_tape))
        phi = (self.w_base[None] * silu(x)[:, None, :]
               + self.w_quant[None] * f
               + self.out_bias[None])
        y = phi.sum(axis=2)
        return y[0] if squeeze else y

    def backward(self, x: np.ndarray, upstream: np.ndarray,
                 circuit_tape: daruan.CircuitTape | None = None):
        """Gradients of sum_b upstream[b] . forward(x[b]).

        `circuit_tape` is the one that forward recorded for this x;
        without it the circuit forward runs again here.
        Returns (grads: LayerGrads, d_x: (B, n_in)).
        """
        if circuit_tape is None:
            _, circuit_tape = daruan.circuit_forward(
                self.enc_w, self.enc_b, self.angles, x, True)
        upq = upstream[:, :, None] * self.w_quant[None]   # (B, n_out, n_in)
        g_theta, g_beta, g_alpha0 = daruan.circuit_adjoint(
            self.angles, circuit_tape, upq)
        # theta_l = w_l x + b_l + gamma_l + alpha_{l+1}; gamma_r has no effect
        g_b = np.moveaxis(g_theta.sum(axis=1), 0, -1)      # (n_out, n_in, r)
        g_ang = np.zeros_like(self.angles)
        g_ang[:, :, 0, 0] = g_alpha0.sum(axis=0)
        g_ang[:, :, 1:, 0] = g_b
        g_ang[:, :, :, 1] = np.moveaxis(g_beta.sum(axis=1), 0, -1)
        g_ang[:, :, :-1, 2] = g_b
        grads = LayerGrads(
            enc_w=np.einsum("lbnm,bm->nml", g_theta, x),
            enc_b=g_b,
            angles=g_ang,
            w_base=upstream.T @ silu(x),
            w_quant=np.einsum("bn,bnm->nm", upstream, circuit_tape.final[2]),
            out_bias=np.repeat(upstream.sum(axis=0)[:, None], self.n_in,
                               axis=1),
        )
        d_x = (np.einsum("lbnm,nml->bm", g_theta, self.enc_w)
               + (upstream @ self.w_base) * silu_grad(x))
        return grads, d_x

    def extend(self, new_r: int) -> None:
        """In-place layer extension with identity-initialized blocks."""
        if new_r <= self.r:
            raise ValueError(f"new_r must exceed current r={self.r}")
        extra = new_r - self.r
        n, m = self.n_out, self.n_in
        self.enc_w = np.concatenate([self.enc_w, np.zeros((n, m, extra))], axis=2)
        self.enc_b = np.concatenate([self.enc_b, np.zeros((n, m, extra))], axis=2)
        self.angles = np.concatenate(
            [self.angles, np.zeros((n, m, extra, 3))], axis=2)

    def param_count(self) -> int:
        return self.n_out * self.n_in * (5 * self.r + 6)

    def copy(self) -> "QkanLayer":
        return QkanLayer(self.enc_w.copy(), self.enc_b.copy(),
                         self.angles.copy(), self.w_base.copy(),
                         self.w_quant.copy(), self.out_bias.copy())


@dataclass
class LayerGrads:
    enc_w: np.ndarray
    enc_b: np.ndarray
    angles: np.ndarray
    w_base: np.ndarray
    w_quant: np.ndarray
    out_bias: np.ndarray


@dataclass
class LinearLayer:
    """Plain affine map y = W x + b."""

    weight: np.ndarray   # (n_out, n_in)
    bias: np.ndarray     # (n_out,)

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def init(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "LinearLayer":
        bound = 1.0 / np.sqrt(n_in)
        return cls(weight=rng.uniform(-bound, bound, size=(n_out, n_in)),
                   bias=np.zeros(n_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T + self.bias

    def backward(self, x: np.ndarray, upstream: np.ndarray):
        d_w = upstream.T @ x
        d_b = upstream.sum(axis=0)
        d_x = upstream @ self.weight
        return (d_w, d_b), d_x

    def param_count(self) -> int:
        return self.weight.size + self.bias.size

    def copy(self) -> "LinearLayer":
        return LinearLayer(self.weight.copy(), self.bias.copy())


@dataclass
class NetworkGrads:
    layers: list
    encoder: tuple | None
    decoder: tuple | None
    d_input: np.ndarray


@dataclass
class QkanNetwork:
    """Composition of QKAN layers with optional linear encoder/decoder."""

    layers: list
    encoder: LinearLayer | None = None
    decoder: LinearLayer | None = None

    def __post_init__(self):
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ValueError("adjacent layer dimensions are inconsistent")
        if self.encoder is not None and self.layers \
                and self.encoder.n_out != self.layers[0].n_in:
            raise ValueError("encoder output must match the first layer input")
        if self.decoder is not None and self.layers \
                and self.decoder.n_in != self.layers[-1].n_out:
            raise ValueError("decoder input must match the last layer output")

    @property
    def shape(self) -> list[int]:
        return [self.layers[0].n_in] + [lay.n_out for lay in self.layers]

    @property
    def in_dim(self) -> int:
        return self.encoder.n_in if self.encoder else self.layers[0].n_in

    @property
    def out_dim(self) -> int:
        return self.decoder.n_out if self.decoder else self.layers[-1].n_out

    @classmethod
    def init(cls, shape: list[int], r: int, rng: np.random.Generator,
             angle_scale: float = 0.1, geometric: bool = True) -> "QkanNetwork":
        if len(shape) < 2:
            raise ValueError("shape needs at least input and output widths")
        layers = [QkanLayer.init(shape[i], shape[i + 1], r, rng,
                                 angle_scale, geometric)
                  for i in range(len(shape) - 1)]
        return cls(layers=layers)

    def forward(self, x, tape: list | None = None) -> np.ndarray:
        """Network outputs. When `tape` is a list, it receives each
        stage's input and each QKAN layer's circuit tape, so that
        backward(x, upstream, tape) needs no second forward pass."""
        x, squeeze = _as_batch(x, self.in_dim, "network input")
        if self.encoder is not None:
            if tape is not None:
                tape.append(x)
            x = self.encoder.forward(x)
        for layer in self.layers:
            x = layer.forward(x, tape)
        if self.decoder is not None:
            if tape is not None:
                tape.append(x)
            x = self.decoder.forward(x)
        return x[0] if squeeze else x

    def backward(self, x, upstream, tape: list | None = None) -> NetworkGrads:
        """Gradients of sum_b upstream[b] . forward(x[b]) for every
        trainable scalar, plus the input derivative.

        `tape` is the list filled by forward(x, tape); backward empties
        it, releasing each layer's tape once used. When it is missing or
        empty, the forward pass runs here first.
        """
        x, _ = _as_batch(x, self.in_dim, "network input")
        upstream, _ = _as_batch(upstream, self.out_dim, "upstream")
        if upstream.shape[0] != x.shape[0]:
            raise ValueError("upstream batch size must match the input")
        if not tape:
            tape = []
            self.forward(x, tape)

        up = upstream
        dec_grads = None
        if self.decoder is not None:
            dec_grads, up = self.decoder.backward(tape.pop(), up)
        layer_grads = [None] * len(self.layers)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer_x, circuit_tape = tape.pop()
            layer_grads[idx], up = self.layers[idx].backward(
                layer_x, up, circuit_tape)
        enc_grads = None
        if self.encoder is not None:
            enc_grads, up = self.encoder.backward(tape.pop(), up)
        return NetworkGrads(layers=layer_grads, encoder=enc_grads,
                            decoder=dec_grads, d_input=up)

    def extend(self, new_r: int) -> None:
        for layer in self.layers:
            layer.extend(new_r)

    def param_count(self) -> int:
        total = sum(layer.param_count() for layer in self.layers)
        if self.encoder is not None:
            total += self.encoder.param_count()
        if self.decoder is not None:
            total += self.decoder.param_count()
        return total

    def copy(self) -> "QkanNetwork":
        return QkanNetwork(
            layers=[lay.copy() for lay in self.layers],
            encoder=self.encoder.copy() if self.encoder else None,
            decoder=self.decoder.copy() if self.decoder else None,
        )

    # Flat parameter vector, ordered: encoder (weight row-major, bias),
    # then per layer enc_w, enc_b, angles, w_base, w_quant, out_bias
    # (each raveled row-major over (out, in)), then decoder.

    def param_vector(self) -> np.ndarray:
        parts = []
        if self.encoder is not None:
            parts += [self.encoder.weight.ravel(), self.encoder.bias]
        for lay in self.layers:
            parts += [lay.enc_w.ravel(), lay.enc_b.ravel(), lay.angles.ravel(),
                      lay.w_base.ravel(), lay.w_quant.ravel(),
                      lay.out_bias.ravel()]
        if self.decoder is not None:
            parts += [self.decoder.weight.ravel(), self.decoder.bias]
        return np.concatenate(parts)

    def set_param_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.param_count():
            raise ValueError(f"expected {self.param_count()} parameters, "
                             f"got {vec.size}")
        pos = 0

        def take(arr):
            nonlocal pos
            arr[...] = vec[pos:pos + arr.size].reshape(arr.shape)
            pos += arr.size

        if self.encoder is not None:
            take(self.encoder.weight)
            take(self.encoder.bias)
        for lay in self.layers:
            take(lay.enc_w)
            take(lay.enc_b)
            take(lay.angles)
            take(lay.w_base)
            take(lay.w_quant)
            take(lay.out_bias)
        if self.decoder is not None:
            take(self.decoder.weight)
            take(self.decoder.bias)

    def grad_vector(self, grads: NetworkGrads) -> np.ndarray:
        parts = []
        if grads.encoder is not None:
            parts += [grads.encoder[0].ravel(), grads.encoder[1]]
        for g in grads.layers:
            parts += [g.enc_w.ravel(), g.enc_b.ravel(), g.angles.ravel(),
                      g.w_base.ravel(), g.w_quant.ravel(), g.out_bias.ravel()]
        if grads.decoder is not None:
            parts += [grads.decoder[0].ravel(), grads.decoder[1]]
        return np.concatenate(parts)


def latent_dim(d: int) -> int:
    """HQKAN bottleneck width: floor(log2(d)) + 1 with a floor of 2."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return max(2, int(d).bit_length())


def make_hqkan(in_dim: int, out_dim: int, r: int, hidden_shape=(),
               rng: np.random.Generator | None = None,
               angle_scale: float = 0.1, geometric: bool = True) -> QkanNetwork:
    """Linear compressor -> QKAN core -> linear expander.

    The core runs over [latent(in_dim), *hidden_shape, latent(out_dim)].
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError("in_dim and out_dim must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    lat_in, lat_out = latent_dim(in_dim), latent_dim(out_dim)
    core_shape = [lat_in, *hidden_shape, lat_out]
    net = QkanNetwork.init(core_shape, r, rng, angle_scale, geometric)
    net.encoder = LinearLayer.init(in_dim, lat_in, rng)
    net.decoder = LinearLayer.init(lat_out, out_dim, rng)
    return net


def param_count(net: QkanNetwork) -> int:
    """Exact trainable-scalar count: 5r+6 per edge plus linear layers."""
    return net.param_count()
