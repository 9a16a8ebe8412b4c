"""One trainable activation edge: weighted data re-uploading circuit.

The circuit applied to the Hadamard-initialized state is

    W^(r+1) . S(u_r) W^(r) ... S(u_1) W^(1),   u_l = w_l x + b_l,

with S(u) = rz(u) (generator sigma_z / 2) and each trainable unitary a
rz(gamma) ry(beta) rz(alpha) Euler triple, so zero angles give the
identity. The edge output is

    phi(x) = w_base * silu(x) + w_quant * <Z> + out_bias.

Every edge keeps all 5r+6 of these parameters, but the kernel runs the
equivalent merged form: the z-rotations rz(gamma_l) S(u_l) rz(alpha_{l+1})
are adjacent, so they act as one rotation by

    theta_l = w_l x + b_l + gamma_l + alpha_{l+1},

and the edge is ry(beta_r) rz(theta_{r-1}) ... rz(theta_0) ry(beta_0)
applied to rz(alpha_0)|+>, simulated as a real Bloch vector. The final
rz(gamma_r) cannot change <Z>.

Each rz(theta_l) needs cos theta_l and sin theta_l. The kernel takes one
tan per angle instead: with t = tan(theta_l / 2),

    cos theta_l = (1 - t^2) / (1 + t^2),   sin theta_l = 2 t / (1 + t^2).

Halving an angle is exact, t^2 cannot overflow for a finite angle, and
float64 tan is vectorized in numpy where cos and sin may not be.

Gradients are exact. One forward pass records t for every theta_l plus
the final Bloch vector; the adjoint sweep rebuilds cos and sin, undoes
each rotation instead of storing the intermediate states, and sums over
the batch as it walks back. It writes each gradient in its parameter's
layout, that of circuit_forward's inputs: gamma_l, alpha_{l+1} and b_l
each get d/dtheta_l, w_l gets sum_b x_b d/dtheta_l, beta_l and alpha_0
their own, and gamma_r exactly 0; it returns input x_m's, sum_{n,l} w_l
d/dtheta_l. Every parameter enters one rotation with unit coefficient,
so parameter shift is exact.

Batched routines operate on stacked edge parameters with shape
(N, M, ...) and inputs (B, M). The kernel keeps the batch last: its
Bloch vectors, tape and adjoint weights are (N, M, B) arrays, and each
per-edge value is a (N, M, 1) table entry that broadcasts along the
contiguous batch axis. circuit_expectation and circuit_gradients return
(B, N, M, ...) results. A single edge is a 1x1 QkanLayer: of_edge
wraps a DaruanParams and get_edge(0, 0) takes it back out, so one edge
runs through the layer's forward, backward and extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def silu(x):
    """x * sigmoid(x)."""
    # exp(-x) is inf for x < -709, which yields the exact limit -0.0
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def silu_grad(x):
    """d/dx silu(x) = sigmoid(x) * (1 + x * (1 - sigmoid(x)))."""
    # exp(-x) is inf for x < -709, which yields the exact limit 0
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


@dataclass
class DaruanParams:
    """All trainable scalars of one activation edge."""

    enc_w: np.ndarray          # (r,) data pre-processing weights
    enc_b: np.ndarray          # (r,) data pre-processing biases
    angles: np.ndarray         # (r+1, 3) Euler angles of W^(1)..W^(r+1)
    w_base: float = 1.0
    w_quant: float = 1.0
    out_bias: float = 0.0

    def __post_init__(self):
        self.enc_w = np.asarray(self.enc_w, dtype=np.float64)
        self.enc_b = np.asarray(self.enc_b, dtype=np.float64)
        self.angles = np.asarray(self.angles, dtype=np.float64)
        if self.enc_w.ndim != 1 or self.enc_w.size < 1:
            raise ValueError("enc_w must be a nonempty 1-D array")
        r = self.enc_w.size
        if self.enc_b.shape != (r,):
            raise ValueError(f"enc_b must have shape ({r},)")
        if self.angles.shape != (r + 1, 3):
            raise ValueError(f"angles must have shape ({r + 1}, 3)")
        for name, v in (("enc_w", self.enc_w), ("enc_b", self.enc_b),
                        ("angles", self.angles)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} contains non-finite values")
        for name, v in (("w_base", self.w_base), ("w_quant", self.w_quant),
                        ("out_bias", self.out_bias)):
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")


def init_daruan(r: int, rng: np.random.Generator, angle_scale: float = 0.1,
                geometric: bool = True) -> DaruanParams:
    """Default initialization: small random angles, geometric encoding
    weights w_l = 2^(l-1) (unit weights when geometric=False): the
    edge of a 1x1 QkanLayer.init."""
    from .network import QkanLayer   # here, since network imports this module
    return QkanLayer.init(1, 1, r, rng, angle_scale, geometric).get_edge(0, 0)


# --- batched circuit core ---------------------------------------------------
#
# On the Bloch vector v = (<X>, <Y>, <Z>), rz(t) and ry(t) are rotations
# by t about the z and y axes, |+> is (1, 0, 0) and the readout is v_z, so
# rz(alpha_0)|+> = (cos alpha_0, sin alpha_0, 0) is computed once per edge.


class CircuitTape(NamedTuple):
    """What the adjoint sweep needs from one forward pass."""

    tan_half: np.ndarray    # (r, N, M, B) tan(theta_l / 2)
    final: tuple            # Bloch vector (v_x, v_y, v_z) after the last gate


def _cos_sin(t, out):
    """cos and sin of theta from t = tan(theta / 2), written into the two
    buffers `out` (shaped like t), which are returned."""
    c, s = out
    np.multiply(t, t, out=c)
    np.add(c, 1.0, out=s)
    np.divide(1.0, s, out=s)      # 1 / (1 + t^2)
    np.subtract(1.0, c, out=c)
    c *= s
    s *= t
    s *= 2.0
    return out


def _rotate(a, b, c, s, work):
    """In place (a, b) <- (a c - b s, a s + b c): a plane rotation of the
    vector components a, b by the angle whose cosine and sine are c, s.
    `work` holds two buffers shaped like a."""
    bs, as_ = work
    np.multiply(b, s, out=bs)
    np.multiply(a, s, out=as_)
    a *= c
    a -= bs
    b *= c
    b += as_


def _table(a):
    """A per-edge table (N, M, k) as a contiguous (k, N, M, 1) array, whose
    entries broadcast along the batch axis of (N, M, B) arrays."""
    return a.transpose(2, 0, 1).copy()[..., None]


def _cos_sin_tables(beta):
    """cos and sin of the per-edge angles beta (N, M, k), as tables."""
    s = _table(beta)
    return np.cos(s), np.sin(s, out=s)


def theta_offsets(enc_b, angles):
    """b_l + gamma_l + alpha_{l+1} for l < r: the part of each merged
    angle theta_l that does not depend on x, for enc_b (..., r) and
    angles (..., r+1, 3) of any common leading shape."""
    return enc_b + angles[..., :-1, 2] + angles[..., 1:, 0]


def circuit_forward(enc_w, enc_b, angles, x):
    """Run the batched circuit.

    enc_w, enc_b: (N, M, r); angles: (N, M, r+1, 3); x: (B, M).
    Returns (expectations (N, M, B), the CircuitTape of this pass for
    circuit_adjoint). The tape holds the working arrays of the pass, so
    it costs no copy; a caller that needs no gradient drops it.
    """
    r = enc_w.shape[2]
    alpha0 = angles[..., 0, 0, None]                     # (N, M, 1)
    # theta_l / 2 = (w_l / 2) x + (b_l + gamma_l + alpha_{l+1}) / 2, exactly
    offset = 0.5 * _table(theta_offsets(enc_b, angles))
    # x.T copied: a contiguous (M, B) x broadcasts over the (r, N, M, 1)
    # table in longer inner loops than the strided view does
    tan_half = np.multiply(0.5 * _table(enc_w), x.T.copy())  # (r, N, M, B)
    tan_half += offset
    np.tan(tan_half, out=tan_half)
    cb, sb = _cos_sin_tables(angles[..., 1])             # (r+1, N, M, 1)

    shape = tan_half.shape[1:]
    ca0 = np.cos(alpha0)
    vx, vy, vz = np.empty(shape), np.empty(shape), np.empty(shape)
    vx[...] = ca0 * cb[0]
    vy[...] = np.sin(alpha0)
    vz[...] = -ca0 * sb[0]
    work = (np.empty(shape), np.empty(shape))
    cs = (np.empty(shape), np.empty(shape))
    for l in range(r):
        _rotate(vx, vy, *_cos_sin(tan_half[l], cs), work)    # rz(theta_l)
        _rotate(vz, vx, cb[l + 1], sb[l + 1], work)          # ry(beta_l+1)
    return vz, CircuitTape(tan_half, (vx, vy, vz))


def circuit_adjoint(enc_w, angles, tape: CircuitTape, x, weights, out):
    """Adjoint sweep over a forward tape, with no second forward pass:
    the vector-Jacobian product of circuit_forward.

    enc_w (N, M, r), angles and x (B, M) are the forward pass's; weights
    is an array (N, M, B) or a scalar such as 1.0. The derivatives of
    sum_b weights * <Z>, summed over the batch, are written into
    out = (g_enc_w, g_enc_b, g_angles), arrays shaped like enc_w, enc_b
    and angles; the input derivative d_x (B, M) is returned.

    For a rotation by t about axis n, d<Z>/dt = n . (v x lam), where v
    is the state and lam the back-propagated readout (weights * e_z),
    both taken right after the gate. Rotations preserve cross products,
    so the sweep carries only c = v x lam and undoes each rotation on
    it: d/dtheta_l is c_z and d/dbeta_l is c_y, each summed over the batch
    (the last, contiguous axis) at its step. Undoing rz(theta_l) rebuilds
    its cos and sin from the tape's tan(theta_l / 2).
    """
    tan_half, (vx, vy, _) = tape
    r = tan_half.shape[0]
    g_enc_w, g_enc_b, g_angles = out
    cb, sb = _cos_sin_tables(angles[..., 1])
    cx, cy, cz = weights * vy, -weights * vx, np.zeros(vx.shape)
    work = (np.empty(vx.shape), np.empty(vx.shape))
    cs = (np.empty(vx.shape), np.empty(vx.shape))
    d_x = np.zeros(x.shape[::-1])         # (M, B), transposed on return
    for l in range(r, -1, -1):
        np.add.reduce(cy, axis=-1, out=g_angles[..., l, 1])
        _rotate(cx, cz, cb[l], sb[l], work)                 # undo ry(beta_l)
        if l > 0:
            np.add.reduce(cz, axis=-1, out=g_enc_b[..., l - 1])
            np.einsum("nmb,bm->nm", cz, x, out=g_enc_w[..., l - 1])
            d_x += np.einsum("nmb,nm->mb", cz, enc_w[..., l - 1])
            _rotate(cy, cx, *_cos_sin(tan_half[l - 1], cs), work)  # undo rz
    np.add.reduce(cz, axis=-1, out=g_angles[..., 0, 0])
    # b_l, gamma_l and alpha_{l+1} enter theta_l with unit coefficient
    g_angles[..., 1:, 0] = g_enc_b
    g_angles[..., :-1, 2] = g_enc_b
    g_angles[..., -1, 2] = 0.0
    return d_x.T.copy()


def circuit_expectation(enc_w, enc_b, angles, x):
    """Batched <Z> of the circuit, shape (B, N, M): a transposed view of
    circuit_forward's (N, M, B) output."""
    f, _ = circuit_forward(enc_w, enc_b, angles, x)
    return f.transpose(2, 0, 1)


def circuit_gradients(enc_w, enc_b, angles, x):
    """Exact per-sample derivatives of <Z> for every circuit parameter.

    Returns (f, g_enc, g_ang) with f (B, N, M), g_enc (B, N, M, r) the
    derivative with respect to each encoding gate's total rotation
    angle u_l = w_l x + b_l, which is b_l's, and g_ang (B, N, M, r+1, 3)
    the Euler-angle derivatives. Each (sample, edge) pair runs as one
    edge of a one-row batch, so circuit_adjoint's sums are single terms,
    written into arrays that reshape to these.
    """
    (b, m), n = x.shape, enc_w.shape[0]
    shape, k = (b, n, m), b * n * m
    rows = [np.broadcast_to(a, (b,) + a.shape).reshape((1, k) + a.shape[2:])
            for a in (enc_w, enc_b, angles)]
    x_row = np.broadcast_to(x[:, None], shape).reshape(1, k)
    f, tape = circuit_forward(*rows, x_row)
    out = [np.empty(a.shape) for a in rows]
    circuit_adjoint(rows[0], rows[2], tape, x_row, 1.0, out)
    _, g_enc, g_ang = (a.reshape(shape + a.shape[2:]) for a in out)
    return f.reshape(shape), g_enc, g_ang


def raw_expectation(p: DaruanParams, x: float) -> float:
    """Pauli-Z expectation of the circuit on the Hadamard-initialized
    state; always in [-1, 1]."""
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    return float(circuit_expectation(
        p.enc_w[None, None], p.enc_b[None, None], p.angles[None, None],
        np.array([[x]], dtype=np.float64))[0, 0, 0])
