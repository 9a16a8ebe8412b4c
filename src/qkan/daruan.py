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

Gradients are exact. One forward pass records cos and sin of every
theta_l plus the final Bloch vector; the adjoint sweep then undoes each
rotation instead of storing the intermediate states. It yields
derivatives with respect to theta_l, beta_l and alpha_0, which scatter
back to the parameters: gamma_l, alpha_{l+1} and b_l each get
d/dtheta_l, w_l gets x * d/dtheta_l, the input gets sum_l w_l d/dtheta_l
and gamma_r gets exactly 0. Every parameter still enters one rotation
with unit coefficient, so the parameter-shift rule stays exact.

Batched routines operate on stacked edge parameters with shape
(N, M, ...) and inputs (B, M), producing (B, N, M) outputs. A single
edge is a 1x1 QkanLayer (QkanLayer.of_edge), so the scalar API below
runs the layer's forward, backward, extension and initialisation.
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

    @property
    def r(self) -> int:
        return self.enc_w.size

    def copy(self) -> "DaruanParams":
        return _edge_layer(self).get_edge(0, 0)


@dataclass
class DaruanGrad:
    """Gradient mirror of DaruanParams plus the input derivative."""

    enc_w: np.ndarray
    enc_b: np.ndarray
    angles: np.ndarray
    w_base: float
    w_quant: float
    out_bias: float
    d_input: float


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

    cos_theta: np.ndarray   # (r, B, N, M)
    sin_theta: np.ndarray   # (r, B, N, M)
    final: tuple            # Bloch vector (v_x, v_y, v_z) after the last gate


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


def circuit_forward(enc_w, enc_b, angles, x, keep_states=False):
    """Run the batched circuit.

    enc_w, enc_b: (N, M, r); angles: (N, M, r+1, 3); x: (B, M).
    Returns (expectations (B, N, M), tape or None). When keep_states is
    set, the CircuitTape of this pass is returned for circuit_adjoint.
    """
    r = enc_w.shape[2]
    alpha, beta = angles[..., 0], angles[..., 1]
    offset = np.moveaxis(enc_b + angles[..., :r, 2] + alpha[..., 1:], -1, 0)
    w = np.ascontiguousarray(np.moveaxis(enc_w, -1, 0))   # (r, N, M)
    theta = np.multiply(w[:, None], x[None, :, None, :])  # (r, B, N, M)
    theta += offset[:, None]
    cos_t = np.cos(theta)
    sin_t = np.sin(theta, out=theta)
    cb, sb = np.cos(beta), np.sin(beta)                   # (N, M, r+1)

    shape = cos_t.shape[1:]
    ca0 = np.cos(alpha[..., 0])
    vx, vy, vz = np.empty(shape), np.empty(shape), np.empty(shape)
    vx[...] = ca0 * cb[..., 0]
    vy[...] = np.sin(alpha[..., 0])
    vz[...] = -ca0 * sb[..., 0]
    work = (np.empty(shape), np.empty(shape))
    for l in range(r):
        _rotate(vx, vy, cos_t[l], sin_t[l], work)              # rz(theta_l)
        _rotate(vz, vx, cb[..., l + 1], sb[..., l + 1], work)  # ry(beta_l+1)
    tape = CircuitTape(cos_t, sin_t, (vx, vy, vz)) if keep_states else None
    return vz, tape


def circuit_adjoint(angles, tape: CircuitTape, weights=None):
    """Adjoint sweep over a forward tape, with no second forward pass.

    Returns per-sample derivatives of weights * <Z>: g_theta (r, B, N, M)
    for the merged angles, g_beta (r+1, B, N, M) and g_alpha0 (B, N, M).
    weights (B, N, M) defaults to 1.

    For a rotation by t about axis n, d<Z>/dt = n . (v x lam), where v
    is the state and lam the back-propagated readout (weights * e_z),
    both taken right after the gate. Rotations preserve cross products,
    so the sweep carries only c = v x lam and undoes each rotation on
    it: the derivative of rz(theta_l) is c_z, that of ry(beta_l) is c_y.
    """
    cos_t, sin_t, (vx, vy, _) = tape
    r = cos_t.shape[0]
    beta = angles[..., 1]
    cb, sb = np.cos(beta), np.sin(beta)
    w = 1.0 if weights is None else weights
    cx, cy, cz = w * vy, -w * vx, np.zeros(vx.shape)
    work = (np.empty(vx.shape), np.empty(vx.shape))
    g_theta = np.empty(cos_t.shape)
    g_beta = np.empty((r + 1,) + vx.shape)
    for l in range(r, -1, -1):
        g_beta[l] = cy
        _rotate(cx, cz, cb[..., l], sb[..., l], work)       # undo ry(beta_l)
        if l > 0:
            g_theta[l - 1] = cz
            _rotate(cy, cx, cos_t[l - 1], sin_t[l - 1], work)  # undo rz(theta)
    return g_theta, g_beta, cz


def circuit_expectation(enc_w, enc_b, angles, x):
    """Batched <Z> of the circuit, shape (B, N, M)."""
    f, _ = circuit_forward(enc_w, enc_b, angles, x)
    return f


def angle_grads(g_theta, g_beta, g_alpha0, out):
    """Scatter merged-angle derivatives onto the Euler angles.

    g_theta (r, ...), g_beta (r+1, ...) and g_alpha0 (...) are the
    derivatives circuit_adjoint returns, for any common leading shape
    (...); they are written into out (..., r+1, 3), which is returned.
    theta_l = w_l x + b_l + gamma_l + alpha_{l+1}, so gamma_l and
    alpha_{l+1} both get d/dtheta_l; gamma_r gets exactly 0.
    """
    g_t = np.moveaxis(g_theta, 0, -1)
    out[..., 0, 0] = g_alpha0
    out[..., 1:, 0] = g_t
    out[..., :, 1] = np.moveaxis(g_beta, 0, -1)
    out[..., :-1, 2] = g_t
    out[..., -1, 2] = 0.0
    return out


def circuit_gradients(enc_w, enc_b, angles, x):
    """Exact per-sample derivatives of <Z> for every circuit parameter.

    Returns (f, g_enc, g_ang) with f (B, N, M), g_enc (B, N, M, r) the
    derivative with respect to each encoding gate's total rotation
    angle u_l = w_l x + b_l, and g_ang (B, N, M, r+1, 3) the Euler-angle
    derivatives from angle_grads.
    """
    r = enc_w.shape[2]
    f, tape = circuit_forward(enc_w, enc_b, angles, x, keep_states=True)
    g_theta, g_beta, g_alpha0 = circuit_adjoint(angles, tape)
    g_ang = angle_grads(g_theta, g_beta, g_alpha0,
                        np.empty(f.shape + (r + 1, 3)))
    return f, np.moveaxis(g_theta, 0, -1), g_ang


# --- scalar edge API --------------------------------------------------------


def _edge_layer(p: DaruanParams):
    """The 1x1 QkanLayer of views of p."""
    from .network import QkanLayer   # here, since network imports this module
    return QkanLayer.of_edge(p)


def _edge_input(x) -> np.ndarray:
    if not np.isfinite(x):
        raise ValueError("x must be finite")
    return np.array([[x]], dtype=np.float64)


def raw_expectation(p: DaruanParams, x: float) -> float:
    """Pauli-Z expectation of the circuit on the Hadamard-initialized
    state; always in [-1, 1]."""
    layer = _edge_layer(p)
    return float(circuit_expectation(layer.enc_w, layer.enc_b, layer.angles,
                                     _edge_input(x))[0, 0, 0])


def forward(p: DaruanParams, x: float) -> float:
    """w_base * silu(x) + w_quant * raw_expectation + out_bias."""
    return float(_edge_layer(p).forward(_edge_input(x))[0, 0])


def backward(p: DaruanParams, x: float, upstream: float = 1.0) -> DaruanGrad:
    """Exact derivatives of upstream * forward(p, x) for every field of
    p and for x."""
    layer, tape = _edge_layer(p), []
    layer.forward(_edge_input(x), tape)
    grads = [np.empty(a.shape) for a in layer.arrays()]
    d_input = layer.backward(tape[0], np.array([[upstream]], dtype=np.float64),
                             grads)
    return DaruanGrad(*(g[0, 0] if g.ndim > 2 else float(g[0, 0])
                        for g in grads), d_input=float(d_input[0, 0]))


def parameter_shift_grad(p: DaruanParams, x: float, which) -> float:
    """Parameter-shift oracle for rotation-generated parameters.

    `which` addresses one parameter: ("angle", l, k) with l in 0..r and
    k in {0, 1, 2}, ("enc_b", l), or ("enc_w", l). Returns
    [f(+pi/2 shift) - f(-pi/2 shift)] / 2 applied to the addressed
    rotation argument; for enc_w the result carries the chain factor x.
    w_base, w_quant and out_bias are not rotation-generated and are
    rejected.
    """
    kind = which[0]
    if kind not in ("angle", "enc_b", "enc_w"):
        raise ValueError(f"parameter {which!r} is not rotation-generated")

    def shifted(delta: float) -> float:
        q = p.copy()
        if kind == "angle":
            _, l, k = which
            q.angles[l, k] += delta
        else:
            l = which[1]
            q.enc_b[l] += delta   # shifts the rotation argument u_l
        return forward(q, x)

    g = 0.5 * (shifted(np.pi / 2) - shifted(-np.pi / 2))
    if kind == "enc_w":
        g *= x
    return g


def extend(p: DaruanParams, new_r: int) -> DaruanParams:
    """Append identity-initialized encoding blocks and unitaries.

    New angles, enc_b and enc_w are all zero, so the appended gates act
    trivially and forward(extend(p), x) == forward(p, x) exactly.
    """
    layer = _edge_layer(p)
    layer.extend(new_r)
    return layer.get_edge(0, 0)
