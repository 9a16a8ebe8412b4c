"""One activation edge run as the 1x1 QkanLayer that the library uses
for it, and the parameter-shift rule as an independent gradient oracle.

QkanLayer.of_edge wraps a DaruanParams in a layer of views and
get_edge(0, 0) copies it back out, so these helpers call the layer's
own forward, backward and extend on a one-row batch.
"""

from copy import deepcopy

import numpy as np

from qkan.daruan import DaruanParams
from qkan.network import QkanLayer


def _one(v) -> np.ndarray:
    """v as a (1, 1) batch."""
    return np.array([[v]], dtype=np.float64)


def edge_forward(p: DaruanParams, x: float) -> float:
    """w_base * silu(x) + w_quant * <Z>(x) + out_bias."""
    return float(QkanLayer.of_edge(p).forward(_one(x))[0, 0])


def edge_backward(p: DaruanParams, x: float, upstream: float = 1.0):
    """Exact derivatives of upstream * edge_forward(p, x): the parameter
    gradients as a DaruanParams of the same shapes, and d/dx."""
    layer, tape = QkanLayer.of_edge(p), []
    layer.forward(_one(x), tape)
    grads = [np.empty(a.shape) for a in layer.arrays()]
    d_input = layer.backward(tape[0], _one(upstream), grads)
    return QkanLayer(*grads).get_edge(0, 0), float(d_input[0, 0])


def edge_extend(p: DaruanParams, new_r: int) -> DaruanParams:
    """p grown to new_r repetitions by QkanLayer.extend."""
    layer = QkanLayer.of_edge(p)
    layer.extend(new_r)
    return layer.get_edge(0, 0)


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
        q = deepcopy(p)
        if kind == "angle":
            _, l, k = which
            q.angles[l, k] += delta
        else:
            l = which[1]
            q.enc_b[l] += delta   # shifts the rotation argument u_l
        return edge_forward(q, x)

    g = 0.5 * (shifted(np.pi / 2) - shifted(-np.pi / 2))
    if kind == "enc_w":
        g *= x
    return g
