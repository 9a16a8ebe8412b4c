"""Correctness oracles that share no code with `qkan`.

Each check returns a list of failure messages; an empty list means the
program's output agrees with the oracle. The oracles read qkan objects
only for their parameter arrays, never call qkan to compute a value.
"""

from __future__ import annotations

import numpy as np
from scipy.interpolate import BSpline


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _rz(theta):
    """Stack of 2x2 z-rotations exp(-i theta Z / 2), shape theta.shape + (2, 2)."""
    m = np.zeros(np.shape(theta) + (2, 2), dtype=np.complex128)
    m[..., 0, 0] = np.exp(-0.5j * theta)
    m[..., 1, 1] = np.exp(0.5j * theta)
    return m


def _ry(theta):
    """Stack of 2x2 y-rotations exp(-i theta Y / 2)."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    m = np.empty(np.shape(theta) + (2, 2), dtype=np.complex128)
    m[..., 0, 0], m[..., 0, 1] = c, -s
    m[..., 1, 0], m[..., 1, 1] = s, c
    return m


def dense_expectation(enc_w, enc_b, angles, x):
    """<Z> of every edge by explicit 2x2 unitary products.

    enc_w, enc_b: (N, M, r); angles: (N, M, r+1, 3); x: (B, M).
    The circuit on |+> is, per block l, rz(alpha_l) ry(beta_l)
    rz(gamma_l) then rz(w_l x + b_l); a final Euler triple closes it.
    Returns (B, N, M).
    """
    n, m, r = enc_w.shape
    b = x.shape[0]
    u = np.broadcast_to(np.eye(2, dtype=np.complex128), (b, n, m, 2, 2))
    for l in range(r + 1):
        u = _rz(angles[..., l, 0]) @ u
        u = _ry(angles[..., l, 1]) @ u
        u = _rz(angles[..., l, 2]) @ u
        if l < r:
            u = _rz(enc_w[..., l] * x[:, None, :] + enc_b[..., l]) @ u
    psi = u @ (np.ones(2, dtype=np.complex128) / np.sqrt(2.0))
    return np.abs(psi[..., 0]) ** 2 - np.abs(psi[..., 1]) ** 2


def dense_network_forward(net, x):
    """Node outputs of a QKAN network (with optional linear encoder and
    decoder) computed from the dense edge simulation."""
    h = np.asarray(x, dtype=np.float64)
    if net.encoder is not None:
        h = h @ net.encoder.weight.T + net.encoder.bias
    for lay in net.layers:
        z = dense_expectation(lay.enc_w, lay.enc_b, lay.angles, h)
        phi = (lay.w_base[None] * _silu(h)[:, None, :] + lay.w_quant[None] * z
               + lay.out_bias[None])
        h = phi.sum(axis=2)
    if net.decoder is not None:
        h = h @ net.decoder.weight.T + net.decoder.bias
    return h


def check_network(net, x, program_out, tol=1e-10) -> list:
    """Program's network outputs on x against the dense simulation."""
    ref = dense_network_forward(net, x)
    err = float(np.max(np.abs(np.asarray(program_out) - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if not err <= tol * scale:
        return [f"network output differs from the dense 2x2 simulation by "
                f"{err:.3e} (bound {tol * scale:.1e})"]
    return []


def check_edges(edges, program_z, tol=1e-12) -> list:
    """Per-edge <Z>: edges is a list of (enc_w, enc_b, angles, xs), and
    program_z the matching list of program expectations over xs."""
    fails = []
    for k, ((w, b, ang, xs), z) in enumerate(zip(edges, program_z)):
        ref = dense_expectation(w[None, None], b[None, None], ang[None, None],
                                np.asarray(xs, dtype=np.float64)[:, None])[:, 0, 0]
        err = float(np.max(np.abs(np.asarray(z) - ref)))
        if not err <= tol:
            fails.append(f"edge {k}: <Z> differs from the dense 2x2 "
                         f"simulation by {err:.3e} (bound {tol:.0e})")
    return fails


def check_gradient(loss_at, params, loss, grad, direction, h=1e-5,
                   rtol=1e-5, atol=1e-8) -> list:
    """Central finite difference of the loss along `direction` against the
    directional derivative grad . direction, and the loss value itself.

    loss_at(params) must compute the loss without the gradient path. The
    difference is Richardson-extrapolated from steps h and h/2: encoding
    weights up to 2^(r-1) make the loss oscillate fast enough along some
    directions that a plain central difference errs by ~1e-4 at r=10.
    """
    fails = []
    l0 = loss_at(params)
    if not abs(l0 - loss) <= 1e-12 * max(1.0, abs(l0)):
        fails.append(f"fg loss {loss!r} differs from the recomputed loss {l0!r}")

    def central(step):
        return (loss_at(params + step * direction)
                - loss_at(params - step * direction)) / (2 * step)

    fd = (4.0 * central(0.5 * h) - central(h)) / 3.0
    an = float(np.dot(grad, direction))
    if not abs(fd - an) <= rtol * abs(fd) + atol:
        fails.append(f"directional derivative {an:.12e} differs from the "
                     f"central difference {fd:.12e}")
    return fails


def spline_network_forward(spline_net, x):
    """Spline network outputs with every edge evaluated by scipy's BSpline."""
    h = np.asarray(x, dtype=np.float64)
    if spline_net.encoder is not None:
        h = h @ spline_net.encoder.weight.T + spline_net.encoder.bias
    for grid in spline_net.edges:
        y = np.zeros((h.shape[0], len(grid)))
        for j, row in enumerate(grid):
            for i, e in enumerate(row):
                xi = h[:, i]
                spline = BSpline(np.asarray(e.knots), np.asarray(e.coefficients),
                                 e.degree, extrapolate=False)
                y[:, j] += (e.w_base * _silu(xi)
                            + spline(np.clip(xi, e.domain[0], e.domain[1])))
        h = y
    if spline_net.decoder is not None:
        h = h @ spline_net.decoder.weight.T + spline_net.decoder.bias
    return h


def check_splines(spline_net, x, program_out, tol=1e-10) -> list:
    ref = spline_network_forward(spline_net, x)
    err = float(np.max(np.abs(np.asarray(program_out) - ref)))
    scale = max(1.0, float(np.max(np.abs(ref))))
    if not err <= tol * scale:
        return [f"spline network output differs from scipy BSpline "
                f"evaluation by {err:.3e} (bound {tol * scale:.1e})"]
    return []


def expected_frequency_count(weights):
    """Closed-form size of the frequency set (zero included), or None when
    the weights are neither all 1 nor 1, 2, 4, ..."""
    w = np.asarray(weights, dtype=np.float64)
    r = w.size
    if np.array_equal(w, np.ones(r)):
        return 2 * r + 1
    if np.array_equal(w, 2.0 ** np.arange(r)):
        return 2 ** (r + 1) - 1
    return None


def check_spectrum(weights, frequencies, max_frequency, residual, tol) -> list:
    """A spectrum report against the paper's closed forms: 2^(r+1)-1
    frequencies for weights 2^l, 2r+1 for unit weights, at most 3^r
    otherwise; the set is symmetric and contains 0; the largest
    frequency is sum |w|; and the fit residual is below tol."""
    fails = []
    w = np.asarray(weights, dtype=np.float64)
    f = np.sort(np.asarray(frequencies, dtype=np.float64))
    bound = float(np.sum(np.abs(w)))
    want = expected_frequency_count(w)
    if want is not None and f.size != want:
        fails.append(f"{f.size} frequencies for weights {w.tolist()}, "
                     f"closed form gives {want}")
    if f.size > 3 ** w.size:
        fails.append(f"{f.size} frequencies exceed 3^r = {3 ** w.size}")
    if not np.allclose(f, -f[::-1], rtol=0, atol=1e-9) or \
            not np.any(np.abs(f) <= 1e-9):
        fails.append("frequency set is not symmetric around 0")
    if not abs(max_frequency - bound) <= 1e-9 * max(1.0, bound) or \
            not abs(f[-1] - bound) <= 1e-9 * max(1.0, bound):
        fails.append(f"max frequency {max_frequency!r} / largest enumerated "
                     f"{f[-1]!r} differ from sum |w| = {bound!r}")
    if not residual < tol:
        fails.append(f"fit residual {residual:.3e} not below {tol:g}")
    return fails
