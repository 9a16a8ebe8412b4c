"""The batch-first Bloch-vector circuit kernel, kept as a test oracle.

`qkan.daruan` once ran its circuit on (B, N, M) arrays: batch first, so
each per-edge table broadcast over an inner loop only N * M long. The
kernel now keeps the batch last; these two functions are the batch-first
version, unchanged, and the tests check the batch-last kernel against
them: forward values and tape bitwise, the adjoint's batch sums up to
summation order. This adjoint returns merged-angle derivatives, which
param_sums scatters onto the parameters, as `qkan.daruan` once did
outside its kernel.
"""

from __future__ import annotations

import numpy as np

from qkan.daruan import CircuitTape, _cos_sin, _rotate


def circuit_forward(enc_w, enc_b, angles, x):
    """Run the batched circuit.

    enc_w, enc_b: (N, M, r); angles: (N, M, r+1, 3); x: (B, M).
    Returns (expectations (B, N, M), the CircuitTape of this pass for
    circuit_adjoint). The tape holds the working arrays of the pass, so
    it costs no copy; a caller that needs no gradient drops it.
    """
    r = enc_w.shape[2]
    alpha, beta = angles[..., 0], angles[..., 1]
    # theta_l / 2 = (w_l / 2) x + (b_l + gamma_l + alpha_{l+1}) / 2, exactly
    offset = 0.5 * np.moveaxis(enc_b + angles[..., :r, 2] + alpha[..., 1:],
                               -1, 0)
    w = 0.5 * np.ascontiguousarray(np.moveaxis(enc_w, -1, 0))   # (r, N, M)
    tan_half = np.multiply(w[:, None], x[None, :, None, :])     # (r, B, N, M)
    tan_half += offset[:, None]
    np.tan(tan_half, out=tan_half)
    cb, sb = np.cos(beta), np.sin(beta)                   # (N, M, r+1)

    shape = tan_half.shape[1:]
    ca0 = np.cos(alpha[..., 0])
    vx, vy, vz = np.empty(shape), np.empty(shape), np.empty(shape)
    vx[...] = ca0 * cb[..., 0]
    vy[...] = np.sin(alpha[..., 0])
    vz[...] = -ca0 * sb[..., 0]
    work = (np.empty(shape), np.empty(shape))
    cs = (np.empty(shape), np.empty(shape))
    for l in range(r):
        _rotate(vx, vy, *_cos_sin(tan_half[l], cs), work)      # rz(theta_l)
        _rotate(vz, vx, cb[..., l + 1], sb[..., l + 1], work)  # ry(beta_l+1)
    return vz, CircuitTape(tan_half, (vx, vy, vz))


def circuit_adjoint(enc_w, angles, tape: CircuitTape, x, weights):
    """Adjoint sweep over a forward tape, with no second forward pass.

    enc_w (N, M, r) and x (B, M) are the forward pass's; weights is an
    array (B, N, M) or a scalar such as 1.0. Returns the derivatives of
    sum_b weights * <Z>, already summed over the batch: g_theta (r, N, M)
    for the merged angles, g_beta (r+1, N, M), g_alpha0 (N, M), g_w
    (r, N, M) = sum_b x_b d/dtheta_l and d_x (B, M) = sum_{n,l} w_l d/dtheta_l.

    For a rotation by t about axis n, d<Z>/dt = n . (v x lam), where v
    is the state and lam the back-propagated readout (weights * e_z),
    both taken right after the gate. Rotations preserve cross products,
    so the sweep carries only c = v x lam and undoes each rotation on
    it: d/dtheta_l is c_z and d/dbeta_l is c_y, each summed over the batch
    at its step by einsum (faster than .sum(0) for small N, M). Undoing
    rz(theta_l) rebuilds its cos and sin from the tape's tan(theta_l / 2).
    """
    tan_half, (vx, vy, _) = tape
    r = tan_half.shape[0]
    beta = angles[..., 1]
    cb, sb = np.cos(beta), np.sin(beta)
    cx, cy, cz = weights * vy, -weights * vx, np.zeros(vx.shape)
    work = (np.empty(vx.shape), np.empty(vx.shape))
    cs = (np.empty(vx.shape), np.empty(vx.shape))
    g_theta, g_w = np.empty((2, r) + vx.shape[1:])
    g_beta = np.empty((r + 1,) + vx.shape[1:])
    d_x = np.zeros(x.shape)
    for l in range(r, -1, -1):
        np.einsum("bnm->nm", cy, out=g_beta[l])
        _rotate(cx, cz, cb[..., l], sb[..., l], work)       # undo ry(beta_l)
        if l > 0:
            np.einsum("bnm->nm", cz, out=g_theta[l - 1])
            np.einsum("bnm,bm->nm", cz, x, out=g_w[l - 1])
            d_x += np.einsum("bnm,nm->bm", cz, enc_w[..., l - 1])
            _rotate(cy, cx, *_cos_sin(tan_half[l - 1], cs), work)  # undo rz
    return g_theta, g_beta, np.einsum("bnm->nm", cz), g_w, d_x


def param_sums(g_theta, g_beta, g_alpha0, g_w, d_x):
    """circuit_adjoint's merged-angle outputs in the parameters' layout:
    (g_enc_w (N, M, r), g_enc_b (N, M, r), g_angles (N, M, r+1, 3), d_x).
    theta_l = w_l x + b_l + gamma_l + alpha_{l+1}, so b_l, gamma_l and
    alpha_{l+1} each get d/dtheta_l; gamma_r gets exactly 0."""
    g_t = np.moveaxis(g_theta, 0, -1)
    g_angles = np.empty(g_alpha0.shape + (len(g_beta), 3))
    g_angles[..., 0, 0] = g_alpha0
    g_angles[..., 1:, 0] = g_t
    g_angles[..., :, 1] = np.moveaxis(g_beta, 0, -1)
    g_angles[..., :-1, 2] = g_t
    g_angles[..., -1, 2] = 0.0
    return np.moveaxis(g_w, 0, -1), g_t, g_angles, d_x
