"""Dense single-qubit statevector oracle for the fused circuit kernel.

Gate matrices and the complex two-amplitude circuit simulation that the
fused real Bloch-vector kernel in `qkan.daruan` replaced. The tests
compare that kernel against this one, which applies all 4r+3 gates of
an edge separately and differentiates by an adjoint sweep over a tape
of every intermediate state.

States are length-2 complex128 arrays, gates are 2x2 complex128 unitaries.
Batched evaluation uses a (B, N, M, 2) array layout: batch, post-node,
pre-node, amplitude, stored row-major so per-edge slices are contiguous.
Global phase is not tracked; only expectation values are contract-bearing.
All arithmetic is in 64-bit precision.
"""

from __future__ import annotations

import numpy as np

SQRT1_2 = 1.0 / np.sqrt(2.0)


def _require_finite(name: str, *angles) -> None:
    for a in angles:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name}: angle must be finite, got {a!r}")


def zero_state() -> np.ndarray:
    """|0> as a complex amplitude pair."""
    return np.array([1.0, 0.0], dtype=np.complex128)


def hadamard() -> np.ndarray:
    """(1/sqrt(2)) [[1, 1], [1, -1]]."""
    return np.array([[SQRT1_2, SQRT1_2], [SQRT1_2, -SQRT1_2]], dtype=np.complex128)


def rz(angle: float) -> np.ndarray:
    """Z rotation diag(e^{-i a/2}, e^{+i a/2})."""
    _require_finite("rz", angle)
    half = 0.5 * angle
    return np.array(
        [[np.exp(-1j * half), 0.0], [0.0, np.exp(1j * half)]], dtype=np.complex128
    )


def ry(angle: float) -> np.ndarray:
    """Y rotation [[cos a/2, -sin a/2], [sin a/2, cos a/2]]."""
    _require_finite("ry", angle)
    half = 0.5 * angle
    c, s = np.cos(half), np.sin(half)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def euler_unitary(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """rz(gamma) @ ry(beta) @ rz(alpha); universal for SU(2) up to phase.

    All-zero angles give the identity, which layer extension relies on.
    """
    _require_finite("euler_unitary", alpha, beta, gamma)
    return rz(gamma) @ ry(beta) @ rz(alpha)


def euler_unitaries(angles: np.ndarray) -> np.ndarray:
    """Batched euler_unitary: angles (..., 3) -> unitaries (..., 2, 2)."""
    angles = np.asarray(angles, dtype=np.float64)
    _require_finite("euler_unitaries", angles)
    ha = 0.5 * angles[..., 0]
    hb = 0.5 * angles[..., 1]
    hg = 0.5 * angles[..., 2]
    c, s = np.cos(hb), np.sin(hb)
    out = np.empty(angles.shape[:-1] + (2, 2), dtype=np.complex128)
    # rz(gamma) ry(beta) rz(alpha), written out entrywise
    out[..., 0, 0] = np.exp(-1j * (ha + hg)) * c
    out[..., 0, 1] = -np.exp(1j * (ha - hg)) * s
    out[..., 1, 0] = np.exp(-1j * (ha - hg)) * s
    out[..., 1, 1] = np.exp(1j * (ha + hg)) * c
    return out


def apply(state: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Matrix-vector product; preserves the norm for unitary gates."""
    return gate @ state


def expect_z(state: np.ndarray) -> float:
    """|amp0|^2 - |amp1|^2, in [-1, 1] for normalized states."""
    a = np.asarray(state)
    return float((a[..., 0].real ** 2 + a[..., 0].imag ** 2)
                 - (a[..., 1].real ** 2 + a[..., 1].imag ** 2))


def state_batch(b: int, n: int, m: int) -> np.ndarray:
    """(B, N, M, 2) batch of |+> states (Hadamard applied to |0>)."""
    out = np.full((b, n, m, 2), SQRT1_2, dtype=np.complex128)
    return out


def apply_batch(states: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Apply per-edge gates (N, M, 2, 2) to a (B, N, M, 2) state batch."""
    return np.einsum("nmij,bnmj->bnmi", gates, states)


def expect_z_batch(states: np.ndarray) -> np.ndarray:
    """Pauli-Z expectations of a (B, N, M, 2) batch, shape (B, N, M)."""
    p0 = states[..., 0].real ** 2 + states[..., 0].imag ** 2
    p1 = states[..., 1].real ** 2 + states[..., 1].imag ** 2
    return p0 - p1


# --- complex amplitude circuit kernel --------------------------------------
#
# Flat gate sequence (4r + 3 gates): for each block l = 0..r-1 the three
# Euler rotations rz(alpha_l), ry(beta_l), rz(gamma_l) followed by the
# encoding gate rz(u_l); then the final Euler triple.


def _apply_rz_half(states, half):
    """In-place diagonal rotation by phase exp(-+ i*half) on (..., 2)."""
    states[..., 0] *= np.exp(-1j * half)
    states[..., 1] *= np.exp(1j * half)


def _apply_ry_half(states, c, s):
    a0 = states[..., 0].copy()
    states[..., 0] = c * a0 - s * states[..., 1]
    states[..., 1] = s * a0 + c * states[..., 1]


def circuit_forward(enc_w, enc_b, angles, x, keep_states=False):
    """Run the batched circuit.

    enc_w, enc_b: (N, M, r); angles: (N, M, r+1, 3); x: (B, M).
    Returns (expectations (B, N, M), states or None). When keep_states
    is set, states is the list of (B, N, M, 2) arrays after every gate,
    as needed by the adjoint sweep.
    """
    n, m, r = enc_w.shape
    b = x.shape[0]
    u = enc_w[None, :, :, :] * x[:, None, :, None] + enc_b[None, :, :, :]  # (B,N,M,r)
    ha = 0.5 * angles[..., 0]          # (N, M, r+1)
    hbc = np.cos(0.5 * angles[..., 1])
    hbs = np.sin(0.5 * angles[..., 1])
    hg = 0.5 * angles[..., 2]

    s = state_batch(b, n, m)
    states = []

    def record():
        if keep_states:
            states.append(s.copy())

    for l in range(r + 1):
        _apply_rz_half(s, ha[None, :, :, l])
        record()
        _apply_ry_half(s, hbc[None, :, :, l], hbs[None, :, :, l])
        record()
        _apply_rz_half(s, hg[None, :, :, l])
        record()
        if l < r:
            _apply_rz_half(s, 0.5 * u[..., l])
            record()

    p0 = s[..., 0].real ** 2 + s[..., 0].imag ** 2
    p1 = s[..., 1].real ** 2 + s[..., 1].imag ** 2
    return p0 - p1, (states if keep_states else None)


def circuit_expectation(enc_w, enc_b, angles, x):
    """Batched <Z> of the circuit, shape (B, N, M)."""
    f, _ = circuit_forward(enc_w, enc_b, angles, x)
    return f


def circuit_gradients(enc_w, enc_b, angles, x):
    """Adjoint sweep: exact per-sample derivatives of <Z>.

    Returns (f, g_enc, g_ang) with f (B, N, M), g_enc (B, N, M, r) the
    derivative with respect to each encoding gate's total rotation
    angle u_l, and g_ang (B, N, M, r+1, 3) the Euler-angle derivatives.
    """
    n, m, r = enc_w.shape
    b = x.shape[0]
    f, states = circuit_forward(enc_w, enc_b, angles, x, keep_states=True)

    u = enc_w[None, :, :, :] * x[:, None, :, None] + enc_b[None, :, :, :]
    ha = 0.5 * angles[..., 0]
    hbc = np.cos(0.5 * angles[..., 1])
    hbs = np.sin(0.5 * angles[..., 1])
    hg = 0.5 * angles[..., 2]

    final = states[-1]
    lam = final.copy()
    lam[..., 1] = -lam[..., 1]          # Z |psi>

    g_enc = np.empty((b, n, m, r))
    g_ang = np.empty((b, n, m, r + 1, 3))

    def grad_z(sk):
        return (np.imag(np.conj(lam[..., 0]) * sk[..., 0])
                - np.imag(np.conj(lam[..., 1]) * sk[..., 1]))

    def grad_y(sk):
        return (np.real(np.conj(lam[..., 1]) * sk[..., 0])
                - np.real(np.conj(lam[..., 0]) * sk[..., 1]))

    def pull_rz(half):
        lam[..., 0] *= np.exp(1j * half)
        lam[..., 1] *= np.exp(-1j * half)

    def pull_ry(c, s):
        l0 = lam[..., 0].copy()
        lam[..., 0] = c * l0 + s * lam[..., 1]
        lam[..., 1] = -s * l0 + c * lam[..., 1]

    # Walk the gate list backwards; states[k] is the post-state of gate k.
    k = len(states) - 1
    for l in range(r, -1, -1):
        if l < r:
            sk = states[k]
            g_enc[..., l] = grad_z(sk)
            pull_rz(0.5 * u[..., l])
            k -= 1
        sk = states[k]
        g_ang[..., l, 2] = grad_z(sk)
        pull_rz(hg[None, :, :, l])
        k -= 1
        sk = states[k]
        g_ang[..., l, 1] = grad_y(sk)
        pull_ry(hbc[None, :, :, l], hbs[None, :, :, l])
        k -= 1
        sk = states[k]
        g_ang[..., l, 0] = grad_z(sk)
        pull_rz(ha[None, :, :, l])
        k -= 1

    return f, g_enc, g_ang
