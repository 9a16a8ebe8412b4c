"""The Horner spline-layer kernel, kept as a test oracle.

`qkan.distill._PiecewiseLayer` once evaluated a layer over the full
(rows, n_out, n_in) grid of each row block: clamp, piece index, offset,
one gather per power and a Horner sweep for every edge, then
w_base * silu(x) and the sum over the inputs. The kernel now computes
the piece index once per (row, input) and contracts gathered
coefficient blocks; this class is the Horner version, unchanged, and
`evaluate` runs a whole SplineNetwork through it. The tests check the
new kernel against it at rtol 1e-12, atol 1e-14, with equal clamp
counts.
"""

from __future__ import annotations

import numpy as np

from qkan.daruan import silu
from qkan.distill import _check_knots, _power_form
from qkan.network import _as_batch, block_rows, row_blocks


class _PiecewiseLayer:
    """An n_out x n_in grid of spline edges as stacked tables.

    _powers (D + 1, N * M * W): row m holds the t^m coefficient of every
    piece of every edge, W pieces per edge, padded with zeros. D is the
    largest degree in the layer and W the largest piece count.
    lo, hi, w_base (N, M): spline domain and silu weight of each edge.

    Every edge's knots are uniform (see _check_knots), so the piece of
    an input comes from one multiply: trunc((x - first breakpoint) *
    pieces / span), capped at the last piece; t is (x - its stored left
    breakpoint) * pieces / span, in piece widths whatever the span.
    """

    def __init__(self, grid):
        n_out, n_in = len(grid), (len(grid[0]) if grid else 0)
        if n_in == 0 or any(len(row) != n_in for row in grid):
            raise ValueError("a spline layer must be a nonempty rectangular "
                             "grid of edges")
        self.n_out, self.n_in = n_out, n_in
        edges = [edge for row in grid for edge in row]
        domain = np.array([edge.domain for edge in edges], dtype=np.float64)
        self.lo = domain[:, 0].reshape(n_out, n_in)
        self.hi = domain[:, 1].reshape(n_out, n_in)
        self.w_base = np.array([edge.w_base for edge in edges],
                               dtype=np.float64).reshape(n_out, n_in)
        groups: dict = {}
        for k, edge in enumerate(edges):
            key = (int(edge.degree), len(edge.knots), len(edge.coefficients))
            groups.setdefault(key, []).append(k)
        degree_max = max(d for d, _, _ in groups)
        width = max(n - 2 * d - 1 for d, n, _ in groups)
        left = np.zeros((len(edges), width))
        coefs = np.zeros((len(edges), width, degree_max + 1))
        scale = np.empty(len(edges))
        pieces = np.empty(len(edges), dtype=np.intp)
        for (degree, n, n_coef), rows in groups.items():
            knots = np.array([edges[k].knots for k in rows], dtype=np.float64)
            scale[rows] = _check_knots(knots, degree, n_coef, domain[rows])
            pieces[rows] = g = n - 2 * degree - 1
            left[rows, :g] = knots[:, degree:n - degree - 1]
            coefs[rows, :g, :degree + 1] = _power_form(
                knots, np.array([edges[k].coefficients for k in rows],
                                dtype=np.float64), degree, scale[rows, None])
        self._first = left[:, 0].reshape(n_out, n_in)
        self._scale = scale.reshape(n_out, n_in)
        self._left = left.ravel()
        self._powers = coefs.reshape(-1, degree_max + 1).T.copy()
        self._base = (np.arange(len(edges)) * width).reshape(n_out, n_in)
        # flat index of each edge's last piece
        self._last = self._base + pieces.reshape(n_out, n_in) - 1

    def evaluate(self, x):
        """x (B, n_in) -> (outputs (B, n_out), number of inputs outside
        their edge's domain). A batch larger than block_rows([self])
        runs one row block at a time."""
        blocks = row_blocks(len(x), block_rows([self]))
        if len(blocks) == 1:
            return self._evaluate(x)
        y, clamped = np.empty((len(x), self.n_out)), 0
        for rows in blocks:
            y[rows], count = self._evaluate(x[rows])
            clamped += count
        return y, clamped

    def _evaluate(self, x):
        """evaluate of a (B, n_in) batch in one piece."""
        x = x[:, None, :]
        # fmax/fmin send NaN into the domain too, so the piece index is a
        # finite number; silu(x) below still makes that output NaN
        xc = np.fmin(np.fmax(x, self.lo), self.hi)
        # the clamp moved the inputs outside their domain, and every NaN
        clamped = (int(np.count_nonzero(xc != x))
                   - self.n_out * int(np.count_nonzero(np.isnan(x))))
        # flat index of each sample's piece
        u = xc - self._first
        u *= self._scale
        pos = u.astype(np.intp)
        pos += self._base
        np.minimum(pos, self._last, out=pos)
        t = xc - self._left.take(pos)
        t *= self._scale                       # in piece widths
        y = self._powers[-1].take(pos)
        for c in self._powers[-2::-1]:
            y *= t
            y += c.take(pos)
        y += self.w_base * silu(x)
        return y.sum(axis=2), clamped


def evaluate(spline_net, x):
    """(outputs, clamp count) of `spline_net` on x, every layer through
    the Horner kernel."""
    x = _as_batch(x, spline_net.in_dim, "spline network input")
    if spline_net.encoder is not None:
        x = spline_net.encoder.forward(x)
    clamped = 0
    for grid in spline_net.edges:
        x, count = _PiecewiseLayer(grid).evaluate(x)
        clamped += count
    if spline_net.decoder is not None:
        x = spline_net.decoder.forward(x)
    return x, clamped
