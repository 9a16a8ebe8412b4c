"""Reference spline-network evaluation: one Cox-de Boor call per edge.

This is the per-edge loop that `SplineNetwork` used before its layers
were stacked into piecewise-polynomial tables. It evaluates every edge
as w_base * silu(x) + B(clamp(x)) @ coefficients with `bspline_basis`,
accumulates the edges of each output node in order, and serves as the
oracle for the stacked kernel.
"""

import numpy as np

from qkan.daruan import silu
from qkan.distill import bspline_basis
from qkan.network import _as_batch


def edge_eval(edge, x):
    """One distilled edge; only the spline part is clamped."""
    x = np.asarray(x, dtype=np.float64)
    xc = np.clip(x, edge.domain[0], edge.domain[1])
    basis = bspline_basis(edge.knots, edge.degree, xc)
    return edge.w_base * silu(x) + basis @ edge.coefficients


def evaluate(spline_net, x):
    """(outputs, number of edge evaluations outside their domain)."""
    x, squeeze = _as_batch(x, spline_net.in_dim, "spline network input")
    if spline_net.encoder is not None:
        x = spline_net.encoder.forward(x)
    count = 0
    for grid in spline_net.edges:
        y = np.zeros((x.shape[0], len(grid)))
        for j, row in enumerate(grid):
            for i, edge in enumerate(row):
                xi = x[:, i]
                count += int(np.sum((xi < edge.domain[0])
                                    | (xi > edge.domain[1])))
                y[:, j] += edge_eval(edge, xi)
        x = y
    if spline_net.decoder is not None:
        x = spline_net.decoder.forward(x)
    return (x[0] if squeeze else x), count


def forward(spline_net, x):
    return evaluate(spline_net, x)[0]


def clamp_count(spline_net, x) -> int:
    return evaluate(spline_net, x)[1]
