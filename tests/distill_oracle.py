"""Reference distillation: one circuit call and one least-squares fit per edge.

This is the edge-by-edge loop that `distill.distill_network` and
`distill.calibrate_domains` used before a layer was sampled in one
circuit call and fitted with one solve per shared domain. It samples
each edge on its own, builds its own design matrix with `bspline_basis`
and solves for its coefficients alone, and it runs every layer's
forward during calibration. It serves as the oracle for the batched
distillation.
"""

import numpy as np

from qkan import daruan
from qkan.distill import SplineModel, SplineNetwork, bspline_basis, make_knots
from qkan.errors import FitError
from qkan.network import _as_batch


def sample_activation(p, lo, hi, count):
    if count < 2:
        raise ValueError("count must be >= 2")
    if not lo < hi:
        raise ValueError("lo must be below hi")
    xs = np.linspace(lo, hi, count)
    raw = daruan.circuit_expectation(p.enc_w[None, None, :],
                                     p.enc_b[None, None, :],
                                     p.angles[None, None, :, :],
                                     xs[:, None])[:, 0, 0]
    return xs, p.w_quant * raw + p.out_bias


def fit_spline(xs, ys, grid_size, degree=3, domain=None):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n_coef = grid_size + degree
    if xs.size < n_coef:
        raise FitError(f"need at least {n_coef} samples, got {xs.size}")
    if domain is None:
        domain = (float(xs.min()), float(xs.max()))
    knots = make_knots(domain[0], domain[1], grid_size, degree)
    design = bspline_basis(knots, degree, np.clip(xs, *domain))
    coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < n_coef:
        raise FitError(f"rank-deficient spline design matrix "
                       f"(rank {rank} < {n_coef})")
    resid = design @ coef - ys
    return SplineModel(degree=degree, knots=knots, coefficients=coef,
                       domain=domain,
                       fit_max_err=float(np.max(np.abs(resid))),
                       fit_rms_err=float(np.sqrt(np.mean(resid ** 2))))


def distill_edge(p, lo, hi, grid_size=20, degree=3, samples=256):
    xs, ys = sample_activation(p, lo, hi, samples)
    model = fit_spline(xs, ys, grid_size, degree, domain=(lo, hi))
    model.w_base = p.w_base
    model.out_bias = p.out_bias
    return model


def calibrate_domains(net, inputs, widen=0.1):
    x = _as_batch(np.asarray(inputs, dtype=np.float64), net.in_dim,
                  "calibration inputs")
    if net.encoder is not None:
        x = net.encoder.forward(x)
    domains = {}
    for li, layer in enumerate(net.layers):
        for i in range(layer.n_in):
            lo, hi = float(x[:, i].min()), float(x[:, i].max())
            span = hi - lo
            pad = 0.5 * widen * span if span > 0 else 0.5
            for j in range(layer.n_out):
                domains[(li, j, i)] = (lo - pad, hi + pad)
        x = layer.forward(x)
    return domains


def distill_network(net, domains, grid_size=20, degree=3, samples=256):
    grids = []
    report = {}
    for li, layer in enumerate(net.layers):
        grid = []
        for j in range(layer.n_out):
            row = []
            for i in range(layer.n_in):
                lo, hi = domains[(li, j, i)]
                try:
                    model = distill_edge(layer.get_edge(j, i), lo, hi,
                                         grid_size, degree, samples)
                except FitError as exc:
                    raise FitError(f"edge (layer {li}, out {j}, in {i}): "
                                   f"{exc}") from exc
                row.append(model)
                report[(li, j, i)] = {"max_err": model.fit_max_err,
                                      "rms_err": model.fit_rms_err}
            grid.append(row)
        grids.append(grid)
    spline_net = SplineNetwork(
        edges=grids,
        encoder=net.encoder.copy() if net.encoder else None,
        decoder=net.decoder.copy() if net.decoder else None,
    )
    return spline_net, report
