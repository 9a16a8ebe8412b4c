"""Distillation of trained activation edges to classical B-splines.

Each edge is sampled on a grid, and the quantum part of its output
(w_quant * <Z> + out_bias) is least-squares fitted with B-spline
coefficients on a clamped uniform knot vector. The silu residual path
is carried over symbolically, so the spline only has to fit the smooth
bounded circuit output. Out-of-domain evaluation clamps to the nearest
boundary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import daruan
from .daruan import DaruanParams, silu
from .errors import FitError
from .network import LinearLayer, QkanNetwork, _as_batch


def make_knots(lo: float, hi: float, grid_size: int, degree: int) -> np.ndarray:
    """Clamped (open uniform) knot vector with `grid_size` intervals."""
    if grid_size < 1 or degree < 1:
        raise ValueError("grid_size and degree must be >= 1")
    if not lo < hi:
        raise ValueError("domain must satisfy lo < hi")
    interior = np.linspace(lo, hi, grid_size + 1)
    return np.concatenate([np.full(degree, lo), interior, np.full(degree, hi)])


def bspline_basis(knots: np.ndarray, degree: int, x) -> np.ndarray:
    """Cox-de Boor evaluation of all basis functions at x.

    x may be a scalar or array; the result has a trailing axis of
    length G + degree. x must lie inside [knots[0], knots[-1]].
    """
    knots = np.asarray(knots, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    lo, hi = knots[0], knots[-1]
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"x outside the spline domain [{lo}, {hi}]")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)[..., None]

    # Degree 0: half-open interval indicators, last interval closed.
    left, right = knots[:-1], knots[1:]
    b = ((x >= left) & (x < right)).astype(np.float64)
    last = np.nonzero(right == hi)[0][0]
    b[..., last] += (x[..., 0] == hi) & (right[last] > left[last])

    for k in range(1, degree + 1):
        left, right = knots[: -k - 1], knots[k + 1:]
        denom1 = knots[k:-1] - knots[: -k - 1]
        denom2 = knots[k + 1:] - knots[1:-k]
        term1 = np.where(denom1 > 0, (x - knots[: -k - 1])
                         / np.where(denom1 > 0, denom1, 1.0), 0.0)
        term2 = np.where(denom2 > 0, (knots[k + 1:] - x)
                         / np.where(denom2 > 0, denom2, 1.0), 0.0)
        b = term1 * b[..., :-1] + term2 * b[..., 1:]
    return b[0] if scalar else b


@dataclass
class SplineModel:
    """Distilled replacement for one activation edge."""

    degree: int
    knots: np.ndarray
    coefficients: np.ndarray
    domain: tuple
    w_base: float = 0.0     # silu residual weight carried over symbolically
    out_bias: float = 0.0   # informational; already absorbed in coefficients
    fit_max_err: float = 0.0
    fit_rms_err: float = 0.0

    def eval(self, x):
        """w_base * silu(x) + spline(clamp(x)); only the spline part is
        clamped since silu is defined everywhere."""
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x, self.domain[0], self.domain[1])
        basis = bspline_basis(self.knots, self.degree, xc)
        return self.w_base * silu(x) + basis @ self.coefficients

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "knots": list(self.knots),
            "coefficients": list(self.coefficients),
            "domain": list(self.domain),
            "w_base": self.w_base,
            "out_bias": self.out_bias,
            "fit_max_err": self.fit_max_err,
            "fit_rms_err": self.fit_rms_err,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SplineModel":
        return cls(degree=int(d["degree"]),
                   knots=np.array(d["knots"]),
                   coefficients=np.array(d["coefficients"]),
                   domain=tuple(d["domain"]),
                   w_base=float(d["w_base"]),
                   out_bias=float(d["out_bias"]),
                   fit_max_err=float(d.get("fit_max_err", 0.0)),
                   fit_rms_err=float(d.get("fit_rms_err", 0.0)))


def sample_activation(p: DaruanParams, lo: float, hi: float, count: int):
    """Uniform samples of the edge output minus the silu residual term,
    i.e. the part the spline will replace."""
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


def fit_spline(xs, ys, grid_size: int, degree: int = 3,
               domain: tuple | None = None) -> SplineModel:
    """Least-squares B-spline fit of (xs, ys)."""
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


def distill_edge(p: DaruanParams, lo: float, hi: float, grid_size: int = 20,
                 degree: int = 3, samples: int = 256) -> SplineModel:
    xs, ys = sample_activation(p, lo, hi, samples)
    model = fit_spline(xs, ys, grid_size, degree, domain=(lo, hi))
    model.w_base = p.w_base
    model.out_bias = p.out_bias
    return model


@dataclass
class SplineNetwork:
    """Structure-matched classical replacement for a QKAN network."""

    edges: list                       # per layer: [n_out][n_in] SplineModel
    encoder: LinearLayer | None = None
    decoder: LinearLayer | None = None

    @property
    def in_dim(self) -> int:
        return self.encoder.n_in if self.encoder else len(self.edges[0][0])

    def forward(self, x) -> np.ndarray:
        x, squeeze = _as_batch(x, self.in_dim, "spline network input")
        if self.encoder is not None:
            x = self.encoder.forward(x)
        for grid in self.edges:
            y = np.zeros((x.shape[0], len(grid)))
            for j, row in enumerate(grid):
                for i, edge in enumerate(row):
                    y[:, j] += edge.eval(x[:, i])
            x = y
        if self.decoder is not None:
            x = self.decoder.forward(x)
        return x[0] if squeeze else x

    def clamp_count(self, x) -> int:
        """Number of edge evaluations that fall outside their domain."""
        x, _ = _as_batch(x, self.in_dim, "spline network input")
        if self.encoder is not None:
            x = self.encoder.forward(x)
        count = 0
        for grid in self.edges:
            y = np.zeros((x.shape[0], len(grid)))
            for j, row in enumerate(grid):
                for i, edge in enumerate(row):
                    xi = x[:, i]
                    count += int(np.sum((xi < edge.domain[0])
                                        | (xi > edge.domain[1])))
                    y[:, j] += edge.eval(xi)
            x = y
        return count

    def to_json(self) -> str:
        doc = {
            "format": "qkan-spline-network",
            "format_version": 1,
            "encoder": _linear_to_dict(self.encoder),
            "decoder": _linear_to_dict(self.decoder),
            "layers": [[[edge.to_dict() for edge in row] for row in grid]
                       for grid in self.edges],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SplineNetwork":
        doc = json.loads(text)
        return cls(
            edges=[[[SplineModel.from_dict(e) for e in row] for row in grid]
                   for grid in doc["layers"]],
            encoder=_linear_from_dict(doc.get("encoder")),
            decoder=_linear_from_dict(doc.get("decoder")),
        )


def _linear_to_dict(lin: LinearLayer | None):
    if lin is None:
        return None
    return {"weight": [list(row) for row in lin.weight], "bias": list(lin.bias)}


def _linear_from_dict(d):
    if d is None:
        return None
    return LinearLayer(weight=np.array(d["weight"]), bias=np.array(d["bias"]))


def calibrate_domains(net: QkanNetwork, inputs, widen: float = 0.1) -> dict:
    """Observed per-edge input ranges over a calibration set, widened by
    `widen` (split evenly between the two ends).

    Keys are (layer_index, out_node, in_node).
    """
    x, _ = _as_batch(np.asarray(inputs, dtype=np.float64), net.in_dim,
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


def distill_network(net: QkanNetwork, domains: dict, grid_size: int = 20,
                    degree: int = 3, samples: int = 256):
    """Distill every edge; returns (SplineNetwork, per-edge fit report)."""
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
