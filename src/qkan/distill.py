"""Distillation of trained activation edges to classical B-splines.

Each edge is sampled on a grid, and the quantum part of its output
(w_quant * <Z> + out_bias) is least-squares fitted with B-spline
coefficients on a clamped uniform knot vector. The silu residual path
is carried over symbolically, so the spline only has to fit the smooth
bounded circuit output. Out-of-domain evaluation clamps to the nearest
boundary. The inputs are checked before any circuit runs; then all of
a layer's edges are sampled together, one circuit call per row block of
sample points, and the edges that share a domain share one design
matrix and one least-squares solve.

Cox-de Boor evaluation (`bspline_basis`) builds the least-squares
design matrix only. For evaluation, each layer of edges is converted
once to piecewise-polynomial tables (per-edge breakpoints and Taylor
coefficients of every piece, stacked over the layer). Every edge's
knots must be the uniform ones of `make_knots`, so an input's piece is
one multiply away, and a layer is that multiply, a gather and a Horner
sweep over the (rows, n_out, n_in) grid of each row block.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import daruan
from .checkpoint import (check_object, check_version, finite_array,
                         parse_json, write_json)
from .daruan import silu
from .errors import DataError, FitError, NumericalError
from .network import (LinearLayer, QkanNetwork, _as_batch, block_rows,
                      row_blocks)

SPLINE_FORMAT = "qkan-spline-network"
SPLINE_FORMAT_VERSION = 1
SPLINE_KEYS = ("format", "format_version", "encoder", "decoder", "layers")

#: calibrate_domains widens each observed input range by this fraction of it
CALIBRATION_WIDEN = 0.1


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
        clamped since silu is defined everywhere. Runs the layer kernel
        on a 1x1 layer."""
        x = np.asarray(x, dtype=np.float64)
        y, _ = _PiecewiseLayer([[self]]).evaluate(x.reshape(-1, 1))
        return y.reshape(x.shape)[()]

    def to_dict(self) -> dict:
        """Every field, in declaration order; arrays and the domain as
        lists."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v if isinstance(v, (int, float)) else list(v)
                for k, v in doc.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "SplineModel":
        """The inverse of to_dict; a missing or malformed field raises
        DataError. The fit errors are optional."""
        what = "spline edge"
        check_object(d, [f.name for f in fields(cls)], DataError, what)
        degree = d.get("degree")
        if type(degree) is not int or degree < 0:
            raise DataError(f"spline edge field 'degree' must be a "
                            f"nonnegative integer, got {degree!r}")
        domain = finite_array(d, "domain", what, (2,))
        scalars = {name: float(finite_array(d, name, what, ()))
                   for name in ("w_base", "out_bias", "fit_max_err",
                                "fit_rms_err")
                   if name in d or not name.startswith("fit")}
        return cls(degree=degree, knots=finite_array(d, "knots", what),
                   coefficients=finite_array(d, "coefficients", what),
                   domain=tuple(domain.tolist()), **scalars)


def _fit_columns(xs, ys, grid_size: int, degree: int, domain: tuple) -> list:
    """Least-squares B-spline fit on `domain` of every column of ys (S, K)
    at the common sample points xs (S,): one design matrix and one
    solve. Returns K SplineModels; a rank-deficient design raises
    FitError."""
    n_coef = grid_size + degree
    knots = make_knots(domain[0], domain[1], grid_size, degree)
    design = bspline_basis(knots, degree, np.clip(xs, *domain))
    coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond=None)
    if rank < n_coef:
        raise FitError(f"rank-deficient spline design matrix "
                       f"(rank {rank} < {n_coef})")
    resid = (design @ coef - ys).T
    max_err = np.max(np.abs(resid), axis=1).tolist()
    rms_err = np.sqrt(np.mean(resid ** 2, axis=1)).tolist()
    return [SplineModel(degree=degree, knots=knots.copy(), coefficients=c,
                        domain=domain, fit_max_err=e_max, fit_rms_err=e_rms)
            for c, e_max, e_rms in zip(coef.T.copy(), max_err, rms_err)]


def _ratio(num, den):
    """num / den, and 0 where den is 0 (repeated knots)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _power_form(knots, coefs, degree: int, scale):
    """Piecewise-polynomial form of E clamped B-splines of one degree.

    knots (E, n), coefs (E, n - degree - 1) and scale (E, 1), pieces
    over span. Returns for each of the G pieces its Taylor coefficients
    in (x - left breakpoint) * scale, shape (E, G, degree + 1), lowest
    power first. The m-th one is the m-th derivative of the piece over
    m!: differencing the B-spline coefficients, over knot gaps in piece
    widths, gives the derivative spline, and de Boor's recursion
    evaluates it at every left breakpoint at once.
    """
    n = knots.shape[1]
    n_pieces = n - 2 * degree - 1
    at = knots[:, degree:n - degree - 1]
    taylor = np.empty((knots.shape[0], n_pieces, degree + 1))
    factorial = 1.0
    for m in range(degree + 1):
        p = degree - m
        t = knots[:, m:n - m]                  # knots of the m-th derivative
        d = [coefs[:, j:j + n_pieces] for j in range(p + 1)]
        for r in range(1, p + 1):
            for j in range(p, r - 1, -1):
                left = t[:, j:j + n_pieces]
                right = t[:, j + 1 + p - r:j + 1 + p - r + n_pieces]
                alpha = _ratio(at - left, right - left)
                d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
        taylor[:, :, m] = d[p] / factorial
        factorial *= m + 1
        if p:
            coefs = p * _ratio(np.diff(coefs, axis=1),
                               (t[:, p + 1:-1] - t[:, 1:-p - 1]) * scale)
    return taylor


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


def _check_knots(knots, degree: int, n_coef: int, domain) -> np.ndarray:
    """Reject what the direct piece index cannot evaluate: knot vectors
    other than make_knots(first, last, G, degree) with degree >= 1, a
    piece count over the span that is not finite, and domains outside
    the knot span. Returns that piece count over the span of each
    edge."""
    n = knots.shape[1]
    if degree < 1:
        raise ValueError(f"spline edges need degree >= 1, got {degree}")
    if n_coef != n - degree - 1 or n < 2 * degree + 2:
        raise ValueError(f"a degree-{degree} spline with {n} knots cannot "
                         f"have {n_coef} coefficients")
    pieces = n - 2 * degree - 1
    first, last = knots[:, 0], knots[:, -1]
    with np.errstate(over="ignore"):
        scale = pieces / (last - first)
    ok = ((0 < scale) & (scale < np.inf) & (first <= domain[:, 0])
          & (domain[:, 0] <= domain[:, 1]) & (domain[:, 1] <= last))
    if np.all(ok):
        # no step (last - first) / pieces is zero, so linspace treats
        # every row as make_knots(first, last, pieces, degree) does
        ok = np.all(knots == np.hstack([
            first[:, None].repeat(degree, axis=1),
            np.linspace(first, last, pieces + 1, axis=1),
            last[:, None].repeat(degree, axis=1)]), axis=1)
    if not np.all(ok):
        raise ValueError("spline edges need the clamped uniform knots of "
                         "make_knots and a domain inside the knot span")
    return scale


@dataclass
class SplineNetwork:
    """Structure-matched classical replacement for a QKAN network.

    Each layer is converted to piecewise-polynomial tables when the
    network is built; edges changed afterwards are not seen.
    """

    edges: list                       # per layer: [n_out][n_in] SplineModel
    encoder: LinearLayer | None = None
    decoder: LinearLayer | None = None
    _layers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a spline network needs at least one layer")
        self._layers = [_PiecewiseLayer(grid) for grid in self.edges]
        width = self.encoder.n_out if self.encoder else self._layers[0].n_in
        for layer in self._layers:
            if layer.n_in != width:
                raise ValueError(f"spline layer takes {layer.n_in} inputs, "
                                 f"the previous stage gives {width}")
            width = layer.n_out
        if self.decoder is not None and self.decoder.n_in != width:
            raise ValueError(f"decoder takes {self.decoder.n_in} inputs, "
                             f"the last spline layer gives {width}")

    @property
    def in_dim(self) -> int:
        return self.encoder.n_in if self.encoder else self._layers[0].n_in

    def evaluate(self, x):
        """(outputs, number of edge evaluations clamped into their domain)."""
        x, squeeze = _as_batch(x, self.in_dim, "spline network input")
        if self.encoder is not None:
            x = self.encoder.forward(x)
        clamped = 0
        for layer in self._layers:
            x, count = layer.evaluate(x)
            clamped += count
        if self.decoder is not None:
            x = self.decoder.forward(x)
        return (x[0] if squeeze else x), clamped

    def forward(self, x) -> np.ndarray:
        return self.evaluate(x)[0]

    def clamp_count(self, x) -> int:
        """Number of edge evaluations that fall outside their domain."""
        return self.evaluate(x)[1]

    def to_json(self) -> str:
        return write_json(None, {
            "format": SPLINE_FORMAT,
            "format_version": SPLINE_FORMAT_VERSION,
            "encoder": _linear_to_dict(self.encoder),
            "decoder": _linear_to_dict(self.decoder),
            "layers": [[[edge.to_dict() for edge in row] for row in grid]
                       for grid in self.edges],
        })

    @classmethod
    def from_json(cls, text: str) -> "SplineNetwork":
        """The inverse of to_json; every malformed document raises
        DataError. A format tag or version mismatch is rejected, never
        migrated."""
        doc = check_object(parse_json(text, DataError, "spline network"),
                           SPLINE_KEYS, DataError, "spline network")
        check_version(doc, SPLINE_FORMAT_VERSION, "spline network",
                      SPLINE_FORMAT)
        layers = doc.get("layers")
        if not (isinstance(layers, list)
                and all(isinstance(grid, list)
                        and all(isinstance(row, list) for row in grid)
                        for grid in layers)):
            raise DataError("spline network field 'layers' must be a list "
                            "of [n_out][n_in] grids of edges")
        edges = [[[SplineModel.from_dict(e) for e in row] for row in grid]
                 for grid in layers]
        try:
            return cls(edges=edges,
                       encoder=_linear_from_dict(doc, "encoder"),
                       decoder=_linear_from_dict(doc, "decoder"))
        except ValueError as exc:
            raise DataError(f"spline network: {exc}") from None


def _linear_to_dict(lin: LinearLayer | None):
    if lin is None:
        return None
    return {"weight": [list(row) for row in lin.weight], "bias": list(lin.bias)}


def _linear_from_dict(doc: dict, key: str) -> LinearLayer | None:
    d = doc.get(key)
    if d is None:
        return None
    what = f"spline network {key}"
    check_object(d, ("weight", "bias"), DataError, what)
    weight = finite_array(d, "weight", what, (None, None))
    bias = finite_array(d, "bias", what, weight.shape[:1])
    return LinearLayer(weight=weight, bias=bias)


def calibrate_domains(net: QkanNetwork, inputs) -> dict:
    """Observed per-edge input ranges over a calibration set, widened by
    CALIBRATION_WIDEN of the range (split evenly between the two ends);
    an input that never varies gets 0.5 on each side.

    Keys are (layer_index, out_node, in_node); every edge fed by one
    input gets that input's range. A layer whose inputs give no finite
    domain lo < hi raises NumericalError.
    """
    return next(_calibrated(net, inputs))


def _calibrated(net: QkanNetwork, inputs):
    """Yields calibrate_domains(net, inputs), then the network
    output on the inputs, so a caller that needs both runs each layer
    once; the last layer runs only when the output is asked for. An
    output that is not finite raises NumericalError."""
    x, _ = _as_batch(np.asarray(inputs, dtype=np.float64), net.in_dim,
                     "calibration inputs")
    if net.encoder is not None:
        x = net.encoder.forward(x)
    domains = {}
    for li, layer in enumerate(net.layers):
        lo, hi = x.min(axis=0), x.max(axis=0)
        span = hi - lo
        pad = np.where(span > 0, 0.5 * CALIBRATION_WIDEN * span, 0.5)
        lo, hi = (lo - pad).tolist(), (hi + pad).tolist()
        if not all(-np.inf < a < b < np.inf for a, b in zip(lo, hi)):
            raise NumericalError(f"layer {li}: no finite calibration domain")
        for i in range(layer.n_in):
            for j in range(layer.n_out):
                domains[(li, j, i)] = (lo[i], hi[i])
        if li + 1 < len(net.layers):
            x = layer.forward(x)
    yield domains
    x = net.layers[-1].forward(x)
    if net.decoder is not None:
        x = net.decoder.forward(x)
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise NumericalError(f"calibration: {bad} of {x.size} network "
                             f"outputs are NaN or infinite")
    yield x


def distill_network(net: QkanNetwork, domains: dict, grid_size: int = 20,
                    degree: int = 3, samples: int = 256):
    """Distill every edge; returns (SplineNetwork, per-edge fit report).

    Before any circuit runs, grid_size and degree must be >= 1 and every
    domain must satisfy lo < hi (ValueError), and `samples` must reach
    grid_size + degree, an edge's coefficient count (FitError). Then
    each layer is sampled at `samples` uniform points of every edge's
    domain, in the row blocks of block_rows (so the circuit's working
    memory is bounded by network.BLOCK_BYTES), and edges with bitwise
    equal domains share one least-squares solve, in the order of their
    first edge. Non-finite samples or coefficients (NumericalError) and
    a rank-deficient design (FitError) name the edge.
    """
    if grid_size < 1 or degree < 1:
        raise ValueError("grid_size and degree must be >= 1")
    n_coef = grid_size + degree
    if samples < n_coef:
        raise FitError(f"need at least {n_coef} samples, got {samples}")
    bounds = []
    for li, layer in enumerate(net.layers):
        b = np.array([domains[(li, j, i)] for j in range(layer.n_out)
                      for i in range(layer.n_in)], dtype=np.float64)
        if b.shape != (layer.n_out * layer.n_in, 2):
            raise ValueError("each domain must be a (lo, hi) pair")
        if not np.all(b[:, 0] < b[:, 1]):
            raise ValueError("lo must be below hi")
        bounds.append(b)
    grids, report = [], {}
    for li, (layer, b) in enumerate(zip(net.layers, bounds)):
        n_in = layer.n_in

        def named(k: int, what: str) -> str:
            return f"edge (layer {li}, out {k // n_in}, in {k % n_in}): {what}"

        row = layer.as_row()
        xs = np.linspace(b[:, 0], b[:, 1], samples)            # (S, K)
        ys = np.empty_like(xs)
        for rows in row_blocks(samples, block_rows([row])):
            z = daruan.circuit_expectation(row.enc_w, row.enc_b, row.angles,
                                           xs[rows])
            ys[rows] = (row.w_quant * z + row.out_bias)[:, 0]
        finite = np.isfinite(ys).all(axis=0)
        if not finite.all():
            raise NumericalError(named(int(np.argmin(finite)),
                                       "circuit samples are not finite"))
        # keyed by bit pattern, so that -0.0 and 0.0 give their own knots
        groups: dict = {}
        for k, key in enumerate(map(tuple, b.view(np.int64).tolist())):
            groups.setdefault(key, []).append(k)
        models = [None] * len(b)
        for cols in groups.values():
            try:
                fitted = _fit_columns(xs[:, cols[0]], ys[:, cols], grid_size,
                                      degree, tuple(b[cols[0]].tolist()))
            except FitError as exc:
                raise FitError(named(cols[0], str(exc))) from exc
            for k, model in zip(cols, fitted):
                if not np.isfinite(model.coefficients).all():
                    raise NumericalError(named(
                        k, "fitted spline coefficients are not finite"))
                model.w_base = float(row.w_base[0, k])
                model.out_bias = float(row.out_bias[0, k])
                models[k] = model
        del xs, ys  # freed before the next layer is sampled
        grids.append([models[j:j + n_in] for j in range(0, len(b), n_in)])
        for k, model in enumerate(models):
            report[(li, k // n_in, k % n_in)] = {"max_err": model.fit_max_err,
                                                 "rms_err": model.fit_rms_err}
    spline_net = SplineNetwork(
        edges=grids,
        encoder=net.encoder.copy() if net.encoder else None,
        decoder=net.decoder.copy() if net.decoder else None,
    )
    return spline_net, report
