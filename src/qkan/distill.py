"""Distillation of trained activation edges to classical B-splines.

Each edge is sampled on a grid, and the quantum part of its output
(w_quant * <Z> + out_bias) is least-squares fitted with B-spline
coefficients on a clamped uniform knot vector. The silu residual path
is carried over symbolically, so the spline only has to fit the smooth
bounded circuit output. Out-of-domain evaluation clamps to the nearest
boundary. A domain, and with it the knots, belongs to a layer input:
every edge fed by one input shares them. The inputs are checked before
any circuit runs; then all of a layer's edges are sampled together, one
circuit call per row block of sample points, and each input's edges
share one design matrix and one least-squares solve.

Cox-de Boor evaluation (`bspline_basis`) builds the least-squares
design matrix only. For evaluation, each layer of edges is converted
once to a piecewise-polynomial table (breakpoints and Taylor
coefficients of every piece). Every edge's knots must be the uniform
ones of `make_knots`, so an input's piece is one multiply away. For
each row block, the piece and the offset t in it are computed once per
(row, input); one gather of (input, piece) coefficient blocks and one
contraction with (1, t, .., t^D, silu(x)) give every output. A layer
returns outputs only; SplineNetwork.evaluate also counts the clamped
inputs. Passes take (batch, dim) arrays; one sample is x[None].
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import daruan
from .checkpoint import (check_object, check_version, finite_array,
                         parse_json, write_json)
from .daruan import silu
from .errors import DataError, FitError, NumericalError
from .network import (LinearLayer, QkanNetwork, _as_batch, _check_widths,
                      block_rows, row_blocks)

SPLINE_FORMAT = "qkan-spline-network"
SPLINE_FORMAT_VERSION = 1
SPLINE_KEYS = ("format", "format_version", "encoder", "decoder", "layers")

#: calibrate_domains widens each observed input range by this fraction of it
CALIBRATION_WIDEN = 0.1
#: sample points per input domain that distill_network fits to
SAMPLES = 256


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


def design_rank(grid_size: int, degree: int) -> int:
    """Rank, with lstsq's tolerance, of the design matrix that a fit of
    `grid_size` intervals and `degree` solves at SAMPLES uniform points.
    Knots and samples are affine in the domain, so up to rounding the
    design is the same on every domain; it is built on [0, 1]."""
    knots = make_knots(0.0, 1.0, grid_size, degree)
    design = bspline_basis(knots, degree, np.linspace(0.0, 1.0, SAMPLES))
    return int(np.linalg.matrix_rank(design))


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
    """An n_out x n_in grid of spline edges as one table.

    The edges fed by one input share that input's domain and knot span
    and piece count (first, last, G), compared by bit pattern, so they
    share its piece index; their degrees may differ. D is the largest
    degree in the layer and W the largest piece count.

    lo, hi, _first, _scale (n_in,): domain, first breakpoint and pieces
    over span of each input's edges.
    _left (n_in * W,): the left breakpoints of each input's pieces,
    padded with zeros.
    _base, _last (n_in,): index of an input's first and last piece.
    _table (n_in * W, D + 2, n_out): for each (input, piece), the
    coefficients of t^0 .. t^D of the edges from that input to every
    output, then their w_base, the coefficient of silu(x). Padded
    pieces and degrees hold zeros.

    Every edge's knots are uniform (see _check_knots), so the piece of
    an input comes from one multiply: trunc((x - first breakpoint) *
    pieces / span), capped at the last piece; t is (x - its stored left
    breakpoint) * pieces / span, in piece widths whatever the span. Both
    are computed once per (row, input). One gather of a coefficient
    block per (row, input) and one contraction with
    (1, t, .., t^D, silu(x)) give every output.
    """

    def __init__(self, grid):
        n_out, n_in = len(grid), (len(grid[0]) if grid else 0)
        if n_in == 0 or any(len(row) != n_in for row in grid):
            raise ValueError("a spline layer must be a nonempty rectangular "
                             "grid of edges")
        self.n_out, self.n_in = n_out, n_in
        edges = [edge for row in grid for edge in row]
        domain = np.array([edge.domain for edge in edges], dtype=np.float64)
        groups: dict = {}
        for k, edge in enumerate(edges):
            key = (int(edge.degree), len(edge.knots), len(edge.coefficients))
            groups.setdefault(key, []).append(k)
        degree_max = max(d for d, _, _ in groups)
        width = max(n - 2 * d - 1 for d, n, _ in groups)
        left = np.zeros((len(edges), width))
        coefs = np.zeros((len(edges), width, degree_max + 2))
        scale = np.empty(len(edges))
        # first knot, last knot and piece count, which with the degree
        # give the knots
        span = np.empty((len(edges), 3))
        for (degree, n, n_coef), rows in groups.items():
            knots = np.array([edges[k].knots for k in rows], dtype=np.float64)
            scale[rows] = _check_knots(knots, degree, n_coef, domain[rows])
            g = n - 2 * degree - 1
            span[rows] = np.column_stack([knots[:, 0], knots[:, -1],
                                          np.full(len(rows), g)])
            left[rows, :g] = knots[:, degree:n - degree - 1]
            coefs[rows, :g, :degree + 1] = _power_form(
                knots, np.array([edges[k].coefficients for k in rows],
                                dtype=np.float64), degree, scale[rows, None])
            coefs[rows, :g, -1] = [[edges[k].w_base] for k in rows]
        # compared by bit pattern, so that -0.0 and 0.0 differ
        key = np.hstack([domain, span]).view(np.int64).reshape(n_out, n_in, 5)
        differ = np.any(key != key[0], axis=(0, 2))
        if differ.any():
            raise ValueError(f"the edges of input {int(np.argmax(differ))} "
                             f"differ in domain or knot span")
        # (n_out, n_in, W, D + 2) -> (n_in, W, D + 2, n_out), contiguous so
        # that take does not copy it first
        self._table = np.moveaxis(
            coefs.reshape(n_out, n_in, width, degree_max + 2), 0, -1
        ).copy().reshape(n_in * width, degree_max + 2, n_out)
        self.lo, self.hi = domain[:n_in, 0], domain[:n_in, 1]
        self._first, self._scale = left[:n_in, 0], scale[:n_in]
        self._left = left[:n_in].ravel()
        self._base = np.arange(n_in) * width
        self._last = self._base + span[:n_in, 2].astype(np.intp) - 1

    def forward(self, x):
        """x (B, n_in) -> outputs (B, n_out). A batch larger than
        block_rows([self]) runs one row block at a time."""
        return np.concatenate([self._forward(x[rows]) for rows in
                               row_blocks(len(x), block_rows([self]))])

    def _forward(self, x):
        """forward of a (B, n_in) batch in one piece."""
        n_rows = len(x)
        # fmax/fmin send NaN into the domain too, so the piece index is a
        # finite number; silu(x) still makes that output NaN
        xc = np.fmin(np.fmax(x, self.lo), self.hi)
        u = xc - self._first
        u *= self._scale
        pos = u.astype(np.intp)
        pos += self._base
        np.minimum(pos, self._last, out=pos)
        t = xc - self._left.take(pos)
        t *= self._scale                       # in piece widths
        n_powers = self._table.shape[1]
        powers = np.empty(t.shape + (n_powers,))
        powers[..., 0] = 1.0
        powers[..., 1] = t
        for m in range(2, n_powers - 1):
            np.multiply(powers[..., m - 1], t, out=powers[..., m])
        powers[..., -1] = silu(x)
        k = self.n_in * n_powers
        # einsum("bk,bkj->bj") as the batched matmul that
        # einsum(optimize=True) would run; einsum's own loop over the
        # outputs is 2-4 times slower
        y = np.matmul(powers.reshape(n_rows, 1, k),
                      self._table.take(pos, axis=0).reshape(n_rows, k,
                                                            self.n_out))
        return y[:, 0]


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
    _stages: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.edges:
            raise ValueError("a spline network needs at least one layer")
        self._layers = [_PiecewiseLayer(grid) for grid in self.edges]
        stages = [self.encoder, *self._layers, self.decoder]
        self._stages = [stage for stage in stages if stage is not None]
        _check_widths(self._stages)

    @property
    def in_dim(self) -> int:
        return self._stages[0].n_in

    def evaluate(self, x):
        """(forward(x), number of edge evaluations clamped into their
        domain): each spline layer input outside its domain, +-inf
        included and NaN not, counts once per output of that layer."""
        x = _as_batch(x, self.in_dim, "spline network input")
        clamped = 0
        for stage in self._stages:
            if isinstance(stage, _PiecewiseLayer):
                outside = (x < stage.lo) | (x > stage.hi)
                clamped += stage.n_out * int(np.count_nonzero(outside))
            x = stage.forward(x)
        return x, clamped

    def forward(self, x) -> np.ndarray:
        x = _as_batch(x, self.in_dim, "spline network input")
        for stage in self._stages:
            x = stage.forward(x)
        return x

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


def calibrate_domains(net: QkanNetwork, inputs) -> list:
    """Observed input ranges over a calibration set, widened by
    CALIBRATION_WIDEN of the range (split evenly between the two ends);
    an input that never varies gets 0.5 on each side.

    Returns one float64 (n_in, 2) array of (lo, hi) per QKAN layer: the
    range of each of its inputs, which every edge fed by that input
    shares. A layer whose inputs give no finite domain lo < hi raises
    NumericalError.
    """
    return next(_calibrated(net, inputs))


def _calibrated(net: QkanNetwork, inputs):
    """Yields calibrate_domains(net, inputs), then the network
    output on the inputs, so a caller that needs both runs each layer
    once; the last layer runs only when the output is asked for. An
    output that is not finite raises NumericalError."""
    x = _as_batch(inputs, net.in_dim, "calibration inputs")
    if net.encoder is not None:
        x = net.encoder.forward(x)
    domains = []
    for li, layer in enumerate(net.layers):
        lo, hi = x.min(axis=0), x.max(axis=0)
        span = hi - lo
        pad = np.where(span > 0, 0.5 * CALIBRATION_WIDEN * span, 0.5)
        lo, hi = lo - pad, hi + pad
        if not np.all((-np.inf < lo) & (lo < hi) & (hi < np.inf)):
            raise NumericalError(f"layer {li}: no finite calibration domain")
        domains.append(np.column_stack([lo, hi]))
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


def distill_network(net: QkanNetwork, domains: list, grid_size: int = 20,
                    degree: int = 3):
    """Distill every edge; returns (SplineNetwork, per-edge fit report).

    `domains` holds one (n_in, 2) array of (lo, hi) per QKAN layer, as
    calibrate_domains gives it: every edge fed by one input is fitted
    on that input's domain. Before any circuit runs, grid_size and
    degree must be >= 1, the domains must have those shapes and satisfy
    lo < hi (ValueError), and SAMPLES must reach grid_size + degree,
    an edge's coefficient count (FitError). Then each layer is sampled
    at SAMPLES uniform points of every input's domain, in the row
    blocks of block_rows (so the circuit's working memory is bounded by
    network.BLOCK_BYTES), and each input gets one least-squares solve,
    with the samples of its n_out edges as right-hand sides. The report
    has one entry per edge, keyed (layer, out, in). Non-finite samples
    or coefficients (NumericalError) and a rank-deficient design
    (FitError) name the edge.
    """
    if grid_size < 1 or degree < 1:
        raise ValueError("grid_size and degree must be >= 1")
    n_coef = grid_size + degree
    if SAMPLES < n_coef:
        raise FitError(f"need at least {n_coef} samples, got {SAMPLES}")
    if len(domains) != len(net.layers):
        raise ValueError(f"domains must hold one array per layer "
                         f"({len(net.layers)}), got {len(domains)}")
    domains = [np.asarray(b, dtype=np.float64) for b in domains]
    for li, (layer, b) in enumerate(zip(net.layers, domains)):
        if b.shape != (layer.n_in, 2):
            raise ValueError(f"layer {li} domains must have shape "
                             f"({layer.n_in}, 2), got {b.shape}")
    if not all(np.all(b[:, 0] < b[:, 1]) for b in domains):
        raise ValueError("lo must be below hi")
    grids, report = [], {}
    for li, (layer, b) in enumerate(zip(net.layers, domains)):

        def named(j: int, i: int, what: str) -> str:
            return f"edge (layer {li}, out {j}, in {i}): {what}"

        xs = np.linspace(b[:, 0], b[:, 1], SAMPLES)         # (S, n_in)
        ys = np.empty((layer.n_out, layer.n_in, SAMPLES))
        for rows in row_blocks(SAMPLES, block_rows([layer])):
            z, _ = daruan.circuit_forward(layer.enc_w, layer.enc_b,
                                          layer.angles, xs[rows])
            z *= layer.w_quant[..., None]
            z += layer.out_bias[..., None]
            ys[..., rows] = z
        finite = np.isfinite(ys).all(axis=2)
        if not finite.all():
            j, i = np.unravel_index(np.argmin(finite), finite.shape)
            raise NumericalError(named(j, i, "circuit samples are not finite"))
        columns = []
        for i in range(layer.n_in):
            try:
                fitted = _fit_columns(xs[:, i], ys[:, i].T, grid_size,
                                      degree, tuple(b[i].tolist()))
            except FitError as exc:
                raise FitError(named(0, i, str(exc))) from exc
            for j, model in enumerate(fitted):
                if not np.isfinite(model.coefficients).all():
                    raise NumericalError(named(
                        j, i, "fitted spline coefficients are not finite"))
                model.w_base = float(layer.w_base[j, i])
                model.out_bias = float(layer.out_bias[j, i])
            columns.append(fitted)
        del xs, ys  # freed before the next layer is sampled
        grids.append([list(row) for row in zip(*columns)])
        for j, row in enumerate(grids[-1]):
            for i, model in enumerate(row):
                report[(li, j, i)] = {"max_err": model.fit_max_err,
                                      "rms_err": model.fit_rms_err}
    spline_net = SplineNetwork(
        edges=grids,
        encoder=net.encoder.copy() if net.encoder else None,
        decoder=net.decoder.copy() if net.decoder else None,
    )
    return spline_net, report
