"""QKAN layers and networks.

A layer holds one activation edge per (output node, input node) pair,
with all edge parameters stacked into arrays of leading shape
(n_out, n_in) so forward/backward vectorize over batch and edges. The
circuit kernel keeps the batch last: its state and tape are
(n_out, n_in, B) arrays, along whose contiguous batch axis each edge's
parameters broadcast. Layer inputs and outputs stay (B, width). Node
values are sums of incoming edge activations. A network optionally
wraps the stack with linear encoder/decoder layers (HQKAN).

Batched passes stream the batch in row blocks sized by BLOCK_BYTES, so
their working memory is set by the block and not by the batch. A batch
that fits one block runs in one piece. A larger one is cut into blocks
of half that size (batch_blocks), and map_blocks runs up to
MAX_WORKERS of them at once on a thread pool: numpy's ufuncs release the
GIL, so two blocks use two CPUs, and about BLOCK_BYTES stay in flight.
The partition does not depend on the CPU count and the caller combines
block results in block order, so results are bitwise the same on every
host. This is the only module that runs threads.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import daruan
from .daruan import DaruanParams, silu, silu_grad


#: bytes of one float64 (n_out, n_in, rows) array of the widest layer; the
#: circuit's (r, n_out, n_in, rows) tape is r times this
BLOCK_BYTES = 256 * 1024


def block_rows(layers) -> int:
    """Rows per block: the most whose (n_out, n_in, rows) float64 array
    fits BLOCK_BYTES in the widest of `layers`, and at least one."""
    edges = max(layer.n_out * layer.n_in for layer in layers)
    return max(1, BLOCK_BYTES // (8 * edges))


def row_blocks(n: int, rows: int) -> list[slice]:
    """Slices cutting n rows into consecutive blocks of `rows` (the last
    may be shorter); one block when n <= rows, even when n is 0."""
    return [slice(start, start + rows) for start in range(0, max(n, 1), rows)]


#: most row blocks that run at once
MAX_WORKERS = 2

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_worker = threading.local()


def batch_blocks(n: int, layers) -> list[slice]:
    """The row blocks of an n-row batch through `layers`: one block when
    n <= block_rows(layers), else blocks of half that many rows, so that
    two blocks in flight hold about BLOCK_BYTES."""
    rows = block_rows(layers)
    return row_blocks(n, rows if n <= rows else max(1, rows // 2))


def _workers() -> int:
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return min(MAX_WORKERS, cpus)


def _mark_worker() -> None:
    _worker.active = True


def _executor() -> ThreadPoolExecutor:
    """The module's pool, started on first use, so importing starts no
    thread."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(MAX_WORKERS, "qkan-block",
                                       initializer=_mark_worker)
        return _pool


def _forget_pool() -> None:
    """In a forked child: none of the parent's pool threads exist there,
    so a pass that queued blocks on the inherited pool would wait
    forever; the child starts its own pool on first use."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_blocks(fn, blocks: list):
    """A generator of fn(block) for each of `blocks`, in block order.

    Up to _workers() blocks run at once on the module's thread pool,
    each under the caller's numpy error state. The calls run serially
    for one block, on one usable CPU, or when made from a pool worker,
    so nested calls cannot deadlock. Each result is dropped once it is
    taken. A caller that stops early closes the generator: the blocks
    not started are cancelled and the running ones waited for, so no
    block outlives the pass (the next pass may rewrite the parameters
    in place).
    """
    if len(blocks) == 1 or _workers() == 1 or getattr(_worker, "active", False):
        yield from map(fn, blocks)
        return
    err = np.geterr()

    def run(block):
        with np.errstate(**err):
            return fn(block)

    pool = _executor()
    pending = deque(pool.submit(run, block) for block in blocks)
    try:
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()
        wait(pending)


def _as_batch(x, dim: int, what: str) -> np.ndarray:
    """x as a float64 (batch, dim) array; any other shape is a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{what} must be a (batch, {dim}) array, got shape "
                         f"{x.shape}; one sample is x[None]")
    if x.shape[1] != dim:
        raise ValueError(f"{what} has dimension {x.shape[1]}, expected {dim}")
    return x


def _check_widths(stages: list) -> None:
    """ValueError unless each of a network's stages, in evaluation
    order, takes as many values as the one before it gives."""
    for k, (a, b) in enumerate(zip(stages, stages[1:])):
        if a.n_out != b.n_in:
            raise ValueError(f"stage {k} outputs {a.n_out} values but "
                             f"stage {k + 1} takes {b.n_in}")


class _Stage:
    """Base of the network stages: dataclasses whose fields are exactly
    the trainable arrays named in PARAMS, in that order, which is also
    their order in the flat parameter vector."""

    PARAMS: tuple[str, ...]

    @classmethod
    def zeros(cls, *sizes):
        """A stage of these sizes with every parameter 0; each subclass's
        shapes(*sizes) gives the shapes of its arrays() in PARAMS order."""
        return cls(*map(np.zeros, cls.shapes(*sizes)))

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in self.PARAMS]

    def param_count(self) -> int:
        return sum(a.size for a in self.arrays())

    def copy(self):
        return type(self)(*(a.copy() for a in self.arrays()))


@dataclass
class QkanLayer(_Stage):
    """n_out x n_in grid of activation edges sharing one repetition count."""

    enc_w: np.ndarray    # (n_out, n_in, r)
    enc_b: np.ndarray    # (n_out, n_in, r)
    angles: np.ndarray   # (n_out, n_in, r+1, 3)
    w_base: np.ndarray   # (n_out, n_in)
    w_quant: np.ndarray  # (n_out, n_in)
    out_bias: np.ndarray # (n_out, n_in)

    # the checkpoint order of a layer's parameters; each array is
    # raveled row-major over (out, in, ...)
    PARAMS = ("enc_w", "enc_b", "angles", "w_base", "w_quant", "out_bias")

    @property
    def n_out(self) -> int:
        return self.enc_w.shape[0]

    @property
    def n_in(self) -> int:
        return self.enc_w.shape[1]

    @property
    def r(self) -> int:
        return self.enc_w.shape[2]

    @staticmethod
    def shapes(n_in: int, n_out: int, r: int) -> list[tuple]:
        edge_shapes = ((r,), (r,), (r + 1, 3), (), (), ())
        return [(n_out, n_in) + s for s in edge_shapes]

    @classmethod
    def init(cls, n_in: int, n_out: int, r: int, rng: np.random.Generator,
             angle_scale: float = 0.1, geometric: bool = True) -> "QkanLayer":
        if n_in < 1 or n_out < 1 or r < 1:
            raise ValueError("n_in, n_out and r must be >= 1")
        layer = cls.zeros(n_in, n_out, r)
        layer.enc_w[...] = 2.0 ** np.arange(r) if geometric else 1.0
        layer.angles[...] = rng.uniform(-angle_scale, angle_scale,
                                        size=layer.angles.shape)
        layer.w_base[...] = 1.0
        layer.w_quant[...] = 1.0
        return layer

    @classmethod
    def of_edge(cls, p: DaruanParams) -> "QkanLayer":
        """A 1x1 layer of [None, None] views of p's arrays, so one edge
        runs through the layer code; the inverse of get_edge(0, 0)."""
        return cls(*(np.asarray(getattr(p, name))[None, None]
                     for name in cls.PARAMS))

    def get_edge(self, j: int, i: int) -> DaruanParams:
        values = (a[j, i] for a in self.arrays())
        return DaruanParams(*(v.copy() if v.ndim else float(v)
                              for v in values))

    def forward(self, x, tape: list | None = None) -> np.ndarray:
        """y_j = sum_i phi_{j,i}(x_i); x (B, n_in) -> (B, n_out).

        When `tape` is a list, (x, circuit tape) is appended to it for
        backward and the batch runs in one piece. Without a tape, the
        batch runs in the row blocks of batch_blocks(len(x), [self]),
        two at a time (map_blocks); each output row is bitwise the one
        the one-piece pass gives.
        """
        x = _as_batch(x, self.n_in, "layer input")
        blocks = batch_blocks(len(x), [self])
        if tape is not None or len(blocks) == 1:
            return self._forward(x, tape)
        y = np.empty((len(x), self.n_out))
        for rows, y_rows in zip(blocks, map_blocks(
                lambda rows: self._forward(x[rows], None), blocks)):
            y[rows] = y_rows
        return y

    def _forward(self, x: np.ndarray, tape: list | None) -> np.ndarray:
        """forward of a (B, n_in) batch in one piece."""
        f, circuit_tape = daruan.circuit_forward(
            self.enc_w, self.enc_b, self.angles, x)
        if tape is not None:
            tape.append((x, circuit_tape))
        del circuit_tape   # without a tape list, freed before phi is built
        # a contiguous (B, n_out, n_in) phi, which sum reduces over the
        # inputs in numpy's pairwise order
        phi = np.multiply(self.w_quant, f.transpose(2, 0, 1), order="C")
        phi += self.w_base * silu(x)[:, None, :]
        phi += self.out_bias
        return phi.sum(axis=2)

    def backward(self, tape_entry, upstream: np.ndarray,
                 out: list[np.ndarray]) -> np.ndarray:
        """Gradients of sum_b upstream[b] . forward(x[b]).

        `tape_entry` is the (x, circuit tape) that forward recorded, and
        upstream must have x's rows (ValueError, before the adjoint).
        The parameter gradients are written into `out`, arrays shaped
        like arrays(), from the batch sums daruan.circuit_adjoint
        returns; the input derivative (B, n_in) is returned.
        """
        x, circuit_tape = tape_entry
        if len(upstream) != len(x):
            raise ValueError("upstream batch size must match the input")
        g_enc_w, g_enc_b, g_angles, g_w_base, g_w_quant, g_out_bias = out
        upq = self.w_quant[..., None] * upstream.T[:, None]   # (n_out, n_in, B)
        g_theta, g_beta, g_alpha0, g_w, d_x = daruan.circuit_adjoint(
            self.enc_w, self.angles, circuit_tape, x, upq)
        daruan.angle_grads(g_theta, g_beta, g_alpha0, g_angles)
        # b_l enters theta_l with unit coefficient, as gamma_l does
        g_enc_b[...] = g_angles[:, :, :-1, 2]
        g_enc_w[...] = g_w.transpose(1, 2, 0)
        np.matmul(upstream.T, silu(x), out=g_w_base)
        np.einsum("nmb,bn->nm", circuit_tape.final[2], upstream,
                  out=g_w_quant)
        g_out_bias[...] = upstream.sum(axis=0)[:, None]
        return d_x + (upstream @ self.w_base) * silu_grad(x)

    def extend(self, new_r: int) -> None:
        """In-place layer extension with identity-initialized blocks:
        each array keeps its values in the leading corner of the grown
        array and the new entries are zero."""
        if new_r <= self.r:
            raise ValueError(f"new_r must exceed current r={self.r}, "
                             f"got {new_r}")
        grown = QkanLayer.zeros(self.n_in, self.n_out, new_r)
        for name, old in zip(self.PARAMS, self.arrays()):
            new = getattr(grown, name)
            new[tuple(slice(k) for k in old.shape)] = old
            setattr(self, name, new)


@dataclass
class LinearLayer(_Stage):
    """Plain affine map y = W x + b."""

    weight: np.ndarray   # (n_out, n_in)
    bias: np.ndarray     # (n_out,)

    PARAMS = ("weight", "bias")

    @staticmethod
    def shapes(n_in: int, n_out: int) -> list[tuple]:
        return [(n_out, n_in), (n_out,)]

    @property
    def n_in(self) -> int:
        return self.weight.shape[1]

    @property
    def n_out(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def init(cls, n_in: int, n_out: int, rng: np.random.Generator) -> "LinearLayer":
        bound = 1.0 / np.sqrt(n_in)
        return cls(weight=rng.uniform(-bound, bound, size=(n_out, n_in)),
                   bias=np.zeros(n_out))

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """When `tape` is a list, x is appended to it for backward."""
        if tape is not None:
            tape.append(x)
        return x @ self.weight.T + self.bias

    def backward(self, x: np.ndarray, upstream: np.ndarray,
                 out: list[np.ndarray]) -> np.ndarray:
        """Writes the weight and bias gradients into `out`; returns the
        input derivative."""
        d_w, d_b = out
        np.matmul(upstream.T, x, out=d_w)
        np.sum(upstream, axis=0, out=d_b)
        return upstream @ self.weight


@dataclass
class NetworkGrads:
    flat: np.ndarray      # laid out like QkanNetwork.param_vector()
    d_input: np.ndarray


@dataclass
class QkanNetwork:
    """Composition of QKAN layers with optional linear encoder/decoder."""

    layers: list
    encoder: LinearLayer | None = None
    decoder: LinearLayer | None = None

    def __post_init__(self):
        _check_widths(self.stages())

    def stages(self) -> list:
        """Encoder, QKAN layers and decoder in evaluation order. The flat
        parameter vector is each stage's arrays() in this order."""
        stages = [self.encoder, *self.layers, self.decoder]
        return [stage for stage in stages if stage is not None]

    @property
    def shape(self) -> list[int]:
        return [self.layers[0].n_in] + [lay.n_out for lay in self.layers]

    @property
    def in_dim(self) -> int:
        return self.stages()[0].n_in

    @property
    def out_dim(self) -> int:
        return self.stages()[-1].n_out

    @classmethod
    def init(cls, shape: list[int], r: int, rng: np.random.Generator,
             angle_scale: float = 0.1) -> "QkanNetwork":
        if len(shape) < 2:
            raise ValueError("shape needs at least input and output widths")
        layers = [QkanLayer.init(shape[i], shape[i + 1], r, rng, angle_scale)
                  for i in range(len(shape) - 1)]
        return cls(layers=layers)

    def forward(self, x, tape: list | None = None) -> np.ndarray:
        """Network outputs. When `tape` is a list, every stage appends
        what its backward needs, so that backward(upstream, tape) needs
        no second forward pass."""
        x = _as_batch(x, self.in_dim, "network input")
        for stage in self.stages():
            x = stage.forward(x, tape)
        return x

    def backward(self, upstream, tape: list) -> NetworkGrads:
        """Gradients of sum_b upstream[b] . forward(x[b]) for every
        trainable scalar, plus the input derivative.

        `tape` is the list that forward(x, tape) filled, one entry per
        stage; a tape of another length, or an upstream whose rows are
        not x's, raises ValueError. backward runs no forward pass. It
        empties the tape, releasing each stage's entry once used. Each
        stage writes its gradients into views of one flat buffer.
        """
        upstream = _as_batch(upstream, self.out_dim, "upstream")
        if len(tape) != len(self.stages()):
            raise ValueError(f"tape holds {len(tape)} entries, expected one "
                             f"per stage ({len(self.stages())}); fill it "
                             f"with forward(x, tape)")
        flat = np.empty(self.param_count())
        up = upstream
        for stage, out in reversed(list(zip(self.stages(),
                                            self._views(flat)))):
            up = stage.backward(tape.pop(), up, out)
        return NetworkGrads(flat=flat, d_input=up)

    def extend(self, new_r: int) -> None:
        for layer in self.layers:
            layer.extend(new_r)

    def param_count(self) -> int:
        return sum(stage.param_count() for stage in self.stages())

    def copy(self) -> "QkanNetwork":
        return QkanNetwork(
            layers=[lay.copy() for lay in self.layers],
            encoder=self.encoder.copy() if self.encoder else None,
            decoder=self.decoder.copy() if self.decoder else None,
        )

    def _views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """Per stage, views of `flat` shaped like that stage's arrays()."""
        views, pos = [], 0
        for stage in self.stages():
            views.append([])
            for a in stage.arrays():
                views[-1].append(flat[pos:pos + a.size].reshape(a.shape))
                pos += a.size
        return views

    def param_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for stage in self.stages()
                               for a in stage.arrays()])

    def set_param_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.param_count():
            raise ValueError(f"expected {self.param_count()} parameters, "
                             f"got {vec.size}")
        for stage, views in zip(self.stages(), self._views(vec)):
            for a, v in zip(stage.arrays(), views):
                a[...] = v

    def grad_vector(self, grads: NetworkGrads) -> np.ndarray:
        """The flat gradient, laid out like param_vector() (not a copy)."""
        return grads.flat


def latent_dim(d: int) -> int:
    """HQKAN bottleneck width: floor(log2(d)) + 1 with a floor of 2."""
    if d < 1:
        raise ValueError("dimension must be positive")
    return max(2, int(d).bit_length())


def make_hqkan(in_dim: int, out_dim: int, r: int, hidden_shape=(), *,
               rng: np.random.Generator,
               angle_scale: float = 0.1) -> QkanNetwork:
    """Linear compressor -> QKAN core -> linear expander.

    The core runs over [latent(in_dim), *hidden_shape, latent(out_dim)].
    """
    if in_dim < 1 or out_dim < 1:
        raise ValueError("in_dim and out_dim must be positive")
    lat_in, lat_out = latent_dim(in_dim), latent_dim(out_dim)
    core_shape = [lat_in, *hidden_shape, lat_out]
    net = QkanNetwork.init(core_shape, r, rng, angle_scale)
    net.encoder = LinearLayer.init(in_dim, lat_in, rng)
    net.decoder = LinearLayer.init(lat_out, out_dim, rng)
    return net
