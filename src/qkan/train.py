"""Losses, optimizers and the full-batch training loop.

L-BFGS uses the two-loop recursion with a strong-Wolfe line search
(c1 = 1e-4, c2 = 0.9); one "epoch" is one accepted quasi-Newton step on
the full batch. Curvature pairs with s.y <= 1e-12 are rejected, falling
back to steepest descent when no history remains. Adam is the standard
bias-corrected update. Runs are deterministic given (seed, config).

The loss closure is fg(params, bound=inf) -> (loss, gradient). The line
search passes its start loss as the bound, and fg may answer a trial
whose loss is above it with (inf, None), stopping the pass as soon as
its running loss is past the bound: the search rejects such a trial
without reading its gradient, so every step, loss and event is the same
as with full passes. Every other call keeps the infinite default.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .network import QkanNetwork, batch_blocks, map_blocks

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
CURVATURE_MIN = 1e-12
MAX_LINE_SEARCH_TRIALS = 25
GRAD_TOL = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred)
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.mean((pred - target) ** 2))


def rmse(pred, target) -> float:
    return float(np.sqrt(mse_loss(pred, target)))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, n_params: int, lr: float) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), lr=lr)


def adam_step(state: AdamState, params: np.ndarray,
              grads: np.ndarray) -> np.ndarray:
    """One bias-corrected Adam update; returns the new parameter vector."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state shapes must match")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads ** 2
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _wolfe_search(fg, x, d, f0, g0, events: list):
    """Strong-Wolfe line search along d (Nocedal-style bracket + zoom).

    Returns (alpha, f_new, g_new). A trial with a non-finite loss or
    slope counts as a step that is too long. After
    MAX_LINE_SEARCH_TRIALS evaluations without a Wolfe point, the
    search appends an event to `events` and returns the trial with the
    lowest finite loss below f0, without evaluating fg again, or the
    zero step (0, f0, g0) when no trial lowered the loss.

    When dg0 <= 0, a trial whose loss is above f0 fails sufficient
    decrease before its gradient is read. So each trial is then
    fg(x + alpha * d, f0), and fg may return (inf, None) for such a
    trial; the search treats that as a non-finite trial and takes the
    same steps as with full trials. Otherwise the trials pass no bound.
    """
    dg0 = float(d @ g0)
    bound = f0 if dg0 <= 0 else math.inf
    evals = 0
    best = (0.0, f0, g0)

    def phi(alpha):
        nonlocal evals, best
        evals += 1
        f, g = fg(x + alpha * d, bound)
        dg = math.nan if g is None else float(d @ g)
        if not (np.isfinite(f) and np.isfinite(dg)):
            f = np.inf   # fails every sufficient-decrease test below
        elif f < best[1]:
            best = (alpha, f, g)
        return f, g, dg

    def zoom(a_lo, a_hi, f_lo, dg_lo):
        for _ in range(MAX_LINE_SEARCH_TRIALS):
            if evals >= MAX_LINE_SEARCH_TRIALS:
                break
            a = 0.5 * (a_lo + a_hi)
            f, g, dg = phi(a)
            if f > f0 + WOLFE_C1 * a * dg0 or f >= f_lo:
                a_hi = a
            else:
                if abs(dg) <= -WOLFE_C2 * dg0:
                    return a, f, g
                if dg * (a_hi - a_lo) >= 0:
                    a_hi = a_lo
                a_lo, f_lo, dg_lo = a, f, dg
        return None

    a_prev, f_prev, dg_prev = 0.0, f0, dg0
    a = 1.0
    for _ in range(MAX_LINE_SEARCH_TRIALS):
        f, g, dg = phi(a)
        if f > f0 + WOLFE_C1 * a * dg0 or (evals > 1 and f >= f_prev):
            res = zoom(a_prev, a, f_prev, dg_prev)
            if res is not None:
                return res
            break
        if abs(dg) <= -WOLFE_C2 * dg0:
            return a, f, g
        if dg >= 0:
            res = zoom(a, a_prev, f, dg)
            if res is not None:
                return res
            break
        a_prev, f_prev, dg_prev = a, f, dg
        a = 2.0 * a
        if evals >= MAX_LINE_SEARCH_TRIALS:
            break

    events.append(f"line-search failure after {evals} trials; "
                  + (f"accepted the best trial step {best[0]:.3e}"
                     if best[0] else
                     "no trial lowered the loss, taking a zero step"))
    return best


def lbfgs_minimize(fg, x0: np.ndarray, max_iter: int, history: int, callback):
    """Two-loop-recursion L-BFGS. fg(x, bound=inf) -> (loss, grad),
    keeping the last `history` curvature pairs; callback(it, x, loss) is
    called after each iteration.

    The line search passes its start loss as `bound`: fg may then return
    (inf, None) for a point whose loss is above the bound instead of
    computing its gradient. An fg that ignores the bound gives the same
    run. The first fg call passes no bound.

    A zero step from the line search clears the curvature history, so
    the next iteration searches along steepest descent; when the failed
    search already was along steepest descent, the run stops.

    Returns (x, trace of per-iteration losses, events).
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fg(x)
    s_hist: deque = deque(maxlen=history)
    y_hist: deque = deque(maxlen=history)
    losses = []
    events: list = []
    for it in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRAD_TOL:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, y in reversed(list(zip(s_hist, y_hist))):
            rho = 1.0 / float(y @ s)
            a = rho * float(s @ q)
            alphas.append((a, rho, s, y))
            q -= a * y
        if y_hist:
            s_last, y_last = s_hist[-1], y_hist[-1]
            q *= float(s_last @ y_last) / float(y_last @ y_last)
        for a, rho, s, y in reversed(alphas):
            b = rho * float(y @ q)
            q += (a - b) * s
        d = -q
        if float(d @ g) >= 0:
            d = -g   # not a descent direction; fall back
        alpha, f_new, g_new = _wolfe_search(fg, x, d, f, g, events)
        s = alpha * d
        y = g_new - g
        restart = alpha == 0.0 and bool(s_hist)
        if alpha == 0.0:
            events.append("L-BFGS history cleared; restarting from steepest "
                          "descent" if restart else
                          "no lower point along steepest descent; stopping")
            s_hist.clear()
            y_hist.clear()
        elif float(s @ y) > CURVATURE_MIN:
            s_hist.append(s)
            y_hist.append(y)
        x = x + s
        f, g = f_new, g_new
        losses.append(f)
        callback(it, x, f)
        if not restart and \
                float(np.linalg.norm(s)) <= 1e-15 * max(1.0, float(np.linalg.norm(x))):
            break
    return x, losses, events


@dataclass
class TrainConfig:
    optimizer: str = "lbfgs"     # "lbfgs" or "adam"
    epochs: int = 200
    lr: float = 1e-3             # adam only
    history: int = 10            # lbfgs only

    def __post_init__(self):
        if self.optimizer not in ("lbfgs", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if type(self.epochs) is not int or self.epochs < 0:
            raise ValueError(f"epochs must be an integer >= 0, got "
                             f"{self.epochs!r}")
        if type(self.history) is not int or self.history < 0:
            raise ValueError(f"history must be an integer >= 0, got "
                             f"{self.history!r}")
        if not isinstance(self.lr, (int, float)) or not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be a finite number > 0, got "
                             f"{self.lr!r}")


@dataclass
class TrainResult:
    trace: list                  # rows: epoch, train_rmse, test_rmse, elapsed_ms
    best_params: np.ndarray
    best_epoch: int
    best_test_rmse: float
    events: list = field(default_factory=list)


def _loss_closure(net: QkanNetwork, dataset: Dataset):
    """fg(params, bound=inf) -> (MSE loss, its flat gradient) on the dataset.

    The loss is a sum over samples, so the batch streams through the
    network in the row blocks of network.batch_blocks: each block runs
    forward with a tape and then backward, two blocks at a time
    (network.map_blocks). Each block's loss and gradient are added into
    the first block's in block order, so the result is bitwise that of
    running the same blocks one after another, on any number of CPUs. A
    batch of one block runs exactly the unblocked pass.

    A finite `bound` lets fg drop a pass whose loss cannot be at most
    the bound: the block losses are non-negative, so once their running
    sum over y.size is past it (or NaN), fg stops and returns (inf,
    None); a block whose own loss is past it skips its backward. An
    infinite or NaN bound, the default, never stops a pass.
    """
    x, y = dataset.inputs, dataset.targets
    scale = 2.0 / y.size
    blocks = batch_blocks(len(x), net.layers)

    def past(loss: float, bound: float) -> bool:
        return bound < math.inf and not loss / y.size <= bound

    def block_fg(rows, bound):
        tape: list = []
        resid = net.forward(x[rows], tape) - y[rows]
        loss = float(np.sum(resid ** 2))
        if past(loss, bound):
            return loss, None   # the pass stops at this block
        grad = net.grad_vector(net.backward(scale * resid, tape))
        return loss, grad

    def fg(params: np.ndarray, bound: float = math.inf):
        net.set_param_vector(params)
        total, grad = 0.0, None
        with closing(map_blocks(partial(block_fg, bound=bound),
                                blocks)) as results:
            for block_loss, block_grad in results:
                total += block_loss
                # a block that skipped its backward is past the bound,
                # and so is any sum that includes it
                if past(total, bound):
                    return math.inf, None
                if grad is None:
                    grad = block_grad
                else:
                    grad += block_grad
        return total / y.size, grad

    return fg


def train(net: QkanNetwork, train_ds: Dataset, test_ds: Dataset,
          config: TrainConfig) -> TrainResult:
    """Full-batch training; keeps the best-by-test-RMSE parameters.

    Each trace row scores one parameter vector on both sets: an L-BFGS
    row the parameters after its step, an Adam row e the parameters
    after e updates, which fg scores before update e+1.

    The network is left at its final-epoch parameters; use
    `result.best_params` for the selected checkpoint. Raises
    NumericalError on NaN loss.
    """
    fg = _loss_closure(net, train_ds)
    params = net.param_vector()
    trace: list = []
    best = {"epoch": -1, "rmse": np.inf, "params": params.copy()}
    t0 = time.perf_counter()

    def record(epoch: int, params_now: np.ndarray, loss: float):
        if not np.isfinite(loss):
            raise NumericalError(
                f"NaN/inf loss at epoch {epoch} "
                f"(parameter norm {np.linalg.norm(params_now):.3e})")
        net.set_param_vector(params_now)
        train_rmse = float(np.sqrt(loss))
        test_rmse = rmse(net.forward(test_ds.inputs), test_ds.targets)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        trace.append({"epoch": epoch, "train_rmse": train_rmse,
                      "test_rmse": test_rmse, "elapsed_ms": elapsed_ms})
        if test_rmse < best["rmse"]:
            best.update(epoch=epoch, rmse=test_rmse, params=params_now.copy())

    events: list = []
    if config.epochs == 0:
        pass
    elif config.optimizer == "lbfgs":
        params, _, events = lbfgs_minimize(
            fg, params, max_iter=config.epochs, history=config.history,
            callback=record)
    else:
        state = AdamState.init(params.size, lr=config.lr)
        for epoch in range(config.epochs):
            # fg just scored these parameters: record them, then update
            loss, grads = fg(params)
            record(epoch, params, loss)
            params = adam_step(state, params, grads)
    net.set_param_vector(params)
    if best["epoch"] < 0:
        best.update(epoch=0, rmse=float("nan"), params=params.copy())
    return TrainResult(trace=trace, best_params=best["params"],
                       best_epoch=best["epoch"], best_test_rmse=best["rmse"],
                       events=events)


def trace_to_csv(trace: list) -> str:
    lines = ["epoch,train_rmse,test_rmse,elapsed_ms"]
    for row in trace:
        lines.append(f"{row['epoch']},{row['train_rmse']:.17g},"
                     f"{row['test_rmse']:.17g},{row['elapsed_ms']:.3f}")
    return "\n".join(lines) + "\n"
