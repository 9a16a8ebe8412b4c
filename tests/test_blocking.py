"""Tests for streaming batches through the network in row blocks.

The one-block pass is the oracle: with network.BLOCK_BYTES patched
small, forward passes and spline evaluation must give bitwise the same
outputs, and fg the same loss and gradient up to summation order. fg
and tapeless forward passes run two blocks at a time on network's
thread pool; the threaded fg must equal the serial fg over the same
blocks bitwise.
"""

import importlib
import os
import pathlib
import re
import signal
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from qkan import daruan, distill, network
from qkan.data import Dataset
from qkan.network import QkanNetwork, make_hqkan

# the package re-exports a train() function under the same name
tr = importlib.import_module("qkan.train")

BATCH = 37


def make_plain(rng):
    return QkanNetwork.init([3, 4, 2, 1], 2, rng, angle_scale=1.0)


def make_hqkan_net(rng):
    return make_hqkan(5, 2, r=3, hidden_shape=(3,), rng=rng, angle_scale=1.0)


def small_blocks(monkeypatch, layers, rows=10):
    """Patch BLOCK_BYTES so the widest of `layers` takes `rows` rows per
    block, and check that BATCH then splits into >= 3 uneven blocks."""
    edges = max(layer.n_out * layer.n_in for layer in layers)
    monkeypatch.setattr(network, "BLOCK_BYTES", 8 * edges * rows)
    assert network.block_rows(layers) == rows
    sizes = [len(range(BATCH)[s])
             for s in network.batch_blocks(BATCH, layers)]
    assert len(sizes) >= 3 and len(set(sizes)) > 1


def two_workers(monkeypatch):
    """Run blocks two at a time even on a host with one usable CPU."""
    monkeypatch.setattr(network, "_workers", lambda: 2)


def kernel_rows(monkeypatch, threads: set | None = None) -> list:
    """Patch the circuit kernel to record the batch rows of each call,
    and the name of the thread that made it into `threads`."""
    calls = []
    kernel = daruan.circuit_forward

    def counting(*args, **kwargs):
        calls.append(args[3].shape[0])
        if threads is not None:
            threads.add(threading.current_thread().name)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(daruan, "circuit_forward", counting)
    return calls


def pool_threads(threads: set) -> set:
    return {name for name in threads if name.startswith("qkan-block")}


class TestRowBlocks:
    def test_blocks_cover_the_rows_in_order(self):
        for n, rows in [(0, 4), (1, 4), (4, 4), (5, 4), (37, 10)]:
            blocks = network.row_blocks(n, rows)
            assert np.array_equal(
                np.concatenate([np.arange(n)[s] for s in blocks]),
                np.arange(n))
            assert len(blocks) == max(1, -(-n // rows))

    def test_default_budget_keeps_small_batches_in_one_block(self):
        # the benchmark's feynman-cli and hqkan-r10 batches fit one block
        rng = np.random.default_rng(1)
        assert network.block_rows(
            QkanNetwork.init([2, 2, 1], 3, rng).layers) >= 1000
        assert network.block_rows(
            make_hqkan(64, 1, r=3, rng=rng).layers) >= 2000
        assert network.block_rows(
            QkanNetwork.init([16, 16], 3, rng).layers) == 128

    def test_batch_blocks_halve_only_batches_of_several_blocks(self):
        layers = QkanNetwork.init([16, 16], 3, np.random.default_rng(2)).layers
        assert network.batch_blocks(128, layers) == [slice(0, 128)]
        blocks = network.batch_blocks(129, layers)
        assert [len(range(129)[s]) for s in blocks] == [64, 64, 1]
        assert network.batch_blocks(1000, layers) == \
            network.row_blocks(1000, 64)


class TestBlockedForward:
    @pytest.mark.parametrize("make", [make_plain, make_hqkan_net],
                             ids=["plain", "hqkan"])
    def test_network_forward_bitwise_equal(self, make, monkeypatch):
        rng = np.random.default_rng(11)
        net = make(rng)
        x = rng.normal(scale=2.0, size=(BATCH, net.in_dim))
        want = net.forward(x)
        small_blocks(monkeypatch, net.layers)
        two_workers(monkeypatch)
        threads = set()
        calls = kernel_rows(monkeypatch, threads)
        np.testing.assert_array_equal(net.forward(x), want)
        assert len(calls) > len(net.layers)
        assert sum(calls) == BATCH * len(net.layers)
        assert pool_threads(threads)

    def test_layer_forward_bitwise_equal(self, monkeypatch):
        rng = np.random.default_rng(12)
        layer = make_plain(rng).layers[0]
        x = rng.normal(size=(BATCH, layer.n_in))
        want = layer.forward(x)
        small_blocks(monkeypatch, [layer])
        np.testing.assert_array_equal(layer.forward(x), want)
        np.testing.assert_array_equal(layer.forward(x[5:6]), want[5:6])

    def test_taped_forward_runs_one_block(self, monkeypatch):
        # the taped pass is fg's per-block pass; it must not split again
        rng = np.random.default_rng(13)
        layer = make_plain(rng).layers[0]
        x = rng.normal(size=(BATCH, layer.n_in))
        small_blocks(monkeypatch, [layer])
        tape = []
        y = layer.forward(x, tape)
        assert len(tape) == 1 and tape[0][1].tan_half.shape[-1] == BATCH
        assert y.shape == (BATCH, layer.n_out)

    def test_tape_is_r_plus_3_block_arrays(self):
        # tan(theta_l / 2) per encoding layer and the final Bloch vector:
        # cos and sin are rebuilt by the adjoint sweep, never stored
        rng = np.random.default_rng(14)
        layer = make_plain(rng).layers[0]
        x = rng.normal(size=(BATCH, layer.n_in))
        tape = []
        layer.forward(x, tape)
        circuit_tape = tape[0][1]
        assert circuit_tape._fields == ("tan_half", "final")
        arrays = [*circuit_tape.tan_half, *circuit_tape.final]
        assert len(arrays) == layer.r + 3
        for a in arrays:
            assert a.shape == (layer.n_out, layer.n_in, BATCH)
            assert a.dtype == np.float64
        theta = (layer.enc_w[None] * x[:, None, :, None] + layer.enc_b
                 + layer.angles[..., :-1, 2] + layer.angles[..., 1:, 0])
        t = circuit_tape.tan_half.transpose(3, 1, 2, 0)
        c, s = daruan._cos_sin(t, (np.empty(t.shape), np.empty(t.shape)))
        np.testing.assert_allclose(c, np.cos(theta), rtol=0, atol=1e-14)
        np.testing.assert_allclose(s, np.sin(theta), rtol=0, atol=1e-14)


class TestBlockedSpline:
    def test_evaluate_bitwise_equal_with_clamp_count(self, monkeypatch):
        rng = np.random.default_rng(21)
        net = make_hqkan_net(rng)
        calib = rng.uniform(-1.0, 1.0, size=(60, net.in_dim))
        snet, _ = distill.distill_network(
            net, distill.calibrate_domains(net, calib), grid_size=6)
        # wider than the calibration set, so some blocks clamp and some not
        x = rng.uniform(-1.0, 1.0, size=(BATCH, net.in_dim))
        x[::7] *= 4.0
        want, want_clamped = snet.evaluate(x)
        assert want_clamped > 0
        small_blocks(monkeypatch, snet._layers)
        got, clamped = snet.evaluate(x)
        np.testing.assert_array_equal(got, want)
        assert clamped == want_clamped


class TestBlockedLossClosure:
    @pytest.mark.parametrize("make", [make_plain, make_hqkan_net],
                             ids=["plain", "hqkan"])
    def test_matches_unblocked_fg(self, make, monkeypatch):
        rng = np.random.default_rng(31)
        net = make(rng)
        ds = Dataset(rng.normal(size=(BATCH, net.in_dim)),
                     rng.normal(size=(BATCH, net.out_dim)))
        params = net.param_vector()
        want_loss, want_grad = tr._loss_closure(net, ds)(params)
        want_grad = want_grad.copy()
        small_blocks(monkeypatch, net.layers)
        loss, grad = tr._loss_closure(net, ds)(params)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        assert (np.linalg.norm(grad - want_grad)
                <= 1e-12 * np.linalg.norm(want_grad))

    @pytest.mark.parametrize("make", [make_plain, make_hqkan_net],
                             ids=["plain", "hqkan"])
    def test_one_kernel_call_per_block_and_layer(self, make, monkeypatch):
        rng = np.random.default_rng(32)
        net = make(rng)
        ds = Dataset(rng.normal(size=(BATCH, net.in_dim)),
                     rng.normal(size=(BATCH, net.out_dim)))
        small_blocks(monkeypatch, net.layers)
        fg = tr._loss_closure(net, ds)
        calls = kernel_rows(monkeypatch)
        fg(net.param_vector())
        blocks = len(network.batch_blocks(BATCH, net.layers))
        assert len(calls) == blocks * len(net.layers)
        assert sum(calls) == BATCH * len(net.layers)


class TestThreadedBlocks:
    @pytest.mark.parametrize("make", [make_plain, make_hqkan_net],
                             ids=["plain", "hqkan"])
    def test_threaded_fg_bitwise_equal_to_serial(self, make, monkeypatch):
        rng = np.random.default_rng(33)
        net = make(rng)
        ds = Dataset(rng.normal(size=(BATCH, net.in_dim)),
                     rng.normal(size=(BATCH, net.out_dim)))
        params = net.param_vector()
        small_blocks(monkeypatch, net.layers)
        fg = tr._loss_closure(net, ds)
        two_workers(monkeypatch)
        threads = set()
        kernel_rows(monkeypatch, threads)
        loss, grad = fg(params)
        assert pool_threads(threads)
        monkeypatch.setattr(network, "_workers", lambda: 1)
        threads.clear()
        want_loss, want_grad = fg(params)
        assert threads == {threading.current_thread().name}
        assert loss == want_loss
        np.testing.assert_array_equal(grad, want_grad)

    def test_one_block_batch_never_submits(self, monkeypatch):
        rng = np.random.default_rng(34)
        net = make_hqkan_net(rng)
        ds = Dataset(rng.normal(size=(BATCH, net.in_dim)),
                     rng.normal(size=(BATCH, net.out_dim)))
        assert len(network.batch_blocks(BATCH, net.layers)) == 1
        two_workers(monkeypatch)

        def no_pool():
            raise AssertionError("a one-block batch reached the pool")

        monkeypatch.setattr(network, "_executor", no_pool)
        loss, _ = tr._loss_closure(net, ds)(net.param_vector())
        assert np.isfinite(loss)
        assert net.forward(ds.inputs).shape == (BATCH, net.out_dim)

    def test_map_blocks_inside_a_worker_runs_serially(self, monkeypatch):
        two_workers(monkeypatch)

        def inner(k):
            return k, threading.current_thread().name

        def outer(block):
            # every inner block runs on the worker that runs this block
            return block, list(network.map_blocks(inner, [0, 1, 2]))

        results = []
        runner = threading.Thread(target=lambda: results.extend(
            network.map_blocks(outer, ["a", "b", "c"])))
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert [block for block, _ in results] == ["a", "b", "c"]
        for _, inner_results in results:
            assert [k for k, _ in inner_results] == [0, 1, 2]
            names = {name for _, name in inner_results}
            assert len(names) == 1 and pool_threads(names)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_its_blocks(self, monkeypatch):
        rng = np.random.default_rng(36)
        net = make_plain(rng)
        x = rng.normal(size=(BATCH, net.in_dim))
        small_blocks(monkeypatch, net.layers)
        two_workers(monkeypatch)
        want = net.forward(x)   # starts the pool the child inherits
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(net.forward(x), want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.05)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done, "the forked child's pass did not finish"
        assert os.waitstatus_to_exitcode(status) == 0

    def test_blocks_run_under_the_callers_error_state(self, monkeypatch):
        rng = np.random.default_rng(35)
        net = make_plain(rng)
        net.layers[0].w_base[:] = 1e308   # each layer-0 output overflows
        x = rng.uniform(1.0, 2.0, size=(BATCH, net.in_dim))
        small_blocks(monkeypatch, net.layers)
        two_workers(monkeypatch)
        with np.errstate(all="ignore"):
            assert not np.isfinite(net.forward(x)).any()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            net.forward(x)


class TestBoundedPasses:
    """fg(params, bound) drops a pass once its running loss over the
    batch is past a finite bound, and skips the backward of a block
    whose own loss is."""

    @staticmethod
    def problem(monkeypatch):
        rng = np.random.default_rng(37)
        net = make_plain(rng)
        ds = Dataset(rng.normal(size=(BATCH, net.in_dim)),
                     rng.normal(size=(BATCH, net.out_dim)))
        small_blocks(monkeypatch, net.layers)
        return net, ds, tr._loss_closure(net, ds)

    @staticmethod
    def count_calls(monkeypatch, net) -> dict:
        """Patch net's forward and backward to count their calls."""
        calls = {"forward": 0, "backward": 0}

        def counted(name):
            method = getattr(net, name)

            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        for name in calls:
            monkeypatch.setattr(net, name, counted(name))
        return calls

    def test_stopped_pass_runs_fewer_blocks_and_backwards(self, monkeypatch):
        net, ds, fg = self.problem(monkeypatch)
        monkeypatch.setattr(network, "_workers", lambda: 1)
        params = net.param_vector()
        blocks = network.batch_blocks(BATCH, net.layers)
        block_losses = [float(np.sum((net.forward(ds.inputs[rows])
                                      - ds.targets[rows]) ** 2))
                        for rows in blocks]
        calls = self.count_calls(monkeypatch, net)
        loss, grad = fg(params)
        assert calls == {"forward": len(blocks), "backward": len(blocks)}
        bound = 0.4 * loss
        running = np.cumsum(block_losses) / ds.targets.size
        stop = int(np.argmax(running > bound))
        assert 0 < stop < len(blocks) - 1
        calls.update(forward=0, backward=0)
        assert fg(params, bound) == (np.inf, None)
        own_past = block_losses[stop] / ds.targets.size > bound
        assert calls == {"forward": stop + 1,
                         "backward": stop + (0 if own_past else 1)}
        # a block whose own loss is past the bound skips its backward
        calls.update(forward=0, backward=0)
        assert fg(params, 0.0) == (np.inf, None)
        assert calls == {"forward": 1, "backward": 0}

    def test_bound_at_the_loss_gives_the_full_pass(self, monkeypatch):
        net, ds, fg = self.problem(monkeypatch)
        two_workers(monkeypatch)
        params = net.param_vector()
        loss, grad = fg(params)
        grad = grad.copy()
        got_loss, got_grad = fg(params, loss)
        assert got_loss == loss
        np.testing.assert_array_equal(got_grad, grad)
        # one ulp below the loss: the last block's sum passes the bound
        calls = self.count_calls(monkeypatch, net)
        assert fg(params, np.nextafter(loss, 0.0)) == (np.inf, None)
        blocks = len(network.batch_blocks(BATCH, net.layers))
        assert calls == {"forward": blocks, "backward": blocks}

    def test_only_a_finite_bound_stops_a_nan_pass(self, monkeypatch):
        net, ds, fg = self.problem(monkeypatch)
        params = net.param_vector()
        params[0] = np.nan
        with np.errstate(invalid="ignore"):
            loss, grad = fg(params)
            assert np.isnan(loss) and grad.shape == params.shape
            loss, grad = fg(params, np.nan)
            assert np.isnan(loss) and grad is not None
            assert fg(params, 1e300) == (np.inf, None)

    def test_no_block_outlives_a_stopped_pass(self, monkeypatch):
        # blocks sleep, so the second block is still running when the
        # first one stops the pass; fg must wait for it, since the next
        # pass rewrites the parameters it reads
        net, ds, fg = self.problem(monkeypatch)
        two_workers(monkeypatch)
        lock = threading.Lock()
        state = {"running": 0, "started": 0, "threads": set()}
        forward = net.forward

        def slow(x, tape=None):
            with lock:
                state["running"] += 1
                state["started"] += 1
                state["threads"].add(threading.current_thread().name)
            try:
                time.sleep(0.05)
                return forward(x, tape)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(net, "forward", slow)
        results = []
        caller = threading.Thread(
            target=lambda: results.append(fg(net.param_vector(), 0.0)))
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert results == [(np.inf, None)]
        assert state["running"] == 0
        assert pool_threads(state["threads"])
        assert state["started"] < len(network.batch_blocks(BATCH, net.layers))

    def test_map_blocks_drops_each_result_once_taken(self, monkeypatch):
        two_workers(monkeypatch)
        results = network.map_blocks(lambda k: np.full(4, float(k)), range(6))
        first = next(results)
        ref = weakref.ref(first)
        del first
        assert next(results)[0] == 1.0
        assert ref() is None
        assert [a[0] for a in results] == [2.0, 3.0, 4.0, 5.0]


def test_only_network_runs_threads():
    """network.py holds the one thread pool and its rules (block order,
    worker count, no nesting); a module that imports threading or
    concurrent.futures itself would run blocks by rules of its own."""
    src = pathlib.Path(network.__file__).parent
    users = [path.name for path in sorted(src.glob("*.py"))
             if re.search(r"^\s*(import|from)\s+(threading|concurrent)\b",
                          path.read_text(), re.MULTILINE)]
    assert users == ["network.py"]


class TestBoundedMemory:
    def test_fg_peak_does_not_grow_with_the_batch(self):
        # MNIST-sized: 60000 x 64 synthetic inputs into an HQKAN
        rng = np.random.default_rng(41)
        net = make_hqkan(64, 10, r=3, rng=rng)
        params = net.param_vector()
        full = Dataset(rng.uniform(0.0, 1.0, size=(60000, 64)),
                       rng.uniform(0.0, 1.0, size=(60000, 10)))
        peaks = {}
        for n in (6000, 60000):
            ds = Dataset(full.inputs[:n], full.targets[:n])
            fg = tr._loss_closure(net, ds)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                loss, grad = fg(params)
                peaks[n] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert np.isfinite(loss) and np.all(np.isfinite(grad))
        assert peaks[60000] <= 1.25 * peaks[6000] + 2 ** 20

    def test_distill_sampling_peak_does_not_grow_with_samples(self,
                                                              monkeypatch):
        # the circuit samples each layer in row blocks; the fits are cut
        # to 64 samples each, so only sampling grows with `samples`, and
        # its sample points xs (S, n_in) and samples ys (S, K) are left
        # out of the peak
        rng = np.random.default_rng(43)
        net = QkanNetwork.init([8, 4], 6, rng, angle_scale=1.0)
        n_in, k = 8, 32
        monkeypatch.setattr(network, "BLOCK_BYTES", 8 * k * 64)
        domains = [np.column_stack([-1.0 - 0.4 * np.arange(n_in),
                                    np.ones(n_in)])]
        fit = distill._fit_columns

        def thinned(xs, ys, *args):
            step = len(xs) // 64
            return fit(xs[::step], ys[::step], *args)

        monkeypatch.setattr(distill, "_fit_columns", thinned)
        excess = {}
        for samples in (256, 4096):
            monkeypatch.setattr(distill, "SAMPLES", samples)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                distill.distill_network(net, domains)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            excess[samples] = peak - 8 * samples * (n_in + k)
        # one (S, K) float64 array at 4096 samples is 1 MiB; a layer
        # sampled in one piece adds r + 3 of them
        assert excess[4096] <= excess[256] + 2 ** 17, excess

    @staticmethod
    def backward_peak(b, n, m, r):
        """tracemalloc peak of one n x m layer's backward over a b-row
        block, in float64 (b, n, m) block arrays."""
        rng = np.random.default_rng(r)
        layer = network.QkanLayer.init(m, n, r, rng, angle_scale=1.0)
        x = rng.uniform(-1.0, 1.0, size=(b, m))
        upstream = rng.normal(size=(b, n))
        tape = []
        layer.forward(x, tape)
        out = [np.empty(a.shape) for a in layer.arrays()]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            layer.backward(tape[0], upstream, out)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak / (b * n * m * 8)

    def test_layer_backward_peak_does_not_grow_with_r(self):
        # the adjoint sums over the batch as it sweeps, so no (r, B, N, M)
        # derivative array exists: the peak is a few block arrays, whatever r
        peaks = {r: self.backward_peak(64, 16, 16, r) for r in (3, 6, 10)}
        for r, peak in peaks.items():
            assert peak <= 10, (r, peak)
        assert peaks[10] - peaks[3] < 1

    @pytest.mark.parametrize("b, n, m, r", [(2000, 2, 7, 10), (1000, 2, 2, 3)])
    def test_small_layer_backward_peak(self, b, n, m, r):
        # the hqkan-r10 core and the feynman-cli first layer, whose block
        # arrays are small enough that numpy's iterator buffers and any
        # copy of x kept through the sweep show in the peak
        assert self.backward_peak(b, n, m, r) <= 9.7
