"""Tests for losses, Adam, L-BFGS and the training loop."""

import importlib
import math

import numpy as np
import pytest

from qkan import daruan, network
from qkan.data import Dataset, gen_regression, get_spec
from qkan.errors import NumericalError
from qkan.network import QkanNetwork, make_hqkan

# the package re-exports a train() function under the same name
tr = importlib.import_module("qkan.train")


class TestLosses:
    def test_mse(self):
        pred = np.array([[1.0], [2.0]])
        target = np.array([[0.0], [4.0]])
        np.testing.assert_allclose(tr.mse_loss(pred, target), 2.5)
        np.testing.assert_allclose(tr.rmse(pred, target), np.sqrt(2.5))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            tr.mse_loss(np.zeros((2, 1)), np.zeros((3, 1)))


class TestAdam:
    def test_first_step_magnitude(self):
        # with fresh moments the first update is lr * g / (|g| + eps),
        # i.e. almost exactly lr in the direction of -sign(g)
        state = tr.AdamState.init(3, lr=1e-3)
        params = np.zeros(3)
        grads = np.array([2.0, -0.5, 1e-3])
        new = tr.adam_step(state, params, grads)
        np.testing.assert_allclose(new, -1e-3 * np.sign(grads), rtol=1e-4)

    def test_converges_on_quadratic(self):
        state = tr.AdamState.init(2, lr=0.05)
        x = np.array([3.0, -2.0])
        for _ in range(2000):
            x = tr.adam_step(state, x, 2.0 * x)
        np.testing.assert_allclose(x, 0.0, atol=1e-4)

    def test_state_shapes_checked(self):
        state = tr.AdamState.init(2)
        with pytest.raises(ValueError):
            tr.adam_step(state, np.zeros(3), np.zeros(3))


class TestLbfgs:
    def test_quadratic_bowl(self):
        a = np.diag([1.0, 10.0, 100.0])

        def fg(x, bound=math.inf):
            return 0.5 * float(x @ a @ x), a @ x

        x, losses, events = tr.lbfgs_minimize(fg, np.array([1.0, 1.0, 1.0]),
                                              max_iter=50)
        assert losses[-1] < 1e-16
        np.testing.assert_allclose(x, 0.0, atol=1e-8)
        assert events == []

    def test_rosenbrock(self):
        def fg(v, bound=math.inf):
            x, y = v
            f = (1 - x) ** 2 + 100.0 * (y - x ** 2) ** 2
            g = np.array([-2 * (1 - x) - 400.0 * x * (y - x ** 2),
                          200.0 * (y - x ** 2)])
            return f, g

        x, losses, _ = tr.lbfgs_minimize(fg, np.array([-1.2, 1.0]),
                                         max_iter=200)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-5)

    def test_one_iteration_per_epoch(self):
        calls = []

        def fg(x, bound=math.inf):
            return float(x @ x), 2.0 * x

        tr.lbfgs_minimize(fg, np.array([1.0]), max_iter=7,
                          callback=lambda it, x, f: calls.append(it))
        assert calls == list(range(len(calls)))
        assert len(calls) <= 7


def toy_dataset(seed=0, n=64):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n, 2))
    y = (np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2)[:, None]
    return Dataset(x, y)


class TestTrainLoop:
    def make_net(self, seed=0):
        return QkanNetwork.init([2, 2, 1], 2, np.random.default_rng(seed))

    def test_lbfgs_reduces_loss(self):
        ds = toy_dataset()
        net = self.make_net()
        start = tr.rmse(net.forward(ds.inputs), ds.targets)
        result = tr.train(net, ds, ds, tr.TrainConfig(epochs=30))
        assert result.best_test_rmse < 0.3 * start
        assert result.trace[0]["train_rmse"] > result.trace[-1]["train_rmse"]

    def test_adam_reduces_loss(self):
        ds = toy_dataset()
        net = self.make_net()
        start = tr.rmse(net.forward(ds.inputs), ds.targets)
        result = tr.train(net, ds, ds,
                          tr.TrainConfig(optimizer="adam", epochs=300,
                                         lr=1e-2))
        assert result.best_test_rmse < start

    def test_deterministic(self):
        ds = toy_dataset()
        results = []
        for _ in range(2):
            net = self.make_net(seed=3)
            r = tr.train(net, ds, ds, tr.TrainConfig(epochs=10))
            results.append(r)
        np.testing.assert_array_equal(results[0].best_params,
                                      results[1].best_params)
        assert [row["train_rmse"] for row in results[0].trace] \
            == [row["train_rmse"] for row in results[1].trace]

    def test_best_params_selected_by_test_rmse(self):
        ds = toy_dataset()
        net = self.make_net()
        result = tr.train(net, ds, ds, tr.TrainConfig(epochs=20))
        best_from_trace = min(result.trace, key=lambda r: r["test_rmse"])
        assert result.best_epoch == best_from_trace["epoch"]
        np.testing.assert_allclose(result.best_test_rmse,
                                   best_from_trace["test_rmse"])
        net.set_param_vector(result.best_params)
        np.testing.assert_allclose(
            tr.rmse(net.forward(ds.inputs), ds.targets),
            best_from_trace["train_rmse"], atol=1e-12)

    @pytest.mark.parametrize("config", [
        tr.TrainConfig(epochs=8),
        tr.TrainConfig(optimizer="adam", epochs=8, lr=5e-2),
    ], ids=["lbfgs", "adam"])
    def test_trace_row_scores_one_parameter_vector(self, config):
        # a row's train and test RMSE both belong to the parameters that
        # are saved when the row is best
        train_ds, test_ds = toy_dataset(seed=1), toy_dataset(seed=2, n=40)
        net = self.make_net()
        result = tr.train(net, train_ds, test_ds, config)
        row = result.trace[result.best_epoch]
        assert row["epoch"] == result.best_epoch
        net.set_param_vector(result.best_params)
        for ds, key in ((train_ds, "train_rmse"), (test_ds, "test_rmse")):
            np.testing.assert_allclose(
                tr.rmse(net.forward(ds.inputs), ds.targets), row[key],
                rtol=1e-12, atol=0.0)

    def test_zero_epochs(self):
        ds = toy_dataset()
        net = self.make_net()
        before = net.param_vector()
        result = tr.train(net, ds, ds, tr.TrainConfig(epochs=0))
        np.testing.assert_array_equal(result.best_params, before)
        assert result.trace == []

    def test_nan_guard(self):
        ds = toy_dataset()
        net = self.make_net()

        class ExplodingNet:
            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def forward(self, x, tape=None):
                if tape is not None:
                    self.inner.forward(x, tape)
                return np.full((x.shape[0], 1), np.nan)

        with pytest.raises(NumericalError):
            tr.train(ExplodingNet(net), ds, ds,
                     tr.TrainConfig(optimizer="adam", epochs=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(optimizer="sgd")

    @pytest.mark.parametrize("epochs", [-1, 2.5, 2.0, True, "3", None])
    def test_epochs_must_be_a_nonnegative_int(self, epochs):
        with pytest.raises(ValueError, match="^epochs must be an integer"):
            tr.TrainConfig(epochs=epochs)

    @pytest.mark.parametrize("history", [-1, 1.5, 2.0, True, "3", None])
    def test_history_must_be_a_nonnegative_int(self, history):
        with pytest.raises(ValueError, match="^history must be an integer"):
            tr.TrainConfig(history=history)

    @pytest.mark.parametrize("lr", [-1.0, 0.0, 0, np.nan, np.inf, "0.1", None])
    def test_lr_must_be_finite_and_positive(self, lr):
        # checked for L-BFGS too, so a bad value never waits for an Adam run
        with pytest.raises(ValueError, match="^lr must be a finite number"):
            tr.TrainConfig(lr=lr)

    def test_edge_values_accepted(self):
        assert tr.TrainConfig(history=0, lr=1).history == 0
        assert tr.TrainConfig(optimizer="adam", lr=1e-300).lr == 1e-300


class TestLossClosure:
    @pytest.mark.parametrize("make", [
        lambda rng: QkanNetwork.init([3, 4, 2, 1], 2, rng),
        lambda rng: make_hqkan(5, 1, r=3, hidden_shape=(2,), rng=rng),
    ], ids=["plain", "hqkan"])
    def test_one_circuit_forward_per_layer(self, make, monkeypatch):
        rng = np.random.default_rng(71)
        net = make(rng)
        ds = Dataset(rng.normal(size=(16, net.in_dim)),
                     rng.normal(size=(16, 1)))
        fg = tr._loss_closure(net, ds)
        params = net.param_vector()
        calls = []
        kernel = daruan.circuit_forward

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(daruan, "circuit_forward", counting)
        loss, grad = fg(params)
        assert len(calls) == len(net.layers)
        monkeypatch.undo()
        # the closure's gradient equals one whole-batch taped pass
        tape: list = []
        pred = net.forward(ds.inputs, tape)
        up = 2.0 / ds.targets.size * (pred - ds.targets)
        np.testing.assert_array_equal(
            grad, net.grad_vector(net.backward(up, tape)))
        assert loss == np.mean((pred - ds.targets) ** 2)


class TestLineSearchSafeguards:
    X0 = np.zeros(2)
    G0 = np.array([1.0, 0.0])

    @staticmethod
    def nan_away_from_start(x, bound=math.inf):
        if np.any(x != 0.0):
            return np.nan, np.full(2, np.nan)
        return 1.0, np.array([1.0, 0.0])

    @staticmethod
    def rising(x, bound=math.inf):
        # the reported gradient points the wrong way: every step along
        # -gradient raises the loss
        return 1.0 + float(x @ x), 2.0 * x + np.array([1.0, 0.0])

    @pytest.mark.parametrize("fg", ["nan_away_from_start", "rising"])
    def test_failed_search_takes_zero_step(self, fg):
        events = []
        alpha, f, g = tr._wolfe_search(getattr(self, fg), self.X0, -self.G0,
                                       1.0, self.G0, events)
        assert alpha == 0.0
        assert f == 1.0
        np.testing.assert_array_equal(g, self.G0)
        assert len(events) == 1
        assert events[0].startswith("line-search failure")

    def test_failed_search_returns_best_trial(self):
        # along -G0 the loss dips near step 0.71, but the reported slope
        # stays -1, so no trial meets the curvature condition; the zoom
        # after the too-long first step bisects [0, 1]
        trials = []

        def fg(x, bound=math.inf):
            a = -float(x[0])
            trials.append((a, 1.0 - 0.5 * np.sin(np.pi * a * a)))
            return trials[-1][1], self.G0.copy()

        events = []
        alpha, f, g = tr._wolfe_search(fg, self.X0, -self.G0, 1.0, self.G0,
                                       events)
        assert len(trials) == tr.MAX_LINE_SEARCH_TRIALS   # no extra fg call
        assert (alpha, f) == min(trials, key=lambda t: t[1])
        assert alpha == 0.75
        np.testing.assert_array_equal(g, self.G0)
        assert events == ["line-search failure after 25 trials; "
                          "accepted the best trial step 7.500e-01"]

    @pytest.mark.parametrize("fg", ["nan_away_from_start", "rising"])
    def test_lbfgs_never_accepts_a_worse_step(self, fg):
        x, losses, events = tr.lbfgs_minimize(getattr(self, fg), self.X0,
                                              max_iter=5)
        np.testing.assert_array_equal(x, self.X0)
        assert losses == [1.0]
        assert events[0].startswith("line-search failure")
        assert events[-1].endswith("stopping")

    def test_failure_with_history_restarts_from_steepest_descent(self):
        a = np.diag([1.0, 10.0])
        calls = []

        def fg(x, bound=math.inf):
            calls.append(1)
            if len(calls) > 8:     # the loss turns NaN after a few steps
                return np.nan, np.full(2, np.nan)
            return 0.5 * float(x @ a @ x), a @ x

        x, losses, events = tr.lbfgs_minimize(fg, np.array([1.0, 1.0]),
                                              max_iter=10)
        assert np.all(np.isfinite(x))
        assert all(b <= a_ for a_, b in zip(losses, losses[1:]))
        assert any("restarting from steepest descent" in e for e in events)
        assert events[-1].endswith("stopping")


class TestBoundedSearch:
    """The line search passes its start loss f0 as fg's bound, and the
    loss closure drops a trial pass once its running loss is past it.
    The oracle is the same training with an fg that ignores the bound:
    every parameter, loss and event must be bitwise the same."""

    @staticmethod
    def multi_block(monkeypatch):
        # 8 row blocks of at most 5 rows, run two at a time
        rng = np.random.default_rng(51)
        net = QkanNetwork.init([3, 4, 2, 1], 2, rng, angle_scale=1.0)
        monkeypatch.setattr(network, "BLOCK_BYTES", 8 * 12 * 10)
        monkeypatch.setattr(network, "_workers", lambda: 2)
        ds = Dataset(rng.normal(size=(37, 3)), 3.0 * rng.normal(size=(37, 1)))
        assert len(network.batch_blocks(37, net.layers)) == 8
        return net, ds, ds, 10

    @staticmethod
    def feynman(monkeypatch):
        # I.12.11 on [2, 2, 1], r = 3: the whole batch is one block
        train_ds, test_ds = gen_regression(get_spec("I.12.11"), n_train=400,
                                           n_test=200, seed=0)
        net = QkanNetwork.init([2, 2, 1], 3, np.random.default_rng(7))
        assert len(network.batch_blocks(400, net.layers)) == 1
        return net, train_ds, test_ds, 40

    @pytest.mark.parametrize("problem", ["multi_block", "feynman"])
    def test_same_run_as_an_fg_that_ignores_the_bound(self, problem,
                                                      monkeypatch):
        net, train_ds, test_ds, epochs = getattr(self, problem)(monkeypatch)
        closure = tr._loss_closure
        trials = []

        def recording(net, ds):
            fg = closure(net, ds)

            def bounded(params, bound=math.inf):
                loss, grad = fg(params, bound)
                trials.append((bound, grad is None))
                return loss, grad

            return bounded

        def ignoring(net, ds):
            fg = closure(net, ds)
            return lambda params, bound=math.inf: fg(params)

        runs = []
        for make_fg in (recording, ignoring):
            monkeypatch.setattr(tr, "_loss_closure", make_fg)
            trained = net.copy()
            result = tr.train(trained, train_ds, test_ds,
                              tr.TrainConfig(epochs=epochs))
            rows = [(r["epoch"], r["train_rmse"], r["test_rmse"])
                    for r in result.trace]
            runs.append((rows, result, trained.param_vector()))
        (rows, result, final), (want_rows, want, want_final) = runs
        assert len(rows) == epochs
        assert rows == want_rows
        np.testing.assert_array_equal(result.best_params, want.best_params)
        np.testing.assert_array_equal(final, want_final)
        assert result.best_epoch == want.best_epoch
        assert result.events == want.events
        # the first fg passes no bound; some trials were dropped
        assert trials[0] == (math.inf, False)
        assert any(stopped for _, stopped in trials)
        assert all(np.isfinite(bound) for bound, _ in trials[1:])

    def test_search_takes_the_oracles_steps(self):
        # a bound-aware fg that drops every trial above f0 gives the
        # search of one that computes them all
        a = np.diag([1.0, 50.0])

        def full(x, bound=math.inf):
            return 0.5 * float(x @ a @ x), a @ x

        dropped = []

        def dropping(x, bound=math.inf):
            f, g = full(x)
            if f > bound:
                dropped.append(f)
                return math.inf, None
            return f, g

        x0 = np.array([1.0, 1.0])
        got = tr.lbfgs_minimize(dropping, x0, max_iter=30)
        want = tr.lbfgs_minimize(full, x0, max_iter=30)
        assert dropped
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    def test_no_bound_when_d_is_not_a_descent_direction(self):
        # above f0 is not rejected by sufficient decrease when d . g0 > 0
        bounds = []

        def fg(x, bound=math.inf):
            bounds.append(bound)
            return 1.0 + float(x @ x), 2.0 * x

        tr._wolfe_search(fg, np.zeros(1), np.ones(1), 1.0, np.ones(1), [])
        assert bounds and all(b == math.inf for b in bounds)


class TestTraceCsv:
    def test_format(self):
        trace = [{"epoch": 0, "train_rmse": 0.5, "test_rmse": 0.25,
                  "elapsed_ms": 12.3456}]
        text = tr.trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_rmse,test_rmse,elapsed_ms"
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert float(fields[1]) == 0.5
        assert float(fields[3]) == 12.346
