"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup()`, lists the
operations of one round in `ops()` and checks the outputs of a round
against the oracles in `check()`. Every qkan call goes through a module
attribute (`qkan_train.train`, `cli.main`, ...) so the tracer's wrappers
are picked up when it is installed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# by module name: the package attribute `qkan.train` is the train function
cli = importlib.import_module("qkan.cli")
ckpt = importlib.import_module("qkan.checkpoint")
daruan = importlib.import_module("qkan.daruan")
data = importlib.import_module("qkan.data")
distill = importlib.import_module("qkan.distill")
network = importlib.import_module("qkan.network")
spectrum = importlib.import_module("qkan.spectrum")
qkan_train = importlib.import_module("qkan.train")


class OpError(RuntimeError):
    """An operation of the workload did not complete."""


@dataclass
class Op:
    name: str
    run: Callable
    prepare: Callable | None = None   # untimed, runs before the first run


@dataclass
class Workload:
    seed: int
    workdir: str
    out: dict = field(default_factory=dict)

    name = ""
    n_test = 0
    setup_repeats = 3
    cycles = 1        # passes over the operations after training, per round
    repeats = {}      # op name -> back-to-back runs per cycle (default 1)

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, stream]))

    def setup(self):
        raise NotImplementedError

    def check(self) -> list:
        raise NotImplementedError

    # shared operations of the library workloads ---------------------------

    def _save(self, net):
        ckpt.save_checkpoint(net, self.path("trained.json"))

    def _prepare_fg(self):
        self.fg = qkan_train._loss_closure(self.net, self.train_ds)
        self.params = self.net.param_vector()

    def _fg(self):
        return self.fg(self.params)

    def _predict(self):
        return self.net.forward(self.test_ds.inputs)

    def _distill(self):
        net, _ = ckpt.load_checkpoint(self.path("trained.json"))
        domains = distill.calibrate_domains(net, self.train_ds.inputs)
        spline_net, report = distill.distill_network(net, domains)
        clamped = spline_net.clamp_count(self.train_ds.inputs)
        self.spline_net = spline_net
        return spline_net, report, clamped

    def _spline_predict(self):
        return self.spline_net.forward(self.test_ds.inputs)

    def _audit_edges(self, specs):
        """Seeded edges (r, geometric) with angles drawn at scale 2 and
        normal encoding biases, so every coefficient is far from zero."""
        rng = self.rng(0x5EC)
        edges = []
        for r, geometric in specs:
            p = daruan.init_daruan(r, rng, angle_scale=2.0, geometric=geometric)
            p.enc_b = rng.normal(size=r)
            edges.append(p)
        return edges

    def _spectrum(self):
        return [spectrum.verify_spectrum(p, tol=1e-8)
                for p in self.spectrum_edges]

    def ops(self):
        return [
            Op("train", self._train),
            Op("fg", self._fg, prepare=self._prepare_fg),
            Op("predict", self._predict),
            Op("distill", self._distill),
            Op("spline_predict", self._spline_predict),
            Op("spectrum", self._spectrum),
        ]

    def library_checks(self) -> list:
        fails = []
        net = self.net
        rng = self.rng(0xC4EC)
        rows = rng.choice(len(self.test_ds), size=4, replace=False)
        x = self.test_ds.inputs[rows]
        fails += oracles.check_network(net, x, net.forward(x))
        fails += self._edge_checks(net, rng)
        fails += self._gradient_check(net, rng)
        loaded, _ = ckpt.load_checkpoint(self.path("trained.json"))
        if not np.array_equal(loaded.forward(x), net.forward(x)):
            fails.append("checkpoint round trip changed the forward pass")
        spline_net, report, clamped = self.out["distill"]
        if len(report) != sum(l.n_in * l.n_out for l in net.layers):
            fails.append("distillation skipped edges")
        if not isinstance(clamped, int) or clamped < 0:
            fails.append(f"clamp count {clamped!r} is not a count")
        fails += oracles.check_splines(spline_net, self.test_ds.inputs,
                                       self.out["spline_predict"])
        for p, (ok, rep) in zip(self.spectrum_edges, self.out["spectrum"]):
            fails += oracles.check_spectrum(p.enc_w, rep.frequencies,
                                            rep.max_frequency,
                                            rep.residual_l2, 1e-8)
            if not ok:
                fails.append("verify_spectrum rejected a seeded edge")
        trace = self.out["train"].trace
        if not all(np.isfinite(row["train_rmse"]) for row in trace):
            fails.append("training produced a non-finite loss")
        return fails

    def _edge_checks(self, net, rng) -> list:
        edges, zs = [], []
        for _ in range(4):
            li = int(rng.integers(len(net.layers)))
            lay = net.layers[li]
            j, i = int(rng.integers(lay.n_out)), int(rng.integers(lay.n_in))
            p = lay.get_edge(j, i)
            xs = rng.uniform(-3.0, 3.0, size=16)
            edges.append((p.enc_w, p.enc_b, p.angles, xs))
            zs.append(daruan.circuit_expectation(
                p.enc_w[None, None], p.enc_b[None, None],
                p.angles[None, None], xs[:, None])[:, 0, 0])
        return oracles.check_edges(edges, zs)

    def _gradient_check(self, net, rng) -> list:
        loss, grad = self.out["fg"]
        x, y = self.train_ds.inputs, self.train_ds.targets
        probe = net.copy()

        def loss_at(params):
            probe.set_param_vector(params)
            return float(np.mean((probe.forward(x) - y) ** 2))

        direction = rng.normal(size=self.params.size)
        direction /= np.linalg.norm(direction)
        return oracles.check_gradient(loss_at, self.params, loss, grad,
                                      direction)


def _cli(*argv) -> str:
    """Run one `qkan` subcommand in process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpError(f"qkan {argv[0]} exited with code {code}")
    return buf.getvalue()


class FeynmanCli(Workload):
    """I.12.11 at the README's size, driven through `qkan.cli.main`."""

    name = "feynman-cli"
    n_test = 1000
    setup_repeats = 21
    cycles = 10
    epochs = 40

    def setup(self):
        _cli("gen-data", "--equation", "I.12.11", "--data-seed", self.seed,
             "--out", self.path("data"))
        self.train_ds = data.read_csv(self.path("data", "train.csv"))
        self.test_ds = data.read_csv(self.path("data", "test.csv"))
        net = network.QkanNetwork.init([2, 2, 1], 3, self.rng(0x1417))
        net.forward(self.test_ds.inputs)
        rng = self.rng(0x5EC)
        picks = rng.choice(6, size=2, replace=False)
        # edges of [2,2,1]: layer 0 has 2x2, layer 1 has 1x2
        all_edges = [(0, j, i) for j in range(2) for i in range(2)] + \
            [(1, 0, i) for i in range(2)]
        self.spectrum_args = [
            ("--checkpoint", self.path("run", "best.json"), "--layer", li,
             "--edge", j, i) for li, j, i in (all_edges[k] for k in picks)]
        circuit_seed = int(rng.integers(2 ** 31))
        self.spectrum_args += [
            ("--r", 5, "--weights", w, "--seed", circuit_seed)
            for w in ("geometric", "unit")]

    def ops(self):
        return [
            Op("train", self._train),
            Op("fg", self._fg, prepare=self._prepare_fg),
            Op("predict", self._predict),
            Op("extend", self._extend),
            Op("spectrum", self._spectrum),
            Op("distill", self._distill),
            Op("spline_predict", self._spline_predict,
               prepare=self._prepare_spline),
        ]

    def _train(self):
        seeds = ",".join(str(3 * self.seed + k) for k in range(3))
        _cli("train", "--train-csv", self.path("data", "train.csv"),
             "--test-csv", self.path("data", "test.csv"), "--shape", "2,2,1",
             "--r", 3, "--epochs", self.epochs, "--seeds", seeds,
             "--out", self.path("run"))
        with open(self.path("run", "summary.json")) as fh:
            return json.load(fh)

    def _prepare_fg(self):
        self.net, _ = ckpt.load_checkpoint(self.path("run", "best.json"))
        super()._prepare_fg()

    def _predict(self):
        return json.loads(_cli("eval", "--checkpoint",
                               self.path("run", "best.json"),
                               "--data", self.path("data", "test.csv")))

    def _extend(self):
        return _cli("extend", "--checkpoint", self.path("run", "best.json"),
                    "--new-r", 5, "--out", self.path("run", "deeper.json"))

    def _spectrum(self):
        reports = []
        for k, args in enumerate(self.spectrum_args):
            out = self.path(f"spectrum{k}.json")
            _cli("spectrum", *args, "--out", out)
            with open(out) as fh:
                reports.append(json.load(fh))
        return reports

    def _distill(self):
        _cli("distill", "--checkpoint", self.path("run", "best.json"),
             "--data", self.path("data", "train.csv"),
             "--out", self.path("dist"))
        with open(self.path("dist", "distill_report.json")) as fh:
            return json.load(fh)

    def _prepare_spline(self):
        with open(self.path("dist", "spline.json")) as fh:
            self.spline_net = distill.SplineNetwork.from_json(fh.read())

    def check(self):
        fails = []
        best = self.out["train"]["best_test_rmse"]
        if not best <= 0.15:
            fails.append(f"best test RMSE {best:.4f} above the README's 0.15")
        net = self.net
        x = self.test_ds.inputs
        fails += oracles.check_network(net, x, net.forward(x))
        ref = oracles.dense_network_forward(net, x)
        ref_rmse = float(np.sqrt(np.mean((ref - self.test_ds.targets) ** 2)))
        got = self.out["predict"]["rmse"]
        if not abs(got - ref_rmse) <= 1e-10:
            fails.append(f"qkan eval RMSE {got!r} differs from the dense "
                         f"simulation's {ref_rmse!r}")
        rng = self.rng(0xC4EC)
        fails += self._edge_checks(net, rng)
        fails += self._gradient_check(net, rng)
        deeper, _ = ckpt.load_checkpoint(self.path("run", "deeper.json"))
        probe = rng.uniform(-2.0, 2.0, size=(256, 2))
        diff = float(np.max(np.abs(deeper.forward(probe) - net.forward(probe))))
        if not diff < 1e-12 or any(l.r != 5 for l in deeper.layers):
            fails.append(f"extension to r=5 changed outputs by {diff:.3e}")
        fails += oracles.check_network(deeper, probe, deeper.forward(probe))
        for rep in self.out["spectrum"]:
            fails += oracles.check_spectrum(rep["weights"], rep["frequencies"],
                                            rep["max_frequency"],
                                            rep["residual_l2"], 1e-8)
        report = self.out["distill"]
        if not report["source_vs_distilled_rmse"] < 5e-2:
            fails.append(f"distilled-vs-source RMSE "
                         f"{report['source_vs_distilled_rmse']:.3e} not below 5e-2")
        if len(report["edges"]) != 6:
            fails.append("distillation skipped edges")
        fails += oracles.check_splines(self.spline_net, x,
                                       self.out["spline_predict"])
        return fails


class Wide16(Workload):
    """[16,16,16], r=6, batch 1000, L-BFGS, through the library API.

    The regression target and the starting network are fixed; the seed
    draws the training and test inputs. L-BFGS's first step is an unscaled
    steepest-descent step that takes several line-search trials, as many
    as the starting point demands, so a seeded start would spread train_s
    by whole fg calls.
    """

    name = "wide-16x16"
    n_test = 1000
    setup_repeats = 5
    cycles = 3
    repeats = {"predict": 3, "spline_predict": 2, "spectrum": 8}
    epochs = 1

    def setup(self):
        fixed = np.random.default_rng(np.random.SeedSequence([0x16, 0x16]))
        mix = fixed.normal(size=(16, 16)) / 4.0
        phase = fixed.uniform(0.0, np.pi, size=16)
        rng = self.rng(0x16)
        x_train = rng.uniform(-1.0, 1.0, size=(1000, 16))
        x_test = rng.uniform(-1.0, 1.0, size=(self.n_test, 16))
        self.train_ds = data.Dataset(x_train, np.sin(x_train @ mix + phase))
        self.test_ds = data.Dataset(x_test, np.sin(x_test @ mix + phase))
        self.init_net = network.QkanNetwork.init([16, 16, 16], 6, fixed)
        self.init_net.forward(self.test_ds.inputs)
        self.spectrum_edges = self._audit_edges([(6, True)] * 4)

    def _train(self):
        net = self.init_net.copy()
        result = qkan_train.train(net, self.train_ds, self.test_ds,
                                  qkan_train.TrainConfig(epochs=self.epochs))
        net.set_param_vector(result.best_params)
        self._save(net)
        self.net = net
        return result

    def check(self):
        fails = self.library_checks()
        x, y = self.train_ds.inputs, self.train_ds.targets
        start = float(np.sqrt(np.mean((self.init_net.forward(x) - y) ** 2)))
        last = self.out["train"].trace[-1]["train_rmse"]
        if not last < start:
            fails.append(f"L-BFGS step raised the train RMSE "
                         f"{start:.4f} -> {last:.4f}")
        return fails


class Hqkan10(Workload):
    """make_hqkan(64 -> 1) with an r=10 core, Adam, synthetic data.

    Inputs are standard normal in 64 dimensions; the target is
    sin(x . v) plus 5% noise with v ~ N(0, 1/64), all drawn from the seed.
    """

    name = "hqkan-r10"
    n_test = 2000
    setup_repeats = 15
    cycles = 12
    repeats = {"predict": 2, "spline_predict": 3}
    steps = 20

    def setup(self):
        rng = self.rng(0x10)
        v = rng.normal(size=64) / 8.0

        def split(n):
            x = rng.normal(size=(n, 64))
            y = np.sin(x @ v) + 0.05 * rng.normal(size=n)
            return data.Dataset(x, y[:, None])

        self.train_ds, self.test_ds = split(2000), split(self.n_test)
        self.init_net = network.make_hqkan(64, 1, r=10, rng=self.rng(0x1417))
        self.init_net.forward(self.test_ds.inputs)
        # unit weights keep r=10 at 21 frequencies but still enumerate
        # 3^10 sign patterns; geometric r=7 gives 255 frequencies
        self.spectrum_edges = self._audit_edges([(10, False), (10, False),
                                                 (7, True)])

    def _train(self):
        net = self.init_net.copy()
        result = qkan_train.train(
            net, self.train_ds, self.test_ds,
            qkan_train.TrainConfig(optimizer="adam", epochs=self.steps, lr=1e-2))
        net.set_param_vector(result.best_params)
        self._save(net)
        self.net = net
        return result

    def check(self):
        fails = self.library_checks()
        trace = self.out["train"].trace
        if not trace[-1]["train_rmse"] < trace[0]["train_rmse"]:
            fails.append("Adam did not lower the train RMSE")
        return fails


WORKLOADS = {w.name: w for w in (FeynmanCli, Wide16, Hqkan10)}
