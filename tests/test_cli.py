"""End-to-end CLI tests; commands run in-process through main()."""

import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from qkan import QkanNetwork, SplineNetwork, daruan, read_csv, rmse
from qkan import cli, spectrum
from qkan.checkpoint import load_checkpoint, save_checkpoint
from qkan.cli import _GEN_DATA_FIELDS, _TRAIN_FIELDS, main
from qkan.errors import DataError
from qkan.network import QkanLayer

from test_distill import SPLINE_JSON_MUTATIONS, _hqkan_spline_doc


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared data + short training run used by the downstream commands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run("gen-data", "--equation", "I.12.11", "--n-train", "200",
               "--n-test", "100", "--out", str(data)) == 0
    train_dir = root / "run"
    assert run("train", "--equation", "I.12.11", "--shape", "2,2,1",
               "--r", "2", "--epochs", "8", "--seeds", "0,1",
               "--n-train", "200", "--n-test", "100",
               "--out", str(train_dir)) == 0
    return root


class TestGenData:
    def test_outputs(self, workspace):
        data = workspace / "data"
        assert (data / "train.csv").exists()
        assert (data / "test.csv").exists()
        meta = json.loads((data / "meta.json").read_text())
        assert meta["equation"] == "I.12.11"
        ds = read_csv(data / "train.csv")
        assert len(ds) == 200
        assert ds.inputs.shape[1] == 2

    def test_unknown_equation_is_data_error(self, tmp_path):
        assert run("gen-data", "--equation", "nope",
                   "--out", str(tmp_path)) == 3


class TestTrain:
    def test_outputs(self, workspace):
        run_dir = workspace / "run"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert set(summary["seeds"]) == {"0", "1"}
        assert (run_dir / "best.json").exists()
        for seed in (0, 1):
            metrics = (run_dir / f"metrics_seed{seed}.csv").read_text()
            lines = metrics.strip().split("\n")
            assert lines[0] == "epoch,train_rmse,test_rmse,elapsed_ms"
            assert len(lines) == 9
            ckpt = run_dir / f"checkpoint_seed{seed}.json"
            _, doc = load_checkpoint(ckpt)
            assert doc["provenance"]["seed"] == seed

    def test_deterministic_reruns(self, workspace, tmp_path):
        out = tmp_path / "rerun"
        assert run("train", "--equation", "I.12.11", "--shape", "2,2,1",
                   "--r", "2", "--epochs", "8", "--seeds", "0,1",
                   "--n-train", "200", "--n-test", "100",
                   "--out", str(out)) == 0
        assert (out / "best.json").read_bytes() \
            == (workspace / "run" / "best.json").read_bytes()

    def test_zero_epochs_writes_strict_json(self, tmp_path):
        out = tmp_path / "zero"
        assert run("train", "--equation", "I.12.11", "--shape", "2,2,1",
                   "--r", "2", "--epochs", "0", "--seeds", "0",
                   "--n-train", "50", "--n-test", "20",
                   "--out", str(out)) == 0

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        doc = json.loads((out / "best.json").read_text(),
                         parse_constant=reject)
        assert doc["provenance"]["best_test_rmse"] is None
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["best_test_rmse"] is None
        assert summary["seeds"]["0"]["best_test_rmse"] is None

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"equation": "I.12.11", "shape": [2, 2, 1],
                                   "r": 2, "epochs": 999, "seeds": [0],
                                   "n-train": 150, "n-test": 50}))
        out = tmp_path / "out"
        assert run("train", "--config", str(cfg), "--epochs", "2",
                   "--out", str(out)) == 0
        metrics = (out / "metrics_seed0.csv").read_text()
        assert len(metrics.strip().split("\n")) == 3   # flag beat the config

    def test_missing_shape_is_config_error(self, tmp_path):
        assert run("train", "--equation", "I.12.11",
                   "--out", str(tmp_path)) == 2

    def test_unknown_config_field_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"equation": "I.12.11", "shape": [2, 1],
                                   "typo-field": 1}))
        assert run("train", "--config", str(cfg), "--out", str(tmp_path)) == 2

    def test_shape_dataset_mismatch_is_config_error(self, tmp_path):
        assert run("train", "--equation", "I.12.11", "--shape", "3,1",
                   "--epochs", "1", "--out", str(tmp_path)) == 2


class TestEval:
    def test_reports_rmse(self, workspace, capsys):
        assert run("eval", "--checkpoint", str(workspace / "run" / "best.json"),
                   "--data", str(workspace / "data" / "test.csv")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_samples"] == 100
        assert 0.0 < report["rmse"] < 1.0

    def test_missing_checkpoint_is_data_error(self, workspace):
        assert run("eval", "--checkpoint", str(workspace / "nope.json"),
                   "--data", str(workspace / "data" / "test.csv")) == 3

    @pytest.mark.parametrize("damage", ["nan-cell", "inf-cell", "no-shape",
                                        "no-params"])
    def test_malformed_input_is_data_error(self, workspace, tmp_path, damage,
                                           capsys):
        ckpt = tmp_path / "best.json"
        csv_path = tmp_path / "test.csv"
        doc = json.loads((workspace / "run" / "best.json").read_text())
        lines = (workspace / "data" / "test.csv").read_text().split("\n")
        if damage.endswith("-cell"):
            cells = lines[5].split(",")
            cells[1] = damage[:3]
            lines[5] = ",".join(cells)
        else:
            doc.pop(damage[3:])
        ckpt.write_text(json.dumps(doc))
        csv_path.write_text("\n".join(lines))
        assert run("eval", "--checkpoint", str(ckpt),
                   "--data", str(csv_path)) == 3
        assert "data error" in capsys.readouterr().err


class TestSpectrum:
    def test_random_circuit_report(self, tmp_path, capsys):
        out = tmp_path / "spectrum.json"
        assert run("spectrum", "--r", "3", "--weights", "unit",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["nonzero_count"] == 6
        assert doc["residual_l2"] < 1e-8
        assert "OK" in capsys.readouterr().out

    def test_checkpoint_edge(self, workspace, capsys):
        assert run("spectrum", "--checkpoint",
                   str(workspace / "run" / "best.json"),
                   "--layer", "0", "--edge", "0", "1") == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_edge_is_config_error(self, workspace):
        assert run("spectrum", "--checkpoint",
                   str(workspace / "run" / "best.json"),
                   "--layer", "5") == 2

    def test_explicit_weights(self, capsys):
        assert run("spectrum", "--r", "2", "--weights", "1.0,3.0") == 0
        doc_line = capsys.readouterr().out
        assert "OK" in doc_line

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_near_colliding_weights(self, capsys, seed):
        # the frequencies 3 and 4.00000001 - 1 lie 1e-8 apart, above
        # DEDUP_TOL; the exact coefficients still reproduce the circuit
        assert run("spectrum", "--r", "3", "--weights", "1,2,4.00000001",
                   "--seed", seed) == 0
        assert capsys.readouterr().out.rstrip().endswith("OK")

    def test_over_budget_edge_exits_2_within_1_gib(self, tmp_path):
        """Geometric weights at r=24 give 2^25 - 1 frequencies. In a
        child limited to 1 GiB of address space, the audit stops at the
        frequency budget with exit 2 and one error line, and writes
        nothing."""
        pytest.importorskip("resource")
        limit = 1 << 30
        script = ("import resource, sys\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
                  "from qkan.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, "spectrum", "--r", "24",
             "--weights", "geometric", "--out", str(tmp_path / "s.json")],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: spectrum audit: ")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == "" and os.listdir(tmp_path) == []


class TestExtend:
    def test_extension_preserves_eval(self, workspace, capsys):
        src = workspace / "run" / "best.json"
        dst = workspace / "run" / "extended.json"
        assert run("extend", "--checkpoint", str(src), "--new-r", "4",
                   "--out", str(dst)) == 0
        capsys.readouterr()   # drop the extend status line
        data = str(workspace / "data" / "test.csv")
        assert run("eval", "--checkpoint", str(src), "--data", data) == 0
        before = json.loads(capsys.readouterr().out)["rmse"]
        assert run("eval", "--checkpoint", str(dst), "--data", data) == 0
        after = json.loads(capsys.readouterr().out)["rmse"]
        assert after == before
        _, doc = load_checkpoint(dst)
        assert doc["r"] == [4, 4]


class TestDistill:
    def test_outputs(self, workspace, capsys):
        out = workspace / "distill"
        assert run("distill", "--checkpoint",
                   str(workspace / "run" / "best.json"),
                   "--data", str(workspace / "data" / "train.csv"),
                   "--out", str(out)) == 0
        report = json.loads((out / "distill_report.json").read_text())
        assert report["source_vs_distilled_rmse"] < 5e-2
        assert (out / "spline.json").exists()
        assert report["clamp_count"] == 0

    @pytest.mark.parametrize("shape", [[2, 1], [2, 2, 1], [2, 3, 2, 1]])
    def test_one_data_forward_per_layer(self, workspace, tmp_path, shape,
                                        monkeypatch):
        """Calibration and the fidelity check share one forward pass over
        the data, so each layer's circuit runs once on the data and once
        to sample its edges."""
        ckpt, out = tmp_path / "ckpt.json", tmp_path / "out"
        net = QkanNetwork.init(shape, 2, np.random.default_rng(5))
        save_checkpoint(net, ckpt)
        data = workspace / "data" / "train.csv"
        calls = []
        forward = daruan.circuit_forward

        def counted(*args, **kwargs):
            calls.append(args[3].shape[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(daruan, "circuit_forward", counted)
        assert run("distill", "--checkpoint", str(ckpt), "--data", str(data),
                   "--out", str(out)) == 0
        layers = len(shape) - 1
        assert sorted(calls) == [200] * layers + [256] * layers
        report = json.loads((out / "distill_report.json").read_text())
        spline_net = SplineNetwork.from_json((out / "spline.json").read_text())
        x = read_csv(data).inputs
        assert report["source_vs_distilled_rmse"] == rmse(
            spline_net.forward(x), net.forward(x))


class TestMnistDemo:
    def test_skips_without_files(self, tmp_path, capsys):
        assert run("mnist-demo", "--data-dir", str(tmp_path)) == 0
        assert "skipping" in capsys.readouterr().out

    def test_runs_on_synthetic_idx(self, tmp_path, capsys):
        # two linearly separable 4x4 "digit" classes
        rng = np.random.default_rng(0)
        n = 120
        labels = (np.arange(n) % 2).astype(np.uint8)
        images = np.zeros((n, 4, 4), dtype=np.uint8)
        images[labels == 0, :2, :] = 220
        images[labels == 1, 2:, :] = 220
        noise = rng.integers(0, 30, size=images.shape).astype(np.uint8)
        images = np.clip(images + noise, 0, 255).astype(np.uint8)

        def dump(split, imgs, labs):
            with open(tmp_path / f"{split}-images-idx3-ubyte", "wb") as fh:
                fh.write(struct.pack(">IIII", 0x00000803, len(imgs), 4, 4))
                fh.write(imgs.tobytes())
            with open(tmp_path / f"{split}-labels-idx1-ubyte", "wb") as fh:
                fh.write(struct.pack(">II", 0x00000801, len(labs)))
                fh.write(labs.tobytes())

        dump("train", images[:80], labels[:80])
        dump("t10k", images[80:], labels[80:])
        assert run("mnist-demo", "--data-dir", str(tmp_path),
                   "--epochs", "40", "--n-samples", "80") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy"] > 0.9


class TestParser:
    @pytest.mark.parametrize("command", ["gen-data", "train", "eval",
                                         "spectrum", "extend", "distill",
                                         "mnist-demo"])
    def test_help_lists_the_declared_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        tables = {"gen-data": _GEN_DATA_FIELDS, "train": _TRAIN_FIELDS}
        if command in tables:
            assert flags == {"--help", "--config"} | {
                f"--{field}" for field in tables[command]}

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_handler_is_looked_up_when_the_command_runs(self, workspace,
                                                        monkeypatch, capsys):
        # after a first command has built the parser, a handler replaced
        # on the module (as a test or a tracer replaces it) is the one run
        assert run("spectrum", "--r", "2") == 0
        argv = ("eval", "--checkpoint", str(workspace / "run" / "best.json"),
                "--data", str(workspace / "data" / "test.csv"))
        seen = []
        monkeypatch.setattr(cli, "cmd_eval",
                            lambda args: seen.append(args.data) or 0)
        capsys.readouterr()
        assert run(*argv) == 0
        assert seen == [argv[-1]] and capsys.readouterr().out == ""
        monkeypatch.undo()
        assert run(*argv) == 0
        assert seen == [argv[-1]]
        assert json.loads(capsys.readouterr().out)["n_samples"] == 100

    def test_an_option_does_not_carry_over_to_the_next_call(self, workspace,
                                                            capsys):
        net, _ = load_checkpoint(workspace / "run" / "best.json")
        checkpoint = ("--checkpoint", str(workspace / "run" / "best.json"))
        reports = []
        for edge in (("--edge", "1", "0"), ()):
            capsys.readouterr()
            assert run("spectrum", *checkpoint, *edge) == 0
            out = capsys.readouterr().out
            reports.append(json.loads(out[:out.rindex("}") + 1]))
        for (j, i), report in zip([(1, 0), (0, 0)], reports):
            assert report["weights"] \
                == net.layers[0].get_edge(j, i).enc_w.tolist()
        assert reports[0]["weights"] != reports[1]["weights"]

    def test_repeated_calls_write_identical_files(self, workspace, tmp_path):
        checkpoint = str(workspace / "run" / "best.json")
        for k in (0, 1):
            assert run("gen-data", "--equation", "I.12.11", "--n-train", "50",
                       "--n-test", "20", "--out", str(tmp_path / f"d{k}")) == 0
            assert run("eval", "--checkpoint", checkpoint,
                       "--data", str(tmp_path / "d0" / "test.csv"),
                       "--out", str(tmp_path / f"eval{k}.json")) == 0
            assert run("spectrum", "--checkpoint", checkpoint,
                       "--edge", "1", "1",
                       "--out", str(tmp_path / f"spectrum{k}.json")) == 0
        for name in ("d{}/train.csv", "d{}/test.csv", "d{}/meta.json",
                     "eval{}.json", "spectrum{}.json"):
            assert (tmp_path / name.format(0)).read_bytes() \
                == (tmp_path / name.format(1)).read_bytes()


# gen-data/train options, each run once as flags and once as config
# keys: (name, command, {field: flag value}, {field: config value})
_BASE_FIELDS = {
    "gen-data": {"equation": "I.12.11", "n-train": "20", "n-test": "10",
                 "out": "{tmp}/out"},
    "train": {"equation": "I.12.11", "shape": "2,2,1", "epochs": "1",
              "seeds": "0", "n-train": "20", "n-test": "10",
              "out": "{tmp}/out"},
}
_OPTION_CASES = [
    ("r-0", "train", {"r": "0"}, {"r": 0}),
    ("epochs-negative", "train", {"epochs": "-1"}, {"epochs": -1}),
    ("history-negative", "train", {"history": "-1"}, {"history": -1}),
    ("seeds-empty", "train", {"seeds": ","}, {"seeds": []}),
    ("optimizer-sgd", "train", {"optimizer": "sgd"}, {"optimizer": "sgd"}),
    ("angle-scale-invalid", "train", {"angle-scale": "nan"},
     {"angle-scale": -1}),
    ("lr-nan", "train", {"lr": "nan"}, {"lr": float("nan")}),
    ("lr-inf", "train", {"lr": "inf"}, {"lr": float("inf")}),
    ("lr-negative", "train", {"lr": "-1"}, {"lr": -1}),
    *[(f"{field}={value}", command, {field: value},
       {field: json.loads(value)})
      for command in ("gen-data", "train")
      for field, value in (("n-train", "0"), ("n-train", "-5"),
                           ("noise-frac", "-1"), ("n-test", "0"),
                           ("n-train", "10.9"), ("n-train", "true"),
                           ("data-seed", "1.5"), ("noise-frac", "true"))],
    *[(f"range-{name}", command, {"range": flag}, {"range": config})
      for command in ("gen-data", "train")
      for name, flag, config in (("bool", "0,true", [0, True]),
                                 ("three", "0,1,2", [0, 1, 2]),
                                 ("span-overflow", "-1e308,1e308",
                                  [-1e308, 1e308]))],
    # finite values whose generated data overflow
    *[(f"noise-frac-overflow-{equation}", command,
       {"equation": equation, "noise-frac": "1.7e308"},
       {"equation": equation, "noise-frac": 1.7e308})
      for command in ("gen-data", "train")
      for equation in ("I.12.11", "sinc20")],
    ("angle-scale-overflow", "train", {"angle-scale": "1e308"},
     {"angle-scale": 1e308}),
    ("seeds-float", "train", {"seeds": "0.5"}, {"seeds": [0.5]}),
    ("shape-float", "train", {"shape": "2,2.0,1"}, {"shape": [2, 2.0, 1]}),
    ("r-bool", "train", {"r": "true"}, {"r": True}),
    # values no flag can spell: only the config form runs
    *[(f"{field}-{name}", command, None, {field: value})
      for command in ("gen-data", "train")
      for field in ("out", "equation")
      for name, value in (("nan", float("nan")), ("list", ["a"]),
                          ("number", 1))],
    *[("out-is-a-file", command, {"out": "{file}"}, {"out": "{file}"})
      for command in ("gen-data", "train")],
    ("test-csv-inputs", "train",
     {"train-csv": "{csv}/x2y1.csv", "test-csv": "{csv}/x3y1.csv",
      "shape": "2,1"},
     {"train-csv": "{csv}/x2y1.csv", "test-csv": "{csv}/x3y1.csv",
      "shape": [2, 1]}),
    ("train-csv-targets", "train",
     {"train-csv": "{csv}/x2y2.csv", "test-csv": "{csv}/x2y1.csv",
      "shape": "2,1"},
     {"train-csv": "{csv}/x2y2.csv", "test-csv": "{csv}/x2y1.csv",
      "shape": [2, 1]}),
]

def _blocked(name):
    """Setup: the output `name` inside the existing --out directory
    {tmp}/out is a directory, so it cannot be written."""
    def setup(tmp, monkeypatch):
        (tmp / "out" / name).mkdir(parents=True)
        return tmp / "out" / name
    return setup


def _nan_layers(tmp, monkeypatch):
    """Setup: every QKAN layer's forward pass returns NaN."""
    monkeypatch.setattr(QkanLayer, "forward", lambda self, x, tape=None:
                        np.full((len(x), self.n_out), np.nan))


def _frequency_budget(budget):
    """A setup that lets the spectrum audit build at most `budget`
    candidate frequencies per rz."""
    def setup(tmp, monkeypatch):
        monkeypatch.setattr(spectrum, "MAX_FREQUENCIES", budget)
    return setup


def _nan_audit(tmp, monkeypatch):
    """Setup: the circuit the spectrum audit checks against returns NaN."""
    monkeypatch.setattr(spectrum, "circuit_expectation", lambda *args:
                        np.full((spectrum.AUDIT_POINTS.size, 1, 1), np.nan))


# the other subcommands: (name, argv, exit code[, setup(tmp, monkeypatch),
# which returns the blocked output, if any[, text the error line must
# hold]]); the workspace checkpoint is [2, 2, 1] with r=2
_CKPT = ["--checkpoint", "{ckpt}"]
_FLAG_CASES = [
    ("spectrum-r-0", ["spectrum", "--r", "0"], 2),
    ("spectrum-tol-0", ["spectrum", "--tol", "0"], 2),
    ("spectrum-tol-inf", ["spectrum", "--tol", "inf"], 2),
    ("spectrum-weights-inf", ["spectrum", "--r", "1", "--weights", "inf"], 2),
    ("spectrum-weights-nan", ["spectrum", "--r", "2", "--weights", "nan,1"],
     2),
    # geometric r=3 builds 3 * 7 = 21 candidate frequencies at its last
    # rz; the workspace's r=2 edge builds 3 * 3 = 9
    ("spectrum-over-frequency-budget",
     ["spectrum", "--r", "3", "--out", "{tmp}/spectrum.json"], 2,
     _frequency_budget(20),
     "spectrum audit: 21 candidate frequencies exceed the budget of 20"),
    ("spectrum-checkpoint-edge-over-frequency-budget",
     ["spectrum", *_CKPT, "--out", "{tmp}/spectrum.json"], 2,
     _frequency_budget(8),
     "spectrum audit: 9 candidate frequencies exceed the budget of 8"),
    ("distill-grid-size-0",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--grid-size", "0"], 2),
    ("distill-degree-0",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--degree", "0"], 2),
    # more coefficients than distill's 256 samples: refused before the
    # (here missing) checkpoint is read
    ("distill-grid-size-over-samples",
     ["distill", "--checkpoint", "{tmp}/missing.json", "--data",
      "{csv}/x2y1.csv", "--grid-size", "254"], 2, None,
     "--grid-size 254 with --degree 3 needs 257 coefficients per edge, "
     "more than the 256 samples"),
    # as many coefficients as samples, but the design is numerically
    # singular: refused before the checkpoint is read too
    ("distill-grid-size-rank-deficient",
     ["distill", "--checkpoint", "{tmp}/missing.json", "--data",
      "{csv}/x2y1.csv", "--grid-size", "253"], 2, None,
     "--grid-size 253 with --degree 3 gives a rank-deficient spline design "
     "matrix at the 256 samples (rank 254 < 256)"),
    ("distill-degree-over-samples",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--grid-size", "200",
      "--degree", "57"], 2),
    ("extend-same-r",
     ["extend", *_CKPT, "--new-r", "2", "--out", "{tmp}/deeper.json"], 2),
    ("extend-lower-r",
     ["extend", *_CKPT, "--new-r", "1", "--out", "{tmp}/deeper.json"], 2),
    ("mnist-epochs-negative",
     ["mnist-demo", "--data-dir", "{idx}", "--epochs", "-1"], 2),
    ("mnist-n-samples-0",
     ["mnist-demo", "--data-dir", "{idx}", "--n-samples", "0"], 2),
    ("mnist-lr-nan", ["mnist-demo", "--data-dir", "{idx}", "--lr", "nan"], 2),
    ("eval-csv-inputs", ["eval", *_CKPT, "--data", "{csv}/x3y1.csv"], 3),
    ("eval-csv-targets", ["eval", *_CKPT, "--data", "{csv}/x2y2.csv"], 3),
    ("eval-csv-header-order", ["eval", *_CKPT, "--data", "{csv}/y1x1x2.csv"],
     3, None, "header must be x1..xn,y1..ym, got ['y1', 'x1', 'x2']"),
    ("distill-csv-inputs", ["distill", *_CKPT, "--data", "{csv}/x3y1.csv"], 3),
    ("distill-csv-targets", ["distill", *_CKPT, "--data", "{csv}/x2y2.csv"],
     3),
    # outputs that cannot be written
    ("eval-out-in-missing-dir",
     ["eval", *_CKPT, "--data", "{csv}/x2y1.csv", "--out", "{tmp}/no/e.json"],
     2),
    ("extend-out-in-missing-dir",
     ["extend", *_CKPT, "--new-r", "3", "--out", "{tmp}/no/deeper.json"], 2),
    ("spectrum-out-in-missing-dir",
     ["spectrum", "--r", "2", "--out", "{tmp}/no/spectrum.json"], 2),
    ("distill-out-is-a-file",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--out", "{file}"], 2),
    ("gen-data-meta-json-blocked",
     ["gen-data", "--equation", "I.12.11", "--n-train", "20", "--n-test", "10",
      "--out", "{tmp}/out"], 2, _blocked("meta.json")),
    ("train-summary-json-blocked",
     ["train", "--equation", "I.12.11", "--shape", "2,2,1", "--epochs", "1",
      "--seeds", "0", "--n-train", "20", "--n-test", "10",
      "--out", "{tmp}/out"], 2, _blocked("summary.json")),
    ("distill-spline-json-blocked",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--out", "{tmp}/out"], 2,
     _blocked("spline.json")),
    # a seed whose loss is not finite: the --out it made is removed
    ("train-nan-loss",
     ["train", "--equation", "I.12.11", "--shape", "2,1",
      "--range=-1e200,1e200", "--epochs", "1", "--seeds", "0",
      "--n-train", "20", "--n-test", "10", "--out", "{tmp}/out"], 4, None,
     "NaN/inf loss at epoch 0"),
    # a NaN in an output is a numerical failure, not a non-strict file
    ("eval-nan-rmse",
     ["eval", *_CKPT, "--data", "{csv}/x2y1.csv", "--out", "{tmp}/e.json"], 4,
     _nan_layers),
    ("extend-nan-probe",
     ["extend", *_CKPT, "--new-r", "3", "--out", "{tmp}/deeper.json"], 4,
     _nan_layers, "extend probe: 256 of 256 source outputs are NaN"),
    ("distill-nan-calibration",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--out", "{tmp}/dist"], 4,
     _nan_layers),
    ("spectrum-nan-residual",
     ["spectrum", "--r", "2", "--out", "{tmp}/spectrum.json"], 4, _nan_audit,
     "spectrum audit: the series residual is nan"),
    # results that genuinely overflow: numpy's RuntimeWarnings stay
    # silent, so the error line is the only line; it names the stage
    # that found the failure
    ("eval-overflow",
     ["eval", "--checkpoint", "{overflow}", "--data", "{csv}/x2y1.csv",
      "--out", "{tmp}/e.json"], 4, None, "eval predictions: "),
    ("extend-overflow",
     ["extend", "--checkpoint", "{overflow}", "--new-r", "3",
      "--out", "{tmp}/deeper.json"], 4, None, "extend probe: "),
    ("distill-overflow",
     ["distill", "--checkpoint", "{overflow}", "--data", "{data}/test.csv",
      "--out", "{tmp}/dist"], 4, None, "calibration: "),
    ("distill-edge-overflow",
     ["distill", "--checkpoint", "{edge_overflow}", "--data",
      "{data}/test.csv", "--out", "{tmp}/dist"], 4, None,
     "edge (layer 1, out 0, in 1): circuit samples are not finite"),
    ("spectrum-overflow",
     ["spectrum", "--r", "2", "--weights", "1e308,1e308",
      "--out", "{tmp}/spectrum.json"], 4, None,
     "spectrum audit: the encoding weights sum to inf"),
    # inputs that cannot be read or decoded
    ("eval-csv-missing", ["eval", *_CKPT, "--data", "{tmp}/missing.csv"], 3),
    ("eval-csv-undecodable", ["eval", *_CKPT, "--data", "{undecodable}"], 3),
    ("eval-csv-oversize-field", ["eval", *_CKPT, "--data", "{big}"], 3, None,
     "big.csv:3: field larger than field limit"),
    ("eval-checkpoint-undecodable",
     ["eval", "--checkpoint", "{undecodable}", "--data", "{csv}/x2y1.csv"], 3),
    ("train-config-undecodable", ["train", "--config", "{undecodable}"], 2),
    ("mnist-idx-is-a-directory",
     ["mnist-demo", "--data-dir", "{idx_unopenable}"], 3),
]


def _hostile_cases():
    for name, command, flags, config in _OPTION_CASES:
        for form, given in (("flag", flags), ("config", config)):
            if given is None:
                continue
            fields = {k: v for k, v in _BASE_FIELDS[command].items()
                      if k not in given}
            if form == "flag":
                fields.update(given)
            # --field=value, so that a value such as -1,1 is not an option
            argv = [command] + [f"--{field}={value}"
                                for field, value in fields.items()]
            yield pytest.param(argv, given if form == "config" else None, 2,
                               None, None, id=f"{command}-{form}-{name}")
    for name, argv, code, *rest in _FLAG_CASES:
        setup, message = (rest + [None, None])[:2]
        yield pytest.param(argv, None, code, setup, message, id=name)


@pytest.fixture(scope="module")
def hostile_inputs(workspace):
    """CSVs of assorted widths and tiny IDX sets next to the workspace."""
    csv_dir = workspace / "widths"
    csv_dir.mkdir()
    for n_x, n_y in ((2, 1), (3, 1), (2, 2)):
        header = [f"x{k + 1}" for k in range(n_x)] + \
            [f"y{k + 1}" for k in range(n_y)]
        rows = [",".join(["0.5"] * (n_x + n_y))] * 4
        (csv_dir / f"x{n_x}y{n_y}.csv").write_text(
            "\n".join([",".join(header), *rows]) + "\n")
    # the columns of x2y1.csv, but the target first
    (csv_dir / "y1x1x2.csv").write_text("y1,x1,x2\n" + "0.5,0.5,0.5\n" * 4)
    idx_dir = workspace / "idx"
    idx_dir.mkdir()
    for split in ("train", "t10k"):
        with open(idx_dir / f"{split}-images-idx3-ubyte", "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 4, 2, 2))
            fh.write(bytes(range(16)))
        with open(idx_dir / f"{split}-labels-idx1-ubyte", "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 4) + bytes([0, 1, 0, 1]))
    # the same set, but its training images are a directory
    unopenable = workspace / "idx-unopenable"
    shutil.copytree(idx_dir, unopenable)
    os.remove(unopenable / "train-images-idx3-ubyte")
    (unopenable / "train-images-idx3-ubyte").mkdir()
    taken = workspace / "taken"
    taken.write_text("a file, not a directory\n")
    big = workspace / "big.csv"
    big.write_text("x1,x2,y1\n0.5,0.5,0.5\n0.5,0.5," + "5" * 200_000 + "\n")
    undecodable = workspace / "undecodable"
    undecodable.write_bytes(b"\xff\xfe" + "x1,y1\n".encode("utf-16-le"))
    # finite parameters whose forward pass overflows: each output of
    # layer 0 adds two terms of 1e308 * silu(x)
    net, doc = load_checkpoint(workspace / "run" / "best.json")
    net.layers[0].w_base[:] = 1e308
    overflow = workspace / "overflow.json"
    save_checkpoint(net, overflow, doc["provenance"])
    # finite parameters whose last-layer edge (out 0, in 1) overflows in
    # distill's samples w_quant * <Z> + out_bias, where <Z> > 0.06
    net, doc = load_checkpoint(workspace / "run" / "best.json")
    net.layers[1].w_quant[0, 1] = net.layers[1].out_bias[0, 1] = 1.7e308
    edge_overflow = workspace / "edge-overflow.json"
    save_checkpoint(net, edge_overflow, doc["provenance"])
    return {"csv": csv_dir, "idx": idx_dir, "idx_unopenable": unopenable,
            "file": taken, "undecodable": undecodable, "big": big,
            "ckpt": workspace / "run" / "best.json", "overflow": overflow,
            "edge_overflow": edge_overflow,
            "data": workspace / "data"}


@pytest.mark.parametrize("argv, config, code, setup, message",
                         _hostile_cases())
def test_hostile_input_exits_with_its_code(hostile_inputs, tmp_path, capsys,
                                           monkeypatch, argv, config, code,
                                           setup, message):
    """Out-of-range options, config values of the wrong JSON type, CSVs
    that do not fit the network, unreadable inputs, unwritable outputs
    and non-finite results exit with their documented code and one error
    line, never a traceback, and leave no output behind (relative paths
    included); a blocked output inside --out leaves no temp file."""
    monkeypatch.chdir(tmp_path)
    blocked = setup(tmp_path, monkeypatch) if setup else None

    def fill(value):
        return value.format(tmp=tmp_path, **hostile_inputs) \
            if isinstance(value, str) else value

    argv = [fill(a) for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: fill(v) for k, v in config.items()}))
        argv += ["--config", str(path)]
    assert main(argv) == code
    prefix = {2: "config error:", 3: "data error:",
              4: "numerical failure:"}[code]
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert message is None or message in err
    if blocked is None:
        assert sorted(os.listdir(tmp_path)) == ([] if config is None
                                                else ["cfg.json"])
    else:
        assert os.listdir(blocked) == []
        assert not [name for _, _, names in os.walk(tmp_path)
                    for name in names if name.startswith(".tmp-")]
    assert hostile_inputs["file"].read_text() == "a file, not a directory\n"


def test_failed_train_removes_only_the_directories_it_made(tmp_path, capsys):
    """A seed that fails before writing removes the empty --out
    directories train made, innermost first, and keeps one that
    existed."""
    kept = tmp_path / "kept"
    kept.mkdir()
    argv = ["train", "--equation", "I.12.11", "--shape", "2,1",
            "--range=-1e200,1e200", "--epochs", "1", "--seeds", "0",
            "--n-train", "20", "--n-test", "10"]
    assert main(argv + ["--out", str(kept / "new" / "run")]) == 4
    assert main(argv + ["--out", str(kept)]) == 4
    assert os.listdir(tmp_path) == ["kept"] and os.listdir(kept) == []
    assert capsys.readouterr().err.count("numerical failure:") == 2


# --- every input format, damaged ---------------------------------------------


def _text(name, edit):
    """A mutation that rewrites the input file `name` as edit(its text)."""
    def mutate(src):
        path = src / name
        path.write_text(edit(path.read_text()))
    return mutate


def _doc(name, edit):
    """A mutation that applies edit(document) to the JSON file `name`; a
    NaN or infinite float is written as the token json.dumps gives it."""
    def rewrite(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return _text(name, rewrite)


def _csv(edit):
    """A mutation that applies edit(rows of cells) to data.csv."""
    def rewrite(text):
        rows = [line.split(",") for line in text.splitlines()]
        edit(rows)
        return "\n".join(",".join(row) for row in rows) + "\n"
    return _text("data.csv", rewrite)


def _idx(name, edit):
    """A mutation that rewrites the IDX file `name` as edit(its bytes)."""
    def mutate(src):
        path = src / "idx" / name
        path.write_bytes(edit(path.read_bytes()))
    return mutate


def _cut(text):
    """The text up to the first comma past its middle: a row cut short.
    (A CSV cut inside a row's last cell ends in a shorter valid number,
    which no reader can tell from a whole file.)"""
    return text[:text.index(",", len(text) // 2)]


_TRAIN_IMAGES = "train-images-idx3-ubyte"
_TRAIN_LABELS = "train-labels-idx1-ubyte"
_SPLINE_ROWS = dict(SPLINE_JSON_MUTATIONS)

# (format, mutation, mutate(input directory)); the kinds of damage are a
# truncated file, a NaN, a value of the wrong type, a deleted key, an
# added column or unknown key, and a version that is a bool or a float
_FILE_MUTATIONS = [
    ("csv", "truncated", _text("data.csv", _cut)),
    ("csv", "nan-cell", _csv(lambda rows: rows[5].__setitem__(1, "nan"))),
    ("csv", "string-cell", _csv(lambda rows: rows[5].__setitem__(1, "abc"))),
    ("csv", "target-column-deleted",
     _csv(lambda rows: [row.pop() for row in rows])),
    ("csv", "column-added", _csv(lambda rows: [
        row.append("x3" if k == 0 else "0.5") for k, row in enumerate(rows)])),
    ("csv", "unknown-column", _csv(lambda rows: rows[0].__setitem__(2, "z1"))),
    ("idx", "truncated", _idx(_TRAIN_IMAGES, lambda b: b[:len(b) // 2])),
    ("idx", "labels-for-images",
     lambda src: shutil.copy(src / "idx" / _TRAIN_LABELS,
                             src / "idx" / _TRAIN_IMAGES)),
    ("idx", "label-deleted", _idx(_TRAIN_LABELS, lambda b: struct.pack(
        ">II", 0x00000801, 3) + b[8:-1])),
    ("idx", "byte-added", _idx(_TRAIN_IMAGES, lambda b: b + b"\x00")),
    ("idx", "zero-width-images", _idx(_TRAIN_IMAGES, lambda b: struct.pack(
        ">IIII", 0x00000803, 4, 2, 0))),
    ("idx", "no-0-or-1-labels", _idx(_TRAIN_LABELS, lambda b: b[:8] + b"\x07"
                                     * (len(b) - 8))),
    ("idx", "size-wraps-int64", _idx(_TRAIN_IMAGES, lambda b: struct.pack(
        ">IIII", 0x00000803, 2 ** 21, 2 ** 21, 2 ** 22))),
    ("idx", "no-images-huge-width", _idx(_TRAIN_IMAGES, lambda b: struct.pack(
        ">IIII", 0x00000803, 0, 2 ** 31, 2 ** 31))),
    ("checkpoint", "truncated", _text("ckpt.json", lambda t: t[:len(t) // 2])),
    ("checkpoint", "nan-token",
     _doc("ckpt.json", lambda d: d["params"].__setitem__(3, float("nan")))),
    ("checkpoint", "5000-digit-integer",
     _text("ckpt.json", lambda t: t.replace('"params": [',
                                            '"params": [' + "9" * 5000 + ","))),
    ("checkpoint", "overflowing-integer",
     _doc("ckpt.json", lambda d: d["params"].__setitem__(3, 10 ** 400))),
    ("checkpoint", "deep-nesting", _text("ckpt.json", lambda t: "[" * 100000)),
    ("checkpoint", "params-string", _doc("ckpt.json",
                                         lambda d: d.update(params="0.1"))),
    ("checkpoint", "provenance-list",
     _doc("ckpt.json", lambda d: d.update(provenance=[1]))),
    ("checkpoint", "shape-deleted", _doc("ckpt.json", lambda d: d.pop("shape"))),
    ("checkpoint", "shape-29-TiB",
     _doc("ckpt.json", lambda d: d.update(shape=[200000, 200000, 1],
                                          r=[100, 1]))),
    ("checkpoint", "shape-too-big-for-numpy",
     _doc("ckpt.json", lambda d: d.update(shape=[2 ** 40, 2 ** 40, 1]))),
    ("checkpoint", "unknown-key",
     _doc("ckpt.json", lambda d: d.update(comment="an unknown key"))),
    ("checkpoint", "version-true",
     _doc("ckpt.json", lambda d: d.update(format_version=True))),
    ("checkpoint", "version-1.0",
     _doc("ckpt.json", lambda d: d.update(format_version=1.0))),
    ("checkpoint", "version-string",
     _doc("ckpt.json", lambda d: d.update(format_version="1"))),
    ("config", "truncated", _text("cfg.json", lambda t: t[:len(t) // 2])),
    ("config", "nan-token", _doc("cfg.json",
                                 lambda d: d.update(lr=float("nan")))),
    ("config", "5000-digit-integer",
     _text("cfg.json", lambda t: t.replace('"seeds": [',
                                           '"seeds": [' + "9" * 5000 + ","))),
    ("config", "deep-nesting", _text("cfg.json", lambda t: "[" * 100000)),
    ("config", "shape-object", _doc("cfg.json",
                                    lambda d: d.update(shape={"2": 1}))),
    ("config", "shape-deleted", _doc("cfg.json", lambda d: d.pop("shape"))),
    ("config", "unknown-key", _doc("cfg.json",
                                   lambda d: d.update(comment="unknown"))),
    ("config", "r-true", _doc("cfg.json", lambda d: d.update(r=True))),
    ("config", "epochs-1.5", _doc("cfg.json", lambda d: d.update(epochs=1.5))),
    ("spline", "truncated", _text("spline.json", lambda t: t[:len(t) // 2])),
    *[("spline", name, _doc("spline.json", _SPLINE_ROWS[name]))
      for name in ("NaN coefficient", "w_base a string", "coefficients missing",
                   "unknown key", "format_version true",
                   "format_version 1.0")],
]

# format: (commands that read its file, exit code); the spline network
# has no command and is read through SplineNetwork.from_json
_READERS = {
    "csv": ([["eval", "--checkpoint", "{src}/ckpt.json",
              "--data", "{src}/data.csv", "--out", "{out}/eval.json"]], 3),
    "idx": ([["mnist-demo", "--data-dir", "{src}/idx", "--epochs", "1"]], 3),
    "checkpoint": ([["eval", "--checkpoint", "{src}/ckpt.json",
                     "--data", "{src}/data.csv", "--out", "{out}/eval.json"],
                    ["distill", "--checkpoint", "{src}/ckpt.json",
                     "--data", "{src}/data.csv", "--out", "{out}/dist"],
                    ["extend", "--checkpoint", "{src}/ckpt.json",
                     "--new-r", "3", "--out", "{out}/deeper.json"]], 3),
    "config": ([["train", "--config", "{src}/cfg.json",
                 "--out", "{out}/run"]], 2),
}


@pytest.fixture(scope="module")
def pristine_inputs(workspace, hostile_inputs, tmp_path_factory):
    """One valid file of each format, each read without error."""
    src = tmp_path_factory.mktemp("pristine")
    shutil.copy(workspace / "run" / "best.json", src / "ckpt.json")
    shutil.copy(workspace / "data" / "test.csv", src / "data.csv")
    shutil.copytree(hostile_inputs["idx"], src / "idx")
    (src / "cfg.json").write_text(json.dumps(
        {"equation": "I.12.11", "shape": [2, 2, 1], "r": 2, "epochs": 1,
         "seeds": [0], "n-train": 20, "n-test": 10}))
    (src / "spline.json").write_text(_hqkan_spline_doc())
    SplineNetwork.from_json((src / "spline.json").read_text())
    out = tmp_path_factory.mktemp("pristine-out")
    for fmt in _READERS:
        for argv in _READERS[fmt][0]:
            assert main([a.format(src=src, out=out) for a in argv]) == 0
    return src


@pytest.mark.parametrize("fmt, mutate", [
    pytest.param(fmt, mutate, id=f"{fmt}-{name}")
    for fmt, name, mutate in _FILE_MUTATIONS])
def test_damaged_input_file_is_refused(pristine_inputs, tmp_path, capsys,
                                       fmt, mutate):
    """Each input format, damaged in each way a file can be, exits with
    the code the README gives it (3 for data, 2 for a config) and one
    error line, never a traceback, and writes no output; a damaged
    spline.json raises DataError."""
    src, out = tmp_path / "in", tmp_path / "out"
    shutil.copytree(pristine_inputs, src)
    out.mkdir()
    mutate(src)
    if fmt == "spline":
        with pytest.raises(DataError):
            SplineNetwork.from_json((src / "spline.json").read_text())
        return
    argvs, code = _READERS[fmt]
    prefix = {2: "config error:", 3: "data error:"}[code]
    for argv in argvs:
        assert main([a.format(src=src, out=out) for a in argv]) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert os.listdir(out) == []
