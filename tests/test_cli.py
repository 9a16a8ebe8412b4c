"""End-to-end CLI tests; commands run in-process through main()."""

import json
import os
import re
import shutil
import struct

import numpy as np
import pytest

from qkan import QkanNetwork, SplineNetwork, daruan, read_csv, rmse
from qkan.checkpoint import load_checkpoint, save_checkpoint
from qkan.cli import _GEN_DATA_FIELDS, _TRAIN_FIELDS, main


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
                           ("noise-frac", "-1"), ("n-test", "0"))],
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

# the other subcommands: (name, argv, exit code); the workspace
# checkpoint is [2, 2, 1] with r=2
_CKPT = ["--checkpoint", "{ckpt}"]
_FLAG_CASES = [
    ("spectrum-r-0", ["spectrum", "--r", "0"], 2),
    ("spectrum-tol-0", ["spectrum", "--tol", "0"], 2),
    ("spectrum-tol-inf", ["spectrum", "--tol", "inf"], 2),
    ("spectrum-weights-inf", ["spectrum", "--r", "1", "--weights", "inf"], 2),
    ("spectrum-weights-nan", ["spectrum", "--r", "2", "--weights", "nan,1"],
     2),
    ("distill-grid-size-0",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--grid-size", "0"], 2),
    ("distill-degree-0",
     ["distill", *_CKPT, "--data", "{csv}/x2y1.csv", "--degree", "0"], 2),
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
    # inputs that cannot be read or decoded
    ("eval-csv-missing", ["eval", *_CKPT, "--data", "{tmp}/missing.csv"], 3),
    ("eval-csv-undecodable", ["eval", *_CKPT, "--data", "{undecodable}"], 3),
    ("eval-checkpoint-undecodable",
     ["eval", "--checkpoint", "{undecodable}", "--data", "{csv}/x2y1.csv"], 3),
    ("train-config-undecodable", ["train", "--config", "{undecodable}"], 2),
    ("mnist-idx-is-a-directory",
     ["mnist-demo", "--data-dir", "{idx_unopenable}"], 3),
]


def _hostile_cases():
    for name, command, flags, config in _OPTION_CASES:
        for form, given in (("flag", flags), ("config", config)):
            fields = {k: v for k, v in _BASE_FIELDS[command].items()
                      if k not in given}
            if form == "flag":
                fields.update(given)
            argv = [command] + [a for field, value in fields.items()
                                for a in (f"--{field}", value)]
            yield pytest.param(argv, given if form == "config" else None, 2,
                               id=f"{command}-{form}-{name}")
    for name, argv, code in _FLAG_CASES:
        yield pytest.param(argv, None, code, id=name)


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
    undecodable = workspace / "undecodable"
    undecodable.write_bytes(b"\xff\xfe" + "x1,y1\n".encode("utf-16-le"))
    return {"csv": csv_dir, "idx": idx_dir, "idx_unopenable": unopenable,
            "file": taken, "undecodable": undecodable,
            "ckpt": workspace / "run" / "best.json"}


@pytest.mark.parametrize("argv, config, code", _hostile_cases())
def test_hostile_input_exits_with_its_code(hostile_inputs, tmp_path, capsys,
                                           argv, config, code):
    """Out-of-range options, CSVs that do not fit the network, unreadable
    inputs and unwritable outputs exit with their documented code and one
    error line, never a traceback, and leave no output behind."""
    def fill(value):
        return value.format(tmp=tmp_path, **hostile_inputs) \
            if isinstance(value, str) else value

    argv = [fill(a) for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({k: fill(v) for k, v in config.items()}))
        argv += ["--config", str(path)]
    assert main(argv) == code
    prefix = {2: "config error:", 3: "data error:"}[code]
    assert capsys.readouterr().err.startswith(prefix)
    assert sorted(os.listdir(tmp_path)) == ([] if config is None
                                            else ["cfg.json"])
    assert hostile_inputs["file"].read_text() == "a file, not a directory\n"
