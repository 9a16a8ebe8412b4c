"""End-to-end CLI tests; commands run in-process through main()."""

import json
import struct

import numpy as np
import pytest

from qkan import read_csv
from qkan.checkpoint import load_checkpoint
from qkan.cli import main


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
