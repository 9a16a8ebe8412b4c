"""Tests for checkpoint serialization and atomic writes."""

import json
import os

import numpy as np
import pytest

from qkan import checkpoint as ck
from qkan.errors import DataError
from qkan.network import QkanNetwork, make_hqkan


class TestRoundTrip:
    def test_bitwise_forward_reproduction(self, tmp_path):
        rng = np.random.default_rng(301)
        net = make_hqkan(6, 3, r=2, hidden_shape=(3,), rng=rng)
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path)
        loaded, doc = ck.load_checkpoint(path)
        x = rng.normal(size=(10, 6))
        np.testing.assert_array_equal(loaded.forward(x), net.forward(x))
        np.testing.assert_array_equal(loaded.param_vector(),
                                      net.param_vector())
        assert doc["format_version"] == ck.FORMAT_VERSION

    def test_save_is_byte_deterministic(self, tmp_path):
        net = QkanNetwork.init([2, 2, 1], 3, np.random.default_rng(302))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        ck.save_checkpoint(net, p1)
        ck.save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_provenance_and_optimizer_state_stored(self, tmp_path):
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(303))
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path, provenance={"seed": 4},
                           optimizer_state={"step": 12})
        _, doc = ck.load_checkpoint(path)
        assert doc["provenance"] == {"seed": 4}
        assert doc["optimizer_state"] == {"step": 12}


class TestValidation:
    def test_version_mismatch_rejected(self, tmp_path):
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(304))
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = ck.FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="format_version"):
            ck.load_checkpoint(path)

    def test_wrong_param_count_rejected(self, tmp_path):
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(305))
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["params"] = doc["params"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            ck.load_checkpoint(path)

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc.pop("format_version"),
        lambda doc: doc.pop("shape"),
        lambda doc: doc.pop("r"),
        lambda doc: doc.pop("params"),
        lambda doc: doc.update(shape="2,3,1"),
        lambda doc: doc.update(shape=[2]),
        lambda doc: doc.update(shape=[2, 0, 1]),
        lambda doc: doc.update(r=[2.5, 2]),
        lambda doc: doc.update(r=[2]),
        lambda doc: doc.update(r=3),
        lambda doc: doc.update(params="0.1"),
        lambda doc: doc.update(params=[None] * len(doc["params"])),
        lambda doc: doc["params"].__setitem__(0, [0.1]),
        lambda doc: doc["params"].__setitem__(3, float("nan")),
        lambda doc: doc["params"].__setitem__(3, float("-inf")),
        lambda doc: doc.update(encoder=[4]),
        lambda doc: doc.update(encoder=[4, 3]),   # core input width is 2
    ], ids=["no-format_version", "no-shape", "no-r", "no-params",
            "shape-string", "shape-short", "shape-zero", "r-float",
            "r-count", "r-scalar", "params-string", "params-null",
            "params-nested", "params-nan", "params-inf", "encoder-short",
            "encoder-mismatch"])
    def test_malformed_document_is_data_error(self, tmp_path, mutate):
        net = QkanNetwork.init([2, 3, 1], 2, np.random.default_rng(306))
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            ck.load_checkpoint(path)

    def test_non_object_document_is_data_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DataError):
            ck.load_checkpoint(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            ck.load_checkpoint(path)

    def test_non_finite_parameter_not_saved(self, tmp_path):
        path = tmp_path / "ckpt.json"
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(305))
        ck.save_checkpoint(net, path)
        before = path.read_bytes()
        net.layers[0].w_base[0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            ck.save_checkpoint(net, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            ck.load_checkpoint(tmp_path / "nope.json")


class TestAtomicWrite:
    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")

        with pytest.raises(TypeError):
            ck.atomic_write_text(target, 12345)   # not a str: write fails
        assert target.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_overwrites_in_place(self, tmp_path):
        target = tmp_path / "out.txt"
        ck.atomic_write_text(target, "one")
        ck.atomic_write_text(target, "two")
        assert target.read_text() == "two"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert ck.config_hash({"a": 1, "b": 2}) == ck.config_hash({"b": 2, "a": 1})
        assert ck.config_hash({"a": 1}) != ck.config_hash({"a": 2})
        assert len(ck.config_hash({})) == 16
