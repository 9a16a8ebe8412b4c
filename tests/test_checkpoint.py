"""Tests for checkpoint serialization and atomic writes."""

import json
import os
import re
import stat

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

    def test_provenance_stored(self, tmp_path):
        net = QkanNetwork.init([2, 1], 1, np.random.default_rng(303))
        path = tmp_path / "ckpt.json"
        ck.save_checkpoint(net, path, provenance={"seed": 4})
        _, doc = ck.load_checkpoint(path)
        assert doc["provenance"] == {"seed": 4}

    def test_in_process_dict_round_trip(self):
        """network_to_dict output loads without a JSON pass in between."""
        net = make_hqkan(6, 3, r=2, hidden_shape=(3,),
                         rng=np.random.default_rng(307))
        loaded = ck.network_from_dict(ck.network_to_dict(net))
        np.testing.assert_array_equal(loaded.param_vector(),
                                      net.param_vector())


class TestLayout:
    def test_flat_order_is_pinned(self):
        """The order checkpoints store: encoder weight (row-major) and
        bias, then per QKAN layer enc_w, enc_b, angles, w_base, w_quant,
        out_bias (each row-major over (out, in, ...)), then the decoder."""
        net = make_hqkan(5, 2, r=2, hidden_shape=(3,),
                         rng=np.random.default_rng(306))
        arrays = [net.encoder.weight, net.encoder.bias]
        for lay in net.layers:
            arrays += [lay.enc_w, lay.enc_b, lay.angles, lay.w_base,
                       lay.w_quant, lay.out_bias]
        arrays += [net.decoder.weight, net.decoder.bias]
        start = 0
        for a in arrays:
            a[...] = np.arange(start, start + a.size).reshape(a.shape)
            start += a.size
        # 5r+6 = 16 scalars on each of 3*3 + 3*2 edges, plus linear layers
        assert start == net.param_count() == (5 * 3 + 3) + 15 * 16 + (2 * 2 + 2)
        expected = np.arange(float(start))
        np.testing.assert_array_equal(net.param_vector(), expected)
        doc = json.loads(json.dumps(ck.network_to_dict(net)))
        assert doc["params"] == expected.tolist()
        loaded = ck.network_from_dict(doc)
        loaded_arrays = [loaded.encoder.weight, loaded.encoder.bias]
        for lay in loaded.layers:
            loaded_arrays += [lay.enc_w, lay.enc_b, lay.angles, lay.w_base,
                              lay.w_quant, lay.out_bias]
        loaded_arrays += [loaded.decoder.weight, loaded.decoder.bias]
        for got, want in zip(loaded_arrays, arrays):
            np.testing.assert_array_equal(got, want)


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
        lambda doc: doc["params"].__setitem__(3, True),
        lambda doc: doc["params"].__setitem__(3, "0.1"),
        lambda doc: doc["params"].__setitem__(3, None),
        lambda doc: doc["params"].__setitem__(3, float("nan")),
        lambda doc: doc["params"].__setitem__(3, float("-inf")),
        lambda doc: doc.update(encoder=[4]),
        lambda doc: doc.update(encoder=[4, 3]),   # core input width is 2
        lambda doc: doc.update(format_version=True),
        lambda doc: doc.update(format_version=1.0),
        lambda doc: doc.update(format_version="1"),
        lambda doc: doc["params"].__setitem__(3, float("inf")),
        lambda doc: doc["params"].__setitem__(3, 10 ** 400),
        lambda doc: doc.update(comment="an unknown key"),
        lambda doc: doc.update(provenance=[1]),
        lambda doc: doc.update(shape=[200000, 200000, 1], r=[100, 1]),
        lambda doc: doc.update(shape=[2 ** 40, 2 ** 40, 1]),
    ], ids=["no-format_version", "no-shape", "no-r", "no-params",
            "shape-string", "shape-short", "shape-zero", "r-float",
            "r-count", "r-scalar", "params-string", "params-null",
            "params-nested", "params-bool-item",
            "params-string-item", "params-null-item", "params-nan", "params-inf", "encoder-short",
            "encoder-mismatch", "format_version-true", "format_version-1.0",
            "format_version-string", "params-infinity", "params-overflow",
            "unknown-key", "provenance-list", "shape-29-TiB",
            "shape-too-big-for-numpy"])
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


class TestFiniteArray:
    @pytest.mark.parametrize("value, shape", [
        (1.5, ()), (2, ()), (np.float64(0.5), ()),
        ([0.5, 2, np.float64(-1.0)], (None,)),
        ([[1, 2.5], [np.float64(3.0), 4]], (None, None)),
    ])
    def test_accepts_floats_and_exact_ints(self, value, shape):
        arr = ck.finite_array({"v": value}, "v", "test", shape)
        np.testing.assert_array_equal(arr, np.array(value, dtype=np.float64))

    @pytest.mark.parametrize("value, shape", [
        (True, ()), ("1.5", ()), (None, ()), ([1.5], ()),
        ([0.5, True], (None,)), ([0.5, "2"], (None,)), ([0.5, None], (None,)),
        ([0.5, [1.0]], (None,)), (0.5, (None,)),
        ([[1.0, False]], (None, None)), ([[1.0], 2.0], (None, None)),
        ([1.0, 2.0], (None, None)), ([[[1.0]]], (None, None)),
    ])
    def test_rejects_other_elements_and_nesting(self, value, shape):
        with pytest.raises(DataError, match="^test field 'v' must be"):
            ck.finite_array({"v": value}, "v", "test", shape)


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

    def test_mode_follows_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            ck.atomic_write_text(tmp_path / "out.txt", "text")
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o644


class TestConfigHash:
    def test_stable_under_key_order(self):
        assert ck.config_hash({"a": 1, "b": 2}) == ck.config_hash({"b": 2, "a": 1})
        assert ck.config_hash({"a": 1}) != ck.config_hash({"a": 2})
        assert len(ck.config_hash({})) == 16


def test_only_checkpoint_parses_json():
    """checkpoint.py holds the one set of JSON read and write rules; a
    module that imports json or calls json.load or json.loads itself
    would state its own."""
    src = os.path.dirname(ck.__file__)
    readers = [name for name in sorted(os.listdir(src))
               if name.endswith(".py") and re.search(
                   r"\bjson\s*\.\s*loads?\s*\(|from\s+json\s+import"
                   r"|^\s*import\s+json\b",
                   open(os.path.join(src, name)).read(), re.MULTILINE)]
    assert readers == ["checkpoint.py"]
