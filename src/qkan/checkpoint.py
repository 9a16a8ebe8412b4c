"""Checkpoint persistence.

Checkpoints are JSON documents holding the network topology and the
flat parameter list of QkanNetwork.param_vector, whose layout
QkanNetwork.stages() and each stage's PARAMS (QkanLayer.PARAMS for a
QKAN layer) define. Floats are serialized with shortest round-trip
precision, so load(save(net)) reproduces forward passes bitwise. A
format_version mismatch is rejected, never migrated.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from .errors import DataError
from .network import LinearLayer, QkanLayer, QkanNetwork

FORMAT_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so no
    partial file is left behind on failure."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def network_to_dict(net: QkanNetwork, provenance: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "shape": net.shape,
        "r": [layer.r for layer in net.layers],
        "encoder": ([net.encoder.n_in, net.encoder.n_out]
                    if net.encoder else None),
        "decoder": ([net.decoder.n_in, net.decoder.n_out]
                    if net.decoder else None),
        "params": net.param_vector().tolist(),
    }
    if provenance:
        doc["provenance"] = provenance
    return doc


def _widths(doc: dict, key: str, count: int | None = None):
    """A list of positive integers (of `count` entries when given)."""
    value = doc.get(key)
    if not (isinstance(value, list) and value
            and all(type(v) is int and v >= 1 for v in value)
            and (count is None or len(value) == count)):
        length = f"{count} " if count is not None else ""
        raise DataError(f"checkpoint field {key!r} must be a list of {length}"
                        f"positive integers, got {value!r}")
    return value


def _linear(doc: dict, key: str) -> LinearLayer | None:
    if doc.get(key) is None:
        return None
    n_in, n_out = _widths(doc, key, 2)
    return LinearLayer(np.zeros((n_out, n_in)), np.zeros(n_out))


def network_from_dict(doc: dict) -> QkanNetwork:
    """Rebuild a network; every malformed field raises DataError."""
    if not isinstance(doc, dict):
        raise DataError("checkpoint must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format_version {version!r}; "
                        f"this build reads version {FORMAT_VERSION}")
    shape = _widths(doc, "shape")
    if len(shape) < 2:
        raise DataError(f"checkpoint shape {shape} needs at least two widths")
    rs = _widths(doc, "r", len(shape) - 1)
    layers = [QkanLayer.zeros(shape[i], shape[i + 1], r)
              for i, r in enumerate(rs)]
    params = doc.get("params")
    if not (isinstance(params, list)
            and all(type(v) in (int, float) for v in params)):
        raise DataError("checkpoint field 'params' must be a list of numbers")
    params = np.array(params, dtype=np.float64)
    if not np.all(np.isfinite(params)):
        raise DataError("checkpoint parameters contain non-finite values")
    try:
        net = QkanNetwork(layers=layers, encoder=_linear(doc, "encoder"),
                          decoder=_linear(doc, "decoder"))
        net.set_param_vector(params)
    except ValueError as exc:
        raise DataError(f"checkpoint parameter block: {exc}") from None
    return net


def save_checkpoint(net: QkanNetwork, path,
                    provenance: dict | None = None) -> None:
    """Write a checkpoint; a non-finite parameter raises DataError before
    anything is written, since JSON has no token for it."""
    doc = network_to_dict(net, provenance)
    bad = np.flatnonzero(~np.isfinite(doc["params"]))
    if bad.size:
        raise DataError(f"cannot save a checkpoint with {bad.size} non-finite "
                        f"parameters (first at flat index {bad[0]})")
    atomic_write_text(path, json.dumps(doc, allow_nan=False) + "\n")


def load_checkpoint(path):
    """Returns (network, full checkpoint document)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc}") from None
    return network_from_dict(doc), doc
