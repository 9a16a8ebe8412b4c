"""Checkpoint persistence.

Checkpoints are JSON documents holding the network topology and the
flat parameter list of QkanNetwork.param_vector, whose layout
QkanNetwork.stages() and each stage's PARAMS (QkanLayer.PARAMS for a
QKAN layer) define. Floats are serialized with shortest round-trip
precision, so load(save(net)) reproduces forward passes bitwise. A
format_version mismatch is rejected, never migrated. The helpers
below hold the rules by which qkan reads every JSON input (checkpoints,
spline.json and --config files) and writes every output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DataError, NumericalError, QkanError
from .network import LinearLayer, QkanLayer, QkanNetwork

FORMAT_VERSION = 1
CHECKPOINT_KEYS = ("format_version", "shape", "r", "encoder", "decoder",
                   "params", "provenance")


@contextmanager
def writing(path):
    """Context reporting an OSError on the output `path` as ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") \
            from None


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the same directory plus rename, so no
    partial file is left behind on failure; open() gives the file the
    mode the umask leaves (0644 under umask 022)."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".tmp-{os.urandom(6).hex()}-{tail}")
    with writing(path):
        try:
            with open(tmp, "x") as fh:
                fh.write(text)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


def write_json(path, doc, indent: int | None = 2) -> str:
    """`doc` as strict JSON text, also written atomically to `path` (plus
    a final newline) unless `path` is None. A NaN or infinite number
    raises NumericalError, and nothing is written."""
    try:
        text = json.dumps(doc, indent=indent, allow_nan=False)
    except ValueError:
        raise NumericalError(f"{path or 'JSON output'}: strict JSON has no "
                             f"token for a NaN or infinite number") from None
    if path is not None:
        atomic_write_text(path, text + "\n")
    return text


@contextmanager
def reading(path, error: type[QkanError], what: str):
    """Context yielding the text file at `path`, opened with newline="".
    A file that cannot be opened, read or decoded raises `error`, naming
    the file as `what`."""
    try:
        with open(path, newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _no_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def parse_json(text: str, error: type[QkanError], what: str):
    """`text` parsed as strict JSON: invalid JSON and a NaN or Infinity
    token raise `error`, naming the document as `what`."""
    try:
        return json.loads(text, parse_constant=_no_constant)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: invalid JSON: {exc}") from None


def check_object(doc, keys, error: type[QkanError], what: str) -> dict:
    """`doc`, which must be a JSON object with no key outside `keys`."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    unknown = sorted(set(doc).difference(keys))
    if unknown:
        raise error(f"unknown {what} fields: {unknown}")
    return doc


def check_version(doc: dict, version: int, what: str,
                  tag: str | None = None) -> None:
    """Reject a document whose "format" is not `tag` (if given) or whose
    format_version is not the integer `version` (true and 1.0 are not)."""
    if tag is not None and doc.get("format") != tag:
        raise DataError(f"{what} format {doc.get('format')!r} is not {tag!r}")
    got = doc.get("format_version")
    if type(got) is not int or got != version:
        raise DataError(f"unsupported {what} format_version {got!r}; this "
                        f"build reads the integer {version}")


def _number_type(t: type) -> bool:
    """A float (np.float64 included) or an exact int, never a bool."""
    return t is int or issubclass(t, float)


def _numeric(value, ndim: int) -> bool:
    """Whether `value` nests lists `ndim` deep around JSON numbers. The
    innermost lists are checked by the set of their element types."""
    if ndim == 0:
        return _number_type(type(value))
    if not isinstance(value, list):
        return False
    if ndim == 1:
        return all(map(_number_type, set(map(type, value))))
    return all(_numeric(v, ndim - 1) for v in value)


def finite_array(doc: dict, key: str, what: str,
                 shape: tuple = (None,)) -> np.ndarray:
    """doc[key] as a nonempty float64 array of `shape` (None leaves a
    length free; () is a scalar), from nested lists of finite JSON
    numbers, or DataError naming the field as one of `what`'s."""
    value = doc.get(key)
    try:
        arr = np.array(value, dtype=np.float64) \
            if _numeric(value, len(shape)) else None
    except (ValueError, OverflowError):   # ragged, or too large
        arr = None
    if (arr is not None and arr.ndim == len(shape) and arr.size
            and all(n in (None, m) for n, m in zip(shape, arr.shape))
            and np.all(np.isfinite(arr))):
        return arr
    kind = "a finite number" if not shape else \
        f"a nonempty list of finite numbers of shape {shape}"
    raise DataError(f"{what} field {key!r} must be {kind}, got {value!r:.80}")


def positive_ints(doc: dict, key: str, what: str,
                  count: int | None = None) -> list:
    """doc[key]: a nonempty list of positive integers (of `count` entries
    when given), or DataError naming the field as one of `what`'s."""
    value = doc.get(key)
    if not (isinstance(value, list) and value
            and all(type(v) is int and v >= 1 for v in value)
            and (count is None or len(value) == count)):
        length = f"{count} " if count is not None else ""
        raise DataError(f"{what} field {key!r} must be a list of {length}"
                        f"positive integers, got {value!r:.80}")
    return value


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


def network_from_dict(doc: dict) -> QkanNetwork:
    """Rebuild a network; every malformed field raises DataError. The
    parameter count that the stage sizes declare is compared with the
    length of params before any stage is allocated."""
    check_object(doc, CHECKPOINT_KEYS, DataError, "checkpoint")
    check_version(doc, FORMAT_VERSION, "checkpoint")
    shape = positive_ints(doc, "shape", "checkpoint")
    if len(shape) < 2:
        raise DataError(f"checkpoint shape {shape} needs at least two widths")
    rs = positive_ints(doc, "r", "checkpoint", len(shape) - 1)
    # (stage class, sizes) of each stage; the encoder's and decoder's
    # sizes are (n_in, n_out)
    layers = [(QkanLayer, (shape[i], shape[i + 1], r))
              for i, r in enumerate(rs)]
    linear = {key: (LinearLayer, positive_ints(doc, key, "checkpoint", 2))
              for key in ("encoder", "decoder") if doc.get(key) is not None}
    params = finite_array(doc, "params", "checkpoint")
    if not isinstance(doc.get("provenance", {}), dict):
        raise DataError("checkpoint field 'provenance' must be an object")
    declared = sum(math.prod(s) for cls, sizes in [*layers, *linear.values()]
                   for s in cls.shapes(*sizes))
    if declared != params.size:
        raise DataError(f"checkpoint parameter block: expected {declared} "
                        f"parameters, got {params.size}")
    try:
        net = QkanNetwork(layers=[cls.zeros(*sizes) for cls, sizes in layers],
                          **{key: cls.zeros(*sizes)
                             for key, (cls, sizes) in linear.items()})
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
    write_json(path, doc, indent=None)


def load_checkpoint(path):
    """Returns (network, full checkpoint document)."""
    with reading(path, DataError, "checkpoint") as fh:
        doc = parse_json(fh.read(), DataError, f"checkpoint {path}")
    return network_from_dict(doc), doc
