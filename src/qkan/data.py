"""Benchmark datasets: noisy Feynman-formula regression, the sinc
target, CSV serialization, and the MNIST IDX reader.

Noise model for the regression generator: targets are f(x) + eps with
eps ~ N(0, noise_frac * mu_f), where mu_f is the mean of |f| over the
training inputs (the absolute value keeps the noise scale nonnegative
for sign-changing formulas). Both the training and test splits are
noisy.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write_text, reading
from .errors import ConfigError, DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Paired input/target matrices with generation metadata."""

    inputs: np.ndarray    # (n_samples, n_features)
    targets: np.ndarray   # (n_samples, n_targets)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=np.float64))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=np.float64))
        if self.targets.shape[0] != self.inputs.shape[0]:
            raise ValueError("inputs and targets must have matching rows")
        if not (np.all(np.isfinite(self.inputs))
                and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class FeynmanSpec:
    """One dimensionless benchmark formula."""

    id: str
    arity: int
    formula: callable


def sinc20(x):
    """The clean sinc target sin(20x)/(20x), with sinc20(0) = 1."""
    # the removable singularity is defined by its limit
    u = 20.0 * np.asarray(x, dtype=np.float64)
    return np.where(np.abs(u) < 1e-12, 1.0,
                    np.sin(np.where(u == 0, 1.0, u)) / np.where(u == 0, 1.0, u))


FEYNMAN_SPECS = {
    s.id: s for s in [
        FeynmanSpec("I.12.11", 2, lambda v: 1.0 + v[:, 0] * np.sin(v[:, 1])),
        FeynmanSpec("I.29.16", 3,
                    lambda v: np.sqrt(1.0 + v[:, 0] ** 2 - 2.0 * v[:, 0]
                                      * np.cos(v[:, 1] - v[:, 2]))),
        FeynmanSpec("I.40.1", 2, lambda v: v[:, 0] * np.exp(-v[:, 1])),
        FeynmanSpec("I.50.26", 2,
                    lambda v: np.cos(v[:, 0])
                    + v[:, 1] * np.cos(v[:, 0]) ** 2),
        FeynmanSpec("II.2.42", 2, lambda v: (v[:, 0] - 1.0) * v[:, 1]),
        FeynmanSpec("II.6.15a", 3,
                    lambda v: v[:, 2] / (4.0 * np.pi)
                    * np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2)),
        FeynmanSpec("II.35.18", 2,
                    lambda v: v[:, 0] / (np.exp(v[:, 1]) + np.exp(-v[:, 1]))),
        FeynmanSpec("II.36.38", 3, lambda v: v[:, 0] + v[:, 2] * v[:, 1]),
        FeynmanSpec("III.10.19", 2,
                    lambda v: np.sqrt(1.0 + v[:, 0] ** 2 + v[:, 1] ** 2)),
        FeynmanSpec("III.17.37", 3,
                    lambda v: v[:, 1] * (1.0 + v[:, 0] * np.cos(v[:, 2]))),
    ]
}


def get_spec(equation_id: str) -> FeynmanSpec:
    try:
        return FEYNMAN_SPECS[equation_id]
    except KeyError:
        raise DataError(f"unknown Feynman equation id {equation_id!r}; "
                        f"known: {sorted(FEYNMAN_SPECS)}") from None


def _check_generated(targets, settings: str):
    """ConfigError unless the generated targets are all finite; the
    `settings` that scale them are named in the message."""
    if not all(np.all(np.isfinite(y)) for y in targets):
        raise ConfigError(f"generated targets are not finite: {settings} "
                          f"too large")


def gen_regression(spec: FeynmanSpec, n_train: int = 1000, n_test: int = 1000,
                   noise_frac: float = 0.1, seed: int = 0,
                   input_range: tuple = (0.0, 1.0)):
    """Seed-deterministic noisy regression splits for one formula."""
    if noise_frac < 0:
        raise ValueError("noise_frac must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    lo, hi = input_range
    x_train = rng.uniform(lo, hi, size=(n_train, spec.arity))
    x_test = rng.uniform(lo, hi, size=(n_test, spec.arity))
    y_train = spec.formula(x_train)
    y_test = spec.formula(x_test)
    mu_f = float(np.mean(np.abs(y_train)))
    noise_std = noise_frac * mu_f
    y_train = y_train + rng.normal(0.0, noise_std, size=y_train.shape)
    y_test = y_test + rng.normal(0.0, noise_std, size=y_test.shape)
    _check_generated((y_train, y_test), "noise-frac or range")
    meta = {"equation": spec.id, "seed": seed, "noise_frac": noise_frac,
            "noise_std": noise_std, "mu_f": mu_f, "range": [lo, hi]}
    return (Dataset(x_train, y_train[:, None], dict(meta, split="train")),
            Dataset(x_test, y_test[:, None], dict(meta, split="test")))


def gen_sinc(n_train: int = 1000, n_test: int = 1000, noise_std: float = 0.1,
             seed: int = 0):
    """sin(20x)/(20x) on [0, 1] with additive Gaussian label noise on
    the training split; test targets are the clean function."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51AC]))
    x_train = rng.uniform(0.0, 1.0, size=(n_train, 1))
    x_test = rng.uniform(0.0, 1.0, size=(n_test, 1))
    y_train = sinc20(x_train) + rng.normal(0.0, noise_std, size=(n_train, 1))
    _check_generated((y_train,), "noise-frac")
    y_test = sinc20(x_test)
    meta = {"equation": "sinc20", "seed": seed, "noise_std": noise_std,
            "range": [0.0, 1.0]}
    return (Dataset(x_train, y_train, dict(meta, split="train")),
            Dataset(x_test, y_test, dict(meta, split="test", clean=True)))


# --- CSV serialization ------------------------------------------------------


def write_csv(dataset: Dataset, path) -> None:
    """Header x1..xn,y1..ym; values at 17 significant digits, one record
    per CRLF-ended line, the bytes csv.writer writes (no value needs
    quoting). Written atomically: a failed write leaves no partial file."""
    header = _header(dataset.inputs.shape[1], dataset.targets.shape[1])
    values = np.hstack([dataset.inputs, dataset.targets])
    record = ",".join(["{:.17g}"] * len(header)) + "\r\n"
    text = ",".join(header) + "\r\n" \
        + (record * len(values)).format(*values.ravel().tolist())
    atomic_write_text(path, text)


def _header(n_x: int, n_y: int) -> list[str]:
    """The CSV header x1..xn,y1..ym of n inputs and m targets."""
    return [f"x{i + 1}" for i in range(n_x)] + [f"y{i + 1}" for i in range(n_y)]


def _n_inputs(header: list[str]) -> int:
    """n of a header x1..xn,y1..ym with n, m >= 1; 0 for any other."""
    n_x = sum(1 for h in header if h.startswith("x"))
    if n_x == len(header) or header != _header(n_x, len(header) - n_x):
        return 0
    return n_x


def _first_bad_record(path, rows, width: int) -> None:
    """Raise the DataError of the first of `rows` (the records after the
    header) that is not `width` finite numbers; return if none is. Within
    a record, the column count is checked first, then the number syntax,
    then finiteness."""
    for lineno, row in enumerate(rows, start=2):
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} "
                            f"columns, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}:{lineno}: non-finite value in {row}")


def _written_layout(text: str):
    """(values, n) of a CSV text in write_csv's layout, with n inputs,
    converted by one np.loadtxt call; None for any other text, and for
    one that numpy refuses or that holds a non-finite value. The layout:
    CRLF-ended records only, no quote, no NUL, no U+001C..U+001F, no
    empty line, no line longer than the csv module's field size limit,
    and the header x1..xn,y1..ym exactly."""
    lines = text.split("\r\n")
    # numpy strips the information separators U+001C..U+001F around a
    # number as whitespace; float refuses them
    if (lines.pop() != "" or len(lines) < 2
            or not text.count("\r") == text.count("\n") == len(lines)
            or any(c in text for c in '"\0\x1c\x1d\x1e\x1f') or "" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    header = lines[0].split(",")
    n_x = _n_inputs(header)
    if not n_x:
        return None
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None,
                            quotechar=None, ndmin=2)
    except ValueError:
        return None
    if (values.shape != (len(lines) - 1, len(header))
            or not np.all(np.isfinite(values))):
        return None
    return values, n_x


def _read_records(path):
    """(values, n) of the CSV at `path`, with n inputs, read with the csv
    module; a malformed file raises the DataError of its first offending
    record. All cells are converted and checked at once; only a file
    that fails is scanned record by record. A line the csv module
    refuses (a field over its size limit) is a DataError naming
    path:line, after any bad record before it."""
    with reading(path, DataError, "CSV") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV file") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
        n_x = _n_inputs(header)
        if not n_x:
            raise DataError(f"{path}: header must be x1..xn,y1..ym, "
                            f"got {header}")
        width = len(header)
        rows = []
        try:
            for row in reader:
                rows.append(row)
        except (csv.Error, OSError, UnicodeDecodeError) as exc:
            # a bad record read before the failure is reported first
            _first_bad_record(path, rows, width)
            if not isinstance(exc, csv.Error):
                raise                          # `reading` names the file
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        arr = np.array(list(map(float, itertools.chain.from_iterable(rows))))
    except ValueError:
        arr = None
    if (arr is None or set(map(len, rows)) != {width}
            or not np.all(np.isfinite(arr))):
        _first_bad_record(path, rows, width)   # raises: some record is bad
    return arr.reshape(len(rows), width), n_x


def read_csv(path) -> Dataset:
    """A CSV of header exactly x1..xn,y1..ym (n, m >= 1) and records of
    n + m finite numbers.

    A file in write_csv's layout (CRLF-ended records only, no quote, no
    NUL, no U+001C..U+001F, no empty line, no line longer than the csv
    module's field size limit, and that header) is converted by numpy's
    C parser in one np.loadtxt call. Every other file, and every file
    numpy refuses, is read with the csv module, which alone names a bad
    record. Both give the same values and the same errors: numpy reads
    the tokens it accepts as float does, and refuses the rest (1_000,
    Unicode digits), which the csv-module read then converts or
    reports."""
    with reading(path, DataError, "CSV") as fh:
        try:
            text = fh.read()
        except (OSError, UnicodeDecodeError):
            text = ""   # the csv-module read reports it, after a bad record
    parsed = _written_layout(text)
    if parsed is None:
        parsed = _read_records(path)
    arr, n_x = parsed
    return Dataset(arr[:, :n_x], arr[:, n_x:])


# --- MNIST IDX format -------------------------------------------------------


def read_idx(path) -> np.ndarray:
    """Parse a big-endian IDX file.

    Images (magic 0x00000803) come back as (n, rows*cols) float64,
    scaled to [0, 1] then normalized to mean 0.5, std 0.5. Labels
    (magic 0x00000801) come back as (n,) integers.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read IDX file {path}: {exc}") from None
    if len(blob) < 4:
        raise DataError(f"{path}: truncated IDX header at byte 0")
    (magic,) = struct.unpack(">I", blob[:4])
    if magic == IDX_LABELS_MAGIC:
        n_dims = 1
    elif magic == IDX_IMAGES_MAGIC:
        n_dims = 3
    else:
        raise DataError(f"{path}: bad IDX magic 0x{magic:08x} at byte 0")
    header_len = 4 + 4 * n_dims
    if len(blob) < header_len:
        raise DataError(f"{path}: truncated IDX header at byte {len(blob)}")
    dims = struct.unpack(f">{n_dims}I", blob[4:header_len])
    expected = header_len + math.prod(dims)
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes, file ends at "
                        f"byte {len(blob)}")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    if magic == IDX_LABELS_MAGIC:
        return raw.astype(np.int64)
    n = dims[0]
    if not raw.size:    # (0, rows * cols) may be too big a shape for numpy
        raise DataError(f"{path}: IDX images of shape {dims} hold no pixels")
    pixels = raw.reshape(n, dims[1] * dims[2]).astype(np.float64) / 255.0
    return (pixels - 0.5) / 0.5
