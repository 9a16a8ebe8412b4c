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
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write_text, reading
from .errors import DataError

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
    shape: tuple    # default network shape for this equation


def _sinc20(x):
    # sin(20x)/(20x) with the removable singularity defined by its limit
    u = 20.0 * np.asarray(x, dtype=np.float64)
    return np.where(np.abs(u) < 1e-12, 1.0,
                    np.sin(np.where(u == 0, 1.0, u)) / np.where(u == 0, 1.0, u))


FEYNMAN_SPECS = {
    s.id: s for s in [
        FeynmanSpec("I.12.11", 2, lambda v: 1.0 + v[:, 0] * np.sin(v[:, 1]),
                    (2, 2, 1)),
        FeynmanSpec("I.29.16", 3,
                    lambda v: np.sqrt(1.0 + v[:, 0] ** 2
                                      - 2.0 * v[:, 0] * np.cos(v[:, 1] - v[:, 2])),
                    (3, 2, 3, 1)),
        FeynmanSpec("I.40.1", 2, lambda v: v[:, 0] * np.exp(-v[:, 1]),
                    (2, 2, 1, 1, 1, 2, 1)),
        FeynmanSpec("I.50.26", 2,
                    lambda v: np.cos(v[:, 0]) + v[:, 1] * np.cos(v[:, 0]) ** 2,
                    (2, 2, 3, 1)),
        FeynmanSpec("II.2.42", 2, lambda v: (v[:, 0] - 1.0) * v[:, 1],
                    (2, 2, 1)),
        FeynmanSpec("II.6.15a", 3,
                    lambda v: v[:, 2] / (4.0 * np.pi)
                    * np.sqrt(v[:, 0] ** 2 + v[:, 1] ** 2),
                    (3, 2, 1, 1)),
        FeynmanSpec("II.35.18", 2,
                    lambda v: v[:, 0] / (np.exp(v[:, 1]) + np.exp(-v[:, 1])),
                    (2, 1, 1)),
        FeynmanSpec("II.36.38", 3, lambda v: v[:, 0] + v[:, 2] * v[:, 1],
                    (3, 2, 1)),
        FeynmanSpec("III.10.19", 2,
                    lambda v: np.sqrt(1.0 + v[:, 0] ** 2 + v[:, 1] ** 2),
                    (2, 1, 1)),
        FeynmanSpec("III.17.37", 3,
                    lambda v: v[:, 1] * (1.0 + v[:, 0] * np.cos(v[:, 2])),
                    (3, 3, 1)),
    ]
}


def get_spec(equation_id: str) -> FeynmanSpec:
    try:
        return FEYNMAN_SPECS[equation_id]
    except KeyError:
        raise DataError(f"unknown Feynman equation id {equation_id!r}; "
                        f"known: {sorted(FEYNMAN_SPECS)}") from None


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
    y_train = _sinc20(x_train) + rng.normal(0.0, noise_std, size=(n_train, 1))
    y_test = _sinc20(x_test)
    meta = {"equation": "sinc20", "seed": seed, "noise_std": noise_std,
            "range": [0.0, 1.0]}
    return (Dataset(x_train, y_train, dict(meta, split="train")),
            Dataset(x_test, y_test, dict(meta, split="test", clean=True)))


def sinc20(x):
    """The clean sinc target, with sinc20(0) = 1."""
    return _sinc20(x)


# --- CSV serialization ------------------------------------------------------


def write_csv(dataset: Dataset, path) -> None:
    """Header x1..xn,y1..ym; values at 17 significant digits. Written
    atomically: a failed write leaves no partial file."""
    n_x = dataset.inputs.shape[1]
    n_y = dataset.targets.shape[1]
    header = [f"x{i + 1}" for i in range(n_x)] + [f"y{i + 1}" for i in range(n_y)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for xi, yi in zip(dataset.inputs, dataset.targets):
        writer.writerow([f"{v:.17g}" for v in xi] + [f"{v:.17g}" for v in yi])
    atomic_write_text(path, buf.getvalue())


def read_csv(path) -> Dataset:
    with reading(path, DataError, "CSV") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty CSV file") from None
        n_x = sum(1 for h in header if h.startswith("x"))
        n_y = sum(1 for h in header if h.startswith("y"))
        if n_x + n_y != len(header) or n_x == 0 or n_y == 0:
            raise DataError(f"{path}: header must be x1..xn,y1..ym, "
                            f"got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != n_x + n_y:
                raise DataError(f"{path}:{lineno}: expected {n_x + n_y} "
                                f"columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}:{lineno}: non-finite value in {row}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.array(rows)
    return Dataset(arr[:, :n_x], arr[:, n_x:])


# --- MNIST IDX format -------------------------------------------------------


def read_idx(path) -> np.ndarray:
    """Parse a big-endian IDX file.

    Images (magic 0x00000803) come back as (n, rows*cols) float64,
    scaled to [0, 1] then normalized to mean 0.5, std 0.5. Labels
    (magic 0x00000801) come back as (n,) integers.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
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
    expected = header_len + int(np.prod(dims))
    if len(blob) != expected:
        raise DataError(f"{path}: expected {expected} bytes, file ends at "
                        f"byte {len(blob)}")
    raw = np.frombuffer(blob, dtype=np.uint8, offset=header_len)
    if magic == IDX_LABELS_MAGIC:
        return raw.astype(np.int64)
    n = dims[0]
    pixels = raw.reshape(n, dims[1] * dims[2]).astype(np.float64) / 255.0
    return (pixels - 0.5) / 0.5
