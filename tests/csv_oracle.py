"""The record-by-record CSV reader and writer, kept as a test oracle.

`qkan.data` once wrote a dataset with `csv.writer`, one row at a time,
and read one back converting and checking each record before the next.
It now formats every row with one template and converts and checks
every cell at once, scanning record by record only for a file that
fails. These two functions are the old versions, unchanged apart from
their imports; the tests require the same bytes, the same arrays and
the same DataError messages from the new ones.
"""

import csv
import io
import math

import numpy as np

from qkan.checkpoint import atomic_write_text, reading
from qkan.data import Dataset
from qkan.errors import DataError


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
