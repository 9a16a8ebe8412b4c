"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class QkanError(Exception):
    """Base class for all package errors."""


class ConfigError(QkanError):
    """Invalid configuration or CLI arguments, or an unwritable output."""


class DataError(QkanError):
    """Malformed or unreadable input files: CSV, IDX, checkpoints and
    spline.json."""


class NumericalError(QkanError):
    """Numerical failure during computation (NaN loss, failed spline fits)."""


class FitError(NumericalError):
    """Least-squares spline fit failed (rank deficiency, bad design)."""
