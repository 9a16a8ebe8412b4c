"""Quantum-inspired variational activation functions and the
Kolmogorov-Arnold networks built from them.

Everything is classical numpy simulation of single-qubit data
re-uploading circuits: exact adjoint gradients, frequency-spectrum
verification, depth extension, B-spline distillation and full-batch
training, plus benchmark dataset generators and a CLI.
"""

from .daruan import (DaruanGrad, DaruanParams, backward, extend, forward,
                     init_daruan, parameter_shift_grad, raw_expectation, silu)
from .data import (Dataset, FEYNMAN_SPECS, gen_regression, gen_sinc, get_spec,
                   read_csv, read_idx, sinc20, write_csv)
from .distill import (SplineModel, SplineNetwork, calibrate_domains,
                      distill_network)
from .errors import (ConfigError, DataError, FitError, NumericalError,
                     QkanError)
from .network import (LinearLayer, QkanLayer, QkanNetwork, latent_dim,
                      make_hqkan)
from .spectrum import (SpectrumReport, empirical_spectrum,
                       enumerate_frequencies, verify_spectrum)
from .train import (AdamState, TrainConfig, TrainResult, adam_step,
                    lbfgs_minimize, mse_loss, rmse, train)
from .checkpoint import load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ConfigError", "DaruanGrad", "DaruanParams", "DataError",
    "Dataset", "FEYNMAN_SPECS", "FitError",
    "LinearLayer", "NumericalError", "QkanError", "QkanLayer", "QkanNetwork",
    "SpectrumReport", "SplineModel", "SplineNetwork", "TrainConfig",
    "TrainResult", "adam_step", "backward", "calibrate_domains",
    "distill_network", "empirical_spectrum", "enumerate_frequencies",
    "extend", "forward",
    "gen_regression", "gen_sinc", "get_spec", "init_daruan", "latent_dim",
    "lbfgs_minimize", "load_checkpoint", "make_hqkan",
    "mse_loss", "parameter_shift_grad", "raw_expectation",
    "read_csv", "read_idx", "rmse", "save_checkpoint", "silu", "sinc20",
    "train", "verify_spectrum", "write_csv",
]
