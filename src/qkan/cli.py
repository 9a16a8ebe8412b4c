"""Command-line entry point.

Subcommands: gen-data, train, eval, spectrum, extend, distill,
mnist-demo. The options of gen-data and train are declared once, in
their field tables: each field is both a flag and a key of an optional
--config JSON file, flags win on conflict, and the table's parse
function converts either. Output files are written atomically (temp
file + rename). Exit codes: 0 success, 2 config error (including an
out-of-range option value, an unreadable config file and an output that
cannot be written), 3 data error (including an unreadable input file
and a CSV that does not fit the checkpoint), 4 numerical failure. The
QKAN_OUT environment variable sets the default output root. A command
runs with numpy's floating-point warnings off, so a numerical failure
prints its one error line and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from . import data as datamod
from . import distill as distillmod
from . import spectrum as spectrummod
from .checkpoint import (atomic_write_text, config_hash, load_checkpoint,
                         check_object, parse_json, reading,
                         save_checkpoint, write_json, writing)
from .daruan import DaruanParams, init_daruan
from .errors import ConfigError, DataError, NumericalError, QkanError
from .network import QkanNetwork, make_hqkan
from .train import TrainConfig, rmse, trace_to_csv, train

INIT_STREAM = 0x1417
DEFAULT_SEEDS = [0, 1, 2, 3, 4]


def _default_out(subdir: str) -> str:
    root = os.environ.get("QKAN_OUT", ".")
    return os.path.join(root, subdir)


def _merged(args: argparse.Namespace, fields: dict) -> dict:
    """Overlay CLI flags (when given) onto the fields of the --config
    file, then convert and check every value with its field's parse
    function."""
    cfg = {}
    if args.config is not None:
        with reading(args.config, ConfigError, "config") as fh:
            cfg = check_object(
                parse_json(fh.read(), ConfigError, f"config {args.config}"),
                fields, ConfigError, "config")
    out = {}
    for name, (typ, default, required) in fields.items():
        value = getattr(args, name.replace("-", "_"), None)
        if value is None:
            value = cfg.get(name, default)
        if value is None and required:
            raise ConfigError(f"missing required config field {name!r}")
        try:
            out[name] = None if value is None else typ(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"config field {name!r}: {exc}") from None
    return out


def _checked(convert, ok, expected: str):
    """A parse function: convert(v), rejected unless ok(result). It
    serves as a field-table parse and as an argparse type alike."""
    def parse(v):
        try:
            value = convert(v)
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {v!r}")
        return value
    return parse


def _typed(convert, *types):
    """convert(v) for a flag's text or a JSON value of one of `types`."""
    def typed(v):
        if not (isinstance(v, str) or type(v) in types):
            raise TypeError
        return convert(v)
    return typed


_integer, _number = _typed(int, int), _typed(float, int, float)


def _list_of(item):
    """Converts a comma list (a flag value) or a JSON list with `item`."""
    def convert(v):
        if isinstance(v, str):
            v = [s for s in v.split(",") if s]
        if not isinstance(v, list):
            raise TypeError
        return [item(s) for s in v]
    return convert


_string = _checked(lambda v: v, lambda v: isinstance(v, str), "a string")
_nonnegative_int = _checked(_integer, lambda n: n >= 0, "an integer >= 0")
_positive_int = _checked(_integer, lambda n: n >= 1, "an integer >= 1")
_nonnegative_float = _checked(_number, lambda x: 0.0 <= x < math.inf,
                              "a finite number >= 0")
_positive_float = _checked(_number, lambda x: 0.0 < x < math.inf,
                           "a finite number > 0")
_seeds = _checked(_list_of(_integer), lambda seeds: seeds and min(seeds) >= 0,
                  "a nonempty list of integers >= 0")
_shape = _checked(_list_of(_integer),
                  lambda shape: len(shape) >= 2 and min(shape) >= 1,
                  "a list of two or more integers >= 1")
_range_pair = _checked(_list_of(_number),
                       lambda p: len(p) == 2 and -math.inf < p[0] < p[1]
                       and p[1] - p[0] < math.inf,
                       "two finite numbers lo < hi with a finite hi - lo")
# angles are drawn uniformly from [-s, s], whose width 2 s must be finite
_angle_scale = _checked(_number, lambda s: 0.0 <= s and 2.0 * s < math.inf,
                        "a number >= 0 whose double is finite")
_weights = _checked(
    lambda v: v if v in ("geometric", "unit") else _list_of(_number)(v),
    lambda w: isinstance(w, str) or all(map(math.isfinite, w)),
    "'geometric', 'unit' or a comma list of finite numbers")


@contextlib.contextmanager
def _out_dir(path):
    """Makes the output directory `path` for the body (ConfigError when
    it cannot). If the body fails, each directory made here that is
    still empty is removed, innermost first; one that existed is kept."""
    made, head = [], os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        with writing(path):
            os.makedirs(path, exist_ok=True)
        yield path
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


def _make_dataset(cfg: dict):
    if cfg.get("train-csv") and cfg.get("test-csv"):
        return datamod.read_csv(cfg["train-csv"]), datamod.read_csv(cfg["test-csv"])
    equation = cfg.get("equation")
    if equation is None:
        raise ConfigError("provide either 'equation' or both "
                          "'train-csv' and 'test-csv'")
    if equation == "sinc20":
        return datamod.gen_sinc(cfg["n-train"], cfg["n-test"],
                                noise_std=cfg["noise-frac"],
                                seed=cfg["data-seed"])
    spec = datamod.get_spec(equation)
    return datamod.gen_regression(spec, cfg["n-train"], cfg["n-test"],
                                  noise_frac=cfg["noise-frac"],
                                  seed=cfg["data-seed"],
                                  input_range=tuple(cfg["range"]))


def _width_mismatch(dataset, n_in: int, n_out: int):
    """Why the dataset's columns do not fit an n_in -> n_out network, or
    None when they do."""
    for what, got, want in (("input", dataset.inputs.shape[1], n_in),
                            ("target", dataset.targets.shape[1], n_out)):
        if got != want:
            return f"{got} {what} columns where the network has {want}"
    return None


def _read_data_for(net: QkanNetwork, path):
    dataset = datamod.read_csv(path)
    mismatch = _width_mismatch(dataset, net.in_dim, net.out_dim)
    if mismatch:
        raise DataError(f"{path}: {mismatch}")
    return dataset


def _init_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, INIT_STREAM]))


# --- subcommands ------------------------------------------------------------


# the generator's fields, which gen-data and train share
_GENERATOR_FIELDS = {
    "n-train": (_positive_int, 1000, False),
    "n-test": (_positive_int, 1000, False),
    "noise-frac": (_nonnegative_float, 0.1, False),
    "data-seed": (_nonnegative_int, 0, False),
    "range": (_range_pair, [0.0, 1.0], False),
}

_GEN_DATA_FIELDS = {
    "equation": (_string, None, True),
    **_GENERATOR_FIELDS,
    "out": (_string, None, False),
}


def cmd_gen_data(args) -> int:
    cfg = _merged(args, _GEN_DATA_FIELDS)
    train_ds, test_ds = _make_dataset(cfg)
    with _out_dir(cfg["out"] or _default_out("data")) as out:
        datamod.write_csv(train_ds, os.path.join(out, "train.csv"))
        datamod.write_csv(test_ds, os.path.join(out, "test.csv"))
        write_json(os.path.join(out, "meta.json"), train_ds.meta)
    print(f"wrote {out}/train.csv, test.csv, meta.json "
          f"({len(train_ds)}/{len(test_ds)} rows)")
    return 0


_TRAIN_FIELDS = {
    "equation": (_string, None, False),
    "train-csv": (_string, None, False),
    "test-csv": (_string, None, False),
    "shape": (_shape, None, True),
    "r": (_positive_int, 3, False),
    "optimizer": (_checked(lambda v: v, lambda v: v in ("lbfgs", "adam"),
                           "'lbfgs' or 'adam'"), "lbfgs", False),
    "epochs": (_nonnegative_int, 200, False),
    "lr": (_positive_float, 1e-3, False),
    "history": (_nonnegative_int, 10, False),
    "seeds": (_seeds, DEFAULT_SEEDS, False),
    **_GENERATOR_FIELDS,
    "angle-scale": (_angle_scale, 0.1, False),
    "out": (_string, None, False),
}


def run_training(cfg: dict):
    """Train one network per seed; returns (summary, best network)."""
    train_ds, test_ds = _make_dataset(cfg)
    shape = cfg["shape"]
    for name, dataset in (("train", train_ds), ("test", test_ds)):
        mismatch = _width_mismatch(dataset, shape[0], shape[-1])
        if mismatch:
            raise ConfigError(f"shape {shape} does not fit the {name} data: "
                              f"{mismatch}")
    with _out_dir(cfg["out"] or _default_out("train")) as out:
        chash = config_hash({k: v for k, v in cfg.items() if k != "out"})
        summary = {"config_hash": chash, "seeds": {}}
        best = None
        for seed in cfg["seeds"]:
            net = QkanNetwork.init(cfg["shape"], cfg["r"], _init_rng(seed),
                                   angle_scale=cfg["angle-scale"])
            result = train(net, train_ds, test_ds,
                           TrainConfig(optimizer=cfg["optimizer"],
                                       epochs=cfg["epochs"], lr=cfg["lr"],
                                       history=cfg["history"]))
            atomic_write_text(os.path.join(out, f"metrics_seed{seed}.csv"),
                              trace_to_csv(result.trace))
            net.set_param_vector(result.best_params)
            best_rmse = _json_number(result.best_test_rmse)
            provenance = {"seed": seed, "config_hash": chash,
                          "epoch": result.best_epoch,
                          "best_test_rmse": best_rmse}
            save_checkpoint(net, os.path.join(out,
                                              f"checkpoint_seed{seed}.json"),
                            provenance=provenance)
            summary["seeds"][str(seed)] = {
                "best_epoch": result.best_epoch,
                "best_test_rmse": best_rmse,
                "events": result.events}
            if best is None or result.best_test_rmse < best[1]:
                best = (seed, result.best_test_rmse, net.copy(), provenance)
        summary["best_seed"] = best[0]
        summary["best_test_rmse"] = _json_number(best[1])
        save_checkpoint(best[2], os.path.join(out, "best.json"),
                        provenance=best[3])
        write_json(os.path.join(out, "summary.json"), summary)
        return summary, best[2]


def _json_number(value: float):
    """value, or None (JSON null) when it is not finite: no epoch ran."""
    return value if np.isfinite(value) else None


def cmd_train(args) -> int:
    cfg = _merged(args, _TRAIN_FIELDS)
    summary, _ = run_training(cfg)
    best_rmse = summary["best_test_rmse"]
    print(f"best seed {summary['best_seed']}: "
          f"test RMSE {'n/a' if best_rmse is None else f'{best_rmse:.6g}'} "
          f"(outputs in {cfg['out'] or _default_out('train')})")
    return 0


def cmd_eval(args) -> int:
    net, _ = load_checkpoint(args.checkpoint)
    dataset = _read_data_for(net, args.data)
    predictions = net.forward(dataset.inputs)
    value = rmse(predictions, dataset.targets)
    if not np.isfinite(value):
        bad = int(np.count_nonzero(~np.isfinite(predictions)))
        raise NumericalError(
            f"eval predictions: {bad} of {predictions.size} are NaN or "
            f"infinite" if bad else
            "eval predictions: finite, but their RMSE overflows")
    print(write_json(args.out or None, {
        "checkpoint": args.checkpoint, "data": args.data,
        "n_samples": len(dataset), "rmse": value}))
    return 0


def _spectrum_params(args) -> DaruanParams:
    if args.checkpoint:
        net, _ = load_checkpoint(args.checkpoint)
        li = args.layer
        j, i = args.edge
        try:
            return net.layers[li].get_edge(j, i)
        except IndexError:
            raise ConfigError(f"no edge (layer {li}, out {j}, in {i}) "
                              f"in this checkpoint") from None
    p = init_daruan(args.r, _init_rng(args.seed),
                    geometric=(args.weights == "geometric"))
    if not isinstance(args.weights, str):
        if len(args.weights) != args.r:
            raise ConfigError(f"--weights lists {len(args.weights)} values, "
                              f"but r={args.r}")
        p.enc_w = np.array(args.weights)
    return p


def cmd_spectrum(args) -> int:
    p = _spectrum_params(args)
    ok, report = spectrummod.verify_spectrum(p, tol=args.tol)
    text = report.to_json()
    if args.out:
        atomic_write_text(args.out, text + "\n")
    print(text)
    print(f"spectrum residual {report.residual_l2:.3e} "
          f"{'<' if ok else '>='} tol {args.tol:g}: "
          f"{'OK' if ok else 'FAILED'}")
    return 0 if ok else 4


def cmd_extend(args) -> int:
    net, doc = load_checkpoint(args.checkpoint)
    if args.new_r <= max(layer.r for layer in net.layers):
        raise ConfigError(f"--new-r {args.new_r} must exceed the "
                          f"checkpoint's r={doc['r']}")
    reference = net.copy()
    net.extend(args.new_r)
    probe = np.random.default_rng(0).uniform(-2.0, 2.0, size=(256, net.in_dim))
    outputs = {"source": reference.forward(probe),
               "extended": net.forward(probe)}
    for name, y in outputs.items():
        bad = int(np.count_nonzero(~np.isfinite(y)))
        if bad:
            raise NumericalError(f"extend probe: {bad} of {y.size} {name} "
                                 f"outputs are NaN or infinite")
    diff = float(np.max(np.abs(outputs["extended"] - outputs["source"])))
    if not diff < 1e-12:
        raise NumericalError(f"extension changed outputs by {diff:.3e} "
                             f"on the probe grid")
    provenance = dict(doc.get("provenance", {}), extended_from=doc["r"],
                      probe_max_diff=diff)
    save_checkpoint(net, args.out, provenance=provenance)
    print(f"extended r {doc['r']} -> {args.new_r}; probe max diff {diff:.3e}; "
          f"wrote {args.out}")
    return 0


def cmd_distill(args) -> int:
    n_coef = args.grid_size + args.degree
    if n_coef > distillmod.SAMPLES:
        raise ConfigError(f"--grid-size {args.grid_size} with --degree "
                          f"{args.degree} needs {n_coef} coefficients per "
                          f"edge, more than the {distillmod.SAMPLES} "
                          f"samples it is fitted to")
    rank = distillmod.design_rank(args.grid_size, args.degree)
    if rank < n_coef:
        raise ConfigError(f"--grid-size {args.grid_size} with --degree "
                          f"{args.degree} gives a rank-deficient spline "
                          f"design matrix at the {distillmod.SAMPLES} "
                          f"samples (rank {rank} < {n_coef})")
    net, _ = load_checkpoint(args.checkpoint)
    dataset = _read_data_for(net, args.data)
    calibrated = distillmod._calibrated(net, dataset.inputs)
    domains = next(calibrated)
    spline_net, fit_report = distillmod.distill_network(
        net, domains, grid_size=args.grid_size, degree=args.degree)
    source = next(calibrated)
    distilled, clamped = spline_net.evaluate(dataset.inputs)
    report = {
        "grid_size": args.grid_size,
        "degree": args.degree,
        "source_vs_distilled_rmse": rmse(distilled, source),
        "clamp_count": clamped,
        "edges": {f"{li}.{j}.{i}": errs
                  for (li, j, i), errs in sorted(fit_report.items())},
    }
    # both serialized first, so that a non-finite number writes neither
    texts = {"spline.json": spline_net.to_json(),
             "distill_report.json": write_json(None, report)}
    with _out_dir(args.out or _default_out("distill")) as out:
        for name, text in texts.items():
            atomic_write_text(os.path.join(out, name), text + "\n")
    print(f"distilled network RMSE vs source: "
          f"{report['source_vs_distilled_rmse']:.6g}; wrote {out}/spline.json")
    return 0


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
MNIST_R = 3


def run_mnist_demo(data_dir: str, n_samples: int, epochs: int, lr: float,
                   seed: int):
    """Two-class (digits 0/1) HQKAN demo. Returns the accuracy report,
    or None when the IDX files are absent."""
    paths = {k: os.path.join(data_dir, v) for k, v in MNIST_FILES.items()}
    if not all(os.path.exists(p) for p in paths.values()):
        return None

    def subset(split, limit=None):
        """The digits 0 and 1 of one split: a dataset and its labels."""
        x, y = (datamod.read_idx(paths[f"{split}_{kind}"])
                for kind in ("images", "labels"))
        mask = (y == 0) | (y == 1)
        if not (x.ndim == 2 and y.shape == x.shape[:1] and mask.any()):
            raise DataError(f"{data_dir}: the {split} images {x.shape} and "
                            f"labels {y.shape} pair no image with a 0 or 1")
        x, y = x[mask][:limit], y[mask][:limit]
        return datamod.Dataset(x, np.eye(2)[y]), y

    train_ds, _ = subset("train", n_samples)
    test_ds, y_test = subset("test")
    net = make_hqkan(train_ds.inputs.shape[1], 2, r=MNIST_R,
                     rng=_init_rng(seed))
    result = train(net, train_ds, test_ds,
                   TrainConfig(optimizer="adam", epochs=epochs, lr=lr))
    net.set_param_vector(result.best_params)
    pred = np.argmax(net.forward(test_ds.inputs), axis=1)
    accuracy = float(np.mean(pred == y_test))
    return {"n_train": len(train_ds), "n_test": len(test_ds),
            "epochs": epochs, "accuracy": accuracy,
            "param_count": net.param_count()}


def cmd_mnist_demo(args) -> int:
    report = run_mnist_demo(args.data_dir, n_samples=args.n_samples,
                            epochs=args.epochs, lr=args.lr, seed=args.seed)
    if report is None:
        print(f"mnist-demo: IDX files not found under {args.data_dir}; "
              f"skipping")
        return 0
    print(write_json(None, report))
    return 0


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises ConfigError on a bad command line, so main reports it as
    every other config error (exit 2, one stderr line) instead of
    argparse printing usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process, on first
    use, so that main can run one command after another in process. It
    keeps no state between parses: each parse fills a new namespace, and
    no default is mutable. A subcommand names its cmd_* handler as a
    string, which main looks up when it runs the command, so a handler
    replaced on this module after the first parse is the one called."""
    parser = _Parser(
        prog="qkan",
        description="Data re-uploading activations and quantum-inspired "
                    "Kolmogorov-Arnold networks")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, fields, func in (
            ("gen-data", "generate a benchmark dataset", _GEN_DATA_FIELDS,
             "cmd_gen_data"),
            ("train", "train a network, one run per seed", _TRAIN_FIELDS,
             "cmd_train")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config",
                       help="JSON config file; flags win on conflict")
        for field in fields:
            p.add_argument(f"--{field}")
        p.set_defaults(func=func)

    p = sub.add_parser("eval", help="RMSE of a checkpoint on a CSV dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("spectrum", help="frequency-spectrum report")
    p.add_argument("--checkpoint")
    p.add_argument("--layer", type=_nonnegative_int, default=0)
    p.add_argument("--edge", type=_nonnegative_int, nargs=2, default=(0, 0),
                   metavar=("OUT", "IN"))
    p.add_argument("--r", type=_positive_int, default=4)
    p.add_argument("--weights", type=_weights, default="geometric",
                   help="'geometric', 'unit' or a comma list")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.add_argument("--out")
    p.set_defaults(func="cmd_spectrum")

    p = sub.add_parser("extend", help="deepen a checkpoint, outputs unchanged")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--new-r", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_extend")

    p = sub.add_parser("distill", help="distill a checkpoint to B-splines")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="CSV used for domain calibration and fidelity check")
    p.add_argument("--grid-size", type=_positive_int, default=20)
    p.add_argument("--degree", type=_positive_int, default=3)
    p.add_argument("--out")
    p.set_defaults(func="cmd_distill")

    p = sub.add_parser("mnist-demo", help="two-class HQKAN MNIST demo")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--n-samples", type=_positive_int, default=2000)
    p.add_argument("--epochs", type=_nonnegative_int, default=50)
    p.add_argument("--lr", type=_positive_float, default=1e-3)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func="cmd_mnist_demo")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # a non-finite result is reported once, by the check that finds it,
        # not also by numpy's RuntimeWarnings on the way
        with np.errstate(all="ignore"):
            return globals()[args.func](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except QkanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
