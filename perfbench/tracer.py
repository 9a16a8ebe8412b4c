"""Span tracer that wraps qkan's public functions from outside.

`Tracer.install()` replaces each traced function (and method) with a
wrapper that records a span: name, start and end in ns, the parent span
and optional attributes computed from the call (sizes, counts). Module
functions are replaced in every `qkan` module namespace that binds them,
so `from .x import f` call sites are traced too. `uninstall()` restores
the originals. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from contextlib import contextmanager


def _circuit_attrs(args, kwargs, result):
    enc_w, x = args[0], args[3]
    n, m, r = enc_w.shape
    count = x.shape[0] * n * m
    keep = kwargs.get("keep_states", args[4] if len(args) > 4 else False)
    # the adjoint tape holds one (B, N, M, 2) complex128 state per gate
    return {"gates": count * (4 * r + 3),
            "tape_bytes": count * (4 * r + 3) * 32 if keep else 0}


def _save_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _lbfgs_attrs(args, kwargs, result):
    return {"failures": sum("line-search failure" in str(e) for e in result[2])}


def _enumerate_attrs(args, kwargs, result):
    return {"frequencies": int(result.size)}


def _empirical_attrs(args, kwargs, result):
    count = kwargs.get("sample_count", args[1] if len(args) > 1 else None)
    n_freq = result.frequencies.size
    if count is None:
        count = 4 * (2 * n_freq + 1)
    return {"design_bytes": count * n_freq * 16}


def _distill_attrs(args, kwargs, result):
    return {"edges": len(result[1])}


# (module, attribute path, span name, attribute function)
TARGETS = [
    ("qkan.daruan", "circuit_forward", "daruan.circuit_forward", _circuit_attrs),
    ("qkan.daruan", "circuit_expectation", "daruan.circuit_expectation", None),
    ("qkan.daruan", "circuit_gradients", "daruan.circuit_gradients", None),
    ("qkan.network", "QkanLayer.forward", "network.QkanLayer.forward", None),
    ("qkan.network", "QkanLayer.backward", "network.QkanLayer.backward", None),
    ("qkan.network", "LinearLayer.forward", "network.LinearLayer.forward", None),
    ("qkan.network", "LinearLayer.backward", "network.LinearLayer.backward", None),
    ("qkan.network", "QkanNetwork.forward", "network.QkanNetwork.forward", None),
    ("qkan.network", "QkanNetwork.backward", "network.QkanNetwork.backward", None),
    ("qkan.network", "QkanNetwork.param_vector", "network.param_vector", None),
    ("qkan.network", "QkanNetwork.set_param_vector", "network.set_param_vector", None),
    ("qkan.network", "QkanNetwork.grad_vector", "network.grad_vector", None),
    ("qkan.train", "train", "train.train", None),
    ("qkan.train", "lbfgs_minimize", "train.lbfgs_minimize", _lbfgs_attrs),
    ("qkan.train", "_wolfe_search", "train.wolfe_search", None),
    ("qkan.train", "adam_step", "train.adam_step", None),
    ("qkan.checkpoint", "save_checkpoint", "checkpoint.save", _save_attrs),
    ("qkan.checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("qkan.data", "gen_regression", "data.gen_regression", None),
    ("qkan.data", "write_csv", "data.write_csv", None),
    ("qkan.data", "read_csv", "data.read_csv", None),
    ("qkan.distill", "calibrate_domains", "distill.calibrate_domains", None),
    ("qkan.distill", "distill_network", "distill.distill_network", _distill_attrs),
    ("qkan.distill", "SplineNetwork.forward", "distill.SplineNetwork.forward", None),
    ("qkan.distill", "SplineNetwork.clamp_count", "distill.SplineNetwork.clamp_count", None),
    ("qkan.spectrum", "enumerate_frequencies", "spectrum.enumerate_frequencies",
     _enumerate_attrs),
    ("qkan.spectrum", "empirical_spectrum", "spectrum.empirical_spectrum",
     _empirical_attrs),
    ("qkan.spectrum", "verify_spectrum", "spectrum.verify_spectrum", None),
    ("qkan.cli", "cmd_gen_data", "cli.gen_data", None),
    ("qkan.cli", "cmd_train", "cli.train", None),
    ("qkan.cli", "cmd_eval", "cli.eval", None),
    ("qkan.cli", "cmd_extend", "cli.extend", None),
    ("qkan.cli", "cmd_spectrum", "cli.spectrum", None),
    ("qkan.cli", "cmd_distill", "cli.distill", None),
]

#: the loss-plus-gradient closure the optimizers call; its returned
#: function is traced as "train.fg"
FG_FACTORY = ("qkan.train", "_loss_closure")


class Tracer:
    def __init__(self):
        self.spans = []      # [id, name, start_ns, end_ns, parent_id, attrs]
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else None, {}]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[3] = time.perf_counter_ns()

    def _wrap(self, fn, name, attrs_fn):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_fn is not None:
                rec[5].update(attrs_fn(args, kwargs, result))
            return result

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, fn, new):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "qkan" or mod_name.startswith("qkan."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._replace(mod, attr, new)

    def install(self):
        for mod_name, path, name, attrs_fn in TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                self._replace(cls, meth, self._wrap(vars(cls)[meth], name, attrs_fn))
            else:
                fn = getattr(mod, path)
                self._replace_everywhere(fn, self._wrap(fn, name, attrs_fn))
        mod = importlib.import_module(FG_FACTORY[0])
        factory = getattr(mod, FG_FACTORY[1])

        def traced_factory(*args, **kwargs):
            return self._wrap(factory(*args, **kwargs), "train.fg", None)

        self._replace_everywhere(factory, traced_factory)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns",
                                  "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


class SpanIndex:
    """Queries over a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)

    @staticmethod
    def duration(s):
        return s[3] - s[2]

    def ancestors(self, s):
        pid = s[4]
        while pid is not None:
            parent = self.spans[pid]
            yield parent
            pid = parent[4]

    def select(self, name, under=None):
        out = [s for s in self.spans if s[1] == name]
        if under is not None:
            out = [s for s in out
                   if any(a[1] == under for a in self.ancestors(s))]
        return out

    def total_ms(self, name, under=None):
        return sum(self.duration(s) for s in self.select(name, under)) / 1e6

    def self_ms(self, name, under=None):
        total = 0
        for s in self.select(name, under):
            kids = self.children.get(s[0], [])
            total += self.duration(s) - sum(self.duration(k) for k in kids)
        return total / 1e6

    def count(self, name, under=None):
        return len(self.select(name, under))

    def attr_sum(self, name, key, under=None):
        return sum(s[5].get(key, 0) for s in self.select(name, under))

    def attr_max(self, name, key, under=None):
        return max((s[5].get(key, 0) for s in self.select(name, under)),
                   default=0)

    def mean_ms(self, name, under=None):
        sel = self.select(name, under)
        return (sum(self.duration(s) for s in sel) / len(sel) / 1e6
                if sel else 0.0)
