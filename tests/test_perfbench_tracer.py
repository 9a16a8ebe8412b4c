"""The benchmark's span tracer (perfbench/tracer.py) wraps qkan functions
and methods by name, so a rename in qkan breaks `perfbench/run.py
--trace 1`; this test catches that with the unit tests."""

import os

import numpy as np

from qkan import daruan
from qkan.network import QkanNetwork

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer

    original = daruan.circuit_gradients
    t = tracer.Tracer()
    try:
        t.install()
        assert daruan.circuit_gradients is not original
        rng = np.random.default_rng(0)
        net = QkanNetwork.init([2, 1], 1, rng)
        net.grad_vector(net.backward(rng.normal(size=(3, 2)),
                                     np.ones((3, 1))))
        layer = net.layers[0]
        daruan.circuit_gradients(layer.enc_w, layer.enc_b, layer.angles,
                                 rng.normal(size=(3, 2)))
    finally:
        t.uninstall()
    assert daruan.circuit_gradients is original
    names = {span[1] for span in t.spans}
    assert {"network.grad_vector", "network.QkanLayer.backward",
            "daruan.circuit_gradients"} <= names
