"""Each oracle accepts the program's output and rejects a perturbed one.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import qkan  # noqa: E402
from qkan import daruan, distill, spectrum  # noqa: E402
from qkan.network import QkanNetwork, make_hqkan  # noqa: E402


@pytest.fixture(params=["plain", "hqkan"])
def net_and_x(request):
    rng = np.random.default_rng(7)
    if request.param == "plain":
        net = QkanNetwork.init([3, 4, 2], 3, rng, angle_scale=1.0)
        x = rng.uniform(-1.0, 1.0, size=(5, 3))
    else:
        net = make_hqkan(10, 1, r=4, rng=rng, angle_scale=1.0)
        x = rng.normal(size=(5, 10))
    return net, x


def test_network_oracle(net_and_x):
    net, x = net_and_x
    out = net.forward(x)
    assert oracles.check_network(net, x, out) == []
    bad = out.copy()
    bad[2, 0] += 1e-8
    assert oracles.check_network(net, x, bad)


def test_edge_oracle():
    p = daruan.init_daruan(4, np.random.default_rng(3), angle_scale=2.0)
    p.enc_b = np.array([0.3, -1.1, 0.7, 2.0])
    xs = np.linspace(-2.0, 2.0, 9)
    z = np.array([daruan.raw_expectation(p, v) for v in xs])
    edge = (p.enc_w, p.enc_b, p.angles, xs)
    assert oracles.check_edges([edge], [z]) == []
    assert oracles.check_edges([edge], [z + np.eye(9)[4] * 1e-10])


def _loss_problem():
    train_ds, _ = qkan.gen_regression(qkan.get_spec("I.12.11"), 200, 10)
    net = QkanNetwork.init([2, 2, 1], 3, np.random.default_rng(5),
                           angle_scale=1.0)
    fg = sys.modules["qkan.train"]._loss_closure(net, train_ds)
    params = net.param_vector()
    probe = net.copy()

    def loss_at(q):
        probe.set_param_vector(q)
        return float(np.mean((probe.forward(train_ds.inputs)
                              - train_ds.targets) ** 2))

    return fg, params, loss_at


def test_gradient_oracle():
    fg, params, loss_at = _loss_problem()
    loss, grad = fg(params)
    rng = np.random.default_rng(11)
    direction = rng.normal(size=params.size)
    direction /= np.linalg.norm(direction)
    assert oracles.check_gradient(loss_at, params, loss, grad, direction) == []
    bad = grad.copy()
    bad[np.argmax(np.abs(direction))] *= 1.001
    assert oracles.check_gradient(loss_at, params, loss, bad, direction)
    assert oracles.check_gradient(loss_at, params, loss * (1 + 1e-9), grad,
                                  direction)


def test_spline_oracle(net_and_x):
    net, x = net_and_x
    domains = distill.calibrate_domains(net, x)
    spline_net, _ = distill.distill_network(net, domains, grid_size=8)
    wider = np.vstack([x, 1.5 * x])          # includes clamped evaluations
    out = spline_net.forward(wider)
    assert oracles.check_splines(spline_net, wider, out) == []
    bad = out.copy()
    bad[-1, 0] -= 1e-8
    assert oracles.check_splines(spline_net, wider, bad)


@pytest.mark.parametrize("r,geometric", [(3, False), (4, True)])
def test_spectrum_oracle(r, geometric):
    p = daruan.init_daruan(r, np.random.default_rng(r), angle_scale=2.0,
                           geometric=geometric)
    ok, rep = spectrum.verify_spectrum(p, tol=1e-8)
    assert ok
    good = (p.enc_w, rep.frequencies, rep.max_frequency, rep.residual_l2, 1e-8)
    assert oracles.check_spectrum(*good) == []
    assert oracles.check_spectrum(p.enc_w, rep.frequencies[1:],
                                  *good[2:])                  # one missing
    assert oracles.check_spectrum(p.enc_w, rep.frequencies,
                                  rep.max_frequency + 1, *good[3:])
    assert oracles.check_spectrum(*good[:3], 2e-8, 1e-8)      # residual


def test_closed_form_counts():
    assert oracles.expected_frequency_count(np.ones(10)) == 21
    assert oracles.expected_frequency_count(2.0 ** np.arange(6)) == 127
    assert oracles.expected_frequency_count([1.0, 3.0]) is None
