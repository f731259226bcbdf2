"""Tests for the network container and SGD trainer."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    SgdConfig,
    Trainer,
)
from repro.nn.engines import FloatEngine, ProposedScEngine, make_engine


def tiny_net(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return Network(
        [
            Conv2D(1, 4, kernel=3, rng=rng),
            MaxPool2D(2),
            Flatten(),
            Dense(4 * 3 * 3, 16, rng=rng),
            ReLU(),
            Dense(16, 3, rng=rng),
        ]
    )


def toy_problem(rng, n=240):
    """Three linearly separable blob classes rendered as 8x8 images."""
    labels = rng.integers(0, 3, size=n)
    x = rng.normal(0, 0.3, size=(n, 1, 8, 8))
    for i, lab in enumerate(labels):
        x[i, 0, lab * 2 : lab * 2 + 2, 2:6] += 2.0
    return x, labels


class TestTraining:
    def test_loss_decreases(self, rng):
        net = tiny_net()
        x, y = toy_problem(rng)
        tr = Trainer(net, SgdConfig(lr=0.05, batch_size=32, seed=0))
        hist = tr.train(x, y, epochs=6)
        assert np.mean(hist[-5:]) < np.mean(hist[:5]) / 2

    def test_learns_toy_problem(self, rng):
        net = tiny_net()
        x, y = toy_problem(rng)
        Trainer(net, SgdConfig(lr=0.05, batch_size=32, seed=0)).train(x, y, epochs=8)
        assert net.accuracy(x, y) > 0.95

    def test_max_iters_cap(self, rng):
        net = tiny_net()
        x, y = toy_problem(rng, n=200)
        hist = Trainer(net).train(x, y, epochs=10, max_iters=7)
        assert len(hist) == 7

    def test_grad_clip_keeps_norm_bounded(self, rng):
        net = tiny_net()
        x, y = toy_problem(rng, n=64)
        tr = Trainer(net, SgdConfig(lr=0.05, grad_clip=0.01, seed=0))
        tr.step(x, y)
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in net.params))
        assert total <= 0.01 + 1e-9


class TestNetworkContainer:
    def test_state_dict_roundtrip(self, rng):
        net = tiny_net()
        state = net.state_dict()
        for p in net.params:
            p.value += 1.0
        net.load_state_dict(state)
        assert all(np.array_equal(p.value, s) for p, s in zip(net.params, state))

    def test_state_dict_is_a_copy(self):
        net = tiny_net()
        state = net.state_dict()
        state[0][...] = 99.0
        assert not np.array_equal(net.params[0].value, state[0])

    def test_load_shape_mismatch(self):
        net = tiny_net()
        state = net.state_dict()
        state[0] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_set_conv_engines_single(self):
        net = tiny_net()
        engine = ProposedScEngine(n_bits=6)
        net.set_conv_engines(engine)
        assert all(isinstance(c.engine, ProposedScEngine) for c in net.conv_layers)

    def test_set_conv_engines_list_length(self):
        net = tiny_net()
        with pytest.raises(ValueError):
            net.set_conv_engines([FloatEngine(), FloatEngine()])

    def test_predict_batched_consistent(self, rng):
        net = tiny_net()
        x, _ = toy_problem(rng, n=100)
        assert np.array_equal(net.predict(x, batch=7), net.predict(x, batch=100))

    def test_predict_runs_batch_sized_chunks(self, rng):
        net = tiny_net()
        x, _ = toy_problem(rng, n=10)
        expected = np.concatenate([net.forward(x[i : i + 4]) for i in range(0, 10, 4)])
        assert np.array_equal(net.predict(x, batch=4), expected.argmax(axis=1))

    def test_conv_inputs_are_what_each_conv_sees(self, rng):
        net = Network(
            [
                Conv2D(1, 2, kernel=3, pad=1, rng=rng),
                ReLU(),
                Conv2D(2, 3, kernel=3, rng=rng),
                Flatten(),
                Dense(3 * 6 * 6, 3, rng=rng),
            ]
        )
        x = rng.normal(size=(2, 1, 8, 8))
        inputs = net.conv_inputs(x)
        assert len(inputs) == 2
        assert inputs[0] is x
        assert np.array_equal(inputs[1], net.layers[1].forward(net.layers[0].forward(x)))
        assert not any("forward" in vars(layer) for layer in net.layers)

    def test_forward_passes_the_generator_to_every_conv(self, rng):
        net = tiny_net()
        net.set_conv_engines(make_engine("lfsr-sc", n_bits=5))
        x, _ = toy_problem(rng, n=3)
        under_mip = net.forward(x, generator="mip")
        for conv in net.conv_layers:
            conv.engine.generator = "mip"
        assert np.array_equal(under_mip, net.forward(x))
        assert not np.array_equal(under_mip, net.forward(x, generator="lfsr"))
