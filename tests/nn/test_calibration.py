"""Tests for range calibration and engine wiring."""

import numpy as np
import pytest

from repro.nn import (
    attach_engines,
    build_mnist_net,
    calibrate_conv_ranges,
    pow2_ceil,
)
from repro.nn.calibration import LayerRanges
from repro.nn.engines import LfsrScEngine, ProposedScEngine


class TestPow2Ceil:
    def test_values(self):
        assert pow2_ceil(0.3) == 1.0
        assert pow2_ceil(1.0) == 1.0
        assert pow2_ceil(1.1) == 2.0
        assert pow2_ceil(9.0) == 16.0


class TestLayerRanges:
    def test_scales(self):
        r = LayerRanges(max_abs_input=3.7, max_abs_weight=0.4)
        assert r.x_scale == 4.0
        assert r.w_scale == 1.0


class TestCalibration:
    def test_records_each_conv(self, rng):
        net = build_mnist_net(seed=0)
        x = rng.normal(size=(8, 1, 28, 28))
        ranges = calibrate_conv_ranges(net, x)
        assert len(ranges) == len(net.conv_layers)
        assert all(r.max_abs_input > 0 for r in ranges)

    def test_forward_hook_restored(self, rng):
        net = build_mnist_net(seed=0)
        x = rng.normal(size=(4, 1, 28, 28))
        before = [c.forward for c in net.conv_layers]
        calibrate_conv_ranges(net, x)
        assert [c.forward for c in net.conv_layers] == before

    def test_leaves_no_forward_on_the_instance(self, rng):
        """A bound method stored on a layer would pin what its copies run."""
        net = build_mnist_net(seed=0)
        calibrate_conv_ranges(net, rng.normal(size=(4, 1, 28, 28)))
        assert not any("forward" in vars(c) for c in net.conv_layers)

    def test_ranges_are_the_conv_inputs_percentile(self, rng):
        net = build_mnist_net(seed=0)
        x = rng.normal(size=(4, 1, 28, 28))
        ranges = calibrate_conv_ranges(net, x, percentile=97.0)
        inputs = net.conv_inputs(x)
        assert [r.max_abs_input for r in ranges] == [
            float(np.percentile(np.abs(i), 97.0)) for i in inputs
        ]
        assert ranges[0].max_abs_input == float(np.percentile(np.abs(x), 97.0))

    def test_percentile_below_max(self, rng):
        net = build_mnist_net(seed=0)
        x = rng.normal(size=(16, 1, 28, 28))
        tight = calibrate_conv_ranges(net, x, percentile=90.0)
        loose = calibrate_conv_ranges(net, x, percentile=100.0)
        assert all(t.max_abs_input <= l.max_abs_input for t, l in zip(tight, loose))


class TestAttachEngines:
    def test_attaches_per_layer(self, rng):
        net = build_mnist_net(seed=0)
        x = rng.normal(size=(4, 1, 28, 28))
        ranges = calibrate_conv_ranges(net, x)
        attach_engines(net, "proposed-sc", ranges, n_bits=7)
        assert all(isinstance(c.engine, ProposedScEngine) for c in net.conv_layers)
        assert all(c.engine.n_bits == 7 for c in net.conv_layers)

    def test_engines_are_distinct_objects(self, rng):
        net = build_mnist_net(seed=0)
        ranges = calibrate_conv_ranges(net, rng.normal(size=(4, 1, 28, 28)))
        attach_engines(net, "lfsr-sc", ranges, n_bits=6)
        convs = net.conv_layers
        assert convs[0].engine is not convs[1].engine
        assert isinstance(convs[0].engine, LfsrScEngine)

    def test_range_count_mismatch(self, rng):
        net = build_mnist_net(seed=0)
        with pytest.raises(ValueError):
            attach_engines(net, "fixed", [LayerRanges(1.0, 1.0)], n_bits=6)
