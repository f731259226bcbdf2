"""Tests for the network-level performance model."""

import pytest

from repro.core.conv_mapping import AcceleratorConfig, TilingConfig
from repro.hw.performance import profile_network
from repro.nn import build_cifar_net, build_mnist_net


@pytest.fixture(scope="module")
def mnist_profile():
    net = build_mnist_net(seed=0)
    cfg = AcceleratorConfig(n_bits=5, bit_parallel=1, tiling=TilingConfig(8, 4, 4))
    return profile_network(net, (1, 28, 28), cfg)


class TestProfile:
    def test_one_row_per_conv_layer(self, mnist_profile):
        assert len(mnist_profile.layers) == 2

    def test_geometry_is_correct(self, mnist_profile):
        # 28 -> conv5 -> 24; pooled 12 -> conv5 -> 8
        assert mnist_profile.layers[0].out_hw == (24, 24)
        assert mnist_profile.layers[1].out_hw == (8, 8)

    def test_macs_match_layer_shapes(self, mnist_profile):
        l0 = mnist_profile.layers[0]
        m, z, k, _ = l0.weight_shape
        assert l0.macs == m * z * k * k * 24 * 24

    def test_conventional_sc_is_2n_slower_than_binary(self, mnist_profile):
        for layer in mnist_profile.layers:
            assert layer.cycles_conv_sc == pytest.approx(layer.cycles_binary * 32)

    def test_proposed_is_faster_than_conventional(self, mnist_profile):
        c = mnist_profile.cycles
        assert c["proposed"] < c["conv_sc"]
        assert mnist_profile.speedup_vs_conv_sc > 3

    def test_energy_gains(self, mnist_profile):
        assert mnist_profile.energy_gain_vs_conv_sc > 5
        assert mnist_profile.energy_proposed_nj > 0

    def test_forward_hooks_restored(self):
        net = build_mnist_net(seed=0)
        before = [c.forward for c in net.conv_layers]
        profile_network(net, (1, 28, 28))
        assert [c.forward for c in net.conv_layers] == before
        assert not any("forward" in vars(c) for c in net.conv_layers)


class TestCifarNet:
    def test_three_layers_profiled(self):
        net = build_cifar_net(seed=0)
        profile = profile_network(net, (3, 32, 32), AcceleratorConfig(n_bits=9, bit_parallel=8))
        assert len(profile.layers) == 3
        assert profile.total_macs > 1e6

    def test_w_scale_count_checked(self):
        net = build_cifar_net(seed=0)
        with pytest.raises(ValueError):
            profile_network(net, (3, 32, 32), w_scales=[1.0])
