"""Fixtures of the chaos fleet: nets, parity references, plan hygiene.

Every test in this package runs under ``@pytest.mark.chaos`` (applied
via ``pytestmark`` in each module) and therefore outside tier 1; the CI
``chaos`` job runs them with fixed seeds on every PR, the nightly job
with a randomized seed.

``faults_clear`` runs around every test, so no fault plan leaks into
the next one.

``chaos_seeds`` reads ``REPRO_CHAOS_SEEDS`` (comma-separated ints) so
CI can pin the per-PR seeds and the nightly job can inject a fresh one;
locally it defaults to three fixed seeds.  On failure, the active plan
is dumped as JSON so it can be replayed via ``REPRO_FAULTS``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.faults import hooks
from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import ParallelConfig, predict_logits

#: Default chaos seeds (per-PR CI runs these three); override with
#: REPRO_CHAOS_SEEDS="1,2,3" (the nightly job injects a random one).
DEFAULT_SEEDS = (101, 202, 303)


def chaos_seeds() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "").strip()
    if not raw:
        return DEFAULT_SEEDS
    return tuple(int(s) for s in raw.split(","))


def small_net(seed: int = 3):
    """Tiny trained-shape MNIST net with the proposed SC conv engine."""
    net = build_mnist_net(seed=seed, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, "proposed-sc", ranges, n_bits=8)
    return net


@pytest.fixture(scope="package")
def net():
    return small_net()


@pytest.fixture(scope="package")
def images():
    rng = np.random.default_rng(7)
    return rng.normal(0.0, 0.5, size=(6, 1, 28, 28))


@pytest.fixture(scope="package")
def serial_logits(net, images):
    """The undisturbed serial reference every recovery must equal."""
    return predict_logits(net, images, ParallelConfig(workers=0, batch_size=2))


@pytest.fixture(autouse=True)
def faults_clear():
    """No plan before the test, and none left after it."""
    hooks.clear()
    yield
    hooks.clear()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On failure, print the active fault plan as a replayable artifact."""
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        plan = hooks.active_plan()
        if plan is not None:
            report.sections.append(
                (
                    "fault plan (replay with REPRO_FAULTS env var)",
                    plan.to_json() + "\n\n" + plan.describe(),
                )
            )
