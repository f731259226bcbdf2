"""Shared infrastructure for the experiment harnesses.

Provides train-once-and-cache models/datasets so that Fig. 6, Fig. 7,
the tests and ``perfbench/`` all operate on the same checkpoints, plus
small ASCII table formatting used by every harness's ``main()``.

Model/dataset caches live under ``$REPRO_CACHE_DIR`` (default:
``<repo>/.repro_cache``) keyed by the experiment preset, so repeated
harness runs are fast and deterministic. Persistence goes through
:mod:`repro.experiments.artifacts`: checkpoints are written atomically
with integrity sidecars, and a corrupt or stale checkpoint is
quarantined and retrained instead of crashing the harness.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import Dataset, make_digits, make_shapes
from repro.experiments.artifacts import ArtifactStore, fingerprint
from repro.nn import (
    LayerRanges,
    Network,
    SgdConfig,
    Trainer,
    build_cifar_net,
    build_mnist_net,
    calibrate_conv_ranges,
)

__all__ = [
    "cache_dir",
    "get_store",
    "TrainedModel",
    "BenchmarkSpec",
    "DIGITS_SPEC",
    "DIGITS_QUICK_SPEC",
    "SHAPES_SPEC",
    "SHAPES_QUICK_SPEC",
    "get_trained_model",
    "format_table",
]

logger = logging.getLogger("repro.artifacts")


def cache_dir() -> Path:
    """Cache directory for trained checkpoints and datasets."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root is None:
        root = Path(__file__).resolve().parents[3] / ".repro_cache"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def get_store() -> ArtifactStore:
    """Artifact store over the current cache directory.

    Constructed per call so tests that repoint ``REPRO_CACHE_DIR``
    always get a store on the live location.
    """
    return ArtifactStore(cache_dir())


@dataclass(frozen=True)
class BenchmarkSpec:
    """One CNN benchmark configuration (dataset + net + training)."""

    name: str  #: cache key
    dataset: str  #: "digits" or "shapes"
    n_train: int
    n_test: int
    epochs: int
    lr: float
    batch_size: int
    lr_decay: float = 1.0
    seed: int = 0

    def make_dataset(self) -> Dataset:
        maker = {"digits": make_digits, "shapes": make_shapes}[self.dataset]
        return maker(n_train=self.n_train, n_test=self.n_test, seed=self.seed + 1)

    def make_net(self) -> Network:
        builder = {"digits": build_mnist_net, "shapes": build_cifar_net}[self.dataset]
        return builder(seed=self.seed)

    def fingerprint(self) -> str:
        """Content fingerprint used to version cached checkpoints."""
        return fingerprint(self)


#: Full presets, sized like the paper's protocol (scaled to CPU budget).
DIGITS_SPEC = BenchmarkSpec("digits-full", "digits", 6000, 1500, 10, 0.02, 64)
SHAPES_SPEC = BenchmarkSpec("shapes-full", "shapes", 6000, 1500, 12, 0.02, 64, lr_decay=0.9)

#: Quick presets for tests, examples and perfbench runs.
DIGITS_QUICK_SPEC = BenchmarkSpec("digits-quick", "digits", 1200, 300, 4, 0.02, 64)
SHAPES_QUICK_SPEC = BenchmarkSpec("shapes-quick", "shapes", 1500, 300, 10, 0.02, 64, lr_decay=0.9)


@dataclass
class TrainedModel:
    """A float-trained network with its dataset and calibrated ranges."""

    spec: BenchmarkSpec
    net: Network
    dataset: Dataset
    ranges: list[LayerRanges]
    float_accuracy: float
    float_state: list[np.ndarray]

    def restore_float(self) -> None:
        """Reset weights to the float checkpoint (before any fine-tune)."""
        self.net.load_state_dict([w.copy() for w in self.float_state])


def _checkpoint_path(spec: BenchmarkSpec) -> Path:
    return get_store().checkpoint_path(spec.name)


def _load_cached_state(
    store: ArtifactStore, spec: BenchmarkSpec, net: Network
) -> bool:
    """Try to restore ``net`` from the store; quarantine on any defect."""
    blob = store.load_checkpoint(
        spec.name,
        spec_fingerprint=spec.fingerprint(),
        expected_params=len(net.params),
    )
    if blob is None:
        return False
    try:
        net.load_state_dict([blob[f"p{i}"] for i in range(len(net.params))])
    except (KeyError, ValueError) as exc:
        store.quarantine(spec.name, reason=f"stale: state mismatch ({exc})")
        return False
    return True


def get_trained_model(spec: BenchmarkSpec, force_retrain: bool = False) -> TrainedModel:
    """Train (or load from cache) the float model of a benchmark spec.

    Loads go through the artifact store: a corrupt, truncated, or
    stale checkpoint is quarantined to ``*.corrupt`` with a warning and
    the model is retrained — a bad cache never crashes a harness.
    The train-and-save path holds a cross-process lock so concurrent
    runs cannot torn-write the same checkpoint.
    """
    ds = spec.make_dataset()
    net = spec.make_net()
    store = get_store()
    with store.lock(spec.name):
        loaded = not force_retrain and _load_cached_state(store, spec, net)
        if not loaded:
            logger.info("event=retrain key=%s epochs=%d", spec.name, spec.epochs)
            trainer = Trainer(
                net,
                SgdConfig(
                    lr=spec.lr,
                    batch_size=spec.batch_size,
                    lr_decay=spec.lr_decay,
                    seed=spec.seed,
                ),
            )
            trainer.train(ds.x_train, ds.y_train, epochs=spec.epochs)
            store.save_checkpoint(
                spec.name,
                {f"p{i}": p.value for i, p in enumerate(net.params)},
                spec_fingerprint=spec.fingerprint(),
            )
    ranges = calibrate_conv_ranges(net, ds.x_train[: min(400, len(ds.x_train))])
    acc = net.accuracy(ds.x_test, ds.y_test)
    return TrainedModel(
        spec=spec,
        net=net,
        dataset=ds,
        ranges=ranges,
        float_accuracy=acc,
        float_state=net.state_dict(),
    )


def format_table(headers: list[str], rows: list[list], fmt: str = "{}") -> str:
    """Plain-text table with right-aligned numeric columns."""
    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    cells = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
