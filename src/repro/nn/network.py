"""Sequential network container with swappable conv arithmetic."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.softmax import SoftmaxCrossEntropy
from repro.parallel import ParallelConfig, predict_batched, resolve_parallelism

__all__ = ["Network"]


class Network:
    """A feed-forward stack of layers with a softmax-CE head.

    Besides the usual train/predict plumbing, the container exposes the
    operations the experiments need: snapshot/restore of weights (to
    fine-tune from a common float checkpoint) and re-pointing every
    convolution layer at a different multiply engine.
    """

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = layers
        self.loss_fn = SoftmaxCrossEntropy()

    # -- forward / backward ------------------------------------------------
    def forward(self, x: np.ndarray, generator: str | None = None) -> np.ndarray:
        """Logits of ``x``.

        ``generator`` names the SNG family (:mod:`repro.sc.generators`
        registry key) of this pass's conventional-SC conv layers;
        ``None`` keeps each engine's configured family.  It travels as
        an argument, so passes under different families may overlap.
        """
        for layer in self.layers:
            if isinstance(layer, Conv2D):
                x = layer.forward(x, generator=generator)
            else:
                x = layer.forward(x)
        return x

    def conv_inputs(self, x: np.ndarray) -> list[np.ndarray]:
        """The input of every conv layer, in order, on one pass of ``x``."""
        inputs = []
        for layer in self.layers:
            if isinstance(layer, Conv2D):
                inputs.append(x)
            x = layer.forward(x)
        return inputs

    def loss(self, x: np.ndarray, labels: np.ndarray) -> float:
        return self.loss_fn.forward(self.forward(x), labels)

    def backward(self) -> None:
        grad = self.loss_fn.backward()
        for layer in reversed(self.layers):
            grad = layer.backward(grad)

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # -- inference ----------------------------------------------------------
    def predict(
        self, x: np.ndarray, batch: int = 256, parallelism=None, generator=None
    ) -> np.ndarray:
        """Predicted class indices, evaluated in batches of ``batch``.

        ``parallelism`` sets the sharded batched engine's knobs: ``None``
        runs the ``batch``-image chunks inline, an ``int`` is a
        shard-thread count, and a :class:`repro.parallel.ParallelConfig`
        sets every knob.  At a fixed batch size, results are bit-exact
        across worker counts (see :mod:`repro.parallel.engine` for the
        contract).

        ``generator`` selects the SNG family (a
        :mod:`repro.sc.generators` registry key like ``"mip"``) the
        conventional-SC engines draw their bitstreams from for this
        call; ``None`` keeps each engine's configured family.  An
        unknown family is rejected before any image runs.
        """
        if parallelism is None:
            # the float dense head is summation-order-sensitive to the
            # chunk size, so the chunks are exactly ``batch`` images
            config = ParallelConfig(workers=0, batch_size=batch, generator=generator)
        else:
            config = resolve_parallelism(parallelism)
            if generator is not None:
                config = dataclasses.replace(config, generator=generator)
        return predict_batched(self, x, config)

    def accuracy(
        self, x: np.ndarray, labels: np.ndarray, batch: int = 256,
        parallelism=None, generator=None,
    ) -> float:
        """Top-1 accuracy on the given set."""
        pred = self.predict(x, batch=batch, parallelism=parallelism, generator=generator)
        return float((pred == np.asarray(labels)).mean())

    # -- parameters -----------------------------------------------------------
    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    @property
    def conv_layers(self) -> list[Conv2D]:
        return [layer for layer in self.layers if isinstance(layer, Conv2D)]

    def state_dict(self) -> list[np.ndarray]:
        """Deep copy of all parameter tensors."""
        return [p.value.copy() for p in self.params]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        """Restore parameters from :meth:`state_dict`."""
        if len(state) != len(self.params):
            raise ValueError("state size mismatch")
        for p, v in zip(self.params, state):
            if p.value.shape != v.shape:
                raise ValueError(f"shape mismatch for {p.name}: {p.value.shape} vs {v.shape}")
            p.value[...] = v

    # -- engine management ----------------------------------------------------
    def set_conv_engines(self, engines) -> None:
        """Assign one engine per conv layer (or one shared engine)."""
        convs = self.conv_layers
        if not isinstance(engines, (list, tuple)):
            engines = [copy.copy(engines) for _ in convs]
        if len(engines) != len(convs):
            raise ValueError(f"need {len(convs)} engines, got {len(engines)}")
        for conv, engine in zip(convs, engines):
            conv.engine = engine
