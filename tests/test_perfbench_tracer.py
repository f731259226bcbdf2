"""The benchmark tracer's contract with the program it instruments.

``perfbench/tracing.py`` wraps module attributes (``im2col`` in
``repro.nn.layers.conv``, ``quantize_signed`` and ``lfsr_ud_table`` in
``repro.nn.engines``, ...) and per-instance methods by name.  A rename
or a bypass in the program either raises at instrumentation or leaves a
traced layer with no spans, and the benchmark's traced runs only catch
that in a minutes-long job.  Here the unmodified tracer instruments a
tiny proposed-sc and a tiny lfsr-sc engine, one grouped call with a
generator runs on each, and every per-layer span the benchmark reads
must be recorded.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.experiments.common  # noqa: F401 - instrumented by the tracer
import repro.nn.engines as engines
import repro.nn.layers.conv as conv
import repro.parallel  # noqa: F401 - instrumented by the tracer
import repro.sc.generators  # noqa: F401 - instrumented by the tracer
import repro.sc.multipliers  # noqa: F401 - instrumented by the tracer
from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.nn.im2col import im2col
from repro.parallel import BatchInferenceEngine, ParallelConfig, reset_worker_cache
from repro.sc.encoding import quantize_signed

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: spans every traced call records, whatever the conv arithmetic
COMMON_SPANS = {"engine.logits_grouped", "nn.forward", "nn.conv", "nn.im2col", "engines.quantize"}
#: spans only one conv arithmetic records
KIND_SPANS = {
    "proposed-sc": {"engines.matmul", "cache.sc_matmul"},
    "lfsr-sc": {"engines.lfsr_matmul"},
}


@contextlib.contextmanager
def tracing_module():
    """``perfbench/tracing.py``; every ``repro`` module is restored on exit.

    The process cache is dropped on entry and on exit, so the tracer
    wraps a fresh cache and no wrapped cache outlives the block.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    saved = {
        name: dict(vars(mod))
        for name, mod in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    }
    reset_worker_cache()
    try:
        yield module
    finally:
        for name, attrs in saved.items():
            namespace = vars(sys.modules[name])
            for attr, value in attrs.items():
                if namespace.get(attr) is not value:
                    namespace[attr] = value
        reset_worker_cache()


@pytest.mark.parametrize("kind", sorted(KIND_SPANS))
def test_traced_grouped_call_records_every_layer(kind):
    with tracing_module() as tracing:
        tracer = tracing.Tracer()
        tracing.instrument_modules(tracer)
        assert engines.quantize_signed is not quantize_signed
        net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
        attach_engines(net, kind, [LayerRanges(1.0, 1.0)] * 2, n_bits=5)
        engine = BatchInferenceEngine(net, ParallelConfig(workers=0, batch_size=2))
        tracing.instrument_engine(tracer, engine)
        x = np.random.default_rng(0).normal(0.0, 0.5, size=(3, 1, 28, 28))
        out = engine.logits_grouped([x[:2], x[2:]], generator="halton")
    assert [o.shape for o in out] == [(2, 10), (1, 10)]
    recorded = {name for name, _, _, _, ok, _ in tracer.records if ok}
    missing = (COMMON_SPANS | KIND_SPANS[kind]) - recorded
    assert not missing, f"traced layers recorded no span: {sorted(missing)}"
    # the program is left as it was
    assert engines.quantize_signed is quantize_signed
    assert conv.im2col is im2col
