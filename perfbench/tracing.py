"""Outside-in span tracer for the SC-CNN program.

The benchmark records spans from its own files: it replaces the public
callables of each layer with timing wrappers and leaves the program's
sources alone.  Wrapping is done on the object the program actually
calls through:

* per instance for objects the benchmark can reach (the engine, its
  ``Network``, every layer, every conv engine, the schedule cache).
  ``calibrate_conv_ranges`` leaves each ``Conv2D.forward`` as a bound
  method stored on the instance, which shadows the class, so a
  class-level wrapper of ``Conv2D.forward`` would record nothing;
* as module attributes for functions a module calls through its own
  globals (``im2col`` in ``repro.nn.layers.conv``, ``quantize_signed``
  in ``repro.nn.engines``) or imports at call time;
* at class level only for serving objects built inside
  ``repro.serve.run_server`` (``EnginePool``, ``InferenceService``),
  which no instance attribute shadows.

Spans live in memory and are written once, when the process ends.  A
span's self time is its duration minus the durations of the spans it
directly caused on the same thread.  Coroutine spans interleave on the
event loop, so they are recorded as roots.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

#: Layer class name -> span name of its ``forward``.
LAYER_SPANS = {"Conv2D": "nn.conv", "MaxPool2D": "nn.maxpool", "Dense": "nn.dense"}


class Tracer:
    """In-memory span recorder.

    A record is ``[name, t0, t1, child_seconds, ok, extra]``; ``extra``
    is whatever the wrapper's ``extra(args, kwargs, result)`` returned.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self.meta: dict = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, extra=None):
        """Timing wrapper around ``fn`` recording spans named ``name``."""
        records = self.records
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                rec = [name, time.perf_counter(), 0.0, 0.0, 0, None]
                records.append(rec)
                try:
                    result = await fn(*args, **kwargs)
                    rec[4] = 1
                    if extra is not None:
                        rec[5] = extra(args, kwargs, result)
                    return result
                finally:
                    rec[2] = time.perf_counter()

            return traced_async

        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            rec = [name, time.perf_counter(), 0.0, 0.0, 0, None]
            records.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[4] = 1
                if extra is not None:
                    rec[5] = extra(args, kwargs, result)
                return result
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][3] += rec[2] - rec[1]

        # keep an lru_cache'd function's controls (``select_low_bias_seeds``
        # calls ``lfsr_ud_table.cache_clear()``)
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def patch(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` (instance, module or class) by a wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, extra))

    def dump(self, path) -> None:
        """Write every completed span and the meta document."""
        spans = [
            [name, t0, t1, t1 - t0 - child, ok, extra]
            for name, t0, t1, child, ok, extra in list(self.records)
            if t1
        ]
        with open(path, "w") as fh:
            json.dump({"meta": self.meta, "spans": spans}, fh)


# -- instrumentation of the program -------------------------------------


def _n_images(xs) -> int:
    return sum(int(x.shape[0]) for x in xs)


def instrument_modules(tracer: Tracer) -> None:
    """Module-attribute wrappers: layer helpers and set-up steps."""
    import repro.experiments.common as common
    import repro.nn.engines as engines
    import repro.nn.layers.conv as conv
    import repro.parallel as parallel
    import repro.sc.generators as generators
    import repro.sc.multipliers as multipliers

    tracer.patch(conv, "im2col", "nn.im2col")
    tracer.patch(engines, "quantize_signed", "engines.quantize")
    tracer.patch(engines, "lfsr_ud_table", "generators.ud_table_build")
    tracer.patch(multipliers, "lfsr_ud_table", "generators.ud_table_build")
    tracer.patch(generators, "generator_ud_table", "generators.ud_table_build")
    tracer.patch(common, "get_trained_model", "setup.model_load")
    tracer.patch(parallel, "ensure_compiled", "setup.compile")


def instrument_engine(tracer: Tracer, engine) -> None:
    """Per-instance wrappers on one ``BatchInferenceEngine`` and its net."""
    from repro.nn.engines import LfsrScEngine
    from repro.parallel import get_worker_cache

    cache = get_worker_cache()

    def group_extra(args, kwargs, result):
        return [_n_images(args[0]), cache.hits, cache.misses, cache.rebuilds]

    tracer.patch(engine, "logits", "engine.logits")
    tracer.patch(engine, "logits_grouped", "engine.logits_grouped", group_extra)
    net = engine.net
    tracer.patch(net, "forward", "nn.forward")
    for layer in net.layers:
        tracer.patch(layer, "forward", LAYER_SPANS.get(type(layer).__name__, "nn.other"))
    for conv in net.conv_layers:
        lfsr = isinstance(conv.engine, LfsrScEngine)
        tracer.patch(conv.engine, "matmul", "engines.lfsr_matmul" if lfsr else "engines.matmul")
    tracer.patch(cache, "sc_matmul", "cache.sc_matmul")


def instrument_serving(tracer: Tracer) -> None:
    """Class-level wrappers on the serving objects ``run_server`` builds."""
    from repro.serve.pool import EnginePool
    from repro.serve.service import InferenceService

    tracer.patch(
        EnginePool, "run_grouped", "pool.run_grouped",
        lambda args, kwargs, result: [_n_images(args[1]), [id(x) for x in args[1]]],
    )
    tracer.patch(
        InferenceService, "predict", "service.predict",
        lambda args, kwargs, result: [int(args[1].shape[0]), id(args[1])],
    )


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
