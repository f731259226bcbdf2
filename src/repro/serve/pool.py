"""The micro-batcher's runner: one coalesced group, one engine call.

:class:`EnginePool` holds the server's one
:class:`~repro.parallel.engine.BatchInferenceEngine` and hands each
group to its ``logits_grouped``, with the SNG family of every request.
The engine fans the group's shards out over the process's shard
threads; the circuit breaker lives one layer up, in
:class:`~repro.serve.service.InferenceService`.
"""

from __future__ import annotations

__all__ = ["EnginePool"]


class EnginePool:
    """The batcher's runner over one engine."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def run_grouped(self, xs, tags=None):
        """Serve one coalesced group: one ``logits_grouped`` call.

        ``xs`` are the request arrays themselves and ``tags`` the SNG
        family of each request, in order (``None``, whole or as an
        entry, keeps the engine's own family).
        """
        return self.engine.logits_grouped(xs, generator=tags)
