"""Traced server launcher: ``repro serve`` with the benchmark's tracer.

Installs the span wrappers, then calls the public
``repro.serve.run_server`` with an engine factory that wraps each
engine it builds.  When SIGTERM has drained the server, the spans are
written to ``--trace``.

    python perfbench/traced_server.py --engine proposed-sc \\
        --port-file PORT --max-batch 32 --max-wait-ms 5 --trace SPANS.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--engine", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--max-batch", type=int, required=True)
    parser.add_argument("--max-wait-ms", type=float, required=True)
    parser.add_argument("--trace", required=True)
    args = parser.parse_args()
    t_launch = float(os.environ["PERFBENCH_T_LAUNCH"])

    import repro.experiments.common  # noqa: F401
    import repro.parallel  # noqa: F401
    from repro.serve import ServerConfig, build_engine, run_server

    import tracing

    t_imported = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.meta = {"import_s": t_imported - t_launch}
    tracing.instrument_modules(tracer)
    tracing.instrument_serving(tracer)

    def traced_engine(config):
        engine, shape, meta = build_engine(config)
        tracing.instrument_engine(tracer, engine)
        return engine, shape, meta

    config = ServerConfig(port=0, engine=args.engine, port_file=args.port_file,
                          max_batch=args.max_batch, max_wait_ms=args.max_wait_ms)
    try:
        return run_server(config, engine_factory=traced_engine)
    finally:
        tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
