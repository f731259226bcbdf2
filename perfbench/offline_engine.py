"""The offline workload's engine process.

Boots like a user's batch job would (import, load the checkpoint,
attach the compiled schedules, build a ``BatchInferenceEngine`` with
``workers=0``), answers the first request of the pool, and reports
``{"ready": ...}`` on stdout.  It then waits for one command line on
stdin: end of input means exit (a set-up-only boot); otherwise a JSON
``{"warmup", "seconds", "out"}`` runs the closed loop, one
``logits_grouped`` call per request, and saves every call's times and
logits to ``out`` for the parent to check.  Every
``layout.PROBE_EVERY_S`` of the window it runs the host-speed probe
between two calls and saves its start and duration too.

Run by ``perfbench/run.py``; ``--trace PATH`` also installs the tracer
and writes its spans to ``PATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--engine", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    t_launch = float(os.environ["PERFBENCH_T_LAUNCH"])

    import numpy as np

    import layout
    import repro.experiments.common  # noqa: F401
    import repro.parallel  # noqa: F401
    import tracing

    t_imported = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument_modules(tracer)
    engine = layout.load_engine(args.engine)
    if tracer is not None:
        tracing.instrument_engine(tracer, engine)
    requests = np.load(args.requests)
    engine.logits_grouped([requests[0]])
    print(json.dumps({"ready": time.perf_counter()}), flush=True)

    line = sys.stdin.readline()
    if not line:
        return 0
    cmd = json.loads(line)
    probe = layout.speed_probe()
    pool = len(requests)
    k = 0
    t = time.perf_counter()
    warm_end = t + cmd["warmup"]
    while t < warm_end:
        engine.logits_grouped([requests[k % pool]])
        k += 1
        t = time.perf_counter()
    w0 = t
    w1 = w0 + cmd["seconds"]
    t0s, t1s, idxs, outs, probes = [], [], [], [], []
    next_probe = w0
    while t < w1:
        if t >= next_probe:
            # The window is extended by the probe, so the program still
            # runs for ``seconds``; run.py takes the probe time out of
            # the sub-windows it falls in.
            probe()
            p1 = time.perf_counter()
            probes.append((t, p1 - t))
            w1 += p1 - t
            t = p1
            next_probe = t + layout.PROBE_EVERY_S
        i = k % pool
        out = engine.logits_grouped([requests[i]])[0]
        t0s.append(t)
        t = time.perf_counter()
        t1s.append(t)
        idxs.append(i)
        outs.append(out)
        k += 1
    np.savez(
        cmd["out"], t0=np.array(t0s), t1=np.array(t1s), idx=np.array(idxs),
        logits=np.stack(outs), window=np.array([w0, w1]), probes=np.array(probes),
    )
    if tracer is not None:
        tracer.meta = {"import_s": t_imported - t_launch, "window": [w0, w1]}
        tracer.dump(args.trace)
    print(json.dumps({"done": True, "peak_rss_mb": layout.vm_hwm_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
