"""SC-CNN serving benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload serve-json-1img --seed 1 \\
        --seconds 10 --trace 0

Drives the real program from outside: the ``offline-proposed``
workload runs ``BatchInferenceEngine.logits_grouped`` in a fresh engine
process (``perfbench/offline_engine.py``); the ``serve-*`` workloads
boot ``python -m repro serve`` and load it from one closed-loop client
with two keep-alive connections.  Every answer is compared with
``BatchInferenceEngine.logits`` on the same input, computed in this
process before anything is timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then traced (``perfbench/tracing.py``),
and prints the per-layer metrics, the tracing overhead and the
reconciliation of the stage times against untraced latency.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any answer was wrong or failed,
or when a traced run missed a layer or failed its reconciliation.
See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layout  # noqa: E402

layout.check_checkout()
layout.pin_environment()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import httpload  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_img_s": "img/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cache.sc_matmul_ms": "ms/img",
    "engines.quantize_ms": "ms/img",
    "engines.matmul_self_ms": "ms/img",
    "engines.lfsr_matmul_ms": "ms/img",
    "nn.im2col_ms": "ms/img",
    "nn.conv_self_ms": "ms/img",
    "nn.maxpool_ms": "ms/img",
    "nn.dense_ms": "ms/img",
    "nn.other_ms": "ms/img",
    "engine.group_self_ms": "ms/img",
    "engine.shards_per_group": "count",
    "pool.dispatch_self_ms": "ms/img",
    "batcher.queue_wait_ms": "ms",
    "batcher.images_per_group": "count",
    "batcher.timeout_flush_share": "share",
    "batcher.runner_calls_per_group": "count",
    "service.predict_ms": "ms",
    "http.frontend_ms": "ms",
    "generators.ud_table_builds": "count",
    "setup.import_s": "s",
    "setup.model_load_s": "s",
    "setup.compile_s": "s",
    "setup.warm_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.rebuilds": "count",
    "pool.failovers": "count",
    "service.rejected": "count",
    "trace.untraced_throughput_img_s": "img/s",
    "trace.traced_throughput_img_s": "img/s",
    "trace.overhead_img_s": "img/s",
    "trace.untraced_latency_mean_ms": "ms",
    "trace.stage_sum_ms": "ms",
    "trace.reconcile_error": "share",
    "trace.traced_reconcile_error": "share",
    "trace.reconcile_ok": "bool",
}

#: Spans that must record calls in a traced run, per workload trait.
_PATH_SPANS = {
    "all": ["engine.logits_grouped", "nn.forward", "nn.conv", "nn.im2col",
            "nn.maxpool", "nn.dense", "nn.other", "engines.quantize"],
    "proposed-sc": ["engines.matmul", "cache.sc_matmul"],
    "lfsr-sc": ["engines.lfsr_matmul"],
    "serve": ["pool.run_grouped", "service.predict"],
}
#: Acceptable gap between the blocking-path stage sum and traced latency.
RECONCILE_TOLERANCE = 0.10


def log(msg: str) -> None:
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.flush()


# -- processes -------------------------------------------------------------


class Processes:
    """Every process a run starts; all are stopped and reaped on exit."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.live: list[subprocess.Popen] = []
        self.count = 0

    def launch(self, cmd, **kwargs) -> tuple[subprocess.Popen, float]:
        self.count += 1
        log_path = self.run_dir / f"proc{self.count}.log"
        log_file = open(log_path, "wb")
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                cmd, cwd=layout.ROOT, stderr=log_file,
                env=layout.child_env(PERFBENCH_T_LAUNCH=repr(t0)), **kwargs,
            )
        except OSError:
            log_file.close()
            raise
        proc.log_path, proc.log_file = log_path, log_file
        self.live.append(proc)
        return proc, t0

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0) -> None:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.log_file.close()
        if proc.stdin is not None:
            proc.stdin.close()
        if proc.stdout is not None:
            proc.stdout.close()
        self.live.remove(proc)

    def close(self) -> None:
        for proc in list(self.live):
            self.stop(proc, timeout=10.0)


def _fail(proc, what: str):
    tail = Path(proc.log_path).read_text(errors="replace")[-2000:]
    raise RuntimeError(f"{what} (exit code {proc.poll()}); log tail:\n{tail}")


# -- window statistics -----------------------------------------------------


def window_stats(samples, window, tail: float, pauses=()) -> dict:
    """End-to-end figures of ``(t_send, t_done, images)`` samples.

    ``pauses`` are ``(start, seconds)`` stretches between two requests
    in which the benchmark, not the program, ran (the offline speed
    probe); they are taken out of the durations.

    Samples count when they complete inside the window, which is cut
    into sub-windows of equal completion counts.  The reported figures
    come from the middle half of the sub-windows ranked by images per
    second.  On a shared host the program runs in a fast and a slow
    state (about 1.45x apart, each lasting seconds to minutes) and is
    also stalled for 0.1-0.3 s at a time; the fastest sub-windows then
    depend on whether a run saw the fast state at all, and the slowest
    on the stalls, while the middle band moves with the share of each
    state only.  Throughput is the images of the kept sub-windows over
    their summed duration; the latency percentiles are over the
    requests completed in them.  ``latency_mean_ms`` and
    ``mean_throughput_img_s`` use the whole window.
    """
    w0, w1 = window
    done = sorted(((t0, t1, n) for t0, t1, n in samples if w0 <= t1 <= w1),
                  key=lambda s: s[1])
    if len(done) < 2 * layout.SUB_WINDOWS + 1:
        raise RuntimeError(f"only {len(done)} requests completed inside the timed window")
    pauses = np.asarray(pauses, dtype=float).reshape(-1, 2)

    def busy(a: float, b: float) -> float:
        inside = (pauses[:, 0] >= a) & (pauses[:, 0] < b)
        return b - a - pauses[inside, 1].sum()

    step = (len(done) - 1) // layout.SUB_WINDOWS
    subs = []
    for a in range(0, step * layout.SUB_WINDOWS, step):
        chunk = done[a + 1:a + step + 1]
        images = sum(n for *_, n in chunk)
        seconds = busy(done[a][1], done[a + step][1])
        subs.append((images / seconds, images, seconds, chunk))
    kept = sorted(subs, key=lambda s: s[0], reverse=True)[slice(*layout.KEPT_RANKS)]
    lat = np.array([(t1 - t0) * 1000.0 for *_, chunk in kept for t0, t1, _ in chunk])
    beyond = len(lat) * (1.0 - tail / 100.0)
    if beyond < 10:
        log(f"only {beyond:.1f} samples beyond p{tail:g} ({len(lat)} samples)")
    return {
        "throughput_img_s": sum(s[1] for s in kept) / sum(s[2] for s in kept),
        "latency_p50_ms": float(np.median(lat)),
        "latency_tail_ms": float(np.percentile(lat, tail)),
        "latency_mean_ms": statistics.fmean((t1 - t0) * 1000.0 for t0, t1, _ in done),
        "mean_throughput_img_s": sum(n for *_, n in done) / busy(w0, w1),
        "samples": len(done),
    }


# -- offline workload ------------------------------------------------------


def offline_boot(procs: Processes, workload, requests_path: Path, trace_path=None):
    cmd = [sys.executable, str(layout.HERE / "offline_engine.py"),
           "--engine", workload["engine"], "--requests", str(requests_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    proc, t0 = procs.launch(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    if not line:
        _fail(proc, "offline engine process died during set-up")
    setup_s = time.perf_counter() - t0
    json.loads(line)
    return proc, setup_s


def offline_window(procs, proc, run_dir: Path, seconds: float):
    out = run_dir / "offline-window.npz"
    proc.stdin.write((json.dumps(
        {"warmup": layout.WARMUP_S, "seconds": seconds, "out": str(out)}) + "\n").encode())
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        _fail(proc, "offline engine process died in the timed window")
    rss = json.loads(line)["peak_rss_mb"]
    procs.stop(proc)
    with np.load(out) as data:
        res = {k: data[k] for k in data.files}
    return res, rss


def offline_check(res, references) -> int:
    return sum(
        not np.array_equal(out, references[i]) for i, out in zip(res["idx"], res["logits"])
    )


def offline_samples(res):
    n = res["logits"].shape[1]
    return [(a, b, n) for a, b in zip(res["t0"], res["t1"])], tuple(res["window"])


def host_speed(probes) -> float:
    """Host speed in the window against the reference host: the median
    probe time set against ``layout.PROBE_REF_S`` (above 1 is faster)."""
    return layout.PROBE_REF_S / float(np.median(np.asarray(probes)[:, 1]))


# -- served workloads ------------------------------------------------------


def serve_boot(procs: Processes, workload, payloads, kinds, trace_path=None):
    """Boot one server; returns ``(proc, port, setup_s, setup_records)``."""
    port_file = procs.run_dir / f"port{procs.count + 1}"
    max_batch, max_wait_ms = workload["batch"]
    args = ["--port-file", str(port_file), "--engine", workload["engine"],
            "--max-batch", str(max_batch), "--max-wait-ms", str(max_wait_ms)]
    if trace_path is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0", *args]
    else:
        cmd = [sys.executable, str(layout.HERE / "traced_server.py"), *args,
               "--trace", str(trace_path)]
    proc, t0 = procs.launch(cmd, stdout=subprocess.DEVNULL)
    deadline = t0 + 150.0
    while True:
        text = port_file.read_text() if port_file.exists() else ""
        if text.endswith("\n"):
            break
        if proc.poll() is not None or time.perf_counter() > deadline:
            _fail(proc, "server did not start")
        time.sleep(0.002)
    port = int(text)
    records = asyncio.run(httpload.answer_each(port, payloads, kinds))
    return proc, port, time.perf_counter() - t0, records


def serve_window(port: int, payloads, seconds: float, scrape: bool):
    scrapes = {}

    async def on_window(phase):
        if scrape:
            scrapes[phase] = parse_exposition(await httpload.get(port, "/metrics"))

    records, window, errors, probes = asyncio.run(httpload.closed_loop(
        port, payloads, layout.WARMUP_S, seconds, on_window))
    return records, window, errors, probes, scrapes


def parse_exposition(body: bytes) -> dict[str, float]:
    out = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def serve_samples(records, workload):
    return [(t0, t1, workload["images"]) for t0, t1, *_ in records]


# -- runs ------------------------------------------------------------------


class Window:
    """One measured window: its boots, samples and answer accounting."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.scrapes: dict = {}
        self.pauses = ()
        self.speed = 1.0

    def stats(self, workload) -> dict:
        """Window figures at the reference host's speed, except
        ``latency_mean_ms``, which the traced stage times (taken at the
        host's speed) are set against."""
        stats = window_stats(self.samples, self.window, workload["tail"], self.pauses)
        for key in ("throughput_img_s", "mean_throughput_img_s"):
            stats[key] /= self.speed
        for key in ("latency_p50_ms", "latency_tail_ms"):
            stats[key] *= self.speed
        return stats


def measure(workload, seconds, procs, inputs, boots=1, trace_path=None) -> Window:
    """Boot ``boots`` fresh processes, run the window on the last one and
    check every answer; with ``trace_path`` the processes are traced."""
    arrays, gens, refs, payloads, kinds, requests_path = inputs
    run = Window()
    for b in range(boots):
        if workload["mode"] == "offline":
            proc, setup_s = offline_boot(procs, workload, requests_path, trace_path)
        else:
            proc, port, setup_s, boot_records = serve_boot(
                procs, workload, payloads, kinds, trace_path)
            run.attempted += len(boot_records)
            run.failed += httpload.check_answers(boot_records, refs)
        run.setups.append(setup_s)
        if b < boots - 1:
            procs.stop(proc)
    if workload["mode"] == "offline":
        res, run.rss = offline_window(procs, proc, procs.run_dir, seconds)
        run.attempted += len(res["idx"])
        run.failed += offline_check(res, refs)
        run.samples, run.window = offline_samples(res)
        run.pauses = res["probes"]
        run.speed = host_speed(res["probes"])
    else:
        records, run.window, errors, run.pauses, run.scrapes = serve_window(
            port, payloads, seconds, scrape=trace_path is not None)
        run.speed = host_speed(run.pauses)
        run.rss = layout.vm_hwm_mb(proc.pid)
        procs.stop(proc)
        run.attempted += len(records) + len(errors)
        run.failed += httpload.check_answers(records, refs) + len(errors)
        run.samples = serve_samples(records, workload)
    return run


def run_untraced(workload, seconds, procs, inputs):
    run = measure(workload, seconds, procs, inputs, boots=layout.BOOTS)
    stats = run.stats(workload)
    log(f"setup boots {[round(s, 3) for s in run.setups]}; {stats['samples']} samples; "
        f"mean throughput {stats['mean_throughput_img_s']:.1f} img/s; "
        f"host speed {run.speed:.3f}")
    metrics = {
        "setup_s": statistics.median(run.setups),
        "throughput_img_s": stats["throughput_img_s"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "latency_tail_ms": stats["latency_tail_ms"],
        "peak_rss_mb": run.rss,
    }
    return metrics, END_TO_END, run.attempted, run.failed, []


def run_traced(workload, seconds, procs, inputs):
    """An untraced window, then a traced one; layer metrics of the traced one.

    ``trace.stage_sum_ms`` is the mean blocking-path stage time of a
    request in the traced window: offline the ``logits_grouped`` call;
    served ``http.frontend_ms`` + queue wait + the engine time of the
    request's group.  ``trace.reconcile_error`` sets it against the
    untraced mean latency, so it also holds the tracing overhead and any
    change of host speed between the two windows; it is reported only.
    ``trace.traced_reconcile_error`` sets it against the traced window's
    own mean latency and gates the run (``trace.reconcile_ok``).  Served,
    ``http.frontend_ms`` is the client latency minus
    ``InferenceService.predict``, so that gate checks only the split of
    ``predict`` into queue wait and group engine time.
    """
    trace_path = procs.run_dir / "spans.json"
    plain = measure(workload, seconds, procs, inputs)
    traced = measure(workload, seconds, procs, inputs, trace_path=trace_path)
    before, after = plain.stats(workload), traced.stats(workload)
    metrics, missing = layer_metrics(
        workload, tracing.load(trace_path), traced.window, traced.samples, traced.scrapes)
    problems = [f"traced run recorded no calls for {name}" for name in missing]
    stage_sum = metrics["trace.stage_sum_ms"]
    error = stage_sum / after["latency_mean_ms"] - 1.0
    metrics.update({
        "trace.untraced_throughput_img_s": before["throughput_img_s"],
        "trace.traced_throughput_img_s": after["throughput_img_s"],
        "trace.overhead_img_s": before["throughput_img_s"] - after["throughput_img_s"],
        "trace.untraced_latency_mean_ms": before["latency_mean_ms"],
        "trace.reconcile_error": stage_sum / before["latency_mean_ms"] - 1.0,
        "trace.traced_reconcile_error": error,
        "trace.reconcile_ok": float(abs(error) <= RECONCILE_TOLERANCE),
    })
    if not metrics["trace.reconcile_ok"]:
        problems.append(
            f"stage times sum to {stage_sum:.2f} ms against {after['latency_mean_ms']:.2f} ms "
            f"traced mean latency ({error:+.1%}, tolerance {RECONCILE_TOLERANCE:.0%})")
    return (metrics, PER_LAYER, plain.attempted + traced.attempted,
            plain.failed + traced.failed, problems)


def layer_metrics(workload, dump, window, samples, scrapes):
    """Per-layer metrics of one traced window; also the spans missing."""
    w0, w1 = window
    spans = dump["spans"]
    inside = [s for s in spans if w0 <= s[1] and s[2] <= w1]
    by_name: dict[str, list] = {}
    for s in inside:
        by_name.setdefault(s[0], []).append(s)

    groups = by_name.get("engine.logits_grouped", [])
    images = sum(s[5][0] for s in groups if s[5]) or 1

    def per_img(*names):
        return 1000.0 * sum(s[3] for n in names for s in by_name.get(n, [])) / images

    def count(name):
        return len(by_name.get(name, []))

    serve = workload["mode"] == "serve"
    expected = _PATH_SPANS["all"] + _PATH_SPANS[workload["engine"]]
    if serve:
        expected += _PATH_SPANS["serve"]
    missing = [n for n in expected if not count(n)]

    # cache counters: delta between the last group before and inside the window
    def cache_counts(before: bool):
        ok = [s for s in spans if s[0] == "engine.logits_grouped" and s[5]
              and ((s[2] < w0) if before else (s[2] <= w1))]
        return np.array(max(ok, key=lambda s: s[2])[5][1:]) if ok else np.zeros(3)

    hits, misses, rebuilds = cache_counts(False) - cache_counts(True)
    firsts = sorted((s for s in spans if s[0] in ("engine.logits", "engine.logits_grouped")),
                    key=lambda s: s[1])
    metrics = {
        "cache.sc_matmul_ms": per_img("cache.sc_matmul"),
        "engines.quantize_ms": per_img("engines.quantize"),
        "engines.matmul_self_ms": per_img("engines.matmul"),
        "engines.lfsr_matmul_ms": per_img("engines.lfsr_matmul"),
        "nn.im2col_ms": per_img("nn.im2col"),
        "nn.conv_self_ms": per_img("nn.conv"),
        "nn.maxpool_ms": per_img("nn.maxpool"),
        "nn.dense_ms": per_img("nn.dense"),
        "nn.other_ms": per_img("nn.other", "nn.forward"),
        "engine.group_self_ms": per_img("engine.logits_grouped"),
        "engine.shards_per_group": count("nn.forward") / max(count("engine.logits_grouped"), 1),
        "pool.dispatch_self_ms": per_img("pool.run_grouped"),
        "generators.ud_table_builds": count("generators.ud_table_build"),
        "setup.import_s": dump["meta"]["import_s"],
        "setup.model_load_s": sum(s[2] - s[1] for s in spans if s[0] == "setup.model_load"),
        "setup.compile_s": sum(s[2] - s[1] for s in spans if s[0] == "setup.compile"),
        "setup.warm_s": (firsts[0][2] - firsts[0][1]) if firsts else 0.0,
        "cache.hits": float(hits),
        "cache.misses": float(misses),
        "cache.rebuilds": float(rebuilds),
        "pool.failovers": sum(1 for s in by_name.get("engine.logits_grouped", []) if not s[4]),
    }
    for name in ("setup.model_load", "setup.compile"):
        if not any(s[0] == name for s in spans):
            missing.append(name)

    client = [(t1 - t0) * 1000.0 for t0, t1, _ in samples if w0 <= t1 <= w1]
    if serve:
        opened, closed = scrapes["open"], scrapes["close"]

        def delta(key):
            return closed.get(key, 0.0) - opened.get(key, 0.0)

        flushes = {r: delta(f'repro_batch_flush_total{{reason="{r}"}}')
                   for r in ("full", "timeout", "drain")}
        n_groups = delta("repro_batch_size_images_count")
        if not n_groups:
            missing.append("batcher")
        preds = [s for s in by_name.get("service.predict", [])]
        predict_ms = 1000.0 * statistics.fmean(s[2] - s[1] for s in preds) if preds else 0.0
        queue_ms = 1000.0 * delta("repro_queue_wait_seconds_sum") / max(
            delta("repro_queue_wait_seconds_count"), 1)
        frontend_ms = statistics.fmean(client) - predict_ms
        metrics.update({
            "batcher.queue_wait_ms": queue_ms,
            "batcher.images_per_group": delta("repro_batch_size_images_sum") / max(n_groups, 1),
            "batcher.timeout_flush_share": flushes["timeout"] / max(sum(flushes.values()), 1),
            "batcher.runner_calls_per_group": count("pool.run_grouped") / max(n_groups, 1),
            "service.predict_ms": predict_ms,
            "http.frontend_ms": frontend_ms,
            "service.rejected": sum(
                delta(k) for k in closed if k.startswith("repro_requests_rejected_total")),
            "trace.stage_sum_ms": frontend_ms + queue_ms + group_exec_ms(spans, window),
        })
    else:
        metrics.update({
            "batcher.queue_wait_ms": 0.0, "batcher.images_per_group": 0.0,
            "batcher.timeout_flush_share": 0.0, "batcher.runner_calls_per_group": 0.0,
            "service.predict_ms": 0.0, "http.frontend_ms": 0.0, "service.rejected": 0.0,
            "trace.stage_sum_ms": 1000.0 * statistics.fmean(s[2] - s[1] for s in groups),
        })
    return metrics, missing


def group_exec_ms(spans, window) -> float:
    """Mean, over requests answered in the window, of their group's engine time.

    A request waits for every runner call of its micro-batch group (one
    call per same-generator run).  Calls are matched to requests by the
    identity of the request array, and a call opens a new group when
    every request of the call before it was already answered: the
    batcher answers a group before it starts the next one.
    """
    w0, w1 = window
    preds = [s for s in spans if s[0] == "service.predict" and s[5]]
    calls = sorted((s for s in spans if s[0] == "pool.run_grouped" and s[5]),
                   key=lambda s: s[1])
    by_id: dict[int, list] = {}
    for p in preds:
        by_id.setdefault(p[5][1], []).append(p)
    members = []
    for c in calls:
        members.append([p for i in c[5][1] for p in by_id.get(i, ())
                        if p[1] <= c[1] and c[2] <= p[2]])
    waits = []
    group_calls: list[int] = []
    for k, c in enumerate(calls):
        if group_calls and all(p[2] < c[1] for p in members[group_calls[-1]]):
            waits += _group_waits(calls, members, group_calls, w0, w1)
            group_calls = []
        group_calls.append(k)
    waits += _group_waits(calls, members, group_calls, w0, w1)
    return 1000.0 * statistics.fmean(waits) if waits else 0.0


def _group_waits(calls, members, group_calls, w0, w1):
    total = sum(calls[k][2] - calls[k][1] for k in group_calls)
    return [total for k in group_calls for p in members[k] if w0 <= p[2] <= w1]


# -- entry point -----------------------------------------------------------


def prepare_inputs(workload, seed: int, run_dir: Path):
    arrays, gens = layout.make_requests(workload, seed)
    refs = layout.reference_logits(workload, arrays, gens)
    kinds = sorted({gens.index(g) for g in gens})
    payloads = None
    if workload["mode"] == "serve":
        payloads = httpload.build_payloads(workload["format"], arrays, gens)
    requests_path = run_dir / "requests.npy"
    np.save(requests_path, np.stack(arrays))
    return arrays, gens, refs, payloads, kinds, requests_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(layout.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = layout.WORKLOADS[args.workload]

    layout.prepare_store()
    run_dir = layout.WORK / f"run-{args.workload}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    procs = Processes(run_dir)
    try:
        inputs = prepare_inputs(workload, args.seed, run_dir)
        run = run_traced if args.trace else run_untraced
        metrics, units, attempted, failed, problems = run(workload, args.seconds, procs, inputs)
    finally:
        procs.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in problems:
        log(problem)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
