"""Benchmark snapshots pinned to JSON at the repo root.

The suites:

* ``--suite pr2`` (default) — stepped-vs-vectorized kernel timings
  (:mod:`repro.core.kernels`) written to ``BENCH_PR2.json``;
* ``--suite pr3`` — batch-throughput scaling of the sharded inference
  engine (:mod:`repro.parallel`) on the network-performance workload,
  written to ``BENCH_PR3.json``: images/second of inline
  ``Network.predict`` (the reference, ``workers=-1``) vs the batched
  engine at worker counts 0/1/2/4, each point verified bit-exact
  against an inline run at the same chunking.  The reference uses the
  process schedule cache like every other point, so the speedups show
  chunking and thread gains only; the committed ``BENCH_PR3.json``
  was measured against the uncached serial path and is kept as
  history;
* ``--suite pr4`` — serving-plane load curves (:mod:`repro.serve`)
  written to ``BENCH_PR4.json``: throughput and p50/p99 latency vs
  offered load through the HTTP micro-batching service at 1/2/4
  workers, plus a ragged-request parity phase checking served classes
  bit-exactly against serial ``Network.predict``;
* ``--suite pr10`` — SNG generator-family matrix
  (:mod:`repro.sc.generators`) written to ``BENCH_PR10.json``: the
  exhaustive Fig. 5 full-period multiply error and a Fig. 6-style
  digits accuracy sweep for every registered family through the
  generator-aware ``lfsr-sc`` engine, plus a served-latency leg where
  each family is requested per call (``generator=``) and checked
  bit-identical to local ``Network.predict`` under the same override.
  Gated: the MIP leg must beat the LFSR baseline on both the
  exhaustive error and accuracy (within tolerance); ``--check``
  re-measures and gates against the committed ``BENCH_PR10.json``
  without overwriting it.

Run from the repo root:

    PYTHONPATH=src python benchmarks/snapshot.py
        [--suite pr2|pr3|pr4|pr10] [--repeats N] [--out FILE] [--check]

The PR2 JSON also carries the tier-1 wall-clock numbers (measured with
``pytest --durations`` before/after the kernel rewrite) so the speedup
claim in the PR is pinned to data.  ``BENCH_PR6.json`` (process-pool
cold start) is kept as history; its suite left with the process pool.
``BENCH_PR8.json`` (replica-pool scaling) is kept as history too; its
suite left with the replica pool.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.bit_parallel import BitParallelMac
from repro.core.energy_quality import truncated_multiply
from repro.core.kernels import truncated_matmul_kernel
from repro.core.multiplier import BiscMultiplierUnsigned
from repro.core.mvm import BiscMvm
from repro.sc.multipliers import ConventionalScMac
from repro.sc.sng import LfsrSource

#: Tier-1 wall-clock before/after the vectorized kernels (seconds,
#: ``pytest -x -q`` on the development container; the dominant tests
#: were the CNN energy-quality harness at 165.2s and the truncated-
#: engine level curve at 58.9s).
TIER1_BASELINE_S = 287.0


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_unsigned_mac(repeats: int) -> dict:
    n_bits = 8
    rng = np.random.default_rng(0)
    ops = [
        (int(w), int(x))
        for w, x in zip(
            rng.integers(0, (1 << n_bits) + 1, size=400),
            rng.integers(0, 1 << n_bits, size=400),
        )
    ]

    def stepped():
        m = BiscMultiplierUnsigned(n_bits)
        for w, x in ops:
            m.mac_stepped(w, x)
        return m.counter

    def vectorized():
        m = BiscMultiplierUnsigned(n_bits)
        for w, x in ops:
            m.mac(w, x)
        return m.counter

    assert stepped() == vectorized()
    return {
        "workload": f"400 random unsigned SC-MACs, N={n_bits}",
        "stepped_s": _time(stepped, repeats),
        "vectorized_s": _time(vectorized, repeats),
    }


def bench_mvm_mac(repeats: int) -> dict:
    n_bits, p = 8, 64
    rng = np.random.default_rng(1)
    half = 1 << (n_bits - 1)
    ws = rng.integers(-half, half, size=24)
    xs = rng.integers(-half, half, size=(24, p))

    def stepped():
        mvm = BiscMvm(n_bits, p, acc_bits=2)
        for w, x in zip(ws, xs):
            mvm.mac_stepped(int(w), x)
        return mvm.read()

    def vectorized():
        mvm = BiscMvm(n_bits, p, acc_bits=2)
        for w, x in zip(ws, xs):
            mvm.mac(int(w), x)
        return mvm.read()

    assert np.array_equal(stepped(), vectorized())
    return {
        "workload": f"24 MACs x {p} lanes, N={n_bits}, acc_bits=2",
        "stepped_s": _time(stepped, repeats),
        "vectorized_s": _time(vectorized, repeats),
    }


def bench_bit_parallel(repeats: int) -> dict:
    n_bits, b = 8, 4
    rng = np.random.default_rng(2)
    half = 1 << (n_bits - 1)
    ops = [
        (int(w), int(x))
        for w, x in zip(
            rng.integers(-half, half, size=400), rng.integers(-half, half, size=400)
        )
    ]

    def stepped():
        m = BitParallelMac(n_bits, b)
        for w, x in ops:
            m.mac_stepped(w, x)
        return m.counter

    def vectorized():
        m = BitParallelMac(n_bits, b)
        for w, x in ops:
            m.mac(w, x)
        return m.counter

    assert stepped() == vectorized()
    return {
        "workload": f"400 random signed MACs, N={n_bits}, b={b}",
        "stepped_s": _time(stepped, repeats),
        "vectorized_s": _time(vectorized, repeats),
    }


def bench_conventional_mac(repeats: int) -> dict:
    n_bits = 8
    rng = np.random.default_rng(3)
    half = 1 << (n_bits - 1)
    ops = [
        (int(w), int(x))
        for w, x in zip(
            rng.integers(-half, half, size=40), rng.integers(-half, half, size=40)
        )
    ]

    def make():
        return ConventionalScMac(
            n_bits, LfsrSource(n_bits), LfsrSource(n_bits, alternate=True), acc_bits=2
        )

    def stepped():
        m = make()
        for w, x in ops:
            m.mac_stepped(w, x)
        return m.counter.value

    def vectorized():
        m = make()
        for w, x in ops:
            m.mac(w, x)
        return m.counter.value

    assert stepped() == vectorized()
    return {
        "workload": f"40 conventional SC MACs, 2**{n_bits} cycles each",
        "stepped_s": _time(stepped, repeats),
        "vectorized_s": _time(vectorized, repeats),
    }


def bench_truncated_matmul(repeats: int) -> dict:
    n_bits, budget = 8, 16
    rng = np.random.default_rng(4)
    half = 1 << (n_bits - 1)
    w = rng.integers(-half, half, size=(32, 288))
    x = rng.integers(-half, half, size=(288, 256))

    def broadcast():
        return truncated_multiply(w[:, :, None], x[None, :, :], n_bits, budget, True).sum(axis=1)

    def kernel():
        return truncated_matmul_kernel(w, x, n_bits, budget, True)

    assert np.allclose(broadcast(), kernel())
    return {
        "workload": "truncated matmul (32x288)@(288x256), N=8, budget=16",
        "stepped_s": _time(broadcast, repeats),
        "vectorized_s": _time(kernel, repeats),
    }


BENCHES = {
    "unsigned_mac": bench_unsigned_mac,
    "mvm_mac": bench_mvm_mac,
    "bit_parallel_mac": bench_bit_parallel,
    "conventional_sc_mac": bench_conventional_mac,
    "truncated_matmul": bench_truncated_matmul,
}


def bench_batch_throughput(
    repeats: int,
    n_images: int = 256,
    worker_counts: tuple[int, ...] = (0, 1, 2, 4),
    batch_size: int = 16,
) -> dict:
    """Throughput scaling curve of the sharded batched inference engine.

    The workload is the network-performance benchmark net (digits,
    proposed-sc conv arithmetic at N=8).  ``workers=-1`` is
    ``Network.predict`` at its default chunking, inline;
    ``workers=0`` the inline path at ``batch_size``; ``workers>=2``
    runs shards on that many threads.  Every timed run is verified
    bit-exact against an inline run at the same chunking.
    """
    from repro.experiments.network_performance import throughput_curve

    results = throughput_curve(
        n_images=n_images,
        worker_counts=worker_counts,
        batch_size=batch_size,
        repeats=repeats,
    )
    serial = next(r for r in results if r.workers < 0)
    curve = []
    for r in results:
        entry = r.to_dict()
        entry["seconds"] = round(r.seconds, 6)
        entry["images_per_sec"] = round(r.images_per_sec, 2)
        entry["speedup_vs_serial"] = round(r.images_per_sec / serial.images_per_sec, 2)
        curve.append(entry)
    by_workers = {r.workers: r for r in results}
    return {
        "workload": (
            f"digits-quick / proposed-sc N=8, {n_images} images, "
            f"batch_size={batch_size} (reference = workers:-1, inline Network.predict)"
        ),
        "curve": curve,
        "speedup_at_4_workers": (
            round(by_workers[4].images_per_sec / serial.images_per_sec, 2)
            if 4 in by_workers
            else None
        ),
        "all_bit_exact": all(r.bit_exact for r in results),
    }


def bench_serving(
    worker_counts: tuple[int, ...] = (1, 2, 4),
    offered_loads: tuple[float, ...] = (25.0, 50.0, 100.0),
    duration_s: float = 2.0,
    images_per_request: int = 2,
) -> dict:
    """Load curves + parity phase for the HTTP serving plane.

    Each worker count gets its own in-process :class:`ServingServer`
    (ephemeral port) hit by the open-loop generator from
    :mod:`loadgen` at every offered load.  The parity phase then replays
    the digits test set through ``POST /v1/predict`` in ragged request
    sizes — so the micro-batcher actually coalesces across request
    boundaries — and diffs the served classes against serial
    ``Network.predict`` at the engine's shard chunking.
    """
    import asyncio

    from loadgen import http_request, make_payload, run_load
    from repro.experiments.network_performance import prediction_mismatch
    from repro.serve import ServerConfig, ServingServer

    serve_knobs = {
        "max_batch": 32,
        "max_wait_ms": 25.0,
        "queue_depth": 256,
        "shard_batch": 16,
        # payload generator seed: every report row records it, so any
        # bench point can be replayed with identical request bytes
        "payload_seed": 0,
    }

    def config_for(workers: int) -> ServerConfig:
        return ServerConfig(
            port=0,
            workers=workers,
            max_batch=serve_knobs["max_batch"],
            max_wait_ms=serve_knobs["max_wait_ms"],
            queue_depth=serve_knobs["queue_depth"],
            shard_batch=serve_knobs["shard_batch"],
        )

    async def curve_for(workers: int) -> list[dict]:
        server = ServingServer(config_for(workers))
        await server.start()
        try:
            payload = make_payload(
                server.input_shape, images_per_request, seed=serve_knobs["payload_seed"]
            )
            points = []
            for rps in offered_loads:
                report = await run_load(
                    "127.0.0.1",
                    server.port,
                    rps,
                    duration_s,
                    images_per_request=images_per_request,
                    seed=serve_knobs["payload_seed"],
                    payload=payload,
                )
                entry = report.to_dict()
                entry["workers"] = workers
                points.append(entry)
                print(
                    f"workers={workers} offered={rps:>6.1f} rps: "
                    f"{entry['achieved_rps']:>7.2f} rps "
                    f"({entry['images_per_sec']:.1f} img/s)  "
                    f"p50 {entry['latency_p50_ms']:g}ms  "
                    f"p99 {entry['latency_p99_ms']:g}ms  "
                    f"statuses {entry['status_counts']}"
                )
            return points
        finally:
            await server.drain_and_stop()

    async def parity_phase(workers: int = 2, n_images: int = 48) -> dict:
        import numpy as np

        server = ServingServer(config_for(workers))
        await server.start()
        try:
            from repro.experiments.common import DIGITS_QUICK_SPEC, get_trained_model

            x = get_trained_model(DIGITS_QUICK_SPEC).dataset.x_test[:n_images]
            sizes = []
            for size in (1, 3, 7, 2, 16, 5, 8, 6, 4, 9):
                if sum(sizes) + size > x.shape[0]:
                    break
                sizes.append(size)
            offsets = [sum(sizes[:i]) for i in range(len(sizes))]

            async def send(off: int, size: int) -> list[int]:
                body = json.dumps(
                    {"images": x[off : off + size].tolist(), "return": "classes"}
                ).encode("ascii")
                status, payload = await http_request(
                    "127.0.0.1", server.port, "POST", "/v1/predict", body
                )
                if status != 200:
                    raise RuntimeError(f"parity request got HTTP {status}: {payload!r}")
                return json.loads(payload)["classes"]

            served = await asyncio.gather(
                *(send(off, size) for off, size in zip(offsets, sizes))
            )
            # Serial reference per request at the shard chunking — the
            # exact contract the grouped scheduler promises.
            net = server.engine.net
            expected = [
                net.predict(x[off : off + size], batch=serve_knobs["shard_batch"])
                for off, size in zip(offsets, sizes)
            ]
            mismatch = prediction_mismatch(
                np.concatenate([np.asarray(s) for s in served]),
                np.concatenate(expected),
            )
            return {
                "workers": workers,
                "n_images": int(sum(sizes)),
                "request_sizes": sizes,
                "bit_exact": mismatch is None,
                "mismatch": mismatch,
            }
        finally:
            await server.drain_and_stop()

    async def drive() -> dict:
        curves = []
        for workers in worker_counts:
            curves.extend(await curve_for(workers))
        parity = await parity_phase()
        print(
            f"parity: workers={parity['workers']} "
            f"{parity['n_images']} images in {len(parity['request_sizes'])} "
            f"ragged requests, bit_exact={parity['bit_exact']}"
        )
        return {"curves": curves, "parity": parity}

    result = asyncio.run(drive())
    return {
        "workload": (
            "digits-quick / proposed-sc N=8 served over HTTP "
            f"(micro-batching, {images_per_request} images/request, "
            "open-loop offered load)"
        ),
        "config": dict(serve_knobs, duration_s=duration_s),
        **result,
    }


PR10_GATE = {
    # Accuracy gates vs the lfsr leg measured in the *same* run, so a
    # slow host never flips them.  Without fine-tuning the conventional
    # LFSR pairing is near-chance at N=8 (the paper's Fig. 6 "far
    # below" story), so the headline is the delta: the MIP tables must
    # beat the seed LFSR baseline outright and stay usable in absolute
    # terms; halton must not fall below the baseline; ed / parallel are
    # recorded outcomes (their stories are area and throughput).
    "mip_accuracy_min_delta": -0.02,
    "halton_accuracy_min_delta": -0.05,
    "mip_min_accuracy": 0.75,
    # --check tolerance vs the committed per-family accuracy numbers
    "accuracy_tolerance": 0.05,
}

#: accuracy-leg engine precision: the widest width the repo serves
PR10_BITS = 8


def bench_generator_fig5(widths: tuple[int, ...] = (5, PR10_BITS)) -> dict:
    """Fig. 5 leg: exhaustive full-period multiply error per family."""
    from repro.analysis.error_stats import conventional_error_stats
    from repro.sc.generators import generator_keys

    out = {}
    for spec in generator_keys():
        out[spec] = {}
        for n in widths:
            stats = conventional_error_stats(spec, n, checkpoints=np.array([1 << n]))
            out[spec][str(n)] = {
                "bias": round(float(stats.mean[0]), 6),
                "std": round(float(stats.std[0]), 6),
                "max_abs": round(float(stats.max_abs[0]), 6),
            }
    return out


def bench_generator_accuracy(eval_images: int = 256, batch: int = 64) -> dict:
    """Fig. 6-style leg: digits accuracy of the lfsr-sc net per family.

    The same float-trained checkpoint and the same generator-aware
    ``lfsr-sc`` engine at N=8; only the ``generator=`` override varies,
    so the deltas isolate the SNG family exactly.
    """
    from repro.experiments.common import DIGITS_QUICK_SPEC, get_trained_model
    from repro.nn import attach_engines
    from repro.sc.generators import generator_keys

    model = get_trained_model(DIGITS_QUICK_SPEC)
    attach_engines(model.net, "lfsr-sc", model.ranges, n_bits=PR10_BITS)
    ds = model.dataset
    x, y = ds.x_test[:eval_images], ds.y_test[:eval_images]
    out = {"float_accuracy": round(float(model.float_accuracy), 4), "families": {}}
    try:
        for spec in generator_keys():
            t0 = time.perf_counter()
            acc = model.net.accuracy(x, y, batch=batch, generator=spec)
            out["families"][spec] = {
                "accuracy": round(float(acc), 4),
                "eval_seconds": round(time.perf_counter() - t0, 3),
            }
    finally:
        model.restore_float()
    out["n_images"] = int(x.shape[0])
    return out


def bench_generator_serving(images_per_request: int = 4, timed_requests: int = 5) -> dict:
    """Served leg: per-request ``generator=`` latency + local parity.

    One replica, in-process engine; every family's served classes must
    be bit-identical to local ``Network.predict`` under the same
    ``generator=`` override — the end-to-end claim of the registry.
    """
    import asyncio

    from loadgen import http_request
    from repro.experiments.common import DIGITS_QUICK_SPEC, get_trained_model
    from repro.nn import attach_engines
    from repro.parallel import BatchInferenceEngine, ParallelConfig
    from repro.sc.generators import generator_keys
    from repro.serve import ServerConfig, ServingServer

    model = get_trained_model(DIGITS_QUICK_SPEC)
    attach_engines(model.net, "lfsr-sc", model.ranges, n_bits=PR10_BITS)
    x = model.dataset.x_test[:images_per_request]

    def factory(config):
        engine = BatchInferenceEngine(
            model.net, ParallelConfig(workers=0, batch_size=images_per_request)
        )
        return engine, tuple(x.shape[1:]), {"benchmark": "pr10"}

    legs: dict[str, dict] = {}

    async def run():
        server = ServingServer(
            ServerConfig(port=0, shard_batch=images_per_request, max_wait_ms=1.0),
            engine_factory=factory,
        )
        await server.start()
        try:
            for spec in generator_keys():
                body = json.dumps(
                    {"images": x.tolist(), "generator": spec}
                ).encode()
                await http_request(  # warm: ud-table build, codec, route
                    "127.0.0.1", server.port, "POST", "/v1/predict", body
                )
                latencies = []
                classes = None
                for _ in range(timed_requests):
                    t0 = time.perf_counter()
                    status, payload = await http_request(
                        "127.0.0.1", server.port, "POST", "/v1/predict", body
                    )
                    latencies.append(time.perf_counter() - t0)
                    assert status == 200, payload
                    classes = json.loads(payload)["classes"]
                local = model.net.predict(
                    x, batch=images_per_request, generator=spec
                ).tolist()
                legs[spec] = {
                    "served_ms_p50": round(
                        1000.0 * sorted(latencies)[len(latencies) // 2], 3
                    ),
                    "bit_exact_vs_local": classes == local,
                }
        finally:
            await server.drain_and_stop()

    try:
        asyncio.run(run())
    finally:
        model.restore_float()
    return {
        "workload": (
            f"digits-quick / lfsr-sc N={PR10_BITS}, 1 replica, "
            f"{images_per_request} images/request"
        ),
        "legs": legs,
    }


def _run_pr10(args: argparse.Namespace) -> int:
    root = Path(__file__).resolve().parent.parent
    committed = root / "BENCH_PR10.json"
    fig5 = bench_generator_fig5()
    accuracy = bench_generator_accuracy()
    serving = bench_generator_serving()
    report = {
        "schema": "bench-pr10/v1",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "generator_matrix": {
            "fig5_full_period_error": fig5,
            "accuracy": accuracy,
            "serving": serving,
            "gate": PR10_GATE,
        },
    }
    gate = PR10_GATE
    failures: list[str] = []

    # Fig. 5 gate: the MIP tables are synthesized to beat the LFSR
    # pairing on the exhaustive multiply — deterministic, so exact.
    for n, lfsr_leg in fig5["lfsr"].items():
        mip_leg = fig5["mip"][n]
        if abs(mip_leg["bias"]) > abs(lfsr_leg["bias"]) or mip_leg["std"] > lfsr_leg["std"]:
            failures.append(
                f"mip full-period error at n={n} ({mip_leg}) is not "
                f"better than lfsr ({lfsr_leg})"
            )

    acc = {spec: leg["accuracy"] for spec, leg in accuracy["families"].items()}
    baseline = acc["lfsr"]
    for spec, delta_key in (("mip", "mip_accuracy_min_delta"),
                            ("halton", "halton_accuracy_min_delta")):
        if acc[spec] < baseline + gate[delta_key]:
            failures.append(
                f"{spec} accuracy {acc[spec]} below lfsr baseline {baseline} "
                f"{gate[delta_key]:+}"
            )
    if acc["mip"] < gate["mip_min_accuracy"]:
        failures.append(
            f"mip accuracy {acc['mip']} below the absolute "
            f"{gate['mip_min_accuracy']} floor"
        )
    for spec, leg in serving["legs"].items():
        if not leg["bit_exact_vs_local"]:
            failures.append(
                f"served generator={spec} diverged from local Network.predict"
            )

    if args.check:
        if not committed.exists():
            failures.append(f"--check requires a committed {committed.name}")
        else:
            pinned = json.loads(committed.read_text())["generator_matrix"]
            for spec, leg in pinned["accuracy"]["families"].items():
                floor = leg["accuracy"] - gate["accuracy_tolerance"]
                if acc.get(spec, 0.0) < floor:
                    failures.append(
                        f"{spec} accuracy {acc.get(spec)} regressed below "
                        f"{floor:.4f} (committed {leg['accuracy']} minus "
                        f"{gate['accuracy_tolerance']} tolerance)"
                    )
        out = args.out  # never overwrite the committed snapshot in --check
    else:
        out = args.out or committed
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    for spec in sorted(acc):
        f5 = fig5[spec][str(PR10_BITS)]
        served = serving["legs"][spec]
        print(
            f"{spec:9s} bias {f5['bias']:+9.6f}  std {f5['std']:8.6f}  "
            f"acc {acc[spec]:.4f}  served {served['served_ms_p50']:>7.2f}ms  "
            f"bit_exact={served['bit_exact_vs_local']}"
        )
    for msg in failures:
        print(f"ERROR: {msg}")
    return 1 if failures else 0


def _run_pr4(args: argparse.Namespace) -> int:
    out = args.out or Path(__file__).resolve().parent.parent / "BENCH_PR4.json"
    result = bench_serving()
    report = {
        "schema": "bench-pr4/v1",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "serving": result,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if not result["parity"]["bit_exact"]:
        print("ERROR: served predictions diverged from serial Network.predict")
        return 1
    return 0


def _run_pr3(args: argparse.Namespace) -> int:
    out = args.out or Path(__file__).resolve().parent.parent / "BENCH_PR3.json"
    result = bench_batch_throughput(args.repeats)
    for entry in result["curve"]:
        label = "serial" if entry["workers"] < 0 else f"workers={entry['workers']}"
        print(
            f"{label:12s} {entry['images_per_sec']:>8.1f} img/s "
            f"({entry['speedup_vs_serial']}x, bit_exact={entry['bit_exact']})"
        )
    report = {
        "schema": "bench-pr3/v1",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "batch_throughput": result,
    }
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    if not result["all_bit_exact"]:
        print("ERROR: a timed run diverged from the serial reference")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite", choices=("pr2", "pr3", "pr4", "pr10"), default="pr2"
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tier1-seconds", type=float, default=None,
                        help="measured tier-1 wall-clock to record (seconds)")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="pr10: gate a fresh measurement against the committed "
        "BENCH_PR10.json instead of overwriting it",
    )
    args = parser.parse_args(argv)

    if args.suite == "pr3":
        return _run_pr3(args)
    if args.suite == "pr4":
        return _run_pr4(args)
    if args.suite == "pr10":
        return _run_pr10(args)
    args.out = args.out or Path(__file__).resolve().parent.parent / "BENCH_PR2.json"

    kernels = {}
    for name, fn in BENCHES.items():
        entry = fn(args.repeats)
        entry["speedup"] = round(entry["stepped_s"] / max(entry["vectorized_s"], 1e-12), 2)
        entry["stepped_s"] = round(entry["stepped_s"], 6)
        entry["vectorized_s"] = round(entry["vectorized_s"], 6)
        kernels[name] = entry
        print(f"{name:22s} {entry['stepped_s']:>10.4f}s -> {entry['vectorized_s']:>10.4f}s "
              f"({entry['speedup']}x)  [{entry['workload']}]")

    report = {
        "schema": "bench-pr2/v1",
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__,
        },
        "kernels": kernels,
        "tier1_wall_clock": {
            "baseline_s": TIER1_BASELINE_S,
            "vectorized_s": args.tier1_seconds,
            "speedup": (
                round(TIER1_BASELINE_S / args.tier1_seconds, 2)
                if args.tier1_seconds
                else None
            ),
            "note": (
                "pytest -x -q wall-clock; baseline measured before the "
                "kernel rewrite on the same container"
            ),
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
