"""Network-level accelerator performance (Section 3.3 end to end).

Profiles whole trained CNNs on the modelled 256-MAC accelerator:
per-conv-layer cycles for the binary / conventional-SC / proposed
arrays, whole-network latency, energy per inference and the speedup /
energy-gain headlines — Fig. 7 lifted from per-MAC to per-network.

The module also hosts the *software* throughput workload used by the
benchmark snapshots: :func:`measure_throughput` times the batched
inference engine (images/second) on a trained checkpoint under a given
``parallelism`` setting, and :func:`throughput_curve` sweeps worker
counts to produce the scaling curve recorded in ``BENCH_PR3.json``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.conv_mapping import AcceleratorConfig, TilingConfig
from repro.experiments.common import (
    DIGITS_QUICK_SPEC,
    SHAPES_QUICK_SPEC,
    BenchmarkSpec,
    format_table,
    get_trained_model,
)
from repro.hw.performance import NetworkProfile, profile_network

__all__ = [
    "run",
    "main",
    "ThroughputResult",
    "prediction_mismatch",
    "format_mismatch",
    "measure_throughput",
    "throughput_curve",
]

_INPUT_SHAPES = {"digits": (1, 28, 28), "shapes": (3, 32, 32)}


def run(
    spec: BenchmarkSpec = DIGITS_QUICK_SPEC,
    n_bits: int = 8,
    bit_parallel: int = 8,
) -> NetworkProfile:
    """Profile one benchmark's trained net at the given precision."""
    model = get_trained_model(spec)
    config = AcceleratorConfig(
        n_bits=n_bits,
        bit_parallel=bit_parallel,
        tiling=TilingConfig(t_m=16, t_r=4, t_c=4),
    )
    w_scales = [r.w_scale for r in model.ranges]
    return profile_network(
        model.net, _INPUT_SHAPES[spec.dataset], config, w_scales=w_scales
    )


@dataclass(frozen=True)
class ThroughputResult:
    """One timed batched-inference run on the workload checkpoint."""

    dataset: str
    engine: str
    n_bits: int
    n_images: int
    workers: int
    batch_size: int
    seconds: float
    images_per_sec: float
    bit_exact: bool | None = None
    mismatch: dict | None = None
    generator: str = "lfsr"

    def to_dict(self) -> dict:
        return asdict(self)


def prediction_mismatch(
    pred: np.ndarray, expected: np.ndarray, max_examples: int = 8
) -> dict | None:
    """Diff summary between two prediction vectors (``None`` if equal).

    Returns ``{"count", "total", "first"}`` where ``first`` lists up to
    ``max_examples`` diverging positions as ``{"index", "got",
    "expected"}`` — the payload behind ``repro infer --check`` and the
    serve parity gate, so a parity failure prints *where* it diverged,
    not just that it did.
    """
    pred = np.asarray(pred)
    expected = np.asarray(expected)
    if pred.shape != expected.shape:
        return {
            "count": max(pred.shape[0] if pred.ndim else 0, 1),
            "total": int(expected.shape[0] if expected.ndim else 1),
            "first": [],
            "shape_mismatch": [list(pred.shape), list(expected.shape)],
        }
    if np.array_equal(pred, expected):
        return None
    idx = np.flatnonzero(pred != expected)
    return {
        "count": int(idx.size),
        "total": int(pred.shape[0]),
        "first": [
            {"index": int(i), "got": int(pred[i]), "expected": int(expected[i])}
            for i in idx[:max_examples]
        ],
    }


def format_mismatch(mismatch: dict) -> str:
    """One-line human rendering of a :func:`prediction_mismatch` dict."""
    if "shape_mismatch" in mismatch:
        got, exp = mismatch["shape_mismatch"]
        return f"shape mismatch: got {got}, expected {exp}"
    head = ", ".join(
        f"[{d['index']}] got {d['got']} expected {d['expected']}"
        for d in mismatch["first"]
    )
    suffix = ", ..." if mismatch["count"] > len(mismatch["first"]) else ""
    return f"{mismatch['count']}/{mismatch['total']} predictions differ: {head}{suffix}"


def _workload(spec: BenchmarkSpec, engine: str, n_bits: int, n_images: int):
    """Trained net with the requested conv arithmetic plus an eval batch."""
    from repro.nn import attach_engines

    model = get_trained_model(spec)
    attach_engines(model.net, engine, model.ranges, n_bits=n_bits)
    x = model.dataset.x_test
    reps = -(-n_images // x.shape[0])
    if reps > 1:
        x = np.concatenate([x] * reps)
    return model, x[:n_images]


def measure_throughput(
    spec: BenchmarkSpec = DIGITS_QUICK_SPEC,
    engine: str = "proposed-sc",
    n_bits: int = 8,
    n_images: int = 64,
    parallelism=None,
    repeats: int = 1,
    check: bool = False,
) -> ThroughputResult:
    """Images/second of batched inference under ``parallelism``.

    ``parallelism=None`` times ``Network.predict`` at its default
    chunking, inline on the calling thread.  ``check=True`` additionally
    verifies the timed run's predictions bit-exactly against an inline
    run at the same batch chunking (the parity claim the benchmark
    snapshot records; see :mod:`repro.parallel.engine` for why chunk
    sizes are part of the contract).
    """
    from repro.parallel import resolve_parallelism

    model, x = _workload(spec, engine, n_bits, n_images)
    if parallelism is None:
        workers, batch_size, generator = -1, 0, None
    else:
        config = resolve_parallelism(parallelism)
        workers, batch_size, generator = config.workers, config.batch_size, config.generator
    best = float("inf")
    pred = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        pred = model.net.predict(x, parallelism=parallelism)
        best = min(best, time.perf_counter() - t0)
    bit_exact = None
    mismatch = None
    if check:
        # The parity claim is "sharded == inline at the same arithmetic":
        # a generator override changes the arithmetic, so the inline
        # reference must run under the very same SNG family.
        serial = model.net.predict(
            x, batch=batch_size or x.shape[0] or 1, generator=generator
        )
        mismatch = prediction_mismatch(pred, serial)
        bit_exact = mismatch is None
    model.restore_float()
    return ThroughputResult(
        dataset=spec.dataset,
        engine=engine,
        n_bits=n_bits,
        n_images=n_images,
        workers=workers,
        batch_size=batch_size,
        seconds=best,
        images_per_sec=n_images / best if best > 0 else float("inf"),
        bit_exact=bit_exact,
        mismatch=mismatch,
        generator=generator or "lfsr",
    )


def throughput_curve(
    spec: BenchmarkSpec = DIGITS_QUICK_SPEC,
    engine: str = "proposed-sc",
    n_bits: int = 8,
    n_images: int = 64,
    worker_counts: tuple[int, ...] = (0, 1, 2, 4),
    batch_size: int = 16,
    repeats: int = 1,
) -> list[ThroughputResult]:
    """Scaling curve: the inline reference first, then each worker count.

    ``workers=-1`` in the output marks the reference run, one inline
    ``Network.predict`` at its default chunking, that every speedup in
    the snapshot is measured against.
    """
    from repro.parallel import ParallelConfig

    results = [
        measure_throughput(spec, engine, n_bits, n_images, None, repeats=repeats, check=True)
    ]
    for workers in worker_counts:
        config = ParallelConfig(workers=workers, batch_size=batch_size)
        results.append(
            measure_throughput(spec, engine, n_bits, n_images, config, repeats=repeats, check=True)
        )
    return results


def main() -> str:
    blocks = []
    for spec, n_bits in ((DIGITS_QUICK_SPEC, 5), (SHAPES_QUICK_SPEC, 9)):
        profile = run(spec, n_bits=n_bits)
        rows = [
            [
                l.index,
                "x".join(map(str, l.weight_shape)),
                f"{int(l.macs):,}",
                f"{int(l.cycles_binary):,}",
                f"{int(l.cycles_conv_sc):,}",
                f"{int(l.cycles_proposed):,}",
            ]
            for l in profile.layers
        ]
        table = format_table(
            ["layer", "weights", "MACs", "binary cyc", "conv-SC cyc", "proposed cyc"], rows
        )
        c = profile.cycles
        blocks.append(
            f"network performance — {spec.dataset} net at N={n_bits} "
            "(256 MACs, Ours-8)\n"
            + table
            + f"\ntotals: binary {int(c['binary']):,} cyc / "
            f"{profile.energy_binary_nj:.3g} nJ;  conv-SC {int(c['conv_sc']):,} cyc / "
            f"{profile.energy_conv_sc_nj:.3g} nJ;  proposed {int(c['proposed']):,} cyc / "
            f"{profile.energy_proposed_nj:.3g} nJ"
            + f"\nspeedup vs conv-SC: {profile.speedup_vs_conv_sc:.1f}x;  "
            f"energy gain vs conv-SC: {profile.energy_gain_vs_conv_sc:.1f}x;  "
            f"vs binary: {profile.energy_gain_vs_binary:.2f}x"
        )
    out = "\n\n".join(blocks)
    print(out)
    return out


if __name__ == "__main__":
    main()
