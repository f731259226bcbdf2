"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``multiply``   one signed BISC multiply with its trace and latency
``experiment`` run a named experiment harness (or ``all``)
``infer``      timed batched SC inference (sharded batch engine)
``serve``      async HTTP inference service (micro-batching + /metrics)
``rtl``        emit the Verilog RTL project
``generators`` SNG generator-family registry probe
``info``       version, experiment list, benchmark specs
``cache``      inspect/verify/clear the checkpoint artifact store;
               ``cache compile``/``cache inspect`` manage the
               precompiled schedule artifacts the engines serve from
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]

_EXPERIMENT_NAMES = (
    "table1",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "table3",
    "ablation-stream",
    "ablation-parallelism",
    "ablation-accumulator",
    "ablation-energy-quality",
    "resilience",
    "network-performance",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    from repro.parallel import available_cpus

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Sim & Lee, 'A New Stochastic Computing "
        "Multiplier with Application to Deep CNNs' (DAC 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("multiply", help="one signed BISC multiply with trace")
    p_mul.add_argument("w", type=int, help="weight, two's-complement integer")
    p_mul.add_argument("x", type=int, help="data, two's-complement integer")
    p_mul.add_argument("--n-bits", type=int, default=8, help="precision incl. sign")

    p_exp = sub.add_parser("experiment", help="run a table/figure harness")
    p_exp.add_argument("name", choices=_EXPERIMENT_NAMES)
    p_exp.add_argument("--quick", action="store_true", help="CI-sized presets")

    p_inf = sub.add_parser("infer", help="timed batched SC inference on a benchmark")
    p_inf.add_argument("--benchmark", choices=("digits", "shapes"), default="digits")
    p_inf.add_argument("--engine", default="proposed-sc", help="conv arithmetic")
    p_inf.add_argument("--n-bits", type=int, default=8, help="precision incl. sign")
    p_inf.add_argument("--images", type=int, default=64, help="batch workload size")
    p_inf.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard threads (0 = shards run inline; omit for the serial reference path)",
    )
    p_inf.add_argument("--batch", type=int, default=16, help="images per shard")
    p_inf.add_argument(
        "--generator",
        default=None,
        help="SNG family for conventional-SC engines: lfsr (default), halton, "
        "ed, mip, parallel (see `repro generators`)",
    )
    p_inf.add_argument(
        "--check", action="store_true", help="verify bit-exactness against the serial path"
    )
    p_inf.add_argument("--repeats", type=int, default=1, help="timed repeats (min is kept)")

    p_srv = sub.add_parser("serve", help="async HTTP inference service over the batch engine")
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    p_srv.add_argument(
        "--workers",
        type=int,
        default=available_cpus(),
        help="shard threads per engine call (default: one per CPU this process "
        "may run on; 0 or 1 = shards run inline)",
    )
    p_srv.add_argument(
        "--generator",
        default=None,
        help="default SNG family for conventional-SC engines; requests may "
        "override per call with the JSON `generator` field",
    )
    p_srv.add_argument("--max-batch", type=int, default=32, help="images per coalesced batch")
    p_srv.add_argument(
        "--max-wait-ms", type=float, default=5.0, help="micro-batch coalescing window"
    )
    p_srv.add_argument(
        "--queue-depth", type=int, default=64, help="admission bound (excess gets HTTP 429)"
    )
    p_srv.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (HTTP 504 on expiry; omit for none)",
    )
    p_srv.add_argument("--benchmark", choices=("digits", "shapes"), default="digits")
    p_srv.add_argument("--engine", default="proposed-sc", help="conv arithmetic")
    p_srv.add_argument("--n-bits", type=int, default=8, help="precision incl. sign")
    p_srv.add_argument(
        "--batch", type=int, default=16, help="images per engine shard (parity chunk size)"
    )
    p_srv.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here once listening (for scripts and CI)",
    )
    p_srv.add_argument(
        "--breaker-threshold",
        type=int,
        default=5,
        help="consecutive failed requests before the circuit opens (0 = disable)",
    )
    p_srv.add_argument(
        "--breaker-cooldown-s",
        type=float,
        default=5.0,
        help="seconds the open circuit refuses traffic before a half-open probe",
    )

    p_rtl = sub.add_parser(
        "rtl", help="emit the Verilog RTL project / co-simulate it against the golden models"
    )
    p_rtl.add_argument("--out", default="rtl", help="output directory (emit)")
    p_rtl.add_argument("--n-bits", type=int, default=8)
    p_rtl.add_argument("--acc-bits", type=int, default=2)
    p_rtl.add_argument("--lanes", type=int, default=16)
    rtl_sub = p_rtl.add_subparsers(dest="rtl_command")
    p_rtl_emit = rtl_sub.add_parser(
        "emit", help="emit the RTL project (default when no subcommand)"
    )
    # same dests/defaults as the bare `rtl` form, so both spellings work
    p_rtl_emit.add_argument("--out", default="rtl", help="output directory")
    p_rtl_emit.add_argument("--n-bits", type=int, default=8)
    p_rtl_emit.add_argument("--acc-bits", type=int, default=2)
    p_rtl_emit.add_argument("--lanes", type=int, default=16)
    p_rtl_verify = rtl_sub.add_parser(
        "verify",
        help="pure-Python co-simulation: interpret the emitted Verilog and "
        "clock it in lockstep against the cycle-accurate golden models",
    )
    p_rtl_verify.add_argument(
        "--n-bits",
        dest="verify_n_bits",
        default="3,4,8",
        help="comma-separated precisions to verify (default: 3,4,8)",
    )
    p_rtl_verify.add_argument(
        "--cycles",
        dest="verify_cycles",
        type=int,
        default=4096,
        help="clocked cycles per design per precision",
    )
    p_rtl_verify.add_argument(
        "--seed", dest="verify_seed", type=int, default=2017, help="stimulus seed"
    )
    p_rtl_verify.add_argument(
        "--acc-bits", dest="verify_acc_bits", type=int, default=2, help="accumulator guard bits"
    )
    p_rtl_verify.add_argument(
        "--lanes", dest="verify_lanes", type=int, default=4, help="BISC-MVM lane count"
    )
    p_rtl_verify.add_argument(
        "--design",
        dest="verify_design",
        choices=("fsm_mux", "sc_mac", "bisc_mvm", "all"),
        default="all",
        help="verify one design only (default: all)",
    )

    sub.add_parser("generators", help="SNG generator-family registry probe")

    sub.add_parser("info", help="version and available experiments")

    p_cache = sub.add_parser("cache", help="inspect the checkpoint artifact store")
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser("ls", help="list store contents")
    cache_sub.add_parser(
        "verify", help="validate every checkpoint/result (zip, SHA-256, fingerprint)"
    )
    p_clear = cache_sub.add_parser("clear", help="delete store contents")
    p_clear.add_argument(
        "--quarantined",
        action="store_true",
        help="only delete quarantined (*.corrupt) files",
    )
    p_compile = cache_sub.add_parser(
        "compile", help="compile a benchmark's schedule artifact ahead of time"
    )
    p_compile.add_argument("--benchmark", choices=("digits", "shapes"), default="digits")
    p_compile.add_argument("--engine", default="proposed-sc", help="conv arithmetic")
    p_compile.add_argument("--n-bits", type=int, default=8, help="precision incl. sign")
    p_compile.add_argument(
        "--generator",
        default=None,
        help="default SNG family of the conv engines, as `repro serve --generator` "
        "boots with it: lfsr (default), halton, ed, mip, parallel",
    )
    p_compile.add_argument("--key", default=None, help="override the artifact store key")
    p_inspect = cache_sub.add_parser(
        "inspect", help="parse + validate stored schedule artifacts"
    )
    p_inspect.add_argument(
        "--key", default=None, help="inspect one artifact (default: all *.sched blobs)"
    )
    return parser


def _cmd_multiply(args: argparse.Namespace) -> int:
    from repro.core.signed import multiply_latency, signed_multiply_details

    t = signed_multiply_details(args.w, args.x, args.n_bits)
    print(f"w = {t.w_int}/2^{args.n_bits - 1}, x = {t.x_int}/2^{args.n_bits - 1}")
    print(f"offset word : {t.offset_word:0{args.n_bits}b}")
    stream = "".join(map(str, t.mux_bits))
    print(f"MUX out     : {stream if len(stream) <= 64 else stream[:64] + '...'}")
    print(f"counter     : {t.counter}  (reference {t.reference:+.4f}, error {t.error:+.4f})")
    print(f"latency     : {multiply_latency(args.w, args.n_bits)} cycles "
          f"(conventional SC: {1 << args.n_bits})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablation_accumulator,
        ablation_energy_quality,
        ablation_parallelism,
        ablation_stream,
        fig5_error,
        fig6_accuracy,
        fig7_mac_array,
        network_performance,
        resilience_study,
        table1_signed,
        table2_area,
        table3_accel,
    )
    from repro.experiments.runner import run_all

    dispatch = {
        "table1": lambda: table1_signed.main(),
        "fig5": lambda: fig5_error.main((5,) if args.quick else (5, 10)),
        "fig6": lambda: fig6_accuracy.main(quick=args.quick),
        "fig7": lambda: fig7_mac_array.main(),
        "table2": lambda: table2_area.main(),
        "table3": lambda: table3_accel.main(),
        "ablation-stream": lambda: ablation_stream.main(6 if args.quick else 8),
        "ablation-parallelism": lambda: ablation_parallelism.main(),
        "ablation-accumulator": lambda: ablation_accumulator.main(),
        "ablation-energy-quality": lambda: ablation_energy_quality.main(),
        "resilience": lambda: resilience_study.main(),
        "network-performance": lambda: network_performance.main(),
        "all": lambda: run_all(quick=args.quick),
    }
    dispatch[args.name]()
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.experiments.common import DIGITS_QUICK_SPEC, SHAPES_QUICK_SPEC
    from repro.experiments.network_performance import measure_throughput
    from repro.parallel import ParallelConfig

    spec = DIGITS_QUICK_SPEC if args.benchmark == "digits" else SHAPES_QUICK_SPEC
    if args.workers is None and args.generator is None:
        parallelism = None
        mode = "serial reference"
    else:
        # --generator alone runs the sharded path inline (workers=0)
        # so the override has a config to ride on
        workers = args.workers or 0
        parallelism = ParallelConfig(
            workers=workers, batch_size=args.batch, generator=args.generator
        )
        mode = f"workers={workers} batch={args.batch}"
        if args.generator:
            mode += f" generator={args.generator}"
    result = measure_throughput(
        spec,
        engine=args.engine,
        n_bits=args.n_bits,
        n_images=args.images,
        parallelism=parallelism,
        repeats=args.repeats,
        check=args.check,
    )
    print(
        f"{spec.dataset} / {args.engine} N={args.n_bits}: {result.n_images} images "
        f"in {result.seconds:.3f}s — {result.images_per_sec:.1f} img/s ({mode})"
    )
    if args.check:
        if result.bit_exact:
            print("bit-exact vs serial: OK")
            return 0
        from repro.experiments.network_performance import format_mismatch

        print("bit-exact vs serial: MISMATCH")
        if result.mismatch:
            print(f"  {format_mismatch(result.mismatch)}")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        benchmark=args.benchmark,
        engine=args.engine,
        n_bits=args.n_bits,
        shard_batch=args.batch,
        port_file=args.port_file,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
        generator=args.generator,
    )
    return run_server(config)


def _cmd_rtl(args: argparse.Namespace) -> int:
    if getattr(args, "rtl_command", None) == "verify":
        return _cmd_rtl_verify(args)
    from repro.core.verilog import write_rtl_project

    files = write_rtl_project(args.out, args.n_bits, args.acc_bits, args.lanes)
    for f in files:
        print(f"wrote {f}")
    return 0


def _cmd_rtl_verify(args: argparse.Namespace) -> int:
    from repro.hw.cosim import DESIGNS, verify_design

    try:
        n_bits_list = tuple(int(v) for v in str(args.verify_n_bits).split(",") if v.strip())
    except ValueError:
        print(f"invalid --n-bits list: {args.verify_n_bits!r}", file=sys.stderr)
        return 2
    designs = DESIGNS if args.verify_design == "all" else (args.verify_design,)
    failures = 0
    for n_bits in n_bits_list:
        for design in designs:
            diff = verify_design(
                design,
                n_bits,
                cycles=args.verify_cycles,
                seed=args.verify_seed,
                acc_bits=args.verify_acc_bits,
                lanes=args.verify_lanes,
            )
            print(diff.format())
            if not diff.ok:
                failures += 1
    total = len(n_bits_list) * len(designs)
    if failures:
        print(f"rtl verify: {failures}/{total} design runs DIVERGED")
        return 1
    print(f"rtl verify: all {total} design runs bit-exact")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        DIGITS_QUICK_SPEC,
        DIGITS_SPEC,
        SHAPES_QUICK_SPEC,
        SHAPES_SPEC,
        cache_dir,
        get_store,
    )

    store = get_store()
    print(f"artifact store: {cache_dir()}")
    if args.cache_command == "ls":
        entries = store.ls()
        if not entries:
            print("(empty)")
        for info in entries:
            print(f"{info.kind:12s} {info.size:10d}  {info.name}")
    elif args.cache_command == "verify":
        known = {
            s.name: s.fingerprint()
            for s in (DIGITS_SPEC, DIGITS_QUICK_SPEC, SHAPES_SPEC, SHAPES_QUICK_SPEC)
        }
        bad = 0
        entries = store.verify(fingerprints=known)
        if not entries:
            print("(nothing to verify)")
        for info in entries:
            detail = f"  ({info.reason})" if info.reason else ""
            print(f"{info.status:12s} {info.name}{detail}")
            if info.status in ("corrupt", "stale"):
                bad += 1
        return 1 if bad else 0
    elif args.cache_command == "clear":
        removed = store.clear(quarantined_only=args.quarantined)
        print(f"removed {removed} file(s)")
    elif args.cache_command == "compile":
        return _cache_compile(args, store)
    elif args.cache_command == "inspect":
        return _cache_inspect(args, store)
    return 0


def _cache_compile(args: argparse.Namespace, store) -> int:
    import time

    from repro.experiments.common import (
        DIGITS_QUICK_SPEC,
        SHAPES_QUICK_SPEC,
        get_trained_model,
    )
    from repro.nn import attach_engines
    from repro.parallel import ensure_compiled, schedule_artifact_key
    from repro.sc.generators import resolve_generator

    if args.generator is not None:
        try:
            resolve_generator(args.generator)
        except ValueError as exc:
            print(f"repro cache compile: {exc}", file=sys.stderr)
            return 2
    spec = DIGITS_QUICK_SPEC if args.benchmark == "digits" else SHAPES_QUICK_SPEC
    model = get_trained_model(spec)
    # the same engines and key as the serving boot (repro.serve.build_engine)
    attach_engines(
        model.net, args.engine, model.ranges, n_bits=args.n_bits, generator=args.generator
    )
    key = args.key or schedule_artifact_key(
        spec.name, args.engine, args.n_bits, args.generator
    )
    t0 = time.perf_counter()
    compiled = ensure_compiled(model.net, store, key)
    dt = time.perf_counter() - t0
    print(
        f"compiled {key}: {len(compiled)} entries, "
        f"{compiled.nbytes} bytes in {dt:.3f}s"
    )
    return 0


def _cache_inspect(args: argparse.Namespace, store) -> int:
    from repro.parallel import CompiledSchedules
    from repro.sc.mip import MIP_MAGIC, decode_table_blob

    if args.key is not None:
        keys = [args.key]
    else:
        suffix = ".sched"
        keys = [
            info.name[: -len(suffix)]
            for info in store.ls()
            if info.kind == "schedule"
        ]
    if not keys:
        print("(no schedule artifacts)")
        return 0
    bad = 0
    for key in keys:
        blob = store.load_blob(key)
        if blob is None:
            print(f"{key}: missing or quarantined")
            bad += 1
            continue
        try:
            if bytes(blob[: len(MIP_MAGIC)]) == MIP_MAGIC:  # MIP SNG tables share .sched
                tables = decode_table_blob(blob)
                if tables is None:
                    raise ValueError("not a valid MIP SNG table blob")
                n_bits = len(tables[0]).bit_length() - 1  # a table holds 2**N words
                print(f"{key}: MIP SNG tables, n_bits={n_bits}, {len(blob)} bytes")
                continue
            compiled = CompiledSchedules(blob)
            compiled.validate()
        except Exception as exc:
            print(f"{key}: INVALID ({type(exc).__name__}: {exc})")
            bad += 1
            continue
        d = compiled.describe()
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(d["kinds"].items()))
        print(
            f"{key}: format v{d['version']}, {d['entries']} entries "
            f"({kinds}), {d['nbytes']} bytes"
        )
    return 1 if bad else 0


def _cmd_generators(_: argparse.Namespace) -> int:
    from repro.sc.generators import list_generators

    rows = list_generators()
    width = max(len(r.spec) for r in rows)
    for r in rows:
        status = "available" if r.available else "unavailable"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{r.spec:{width}s}  {status:11s}{detail}")
    return 0


def _cmd_info(_: argparse.Namespace) -> int:
    import repro
    from repro.experiments.common import DIGITS_SPEC, SHAPES_SPEC

    print(f"repro {repro.__version__} — DAC'17 SC-multiplier reproduction")
    print("experiments:", ", ".join(n for n in _EXPERIMENT_NAMES if n != "all"))
    for spec in (DIGITS_SPEC, SHAPES_SPEC):
        print(f"benchmark {spec.name}: {spec.dataset}, {spec.n_train} train images")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "multiply": _cmd_multiply,
        "experiment": _cmd_experiment,
        "infer": _cmd_infer,
        "serve": _cmd_serve,
        "rtl": _cmd_rtl,
        "generators": _cmd_generators,
        "info": _cmd_info,
        "cache": _cmd_cache,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
