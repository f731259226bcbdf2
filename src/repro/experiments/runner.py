"""Run every experiment harness and collect the outputs.

``python -m repro.experiments.runner [--quick]`` regenerates every
table and figure of the paper (plus the ablations) and writes the
combined report to stdout and, optionally, a file — the source material
of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import io
import time
from contextlib import redirect_stdout

from repro.experiments import (
    ablation_accumulator,
    ablation_energy_quality,
    ablation_parallelism,
    ablation_stream,
    fig5_error,
    fig6_accuracy,
    fig7_mac_array,
    table1_signed,
    network_performance,
    resilience_study,
    table2_area,
    table3_accel,
)

__all__ = ["EXPERIMENTS", "run_all", "main"]

#: ``repro experiment`` name -> (report title, harness call taking ``quick``).
EXPERIMENTS = {
    "table1": ("Table 1 (signed multiply example)", lambda quick: table1_signed.main()),
    "fig5": (
        "Fig. 5 (multiplier error statistics)",
        lambda quick: fig5_error.main((5,) if quick else (5, 10)),
    ),
    "fig6": ("Fig. 6 (CNN recognition accuracy)", lambda quick: fig6_accuracy.main(quick=quick)),
    "fig7": ("Fig. 7 (MAC array comparison)", lambda quick: fig7_mac_array.main()),
    "table2": ("Table 2 (area breakdown)", lambda quick: table2_area.main()),
    "table3": ("Table 3 (accelerator comparison)", lambda quick: table3_accel.main()),
    "ablation-stream": (
        "Ablation A1 (stream generator)",
        lambda quick: ablation_stream.main(6 if quick else 8),
    ),
    "ablation-parallelism": (
        "Ablation A2 (bit-parallelism)",
        lambda quick: ablation_parallelism.main(),
    ),
    "ablation-accumulator": (
        "Ablation A3 (accumulator)",
        lambda quick: ablation_accumulator.main(),
    ),
    "ablation-energy-quality": (
        "Ablation A4 (energy-quality trade-off)",
        lambda quick: ablation_energy_quality.main(),
    ),
    "resilience": ("Resilience study (future work)", lambda quick: resilience_study.main()),
    "network-performance": (
        "Network-level performance",
        lambda quick: network_performance.main(),
    ),
}


def run_all(quick: bool = False, json_dir: str | None = None) -> dict[str, str]:
    """Run every harness, returning {title: report text}.

    With ``json_dir`` each experiment's report is also persisted as a
    versioned JSON artefact (see :mod:`repro.experiments.results_io`).
    """
    from repro.experiments.results_io import save_result

    out: dict[str, str] = {}
    for title, fn in EXPERIMENTS.values():
        t0 = time.time()
        buf = io.StringIO()
        with redirect_stdout(buf):
            fn(quick)
        text = buf.getvalue().rstrip()
        out[title] = text
        print(f"=== {title} ({time.time() - t0:.1f}s) ===")
        print(text)
        print()
        if json_dir:
            slug = title.split("(")[0].strip().lower().replace(" ", "-").replace(".", "")
            payload = {"title": title, "report": text, "seconds": time.time() - t0}
            save_result(slug, payload, json_dir)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small presets (for CI)")
    parser.add_argument("--output", type=str, default=None, help="also write report here")
    parser.add_argument("--json-dir", type=str, default=None, help="persist JSON artefacts here")
    args = parser.parse_args()
    results = run_all(quick=args.quick, json_dir=args.json_dir)
    if args.output:
        with open(args.output, "w") as fh:
            for title, text in results.items():
                fh.write(f"=== {title} ===\n{text}\n\n")


if __name__ == "__main__":
    main()
