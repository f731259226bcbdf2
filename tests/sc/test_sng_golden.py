"""Golden-vector pins for the MIP and parallel SNG families.

The two families added with the generator registry are search products
(a deterministic local-search surrogate for the MIP synthesis; a fixed
segmented van-der-Corput lane layout), so their exact streams are load
bearing: a silent change to the search schedule or lane layout would
shift every compiled ``.sched`` artifact and every Fig. 5/6 number
built on top.  These tests pin short streams, stream-correlation (SCC)
fixtures and the exhaustive full-period multiply error against
checked-in golden files.

Regenerating (only after an *intentional* family change, reviewed like
any other golden diff)::

    PYTHONPATH=src python -m pytest tests/sc/test_sng_golden.py \
        --update-goldens
    git diff tests/golden/sng_*.txt

A regeneration run reports the rewritten files as skips so it is never
mistaken for a green verification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.error_stats import conventional_error_stats
from repro.sc.bitstream import sc_correlation
from repro.sc.generators import resolve_generator

N_BITS = 4
PERIOD = 1 << N_BITS

#: (w magnitude, x magnitude) pairs for the SCC fixtures — extremes,
#: mid-scale and the asymmetric cases that expose lane/rotation bugs.
SCC_PAIRS = ((4, 4), (8, 8), (12, 4), (3, 13), (8, 5))


def _render(spec: str) -> str:
    family = resolve_generator(spec)
    lines = [
        f"generator {spec} at n={N_BITS} (period {PERIOD})",
        f"fingerprint: {family.fingerprint(N_BITS)}",
        "",
    ]
    for operand in ("w", "x"):
        src = family.source(N_BITS, operand)
        seq = np.asarray(src.sequence(PERIOD))
        lines.append(f"source[{operand}] one period: " + " ".join(map(str, seq)))
    lines.append("")
    for operand in ("w", "x"):
        for m in (3, 8, 13):
            bits = family.stream_matrix(
                N_BITS, operand, length=PERIOD, magnitudes=np.array([m])
            )[0]
            lines.append(f"stream[{operand}] m={m:2d}: " + "".join(map(str, bits)))
    lines.append("")
    for mw, mx in SCC_PAIRS:
        bw = family.stream_matrix(N_BITS, "w", length=PERIOD, magnitudes=np.array([mw]))[0]
        bx = family.stream_matrix(N_BITS, "x", length=PERIOD, magnitudes=np.array([mx]))[0]
        lines.append(f"scc(w={mw:2d}, x={mx:2d}) = {sc_correlation(bw, bx):+.6f}")
    lines.append("")
    stats = conventional_error_stats(spec, N_BITS, checkpoints=np.array([PERIOD]))
    lines.append(
        "full-period multiply error: "
        f"bias {stats.mean[0]:+.6f}  std {stats.std[0]:.6f}  max {stats.max_abs[0]:.6f}"
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", ("mip", "parallel"))
def test_family_golden_vectors(spec, golden):
    golden.check(f"sng_{spec}_n{N_BITS}.txt", _render(spec))


def test_mip_tables_match_store_round_trip(tmp_path):
    """A persisted blob decodes to the synthesized tables, byte for byte."""
    from repro.experiments.artifacts import ArtifactStore
    from repro.sc import mip
    from repro.sc.mip import mip_table_blob_key, mip_tables, synthesize_mip_tables

    store = ArtifactStore(tmp_path)
    mip._MEMO.pop(N_BITS, None)
    try:
        first = mip_tables(N_BITS, store=store)
    finally:
        mip._MEMO.pop(N_BITS, None)
    assert store.load_blob(mip_table_blob_key(N_BITS)) is not None
    synthesized = synthesize_mip_tables(N_BITS)
    for got, ref in zip(first, synthesized):
        assert np.array_equal(got, ref)


def test_a_store_passed_for_a_memoized_width_gets_its_blob(tmp_path, monkeypatch):
    """Width 5 is loaded through the default store first, so it is in
    memory; a fresh store passed afterwards must still get the blob."""
    from repro.experiments.artifacts import ArtifactStore
    from repro.sc.mip import decode_table_blob, mip_table_blob_key, mip_tables

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
    loaded = mip_tables(5)
    fresh = ArtifactStore(tmp_path / "fresh")
    again = mip_tables(5, fresh)
    blob = fresh.load_blob(mip_table_blob_key(5))
    assert blob is not None
    for stored, served, ref in zip(decode_table_blob(blob, 5), again, loaded):
        assert np.array_equal(stored, ref)
        assert np.array_equal(served, ref)


def test_corrupt_mip_blob_is_rewritten(tmp_path):
    """A truncated/garbage blob resynthesizes instead of crashing."""
    from repro.experiments.artifacts import ArtifactStore
    from repro.sc import mip
    from repro.sc.mip import mip_table_blob_key, mip_tables, synthesize_mip_tables

    store = ArtifactStore(tmp_path)
    key = mip_table_blob_key(N_BITS)
    store.save_blob(key, b"RPMIPgarbage")
    mip._MEMO.pop(N_BITS, None)
    try:
        tables = mip_tables(N_BITS, store=store)
    finally:
        mip._MEMO.pop(N_BITS, None)
    for got, ref in zip(tables, synthesize_mip_tables(N_BITS)):
        assert np.array_equal(got, ref)
    # and the store now holds a valid blob again
    raw = bytes(store.load_blob(key))
    assert raw.startswith(b"RPMIP") and len(raw) > len(b"RPMIPgarbage")
