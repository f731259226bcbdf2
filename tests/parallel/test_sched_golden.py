"""Golden of the compiled schedule entries of a small digits net.

``compile_network_schedules(net)`` is pinned by one SHA-256 over every
entry's key, kind, dtype, shape and bytes, in order, for proposed-sc at
N = 5 and 8, and for lfsr-sc at N = 5 with the default ``lfsr`` and
with the ``mip`` SNG family.  Every entry is integer-derived
(layer coefficients, up/down tables) and nothing here
goes through BLAS, so the hashes are the same on any machine; a change
to the key scheme, the entry kinds, the entry order or any schedule
builder fails this test.  The container is not pinned: its zip members
carry write times, and the store's own checks cover it.
"""

from __future__ import annotations

import hashlib

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import compile_network_schedules
from repro.parallel.compiled import entry_kind

CASES = (
    ("proposed-sc", 5, {}),
    ("proposed-sc", 8, {}),
    ("lfsr-sc", 5, {}),
    ("lfsr-sc", 5, {"generator": "mip"}),
)


def render(engine: str, n_bits: int, kwargs: dict) -> str:
    """One golden line: the case, entry count, entry bytes and SHA-256."""
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, engine, ranges, n_bits=n_bits, **kwargs)
    entries = compile_network_schedules(net)
    h = hashlib.sha256()
    for key, array in entries.items():
        h.update(f"{key}|{entry_kind(key)}|{array.dtype.str}|{array.shape}|".encode())
        h.update(array.tobytes())
    nbytes = sum(array.nbytes for array in entries.values())
    return (
        f"{engine} n_bits={n_bits} generator={kwargs.get('generator')} "
        f"entries={len(entries)} bytes={nbytes} sha256 {h.hexdigest()}\n"
    )


def test_sched_bytes_match_golden(golden):
    golden.check("sched_digits_small.txt", "".join(render(*case) for case in CASES))
