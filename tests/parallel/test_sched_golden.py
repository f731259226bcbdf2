"""Golden of the compiled ``.sched`` bytes of a small digits net.

``serialize_schedules(*compile_network_schedules(net))`` is pinned by
its SHA-256 for proposed-sc at N = 5 and 8, and for lfsr-sc at N = 5
with the default ``lfsr`` and with the ``mip`` SNG family.  Every
entry is integer-derived (coefficient schedules, bit tables, up/down
tables) and nothing here goes through BLAS, so the bytes are the same
on any machine; a change to the artifact format, the key scheme, the
entry order or any schedule builder fails this test.
"""

from __future__ import annotations

import hashlib

from repro.nn import attach_engines, build_mnist_net
from repro.nn.calibration import LayerRanges
from repro.parallel import compile_network_schedules, serialize_schedules

CASES = (
    ("proposed-sc", 5, {}),
    ("proposed-sc", 8, {}),
    ("lfsr-sc", 5, {}),
    ("lfsr-sc", 5, {"generator": "mip"}),
)


def render(engine: str, n_bits: int, kwargs: dict) -> str:
    """One golden line: the case, entry count, byte count and SHA-256."""
    net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
    ranges = [LayerRanges(1.0, 1.0) for _ in net.conv_layers]
    attach_engines(net, engine, ranges, n_bits=n_bits, **kwargs)
    entries, meta = compile_network_schedules(net)
    data = serialize_schedules(entries, meta)
    sha = hashlib.sha256(data).hexdigest()
    generator = kwargs.get("generator")
    return (
        f"{engine} n_bits={n_bits} generator={generator} "
        f"entries={len({e.key for e in entries})} bytes={len(data)} sha256 {sha}\n"
    )


def test_sched_bytes_match_golden(golden):
    golden.check("sched_digits_small.txt", "".join(render(*case) for case in CASES))
