"""Property-based conformance fleet over the SNG generator registry.

Every family registered in :mod:`repro.sc.generators` is swept through
the same invariant checks, parameterized over ``generator_keys()`` —
a new family plugs into the fleet with zero new test code (see
``TestNewFamilyPlugsIn``, which registers a toy family and runs the
identical checks).  What is enforced for each family is exactly what
its :meth:`~repro.sc.generators.SngFamily.claims` dict declares:

* ``comparator`` — streams are comparator outputs (``rand < m``) of the
  family's shared :meth:`source`, hence pointwise monotone in ``m``;
* ``permutation`` — one source period emits each integer in
  ``[0, 2**n)`` exactly once (unarity of the code-space walk);
* ``exact_count`` — a full-period stream for magnitude ``m`` carries
  exactly ``m`` ones (the low-discrepancy exactness the paper's Fig. 5
  accuracy story leans on);
* ``period`` — streams repeat with the claimed period.

Shape/dtype contracts, determinism (same construction, same stream;
``reset`` rewinds), prefix consistency, the generic up/down-table
contract, registry resolution semantics and the eager fail-fast
resolve in engine/parallel configs are checked for every family
unconditionally.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sc.generators import (
    _FAMILIES,
    DEFAULT_GENERATOR,
    SngFamily,
    generator_fingerprint,
    generator_keys,
    generator_ud_table,
    list_generators,
    register_generator,
    resolve_generator,
)
from repro.sc.multipliers import lfsr_ud_table, select_low_bias_seeds
from repro.sc.sng import CounterSource

#: The fleet's family axis — computed from the registry at collection
#: time, so registering a family is all it takes to get pinned.
SPECS = generator_keys()

OPERANDS = ("w", "x")
WIDTHS = (4, 5)

# ---------------------------------------------------------------------------
# the invariant checks (plain functions so the fake-family test can run
# the identical fleet without re-stating any of them)


def check_stream_contracts(family: SngFamily, n: int) -> None:
    """Shape/dtype/value contracts of ``stream_matrix`` for both operands."""
    period = 1 << n
    for operand in OPERANDS:
        bits = family.stream_matrix(n, operand)
        assert bits.shape == (period, period)
        assert bits.dtype == np.int64
        assert set(np.unique(bits)) <= {0, 1}
        mags = np.array([0, 3, period], dtype=np.int64)
        sliced = family.stream_matrix(n, operand, length=7, magnitudes=mags)
        assert sliced.shape == (3, 7)
        assert not sliced[0].any()  # magnitude 0 is the all-zero stream
        assert sliced[2].all()  # full scale is the all-one stream


def check_comparator(family: SngFamily, n: int) -> None:
    """``comparator`` claim: streams are ``source() < m``, hence monotone."""
    length = 2 * (1 << n)
    mags = np.arange((1 << n) + 1, dtype=np.int64)
    for operand in OPERANDS:
        claims = family.claims(n, operand)
        bits = family.stream_matrix(n, operand, length=length, magnitudes=mags)
        if not claims["comparator"]:
            continue
        src = family.source(n, operand)
        rand = np.asarray(src.sequence(length))
        assert rand.min() >= 0 and rand.max() < (1 << n)
        expected = (rand[None, :] < mags[:, None]).astype(np.int64)
        assert np.array_equal(bits, expected)
        # comparator streams are nested: raising m only adds ones
        assert (np.diff(bits, axis=0) >= 0).all()


def check_permutation(family: SngFamily, n: int) -> None:
    """``permutation`` claim: one source period covers every code once."""
    for operand in OPERANDS:
        claims = family.claims(n, operand)
        if not claims["permutation"]:
            continue
        src = family.source(n, operand)
        assert src is not None, "permutation claim requires a shared source"
        seq = np.asarray(src.sequence(1 << n))
        assert np.array_equal(np.sort(seq), np.arange(1 << n))


def check_exact_count(family: SngFamily, n: int) -> None:
    """``exact_count`` claim: magnitude ``m`` has ``m`` ones per period."""
    for operand in OPERANDS:
        claims = family.claims(n, operand)
        if not claims["exact_count"]:
            continue
        period = claims["period"]
        assert period is not None, "exact_count is a full-period statement"
        mags = np.arange((1 << n) + 1, dtype=np.int64)
        bits = family.stream_matrix(n, operand, length=period, magnitudes=mags)
        assert np.array_equal(bits.sum(axis=1), mags)


def check_period(family: SngFamily, n: int) -> None:
    """``period`` claim: the stream repeats after the claimed cycles."""
    mags = np.arange((1 << n) + 1, dtype=np.int64)
    for operand in OPERANDS:
        period = family.claims(n, operand)["period"]
        if period is None:
            continue
        bits = family.stream_matrix(n, operand, length=2 * period, magnitudes=mags)
        assert np.array_equal(bits[:, :period], bits[:, period:])


def check_determinism(family: SngFamily, n: int) -> None:
    """Same construction, same stream; ``reset`` rewinds to cycle 0."""
    for operand in OPERANDS:
        first = family.stream_matrix(n, operand, length=3 * (1 << n) // 2)
        again = family.stream_matrix(n, operand, length=3 * (1 << n) // 2)
        assert np.array_equal(first, again)
        src = family.source(n, operand)
        if src is None:
            continue
        seq = np.asarray(src.sequence(37))
        src.reset()
        assert np.array_equal(np.asarray(src.sequence(37)), seq)
        assert np.array_equal(np.asarray(family.source(n, operand).sequence(37)), seq)


def check_prefix_consistency(family: SngFamily, n: int, length: int) -> None:
    """A shorter stream is a prefix of a longer one (no hidden state)."""
    full_len = 2 * (1 << n)
    assert length <= full_len
    mags = np.array([1, (1 << n) // 2, (1 << n) - 1], dtype=np.int64)
    for operand in OPERANDS:
        full = family.stream_matrix(n, operand, length=full_len, magnitudes=mags)
        short = family.stream_matrix(n, operand, length=length, magnitudes=mags)
        assert np.array_equal(short, full[:, :length])


def check_ud_table(family: SngFamily, n: int) -> None:
    """Generic up/down table: shape, dtype, range, corner products."""
    length = 1 << n
    table = generator_ud_table(family, n)
    assert table.shape == (length + 1, length + 1)
    assert table.dtype == np.int64
    assert int(np.abs(table).max()) <= length
    # XNOR corners: equal extremes agree every cycle, opposite never
    assert table[0, 0] == length
    assert table[length, length] == length
    assert table[0, length] == -length
    assert table[length, 0] == -length
    # up/down counts change by +-1 per cycle over an even span
    assert not (table & 1).any()


ALL_CHECKS = (
    check_stream_contracts,
    check_comparator,
    check_permutation,
    check_exact_count,
    check_period,
    check_determinism,
    check_ud_table,
)


# ---------------------------------------------------------------------------
# the fleet, parameterized over the registry


@pytest.mark.parametrize("n", WIDTHS)
@pytest.mark.parametrize("spec", SPECS)
class TestRegisteredFamilies:
    def test_stream_contracts(self, spec, n):
        check_stream_contracts(resolve_generator(spec), n)

    def test_comparator_claim(self, spec, n):
        check_comparator(resolve_generator(spec), n)

    def test_permutation_claim(self, spec, n):
        check_permutation(resolve_generator(spec), n)

    def test_exact_count_claim(self, spec, n):
        check_exact_count(resolve_generator(spec), n)

    def test_period_claim(self, spec, n):
        check_period(resolve_generator(spec), n)

    def test_determinism_and_reset(self, spec, n):
        check_determinism(resolve_generator(spec), n)

    def test_ud_table_contract(self, spec, n):
        check_ud_table(resolve_generator(spec), n)


class TestFamilyProperties:
    """Hypothesis sweeps — widths and stream lengths drawn, not listed."""

    @pytest.mark.parametrize("spec", SPECS)
    @given(n=st.integers(3, 6), raw=st.integers(0, 1 << 16))
    def test_exact_count_over_drawn_magnitudes(self, spec, n, raw):
        family = resolve_generator(spec)
        m = raw % ((1 << n) + 1)
        for operand in OPERANDS:
            claims = family.claims(n, operand)
            if not claims["exact_count"]:
                continue
            bits = family.stream_matrix(
                n, operand, length=claims["period"], magnitudes=np.array([m])
            )
            assert int(bits.sum()) == m

    @pytest.mark.parametrize("spec", SPECS)
    @given(n=st.integers(3, 5), raw=st.integers(0, 1 << 16))
    def test_prefix_consistency(self, spec, n, raw):
        length = 1 + raw % (2 * (1 << n))
        check_prefix_consistency(resolve_generator(spec), n, length)


# ---------------------------------------------------------------------------
# registry semantics


class TestRegistryResolution:
    def test_default_is_lfsr(self):
        assert DEFAULT_GENERATOR == "lfsr"
        assert resolve_generator(None) is resolve_generator("lfsr")

    def test_resolve_memoizes_per_spec(self):
        for spec in SPECS:
            assert resolve_generator(spec) is resolve_generator(spec)

    def test_family_instance_passes_through(self):
        family = resolve_generator("halton")
        assert resolve_generator(family) is family

    def test_unknown_spec_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown generator"):
            resolve_generator("mersenne")

    def test_unknown_spec_error_names_choices(self):
        with pytest.raises(ValueError, match="lfsr"):
            resolve_generator("mersenne")

    def test_generator_keys_sorted_and_complete(self):
        keys = generator_keys()
        assert keys == sorted(keys)
        assert {"lfsr", "halton", "ed", "mip", "parallel"} <= set(keys)

    def test_list_generators_all_available(self):
        rows = {info.spec: info for info in list_generators()}
        assert set(rows) == set(generator_keys())
        for info in rows.values():
            assert info.available, f"{info.spec}: {info.detail}"
            assert info.detail

    def test_fingerprints_distinct_and_stable(self):
        prints = {spec: generator_fingerprint(spec, 5) for spec in SPECS}
        assert len(set(prints.values())) == len(SPECS)
        for spec, fp in prints.items():
            assert isinstance(fp, tuple) and fp
            assert generator_fingerprint(spec, 5) == fp

    def test_lfsr_ud_table_matches_fast_builder(self):
        for n in WIDTHS:
            seed_w, seed_x = select_low_bias_seeds(n)
            assert np.array_equal(
                generator_ud_table("lfsr", n), lfsr_ud_table(n, seed_w, seed_x)
            )


class TestEagerResolveInConfigs:
    """Generator typos must surface at construction, not mid-batch."""

    def test_engine_rejects_unknown_generator(self):
        from repro.nn.engines import LfsrScEngine

        with pytest.raises(ValueError, match="unknown generator"):
            LfsrScEngine(n_bits=5, generator="mersenne")

    def test_parallel_config_rejects_unknown_generator(self):
        from repro.parallel import ParallelConfig

        with pytest.raises(ValueError, match="unknown generator"):
            ParallelConfig(workers=0, generator="mersenne")

    def test_predict_rejects_unknown_generator_before_any_image(self, monkeypatch):
        from repro.nn import attach_engines, build_mnist_net
        from repro.nn.calibration import LayerRanges

        net = build_mnist_net(seed=3, c1=2, c2=3, fc=16)
        attach_engines(net, "proposed-sc", [LayerRanges(1.0, 1.0)] * 2, n_bits=5)
        ran = []
        monkeypatch.setattr(net, "forward", lambda *a, **k: ran.append(a))
        with pytest.raises(ValueError, match="unknown generator"):
            net.predict(np.zeros((3, 1, 28, 28)), generator="mersenne")
        assert ran == []

    def test_engine_default_and_lfsr_spec_share_table(self):
        from repro.nn.engines import LfsrScEngine

        default = LfsrScEngine(n_bits=5)
        explicit = LfsrScEngine(n_bits=5, generator="lfsr")
        assert np.array_equal(default.ud_table, explicit.ud_table)

    def test_engine_generator_table_matches_registry(self):
        from repro.nn.engines import LfsrScEngine

        engine = LfsrScEngine(n_bits=5, generator="mip")
        assert np.array_equal(engine.ud_table, generator_ud_table("mip", 5))


# ---------------------------------------------------------------------------
# a new family gets the whole fleet for free


class _RampFamily(SngFamily):
    """Toy family: plain binary counter for both operands."""

    key = "ramp"
    detail = "binary counter both operands (conformance-suite test double)"

    def source(self, n_bits, operand="w"):
        return CounterSource(n_bits)

    def fingerprint(self, n_bits):
        return ("ramp", int(n_bits))

    def claims(self, n_bits, operand="w"):
        return {
            "comparator": True,
            "permutation": True,
            "exact_count": True,
            "period": 1 << n_bits,
        }


@pytest.fixture
def ramp_family():
    register_generator("ramp", _RampFamily())
    yield resolve_generator("ramp")
    _FAMILIES.pop("ramp", None)


class TestNewFamilyPlugsIn:
    def test_registered_family_resolves_and_lists(self, ramp_family):
        assert resolve_generator("ramp") is ramp_family
        assert "ramp" in generator_keys()
        rows = {info.spec: info for info in list_generators()}
        assert rows["ramp"].available

    def test_new_family_passes_every_check(self, ramp_family):
        for n in WIDTHS:
            for check in ALL_CHECKS:
                check(ramp_family, n)

    def test_registry_restored_after_unregister(self):
        assert "ramp" not in generator_keys()
