"""Tests for the convolution multiply engines."""

import copy
import functools
import pickle

import numpy as np
import pytest

import repro.nn.engines as engines_mod
from repro.core.mvm import sc_matmul
from repro.nn.engines import (
    FixedPointEngine,
    FloatEngine,
    LfsrScEngine,
    ProposedScEngine,
    make_engine,
)
from repro.parallel.cache import get_worker_cache, reset_worker_cache
from repro.sc.encoding import quantize_signed
from repro.sc.generators import generator_ud_table
from repro.sc.multipliers import lfsr_ud_table, select_low_bias_seeds


@pytest.fixture
def operands(rng):
    w = rng.uniform(-0.6, 0.6, size=(6, 30))
    x = rng.uniform(-0.95, 0.95, size=(30, 40))
    return w, x


class TestFloatEngine:
    def test_exact(self, operands):
        w, x = operands
        assert np.allclose(FloatEngine().matmul(w, x), w @ x)


class TestFixedPointEngine:
    def test_high_precision_converges(self, operands):
        w, x = operands
        y = FixedPointEngine(n_bits=12, acc_bits=4).matmul(w, x)
        assert np.abs(y - w @ x).max() < 0.05

    def test_nearest_less_biased_than_floor(self, operands):
        w, x = operands
        ref = w @ x
        nearest = FixedPointEngine(rounding="nearest", n_bits=7, acc_bits=4).matmul(w, x)
        floor = FixedPointEngine(rounding="floor", n_bits=7, acc_bits=4).matmul(w, x)
        assert abs((nearest - ref).mean()) < abs((floor - ref).mean())
        # floor bias is about -0.5 LSB per term, negative by construction
        assert (floor - ref).mean() < 0

    def test_term_saturation_path(self, operands):
        w, x = operands
        a = FixedPointEngine(n_bits=8, acc_bits=2, saturate="term").matmul(w, x)
        b = FixedPointEngine(n_bits=8, acc_bits=8, saturate="term").matmul(w, x)
        # with generous headroom both paths agree with the chunked one
        c = FixedPointEngine(n_bits=8, acc_bits=8, saturate="final").matmul(w, x)
        assert np.allclose(b, c)
        assert a.shape == (6, 40)

    def test_scales_roundtrip(self, rng):
        w = rng.uniform(-2.0, 2.0, size=(3, 10))
        x = rng.uniform(-8.0, 8.0, size=(10, 5))
        y = FixedPointEngine(n_bits=12, acc_bits=6, w_scale=2.0, x_scale=8.0).matmul(w, x)
        assert np.abs(y - w @ x).max() < 0.5

    def test_bad_rounding_mode(self):
        with pytest.raises(ValueError):
            FixedPointEngine(rounding="stochastic")


class TestProposedEngine:
    def test_matches_sc_matmul(self, operands):
        """The process-cache kernel equals the reference on the quantized operands."""
        w, x = operands
        n = 8
        w_int = quantize_signed(w, n)
        x_int = quantize_signed(x, n)
        for saturate in (None, "final", "term"):
            eng = ProposedScEngine(n_bits=n, acc_bits=6, saturate=saturate)
            expected = sc_matmul(w_int, x_int, n, 6, saturate=saturate) / (1 << (n - 1))
            assert np.array_equal(eng.matmul(w, x), expected)

    def test_ignores_the_call_generator(self, operands):
        w, x = operands
        eng = ProposedScEngine(n_bits=8)
        assert np.array_equal(eng.matmul(w, x, generator="mip"), eng.matmul(w, x))

    def test_accuracy_improves_with_precision(self, operands):
        w, x = operands
        ref = w @ x
        errs = []
        for n in (5, 8, 11):
            y = ProposedScEngine(n_bits=n, acc_bits=6).matmul(w, x)
            errs.append(np.sqrt(((y - ref) ** 2).mean()))
        assert errs[0] > errs[1] > errs[2]


class TestLfsrEngine:
    def test_error_moderate_but_worse_than_proposed(self, operands):
        w, x = operands
        ref = w @ x
        lfsr = LfsrScEngine(n_bits=8, acc_bits=6).matmul(w, x)
        ours = ProposedScEngine(n_bits=8, acc_bits=6).matmul(w, x)
        rmse_lfsr = np.sqrt(((lfsr - ref) ** 2).mean())
        rmse_ours = np.sqrt(((ours - ref) ** 2).mean())
        assert rmse_ours < rmse_lfsr < 10 * rmse_ours + 1.0
        assert rmse_lfsr < 0.5 * np.abs(ref).std() + 0.5

    def test_deterministic(self, operands):
        w, x = operands
        a = LfsrScEngine(n_bits=6).matmul(w, x)
        b = LfsrScEngine(n_bits=6).matmul(w, x)
        assert np.array_equal(a, b)

    def test_explicit_seeds(self, operands):
        w, x = operands
        a = LfsrScEngine(n_bits=6, seed_w=1, seed_x=5).matmul(w, x)
        b = LfsrScEngine(n_bits=6, seed_w=1, seed_x=9).matmul(w, x)
        assert not np.array_equal(a, b)


# -- LFSR-SC parity against an independent oracle ---------------------------

FAMILIES = (None, "lfsr", "halton", "ed", "mip", "parallel")

#: ``(M, D, P)``: the digits net's two conv layers at 8 images, then the
#: degenerate D = 1, M = 1 and P = 1 products.
LFSR_SHAPES = {
    "conv1": (8, 25, 8 * 24 * 24),
    "conv2": (16, 200, 8 * 8 * 8),
    "d1": (5, 1, 7),
    "m1": (1, 30, 9),
    "p1": (6, 30, 1),
}


@functools.lru_cache(maxsize=None)
def lfsr_operands(shape: str) -> tuple[np.ndarray, np.ndarray]:
    m, d, p = LFSR_SHAPES[shape]
    data = np.random.default_rng(sum(map(ord, shape)))
    return data.uniform(-1.0, 1.0, size=(m, d)), data.uniform(-1.0, 1.0, size=(d, p))


def oracle_table(generator, n_bits: int) -> np.ndarray:
    if generator in (None, "lfsr"):
        return lfsr_ud_table(n_bits, *select_low_bias_seeds(n_bits))
    return generator_ud_table(generator, n_bits)


def lfsr_oracle(w, x, n_bits, saturate, generator, w_scale=1.0, x_scale=1.0):
    """Plain sum of ``table[w_off[m, j], x_off[j, p]]`` over ``j``.

    The counter holds ``N + 2`` bits of double-scale counts and is
    clipped after every term (``"term"``), once (``"final"``) or never
    (``None``); the readout halves it.
    """
    half = 1 << (n_bits - 1)
    w_off = quantize_signed(w / w_scale, n_bits) + half
    x_off = quantize_signed(x / x_scale, n_bits) + half
    terms = oracle_table(generator, n_bits)[w_off[:, :, None], x_off[None, :, :]]
    lo, hi = -(1 << (n_bits + 2)), (1 << (n_bits + 2)) - 2
    if saturate == "term":
        acc = np.zeros((w.shape[0], x.shape[1]), dtype=np.int64)
        for j in range(w.shape[1]):
            acc = np.clip(acc + terms[:, j], lo, hi)
    else:
        acc = terms.sum(axis=1)
        if saturate == "final":
            acc = np.clip(acc, lo, hi)
    return acc.astype(np.float64) / half * w_scale * x_scale / 2.0


@functools.lru_cache(maxsize=None)
def cached_oracle(shape, n_bits, saturate, generator):
    return lfsr_oracle(*lfsr_operands(shape), n_bits, saturate, generator)


class TestLfsrEngineParity:
    """``LfsrScEngine.matmul`` is bit-equal to the pairwise table sum."""

    @pytest.fixture(autouse=True)
    def _fresh_process_cache(self):
        """Each case starts on, and leaves behind, an empty process cache."""
        reset_worker_cache()
        yield
        reset_worker_cache()

    @pytest.mark.parametrize("cached", (False, True), ids=("no-cache", "cache"))
    @pytest.mark.parametrize("shape", sorted(LFSR_SHAPES))
    @pytest.mark.parametrize("n_bits", (3, 5, 8))
    @pytest.mark.parametrize("saturate", ("final", None, "term"), ids=str)
    @pytest.mark.parametrize("generator", FAMILIES, ids=str)
    def test_matches_oracle(self, generator, saturate, n_bits, shape, cached):
        """Cold, then from the weight-row memo.

        ``no-cache``: the process cache holds no table yet, so the first
        call builds it.  ``cache``: the table is already in the process
        cache, so the first call is served from it.
        """
        w, x = lfsr_operands(shape)
        engine = LfsrScEngine(n_bits=n_bits, saturate=saturate, generator=generator)
        if cached:
            assert engine.ud_table.shape == ((1 << n_bits) + 1,) * 2
        expected = cached_oracle(shape, n_bits, saturate, generator)
        for _ in range(2):
            assert np.array_equal(engine.matmul(w, x), expected)
        stats = get_worker_cache().stats()
        assert stats["hits"] + stats["misses"] == 1 + cached  # one table lookup per cold call
        assert stats["misses"] <= 1

    def test_call_generator_overrides_the_engine_family(self):
        """``matmul(..., generator=g)`` computes under ``g`` and changes nothing."""
        w, x = lfsr_operands("conv2")
        engine = LfsrScEngine(n_bits=5, generator="halton")
        for family in FAMILIES:
            got = engine.matmul(w, x, generator=family)
            want = "halton" if family is None else family
            assert np.array_equal(got, cached_oracle("conv2", 5, "final", want))
        assert engine.generator == "halton"

    def test_scales_follow_the_contract(self):
        w, x = lfsr_operands("m1")
        engine = LfsrScEngine(n_bits=6, w_scale=0.5, x_scale=4.0)
        expected = lfsr_oracle(w, x, 6, "final", None, w_scale=0.5, x_scale=4.0)
        assert np.array_equal(engine.matmul(w, x), expected)

    def test_family_cycle_returns_first_answer(self):
        w, x = lfsr_operands("conv2")
        engine = LfsrScEngine(n_bits=5, generator="lfsr")
        first = engine.matmul(w, x)
        mip = cached_oracle("conv2", 5, "final", "mip")
        assert np.array_equal(engine.matmul(w, x, generator="mip"), mip)
        assert np.array_equal(engine.matmul(w, x), first)
        engine.generator = "mip"  # the configured family is still a plain field
        assert np.array_equal(engine.matmul(w, x), mip)
        assert np.array_equal(engine.matmul(w, x, generator="lfsr"), first)

    def test_inplace_weight_edit_is_never_stale(self):
        w, x = lfsr_operands("conv1")
        w = w.copy()
        engine = LfsrScEngine(n_bits=5, saturate=None)
        assert np.array_equal(engine.matmul(w, x), lfsr_oracle(w, x, 5, None, None))
        w[3, 7] = -w[3, 7]
        w[0] *= 0.5
        assert np.array_equal(engine.matmul(w, x), lfsr_oracle(w, x, 5, None, None))

    def test_pickle_and_copy_carry_no_memo(self):
        w, x = lfsr_operands("conv2")
        engine = LfsrScEngine(n_bits=5, generator="halton")
        first = engine.matmul(w, x)
        assert engine._rows
        clone = pickle.loads(pickle.dumps(engine))
        twin = copy.copy(engine)  # how Network.set_conv_engines shares one engine
        for other in (clone, twin):
            assert other._rows == {}
            assert np.array_equal(other.matmul(w, x), first)
        assert twin._rows is not engine._rows
        # all three rebuilt their rows from the process cache's one table
        stats = get_worker_cache().stats()
        assert stats["hits"] + stats["misses"] == 3
        assert stats["misses"] <= 1

    def test_int32_rows_branch(self, monkeypatch):
        monkeypatch.setattr(engines_mod, "_I16_ROW_BOUND", 1)
        w, x = lfsr_operands("conv2")
        table = get_worker_cache().sng_ud_table("ed", 5)
        for saturate in ("final", "term"):
            engine = LfsrScEngine(n_bits=5, saturate=saturate, generator="ed")
            assert np.array_equal(engine.matmul(w, x), cached_oracle("conv2", 5, saturate, "ed"))
            w_off, rows = engine._rows[engine._table_key("ed")]
            assert rows.dtype == np.int32
            # segment 0 of row m is the process cache's table row w_off[m, 0]
            assert np.array_equal(rows[:, : table.shape[1]], table[w_off[:, 0]])

    @pytest.mark.parametrize("bound, dtype", ((None, np.int32), (1, np.int64)))
    def test_sum_dtype_branches(self, monkeypatch, bound, dtype):
        if bound is not None:
            monkeypatch.setattr(engines_mod, "_I32_SUM_BOUND", bound)
        w, x = lfsr_operands("conv1")
        engine = LfsrScEngine(n_bits=8, saturate=None)
        seen = []
        readout = engine._dequantize

        def dequantize(acc):
            seen.append(acc.dtype)
            return readout(acc)

        engine._dequantize = dequantize
        assert np.array_equal(engine.matmul(w, x), cached_oracle("conv1", 8, None, None))
        assert seen == [dtype]

    @pytest.mark.parametrize("saturate", ("final", "term"))
    def test_column_slabs_match_one_block(self, monkeypatch, saturate):
        # 200 of conv1's 4608 columns per slab: 23 full slabs and a ragged one
        monkeypatch.setattr(engines_mod, "_BLOCK_BOUND", 200 * 8 * 25)
        w, x = lfsr_operands("conv1")
        engine = LfsrScEngine(n_bits=5, saturate=saturate, generator="parallel")
        expected = cached_oracle("conv1", 5, saturate, "parallel")
        assert np.array_equal(engine.matmul(w, x), expected)

    def test_inner_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            LfsrScEngine(n_bits=5).matmul(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_chunk_parameter_is_gone(self):
        for engine_cls in (LfsrScEngine, FixedPointEngine):
            with pytest.raises(TypeError):
                engine_cls(n_bits=5, chunk=16)


class TestFactory:
    def test_all_kinds(self):
        for kind in ("float", "fixed", "lfsr-sc", "proposed-sc"):
            assert make_engine(kind, n_bits=6).name in (kind, "fixed")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_engine("quantum")

    def test_bad_saturate(self):
        with pytest.raises(ValueError):
            make_engine("fixed", saturate="sometimes")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            make_engine("fixed", w_scale=0.0)
