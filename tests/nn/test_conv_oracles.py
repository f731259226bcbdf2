"""Layer oracles for the integer-native conv path.

``Conv2D.forward`` quantizes its input once into offset words, im2cols
the words and hands them to the engine.  Each test here rebuilds the
same layer output the way the conv path used to compute it, from
independent pieces: a float ``im2col`` of the real input, then
``quantize_signed`` of the columns and weights, then the engine's
reference arithmetic.

* proposed-SC: :func:`repro.core.mvm.sc_matmul`;
* LFSR-SC: the pairwise table sum of ``TestLfsrEngineParity``
  (:func:`tests.nn.test_engines.lfsr_oracle`);
* fixed point: the truncate-before-accumulate formula, written out;
* truncated-SC: :func:`repro.core.kernels.truncated_matmul_kernel`.

The layer must equal its oracle bit for bit over padding 0/2, stride
1/2, N 3/5/8, every saturation mode and the LFSR families.  Max-pooling
must equal the argmax formula, ties and signed zeros included, and a
backward pass after an SC forward must give the float-column gradients.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import truncated_matmul_kernel
from repro.core.mvm import sc_matmul
from repro.nn.engines import make_engine
from repro.nn.im2col import col2im, im2col
from repro.nn.layers import Conv2D, MaxPool2D
from repro.sc.encoding import quantize_signed
from tests.nn.test_engines import lfsr_oracle

GEOMETRY = {"pad0-s1": (0, 1), "pad2-s1": (2, 1), "pad0-s2": (0, 2), "pad2-s2": (2, 2)}
N_BITS = (3, 5, 8)
SATURATE = ("final", None, "term")
#: scales of every engine under test: powers of two, neither of them 1
W_SCALE, X_SCALE = 0.5, 2.0


def make_conv(geometry: str) -> tuple[Conv2D, np.ndarray]:
    """A 3->4 channel 5x5 conv and a 2-image input, some of it beyond ``X_SCALE``."""
    pad, stride = GEOMETRY[geometry]
    rng = np.random.default_rng(sum(map(ord, geometry)))
    conv = Conv2D(3, 4, kernel=5, stride=stride, pad=pad, rng=rng)
    conv.bias.value[:] = rng.normal(0.0, 0.1, size=4)
    x = rng.normal(0.0, 1.2, size=(2, 3, 11, 11))
    x[0, 1, 2:5, 3:6] = 0.0  # a patch of exact zeros
    return conv, x


def float_columns(conv: Conv2D, x: np.ndarray):
    cols, out_shape = im2col(x, conv.kernel, conv.stride, conv.pad)
    return cols, out_shape, conv.weight.value.reshape(conv.out_channels, -1)


def as_layer_output(conv: Conv2D, y2d: np.ndarray, n: int, out_shape) -> np.ndarray:
    y2d = y2d + conv.bias.value[:, None]
    return y2d.reshape(conv.out_channels, n, *out_shape).transpose(1, 0, 2, 3)


def quantized(engine, w2d, cols):
    n = engine.n_bits
    w_int = quantize_signed(w2d / engine.w_scale, n)
    x_int = quantize_signed(cols / engine.x_scale, n)
    return w_int, x_int


def dequantized(engine, acc):
    return acc.astype(np.float64) / (1 << (engine.n_bits - 1)) * engine.w_scale * engine.x_scale


def fixed_point_oracle(engine, w_int, x_int):
    """Round-half-up each product to output LSBs, then accumulate."""
    shift = engine.n_bits - 1
    terms = (w_int[:, :, None] * x_int[None, :, :] + (1 << (shift - 1))) >> shift
    width = engine.n_bits + engine.acc_bits
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if engine.saturate == "term":
        acc = np.zeros((w_int.shape[0], x_int.shape[1]), dtype=np.int64)
        for j in range(w_int.shape[1]):
            acc = np.clip(acc + terms[:, j], lo, hi)
        return acc
    acc = terms.sum(axis=1)
    return np.clip(acc, lo, hi) if engine.saturate == "final" else acc


def oracle(engine, conv: Conv2D, x: np.ndarray, generator=None) -> np.ndarray:
    """The layer output built the old way: float im2col, then quantize."""
    cols, out_shape, w2d = float_columns(conv, x)
    if engine.name == "lfsr-sc":
        family = engine.generator if generator is None else generator
        y2d = lfsr_oracle(
            w2d, cols, engine.n_bits, engine.saturate, family, engine.w_scale, engine.x_scale
        )
        return as_layer_output(conv, y2d, len(x), out_shape)
    w_int, x_int = quantized(engine, w2d, cols)
    if engine.name == "proposed-sc":
        acc = sc_matmul(w_int, x_int, engine.n_bits, engine.acc_bits, saturate=engine.saturate)
    elif engine.name == "fixed":
        acc = fixed_point_oracle(engine, w_int, x_int)
    else:
        acc = truncated_matmul_kernel(
            w_int, x_int, engine.n_bits, engine.cycle_budget, engine.rescale
        )
        width = engine.n_bits + engine.acc_bits
        acc = np.clip(acc, -(1 << (width - 1)), (1 << (width - 1)) - 1)
    return as_layer_output(conv, dequantized(engine, acc), len(x), out_shape)


def check_layer(kind: str, geometry: str, generator=None, **engine_kwargs) -> None:
    conv, x = make_conv(geometry)
    conv.engine = make_engine(kind, w_scale=W_SCALE, x_scale=X_SCALE, **engine_kwargs)
    expected = oracle(conv.engine, conv, x, generator)
    for _ in range(2):  # cold, then from the engine's weight memo
        got = conv.forward(x, generator=generator)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("saturate", SATURATE, ids=str)
@pytest.mark.parametrize("n_bits", N_BITS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRY))
class TestConvMatchesOracle:
    def test_proposed_sc(self, geometry, n_bits, saturate):
        check_layer("proposed-sc", geometry, n_bits=n_bits, saturate=saturate)

    def test_fixed_point(self, geometry, n_bits, saturate):
        check_layer("fixed", geometry, n_bits=n_bits, saturate=saturate)

    @pytest.mark.parametrize("generator", (None, "halton", "mip"), ids=str)
    def test_lfsr_sc(self, geometry, n_bits, saturate, generator):
        check_layer("lfsr-sc", geometry, generator, n_bits=n_bits, saturate=saturate)


@pytest.mark.parametrize("rescale", (True, False))
@pytest.mark.parametrize("n_bits", N_BITS)
@pytest.mark.parametrize("geometry", sorted(GEOMETRY))
def test_truncated_sc_matches_oracle(geometry, n_bits, rescale):
    """Truncated-SC always clips its result; ``saturate`` does not apply."""
    check_layer(
        "truncated-sc", geometry, n_bits=n_bits, cycle_budget=1 << (n_bits - 2), rescale=rescale
    )


class TestEncodedOperands:
    @pytest.mark.parametrize("kind", ("fixed", "lfsr-sc", "proposed-sc", "truncated-sc"))
    def test_words_and_reals_give_one_product(self, kind):
        """``matmul`` on encoded words equals ``matmul`` on the real columns."""
        conv, x = make_conv("pad2-s1")
        engine = make_engine(kind, n_bits=5, w_scale=W_SCALE, x_scale=X_SCALE)
        cols, _, w2d = float_columns(conv, x)
        words = engine.encode(cols)
        assert words.dtype == np.int16
        assert words.min() >= 0 and words.max() < 1 << 5
        assert np.array_equal(engine.matmul(w2d, words), engine.matmul(w2d, cols))

    def test_padding_is_the_word_of_real_zero(self):
        engine = make_engine("proposed-sc", n_bits=8, x_scale=X_SCALE)
        zeros = engine.encode(np.zeros((1, 1, 1, 1)))
        assert int(zeros[0, 0, 0, 0]) == engine.zero_word == 128
        cols, _ = im2col(engine.encode(np.ones((1, 1, 1, 1))), 3, pad=1, fill=engine.zero_word)
        assert sorted(cols.ravel().tolist()) == [128] * 8 + [128 + 64]

    def test_weight_memo_follows_content(self):
        """An in-place weight edit re-quantizes; equal content reuses the memo."""
        conv, x = make_conv("pad0-s1")
        conv.engine = make_engine("proposed-sc", n_bits=8, w_scale=W_SCALE, x_scale=X_SCALE)
        conv.forward(x)
        first = conv.engine.quantize_weights(conv.weight.value.reshape(4, -1))
        assert conv.engine.quantize_weights(conv.weight.value.reshape(4, -1).copy()) is first
        conv.weight.value[0, 0, 0, 0] += 0.25
        got = conv.forward(x)
        assert conv.engine.quantize_weights(conv.weight.value.reshape(4, -1)) is not first
        assert got.tobytes() == oracle(conv.engine, conv, x).tobytes()


# -- max-pooling: np.maximum over strided slices == the argmax formula ----


def argmax_pool(x: np.ndarray, size: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """The windowed argmax and its value (first index on ties)."""
    n, c, h, w = x.shape
    oh, ow = (h - size) // stride + 1, (w - size) // stride + 1
    s = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, size, size),
        strides=(s[0], s[1], s[2] * stride, s[3] * stride, s[2], s[3]),
    )
    flat = win.reshape(n, c, oh, ow, size * size)
    idx = flat.argmax(axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def argmax_pool_backward(x, grad, size, stride):
    _, idx = argmax_pool(x, size, stride)
    dx = np.zeros(x.shape, dtype=grad.dtype)
    kh, kw = np.divmod(idx, size)
    ns, cs, rs, ws = np.indices(idx.shape)
    np.add.at(dx, (ns, cs, rs * stride + kh, ws * stride + kw), grad)
    return dx


def tied_input(shape, dtype, seed):
    """Mostly ties: signed zeros, +-1, and a few distinct values."""
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array([-0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.5]), size=shape)
    x[..., ::5] = rng.normal(size=x[..., ::5].shape)
    return x.astype(dtype)


@pytest.mark.parametrize("size, stride", ((2, 2), (3, 2)), ids=("2x2-s2", "3x3-s2"))
class TestMaxPoolMatchesArgmax:
    @pytest.mark.parametrize("dtype", (np.float64, np.float32))
    @pytest.mark.parametrize("hw", ((8, 8), (15, 15), (9, 12)), ids=str)
    def test_forward(self, size, stride, dtype, hw):
        x = tied_input((3, 4, *hw), dtype, seed=hw[0] * 31 + size)
        expected, _ = argmax_pool(x, size, stride)
        got = MaxPool2D(size, stride=stride).forward(x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        # bytes, not values: -0.0 and 0.0 compare equal
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_all_negative_zero_window_stays_negative(self, size, stride):
        x = np.full((1, 1, 6, 6), -0.0)
        assert np.signbit(MaxPool2D(size, stride=stride).forward(x)).all()

    def test_backward_recomputes_the_argmax(self, size, stride):
        x = tied_input((2, 3, 11, 11), np.float64, seed=size)
        pool = MaxPool2D(size, stride=stride)
        out = pool.forward(x)
        grad = np.random.default_rng(size).normal(size=out.shape)
        assert np.array_equal(pool.backward(grad), argmax_pool_backward(x, grad, size, stride))


# -- backward after an SC forward is the float-column gradient ------------


@pytest.mark.parametrize("kind", ("proposed-sc", "lfsr-sc", "fixed", "truncated-sc"))
@pytest.mark.parametrize("geometry", ("pad2-s1", "pad0-s2"))
def test_backward_after_sc_forward_uses_float_columns(kind, geometry):
    conv, x = make_conv(geometry)
    conv.engine = make_engine(kind, n_bits=5, w_scale=W_SCALE, x_scale=X_SCALE)
    y = conv.forward(x)
    grad = np.random.default_rng(7).normal(size=y.shape)
    conv.zero_grad()
    gx = conv.backward(grad)

    cols, _, w2d = float_columns(conv, x)
    m = conv.out_channels
    g2d = grad.transpose(1, 0, 2, 3).reshape(m, -1)
    assert np.array_equal(conv.weight.grad, (g2d @ cols.T).reshape(conv.weight.value.shape))
    assert np.array_equal(conv.bias.grad, g2d.sum(axis=1))
    expected_gx = col2im(w2d.T @ g2d, x.shape, conv.kernel, conv.stride, conv.pad)
    assert np.array_equal(gx, expected_gx)
