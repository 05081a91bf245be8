"""Pin the float32 BFP tensor quantizer to the float64 reference it replaced.

``BlockFloatingPoint.real_to_format_tensor`` works on the float32 bit view
with one power-of-two ``ldexp`` per block.  :func:`reference_quantize` below
is the earlier float64 implementation, kept here (and only here) as the
oracle: on a seeded corpus of signed zeros, subnormals, infinities, NaNs of
both signs, rounding ties, rounding carries and saturated registers, the two
must agree bit for bit in the output, the exponent registers and the
numeric-health counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import BlockFloatingPoint, flip_bit, flip_value, flip_values


def reference_quantize(fmt: BlockFloatingPoint, tensor):
    """float64 BFP quantization: ``(output, exp_fields, (saturated, flushed,
    nan_remapped))``."""
    x = np.asarray(tensor, dtype=np.float32)
    with np.errstate(invalid="ignore"):  # signalling NaN payloads
        flat = x.reshape(-1).astype(np.float64)
    numel = flat.size
    block_size = fmt.block_size or max(numel, 1)
    num_blocks = max((numel + block_size - 1) // block_size, 1)
    padded = np.zeros(num_blocks * block_size, dtype=np.float64)
    padded[:numel] = flat
    blocks = padded.reshape(num_blocks, block_size)

    magnitude = np.where(np.isfinite(blocks), np.abs(blocks), 0.0)
    peak = np.max(magnitude, axis=1)
    with np.errstate(divide="ignore"):
        _, raw_exp = np.frexp(peak)
    shared_exp = raw_exp - 1
    exp_fields = np.clip(shared_exp + fmt.exp_bias, 0,
                         fmt.max_exp_field).astype(np.int64)
    shared_exp = exp_fields - fmt.exp_bias
    granularity_1d = np.exp2(shared_exp - fmt.mantissa_bits + 1)
    carry = np.round(peak / granularity_1d) > fmt.max_mantissa
    bump = carry & (exp_fields < fmt.max_exp_field)
    if bump.any():
        exp_fields = exp_fields + bump.astype(np.int64)
        shared_exp = exp_fields - fmt.exp_bias

    granularity = np.exp2(shared_exp - fmt.mantissa_bits + 1)[:, None]
    raw_mantissas = np.round(np.abs(blocks) / granularity)
    mantissas = np.nan_to_num(raw_mantissas, nan=0.0, posinf=fmt.max_mantissa)
    mantissas = np.clip(mantissas, 0, fmt.max_mantissa)
    signs = np.where(np.isnan(blocks), 0.0, np.sign(blocks))
    quantized = signs * mantissas * granularity
    zero_block = peak == 0.0
    if zero_block.any():
        quantized[zero_block] = 0.0
    with np.errstate(over="ignore"):
        result = quantized.reshape(-1)[:numel].reshape(x.shape).astype(np.float32)
    saturated = int(np.count_nonzero(raw_mantissas > fmt.max_mantissa))
    flushed = int(np.count_nonzero(
        (mantissas == 0) & np.isfinite(blocks) & (blocks != 0.0)))
    nan_remapped = int(np.count_nonzero(np.isnan(blocks)))
    return result, exp_fields, (saturated, flushed, nan_remapped)


class _Sink:
    def record(self, fmt, original, quantized, *, saturated, flushed,
               nan_remapped):
        self.counts = (saturated, flushed, nan_remapped)


def quantize(fmt: BlockFloatingPoint, tensor):
    sink = _Sink()
    fmt.set_stats_sink(sink)
    try:
        out = fmt.real_to_format_tensor(tensor)
    finally:
        fmt.set_stats_sink(None)
    return out, fmt.metadata.exp_fields, sink.counts


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).view(np.uint32)


SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1.1754942e-38,
     -1.1754942e-38, 1.1754944e-38, 63.875, -63.875, 1.0, -1.0, 0.5,
     3.4028235e38, -3.4028235e38, -1e-30], dtype=np.float32)
#: NaN payloads of both signs (quiet and signalling)
NAN_BITS = np.array([0x7FC00000, 0xFFC00000, 0x7F800001, 0xFF800001,
                     0x7FFFFFFF, 0xFFFFFFFF], dtype=np.uint32)


def corpus(rng: np.random.Generator):
    """Seeded tensors (various sizes, so partial last blocks occur)."""
    def size():
        return int(rng.integers(1, 70))

    def with_specials(x):
        flat = x.reshape(-1)  # a view: x is freshly allocated
        pick = rng.random(x.size) < 0.1
        flat[pick] = rng.choice(SPECIALS, int(pick.sum()))
        nan = rng.random(x.size) < 0.03
        flat.view(np.uint32)[nan] = rng.choice(NAN_BITS, int(nan.sum()))
        return x

    yield rng.permutation(np.concatenate([SPECIALS, NAN_BITS.view(np.float32)]))
    # every float32 bit pattern is fair game, NaN payloads included
    yield rng.integers(0, 2 ** 32, size(), dtype=np.uint64).astype(np.uint32).view(np.float32)
    # normals across the whole exponent range
    yield with_specials((rng.standard_normal(size()) *
                         2.0 ** rng.integers(-140, 120)).astype(np.float32))
    # subnormals only, and subnormals mixed with signed zeros
    yield (rng.standard_normal(size()) * 1e-40).astype(np.float32)
    yield with_specials((rng.integers(-8, 8, size()) * 1e-45).astype(np.float32))
    # dyadic grids: exact rounding ties and carries
    yield with_specials((rng.integers(-512, 512, size()) /
                         2.0 ** rng.integers(0, 12)).astype(np.float32))
    # blocks with no finite non-zero magnitude
    yield np.array(rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size()),
                   dtype=np.float32)
    # a non-contiguous view (a conv output is a transposed view)
    yield with_specials(rng.standard_normal((size() % 9 + 1, 6))
                        .astype(np.float32)).T


#: every exponent width 2..8 with every mantissa width 1..23, cycling
#: through whole-tensor sharing and block sizes 1, 4, 7 and 16
CONFIGS = [(e, m, (None, 1, 4, 7, 16)[(e + m) % 5])
           for e in range(2, 9)
           for m in range(1, 24)]


@pytest.mark.parametrize("exp_bits", range(2, 9))
def test_matches_reference_bit_for_bit(exp_bits):
    rng = np.random.default_rng(exp_bits)
    for e, m, block in CONFIGS:
        if e != exp_bits:
            continue
        fmt = BlockFloatingPoint(e, m, block_size=block)
        for x in corpus(rng):
            want, want_exp, want_counts = reference_quantize(fmt, x)
            got, got_exp, got_counts = quantize(fmt, x)
            assert got.shape == x.shape and got.dtype == np.float32
            np.testing.assert_array_equal(_bits(got), _bits(want),
                                          err_msg=f"{fmt.name} on {x!r}")
            assert got_exp.dtype == want_exp.dtype == np.int64
            np.testing.assert_array_equal(got_exp, want_exp)
            assert got_counts == want_counts
            assert fmt.metadata.numel == x.size


@pytest.mark.parametrize("fmt, x", [
    # rounding carry: 63.875 rounds to 2^7 at exponent 5, so E bumps to 6
    (BlockFloatingPoint(8, 7, block_size=8), [63.875, 1.0, -0.125]),
    # the register saturates: the mantissas clip instead of carrying
    (BlockFloatingPoint(2, 5, block_size=None), [1e10, -3.0, 0.25]),
    (BlockFloatingPoint(3, 2, block_size=4), [np.inf, -1e38, 7.5, 8.0, 1.0]),
    # a carry into exponent 128 decodes the peak to inf
    (BlockFloatingPoint(8, 7, block_size=2), [3.4028235e38, 1.0]),
    # a partial last block and whole-tensor sharing over signed zeros
    (BlockFloatingPoint(5, 5, block_size=16), [-0.0] * 17 + [1.0]),
    (BlockFloatingPoint(8, 23, block_size=None), [-0.0, 1e-45, -1e-45, 0.0]),
])
def test_pinned_edge_cases(fmt, x):
    x = np.asarray(x, dtype=np.float32)
    want, want_exp, want_counts = reference_quantize(fmt, x)
    got, got_exp, got_counts = quantize(fmt, x)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(got_exp, want_exp)
    assert got_counts == want_counts


def test_negative_zero_input_quantizes_to_positive_zero():
    # the tensor path's signed-zero policy, unchanged: a -0.0 input comes
    # out +0.0 while a negative value that rounds to zero keeps its sign
    fmt = BlockFloatingPoint(5, 3, block_size=None)
    got = fmt.real_to_format_tensor(np.float32([-0.0, -1e-6, 1.0, np.nan]))
    assert _bits(got).tolist()[:2] == [0x00000000, 0x80000000]
    assert _bits(got)[3] == 0


@pytest.mark.parametrize("e, m, block", [(5, 5, 16), (8, 7, 4), (3, 2, 7),
                                         (8, 23, None)])
def test_metadata_corruption_and_flips_round_trip(e, m, block):
    rng = np.random.default_rng(e * 100 + m)
    fmt = BlockFloatingPoint(e, m, block_size=block)
    x = (rng.standard_normal(40) * 4).astype(np.float32)
    x[[3, 9]] = [-0.0, 0.0]
    q = fmt.real_to_format_tensor(x)
    golden = fmt.metadata.copy()
    np.testing.assert_array_equal(golden.exp_fields, reference_quantize(fmt, x)[1])

    for register in range(fmt.num_metadata_registers()):
        for bit in range(e):
            fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(register), bit),
                                  register)
            corrupted = fmt.apply_metadata_corruption(q, golden)
            lo = register * golden.block_size
            hi = min(lo + golden.block_size, q.size)
            delta = int(fmt.metadata.exp_fields[register]) - int(golden.exp_fields[register])
            with np.errstate(over="ignore"):
                scaled = (q[lo:hi].astype(np.float64) * 2.0 ** delta).astype(np.float32)
            np.testing.assert_array_equal(_bits(corrupted[lo:hi]), _bits(scaled))
            np.testing.assert_array_equal(corrupted[:lo], q[:lo])
            np.testing.assert_array_equal(corrupted[hi:], q[hi:])
            # flipping the bit back restores the register and the values
            fmt.set_metadata_bits(flip_bit(fmt.get_metadata_bits(register), bit),
                                  register)
            np.testing.assert_array_equal(
                _bits(fmt.apply_metadata_corruption(q, golden)), _bits(q))
    np.testing.assert_array_equal(fmt.metadata.exp_fields, golden.exp_fields)

    blocks = np.arange(q.size) // golden.block_size
    for bit in range(fmt.bit_width):
        once = flip_values(fmt, q, [bit], blocks=blocks)
        scalar = [flip_value(fmt, v, [bit], block=b) for v, b in zip(q, blocks)]
        np.testing.assert_array_equal(_bits(once), _bits(scalar))
        np.testing.assert_array_equal(
            _bits(flip_values(fmt, once, [bit], blocks=blocks)), _bits(q))
