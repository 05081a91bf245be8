"""Block floating point (BFP) with a shared per-block exponent register.

A BFP tensor stores, per block of ``block_size`` values, one shared exponent
plus per-element sign-magnitude mantissas (§II-A).  The shared exponent is the
exponent of the block's largest magnitude; smaller elements are represented on
that coarse grid, which is why "the resolution of low magnitude numbers may
suffer, by being essentially rounded to zero" when the block is large (§IV-B).

Unlike QPyTorch's BFP, the exponent width is a free parameter (the paper calls
out the pegged-at-8-bits limitation it fixed), and the shared exponents are
first-class *metadata registers*: flipping one bit of a shared exponent
rescales every value in the block — the multi-bit-flip equivalence that makes
hardware-aware injection different from value injection (§II-B).

Element layout: ``[sign | mantissa]`` (``1 + mantissa_bits`` bits).  An
element value is ``(-1)^sign * mantissa * 2^(E - mantissa_bits + 1)`` where
``E`` is the block's shared exponent.

Rounding-carry semantics
------------------------
The shared exponent starts at ``floor(log2(peak))`` of the block's largest
finite magnitude.  Round-to-nearest can then *carry*: a peak just below the
next power of two (e.g. ``63.875`` with a 7-bit mantissa) rounds to
``max_mantissa + 1``, which does not fit in the mantissa field.  When that
happens the block's shared exponent is incremented by one (re-clamped to the
exponent-register range) and every mantissa in the block is re-rounded on the
coarser grid, exactly as a hardware normalise-after-round stage would.  This
preserves the half-granularity error bound ``|x - q(x)| <= gran/2`` for every
in-range value (§II-A).  Only when the register is already saturated at
``max_exp_field`` does the mantissa clip instead (true dynamic-range
saturation, not a rounding artefact).  The scalar :meth:`real_to_format` path
never carries: its block exponent is fixed metadata captured by the tensor
pass, so values that would overflow the mantissa field saturate against the
register — matching bit-for-bit what the tensor pass stored (see the
scalar↔tensor parity tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import MetadataError, NumberFormat
from .bitstring import Bitstring, bits_to_uint, uint_to_bits, validate_bits

__all__ = ["BlockFloatingPoint", "BfpMetadata"]

_INF_BITS = 0x7F800000  # float32 +inf; larger magnitude patterns are NaN
_SIGN_BIT = 0x80000000  # float32 -0.0


def _block_max(values: np.ndarray, block_size: int) -> np.ndarray:
    """Max of each consecutive ``block_size`` run of a 1-D array."""
    while block_size % 2 == 0:  # pairwise halving beats reduceat
        values = np.maximum(values[0::2], values[1::2])
        block_size //= 2
    if block_size > 1:
        values = np.maximum.reduceat(values, np.arange(0, values.size, block_size))
    return values


@dataclass
class BfpMetadata:
    """Hardware state of one converted BFP tensor."""

    #: raw exponent register fields, one per block (unsigned, ``exp_bits`` wide)
    exp_fields: np.ndarray
    #: elements per block (last block may be partial)
    block_size: int
    #: total element count of the converted tensor
    numel: int

    def copy(self) -> "BfpMetadata":
        return BfpMetadata(self.exp_fields.copy(), self.block_size, self.numel)


class BlockFloatingPoint(NumberFormat):
    """Sign-magnitude mantissas sharing per-block exponent registers."""

    kind = "bfp"
    has_metadata = True

    def __init__(self, exp_bits: int = 8, mantissa_bits: int = 7,
                 block_size: int | None = None):
        if exp_bits < 2:
            raise ValueError(f"need at least 2 exponent bits, got {exp_bits}")
        if not 1 <= mantissa_bits <= 127:
            # the float32 tensor path scales block peaks up to 2^mantissa_bits
            raise ValueError(f"need 1 to 127 mantissa bits, got {mantissa_bits}")
        if block_size is not None and block_size < 1:
            raise ValueError(f"block_size must be >= 1 or None, got {block_size}")
        # element bit width: sign + mantissa (exponent lives in metadata)
        super().__init__(bit_width=1 + mantissa_bits, radix=mantissa_bits)
        self.exp_bits = int(exp_bits)
        self.mantissa_bits = int(mantissa_bits)
        self.block_size = block_size
        self.exp_bias = (1 << (exp_bits - 1)) - 1
        self.max_exp_field = (1 << exp_bits) - 1
        self.max_mantissa = (1 << mantissa_bits) - 1

    def config(self) -> dict:
        return {
            "exp_bits": self.exp_bits,
            "mantissa_bits": self.mantissa_bits,
            "block_size": self.block_size,
        }

    @property
    def name(self) -> str:
        block = "tensor" if self.block_size is None else str(self.block_size)
        return f"bfp(e{self.exp_bits}m{self.mantissa_bits},b={block})"

    # ------------------------------------------------------------------
    # block helpers
    # ------------------------------------------------------------------
    def _block_of(self, flat_index: int) -> int:
        meta = self._require_metadata()
        if not 0 <= flat_index < meta.numel:
            raise IndexError(f"flat index {flat_index} outside tensor of {meta.numel} elements")
        return flat_index // meta.block_size

    def _shared_exponent(self, block: int) -> int:
        meta = self._require_metadata()
        return int(meta.exp_fields[block]) - self.exp_bias

    def _granularity(self, block: int) -> float:
        return 2.0 ** (self._shared_exponent(block) - self.mantissa_bits + 1)

    # ------------------------------------------------------------------
    # tensor path
    # ------------------------------------------------------------------
    def real_to_format_tensor(self, tensor: np.ndarray) -> np.ndarray:
        """Quantize on float32, one power-of-two scale per block.

        Every step is exact in float32 (the QPyTorch approach): ``ldexp`` by
        the block's integer shift only moves exponents, ``rint`` rounds half
        to even on the mantissa grid, and decoding scales the clipped
        mantissa back by the same power of two.
        """
        x = np.asarray(tensor, dtype=np.float32)
        flat = x.reshape(-1)
        numel = flat.size
        block_size = self.block_size or max(numel, 1)
        num_blocks = max((numel + block_size - 1) // block_size, 1)
        values = flat
        if num_blocks * block_size != numel:  # zero-pad the last block
            values = np.zeros(num_blocks * block_size, dtype=np.float32)
            values[:numel] = flat
        # non-negative float bit patterns order like their values, so the
        # integer max of |x|'s bits is the block peak
        mag = np.bitwise_and(values.view(np.uint32), 0x7FFFFFFF)
        peak_bits = _block_max(mag, block_size)

        # shared exponent from finite magnitudes only (upstream faults may
        # have produced inf/NaN, which must not blow up the exponent
        # register).  Only blocks whose raw peak is non-finite need a look.
        special = np.flatnonzero(peak_bits >= _INF_BITS)
        if special.size:
            rows = mag.reshape(num_blocks, block_size)[special]
            nans = rows > _INF_BITS
            peak_bits = peak_bits.copy()  # is ``mag`` itself at block_size 1
            peak_bits[special] = np.where(rows < _INF_BITS, rows, 0).max(axis=1)
        peak = peak_bits.view(np.float32)
        _, raw_exp = np.frexp(peak)
        # floor(log2 peak), clamped to the register; all-zero blocks masked below
        exp_fields = np.clip(raw_exp.astype(np.int64) - 1 + self.exp_bias,
                             0, self.max_exp_field)
        shift = (self.mantissa_bits - 1 + self.exp_bias - exp_fields).astype(np.int32)
        mant_limit = np.float32(2.0 ** self.mantissa_bits)  # max_mantissa + 1
        max_mant = np.float32(self.max_mantissa)

        # a saturated register scales magnitudes (and a carry into exponent
        # 128 the decoded peak) past FP32: inf, which then saturates.  NaNs
        # (signalling ones raise "invalid") are zeroed below.
        with np.errstate(over="ignore", invalid="ignore"):
            # rounding carry (see module docstring): when the block peak rounds
            # to max_mantissa + 1, bump the shared exponent instead of clipping
            # so the gran/2 error bound holds.  One bump always suffices: after
            # doubling the granularity the peak rounds to <= 2^(mantissa_bits - 1).
            carry = np.rint(np.ldexp(peak, shift)) >= mant_limit
            bump = carry & (exp_fields < self.max_exp_field)
            if bump.any():
                exp_fields = exp_fields + bump
                shift = shift - bump.astype(np.int32)
            self.metadata = BfpMetadata(exp_fields=exp_fields, block_size=block_size,
                                        numel=numel)

            # signed mantissas: rint is symmetric, so the sign rides along
            mant = np.ldexp(values.reshape(num_blocks, block_size), shift[:, None])
            np.rint(mant, out=mant)
            if self.stats_sink is not None:
                # raw mantissa past the register's reach = true dynamic-range
                # saturation (inf included; NaN never compares)
                saturated = int(np.count_nonzero(mant >= mant_limit)
                                + np.count_nonzero(mant <= -mant_limit))
            np.minimum(mant, max_mant, out=mant)
            np.maximum(mant, -max_mant, out=mant)
            if self.stats_sink is not None:
                # non-zero finite inputs whose mantissa rounded to 0
                flushed = int(np.count_nonzero(mag) - np.count_nonzero(mant))
            np.ldexp(mant, -shift[:, None], out=mant)

        # NaN has no sign-magnitude encoding; NaN and -0.0 inputs come out
        # +0.0, as does every element of a block with no finite non-zero
        # magnitude.  A negative value that rounds to zero stays -0.0.
        if special.size:
            rows = mant[special]
            rows[nans | (peak_bits[special] == 0)[:, None]] = 0.0
            mant[special] = rows
        result = mant.reshape(-1)[:numel]
        neg_zero = flat.view(np.uint32) == _SIGN_BIT
        if neg_zero.any():
            result[neg_zero] = 0.0
        result = result.reshape(x.shape)
        if self.stats_sink is not None:
            self.stats_sink.record(self, x, result,
                                   saturated=saturated, flushed=flushed,
                                   nan_remapped=int(np.count_nonzero(nans))
                                   if special.size else 0)
        return result

    # ------------------------------------------------------------------
    # scalar path ([sign | mantissa], block-relative)
    # ------------------------------------------------------------------
    def real_to_format(self, value: float, block: int = 0) -> Bitstring:
        """Encode ``value`` as it would be stored in ``block``.

        The shared exponent is metadata, so the element bitstring depends on
        which block the value lives in — scalar calls therefore take the block
        index (default 0, i.e. whole-tensor sharing).
        """
        granularity = self._granularity(block)
        value = float(value)
        if np.isnan(value):
            # sign-magnitude has no NaN encoding; the tensor path remaps NaN
            # to +0 (np.sign of a NaN block element is forced to 0), so the
            # scalar encoder stores sign 0 / mantissa 0 rather than crashing
            return [0] + uint_to_bits(0, self.mantissa_bits)
        # signbit, not ``< 0``: a -0.0 victim keeps its sign bit.  The tensor
        # path keeps the sign of a negative value that rounds to zero, but
        # maps a -0.0 *input* to +0.0, so the two paths disagree on -0.0.
        sign = 1 if np.signbit(value) else 0
        mant = int(np.clip(np.round(abs(value) / granularity), 0, self.max_mantissa))
        return [sign] + uint_to_bits(mant, self.mantissa_bits)

    def format_to_real(self, bits: Bitstring, block: int = 0) -> float:
        validate_bits(bits, self.bit_width)
        sign = -1.0 if bits[0] else 1.0
        mant = bits_to_uint(bits[1:])
        return float(sign * mant * self._granularity(block))

    # ------------------------------------------------------------------
    # metadata registers (one exponent register per block)
    # ------------------------------------------------------------------
    def num_metadata_registers(self) -> int:
        if self.metadata is None:
            return 0
        return len(self.metadata.exp_fields)

    def metadata_register_width(self) -> int:
        return self.exp_bits

    def get_metadata_bits(self, register: int = 0) -> Bitstring:
        meta = self._require_metadata()
        if not 0 <= register < len(meta.exp_fields):
            raise IndexError(f"block {register} out of range ({len(meta.exp_fields)} blocks)")
        return uint_to_bits(int(meta.exp_fields[register]), self.exp_bits)

    def set_metadata_bits(self, bits: Bitstring, register: int = 0) -> None:
        meta = self._require_metadata()
        validate_bits(bits, self.exp_bits)
        if not 0 <= register < len(meta.exp_fields):
            raise IndexError(f"block {register} out of range ({len(meta.exp_fields)} blocks)")
        meta.exp_fields[register] = bits_to_uint(bits)

    def apply_metadata_corruption(self, tensor: np.ndarray,
                                  original_metadata: BfpMetadata) -> np.ndarray:
        """Rescale each block by ``2^(E_new - E_old)``.

        A flipped shared-exponent bit is *read by every element of the block*,
        so in value space the whole block shifts by a power of two — a single
        metadata flip behaving as a tensor-wide multi-bit flip (§II-B).
        """
        if original_metadata is None:
            raise MetadataError("original metadata required")
        meta = self._require_metadata()
        x = np.asarray(tensor, dtype=np.float32)
        delta = (meta.exp_fields - original_metadata.exp_fields).astype(np.float64)
        flat = x.reshape(-1).astype(np.float64)
        padded = np.zeros(len(meta.exp_fields) * meta.block_size, dtype=np.float64)
        padded[: flat.size] = flat
        scaled = padded.reshape(len(meta.exp_fields), meta.block_size) * np.exp2(delta)[:, None]
        with np.errstate(over="ignore"):
            # a large corrupted exponent may legitimately overflow FP32 to inf
            return scaled.reshape(-1)[: flat.size].reshape(x.shape).astype(np.float32)
