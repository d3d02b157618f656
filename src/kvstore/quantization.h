#ifndef RTREC_KVSTORE_QUANTIZATION_H_
#define RTREC_KVSTORE_QUANTIZATION_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rtrec {

/// Storage width of one latent factor in the FactorStore. The serving
/// and training APIs always speak float32 `FactorEntry`s; the store
/// quantizes on write and dequantizes on read, so precision is purely a
/// memory/accuracy trade:
///
///  - kFloat32 — lossless, 4 bytes/factor (the pre-quantization format);
///  - kFloat16 — IEEE 754 half, 2 bytes/factor, ~3 decimal digits.
///    Round-trips through float32 exactly, so repeated read-modify-write
///    cycles never drift beyond the initial rounding.
///
/// The values are the checkpoint's precision tag. Tag 2 was an int8
/// store with a per-vector scale; nothing deployed it, and a file that
/// carries it is now rejected as corrupt.
enum class FactorPrecision : std::uint8_t {
  kFloat32 = 0,
  kFloat16 = 1,
};

inline const char* FactorPrecisionToString(FactorPrecision precision) {
  return precision == FactorPrecision::kFloat16 ? "float16" : "float32";
}

/// Bytes per factor under `precision`.
inline std::size_t FactorWidthBytes(FactorPrecision precision) {
  return precision == FactorPrecision::kFloat16 ? 2 : 4;
}

/// float32 -> IEEE 754 binary16, round-to-nearest-even, with subnormal
/// and Inf/NaN handling. Values above the half range round to ±Inf.
inline std::uint16_t EncodeHalf(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint16_t sign = static_cast<std::uint16_t>((f >> 16) & 0x8000u);
  const std::uint32_t biased_exp = (f >> 23) & 0xFFu;
  std::uint32_t mant = f & 0x7FFFFFu;
  if (biased_exp == 0xFFu) {  // Inf / NaN propagate (NaN keeps a payload bit).
    return sign | 0x7C00u | (mant != 0 ? 0x0200u : 0u);
  }
  const std::int32_t exp = static_cast<std::int32_t>(biased_exp) - 127 + 15;
  if (exp >= 0x1F) return sign | 0x7C00u;  // Overflow -> Inf.
  if (exp <= 0) {
    // Half subnormal (or underflow to zero): shift the 24-bit significand
    // down so the result is mant_h * 2^-24, rounding to nearest-even.
    if (exp < -10) return sign;
    mant |= 0x800000u;  // Implicit leading bit.
    const std::uint32_t shift = static_cast<std::uint32_t>(14 - exp);
    std::uint32_t half_mant = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1u);
    const std::uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mant & 1u))) ++half_mant;
    // A carry out of the subnormal range lands on exponent 1 — correct.
    return sign | static_cast<std::uint16_t>(half_mant);
  }
  std::uint32_t half =
      (static_cast<std::uint32_t>(exp) << 10) | (mant >> 13);
  const std::uint32_t rem = mant & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  if (half >= 0x7C00u) return sign | 0x7C00u;  // Rounded up to Inf.
  return sign | static_cast<std::uint16_t>(half);
}

/// IEEE 754 binary16 -> float32 (exact; every half is representable).
inline float DecodeHalf(std::uint16_t half) {
  const std::uint32_t sign =
      static_cast<std::uint32_t>(half & 0x8000u) << 16;
  std::uint32_t exp = (half >> 10) & 0x1Fu;
  std::uint32_t mant = half & 0x3FFu;
  std::uint32_t bits;
  if (exp == 0x1Fu) {
    bits = sign | 0x7F800000u | (mant << 13);
  } else if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // ±0.
    } else {
      // Normalize the subnormal: value = mant * 2^-24.
      std::uint32_t e = 113;  // 127 - 14, pre-decrement for the first shift.
      while (!(mant & 0x400u)) {
        mant <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((mant & 0x3FFu) << 13);
    }
  } else {
    bits = sign | ((exp - 15 + 127) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(bits);
}

/// Quantizes `n` floats into `out` (n * FactorWidthBytes(precision)
/// bytes). NaN/Inf inputs are the caller's bug — training keeps factors
/// finite.
inline void QuantizeVector(FactorPrecision precision, const float* in,
                           std::size_t n, std::byte* out) {
  if (precision == FactorPrecision::kFloat32) {
    std::memcpy(out, in, n * sizeof(float));
    return;
  }
  auto* half = reinterpret_cast<std::uint16_t*>(out);
  for (std::size_t i = 0; i < n; ++i) half[i] = EncodeHalf(in[i]);
}

/// Inverse of QuantizeVector.
inline void DequantizeVector(FactorPrecision precision, const std::byte* in,
                             std::size_t n, float* out) {
  if (precision == FactorPrecision::kFloat32) {
    std::memcpy(out, in, n * sizeof(float));
    return;
  }
  const auto* half = reinterpret_cast<const std::uint16_t*>(in);
  for (std::size_t i = 0; i < n; ++i) out[i] = DecodeHalf(half[i]);
}

}  // namespace rtrec

#endif  // RTREC_KVSTORE_QUANTIZATION_H_
