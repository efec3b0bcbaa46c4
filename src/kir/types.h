// Type system of the KIR kernel IR.
//
// KIR mirrors the OpenCL C type universe the paper's kernels use: the four
// scalar types the Mali-T604 supports natively (fp32, fp64, int32, int64 —
// the T604 is the first embedded GPU with hardware fp64 and 64-bit integers)
// and their vector forms of 2/4/8/16 lanes, matching OpenCL's floatN/doubleN.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>

#include "common/status.h"

namespace malisim::kir {

enum class ScalarType : std::uint8_t { kF32 = 0, kF64, kI32, kI64 };
inline constexpr int kNumScalarTypes = 4;

inline constexpr bool IsFloat(ScalarType t) {
  return t == ScalarType::kF32 || t == ScalarType::kF64;
}
inline constexpr bool IsInt(ScalarType t) { return !IsFloat(t); }

inline constexpr std::uint32_t ScalarBytes(ScalarType t) {
  switch (t) {
    case ScalarType::kF32:
    case ScalarType::kI32:
      return 4;
    case ScalarType::kF64:
    case ScalarType::kI64:
      return 8;
  }
  return 0;
}

std::string ScalarTypeName(ScalarType t);

/// Maximum vector width (OpenCL float16 / double16).
inline constexpr std::uint8_t kMaxLanes = 16;

/// Index 0..4 for lane counts 1,2,4,8,16 (used by histogram tables).
inline constexpr int LaneIndex(std::uint8_t lanes) {
  switch (lanes) {
    case 1:
      return 0;
    case 2:
      return 1;
    case 4:
      return 2;
    case 8:
      return 3;
    case 16:
      return 4;
  }
  return -1;
}
inline constexpr int kNumLaneClasses = 5;

inline constexpr bool IsValidLanes(std::uint8_t lanes) {
  return LaneIndex(lanes) >= 0;
}

/// A (scalar, lanes) pair: f32x4 is OpenCL float4, and so on.
struct Type {
  ScalarType scalar = ScalarType::kF32;
  std::uint8_t lanes = 1;

  constexpr Type() = default;
  constexpr Type(ScalarType s, std::uint8_t l) : scalar(s), lanes(l) {}

  constexpr bool operator==(const Type&) const = default;

  constexpr bool is_scalar() const { return lanes == 1; }
  constexpr std::uint32_t bytes() const { return ScalarBytes(scalar) * lanes; }

  std::string ToString() const;
};

inline constexpr Type F32(std::uint8_t lanes = 1) { return {ScalarType::kF32, lanes}; }
inline constexpr Type F64(std::uint8_t lanes = 1) { return {ScalarType::kF64, lanes}; }
inline constexpr Type I32(std::uint8_t lanes = 1) { return {ScalarType::kI32, lanes}; }
inline constexpr Type I64(std::uint8_t lanes = 1) { return {ScalarType::kI64, lanes}; }

/// Floating type of the requested precision: Float(false)=f32, Float(true)=f64.
/// Benchmarks use this to build SP and DP kernel variants from one source.
inline constexpr Type FloatType(bool fp64, std::uint8_t lanes = 1) {
  return {fp64 ? ScalarType::kF64 : ScalarType::kF32, lanes};
}

/// Storage for one virtual register value: the widest case is 16 x 8-byte
/// lanes. Lanes beyond the register's type are kept zeroed.
union RegValue {
  float f32[kMaxLanes];
  double f64[kMaxLanes];
  std::int32_t i32[kMaxLanes];
  std::int64_t i64[kMaxLanes];
  std::uint8_t raw[kMaxLanes * 8];
};
static_assert(sizeof(RegValue) == 128);

/// KIR integer add/sub/mul/neg wrap in two's complement, as GPU integer
/// units do. They are computed in the unsigned type because signed overflow
/// is undefined behaviour in C++; the VM, the constant folder and the
/// reference interpreter all use these, so they agree bit for bit.
template <typename T>
constexpr T WrapAdd(T a, T b) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
}
template <typename T>
constexpr T WrapSub(T a, T b) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
}
template <typename T>
constexpr T WrapMul(T a, T b) {
  using U = std::make_unsigned_t<T>;
  return static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
}
template <typename T>
constexpr T WrapNeg(T a) {
  return WrapSub(T{0}, a);
}
/// |a|, with abs(MIN) == MIN: the bit pattern of OpenCL's unsigned abs().
template <typename T>
constexpr T WrapAbs(T a) {
  return a < 0 ? WrapNeg(a) : a;
}

/// Float -> integer conversion with saturation: out-of-range values clamp
/// to the target's MIN/MAX and NaN converts to 0, the rule of OpenCL's
/// convert_<int>_sat and the A15's VCVT. (A plain static_cast of such a
/// value is undefined behaviour.) Every f32 source is widened to double
/// first, exactly.
template <typename I>
constexpr I SatConvert(double v) {
  if (v != v) return I{0};
  if (v >= static_cast<double>(std::numeric_limits<I>::max())) {
    return std::numeric_limits<I>::max();
  }
  if (v <= static_cast<double>(std::numeric_limits<I>::min())) {
    return std::numeric_limits<I>::min();
  }
  return static_cast<I>(v);
}

/// True when a / b or a % b has no representable quotient (MIN / -1). It
/// traps on the host, so KIR faults on it like on a zero divisor.
template <typename T>
constexpr bool DivOverflows(T a, T b) {
  return b == T{-1} && a == std::numeric_limits<T>::min();
}

}  // namespace malisim::kir
