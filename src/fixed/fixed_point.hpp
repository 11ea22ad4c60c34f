// 32-bit signed Q-format fixed-point arithmetic with saturation.
//
// The paper's FPGA core stores inputs, weights (alpha, beta) and all
// intermediate results as "32-bit Q20" numbers (§4.2): 1 sign bit,
// 11 integer bits, 20 fractional bits. Fixed<20> reproduces that format;
// the template parameter exists so precision-ablation benches can sweep
// other splits of the 32-bit word.
//
// Semantics match a typical HLS implementation:
//   * multiplication keeps a 64-bit intermediate, rounds to nearest, then
//     saturates into the 32-bit result;
//   * division widens the dividend by FracBits before the integer divide;
//   * saturation events are counted in fixed::overflow_stats(); NaN
//     converts to zero and counts as a conversion saturation.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

#include "fixed/overflow_stats.hpp"

namespace oselm::fixed {

template <int FracBits>
class Fixed {
  static_assert(FracBits > 0 && FracBits < 31,
                "Fixed: fractional bits must be in (0, 31)");

 public:
  static constexpr int kFracBits = FracBits;
  static constexpr int kIntBits = 31 - FracBits;  // excluding sign
  static constexpr std::int64_t kOne = std::int64_t{1} << FracBits;
  static constexpr std::int32_t kRawMax =
      std::numeric_limits<std::int32_t>::max();
  static constexpr std::int32_t kRawMin =
      std::numeric_limits<std::int32_t>::min();

  constexpr Fixed() noexcept = default;

  /// Converts from double with round-to-nearest and saturation. NaN has
  /// no value to saturate to: it maps to zero and counts as a conversion
  /// saturation.
  static Fixed from_double(double value) noexcept {
    if (std::isnan(value)) {
      ++overflow_stats().conversion_saturations;
      return zero();
    }
    const double scaled = value * static_cast<double>(kOne);
    if (scaled >= static_cast<double>(kRawMax)) {
      ++overflow_stats().conversion_saturations;
      return from_raw(kRawMax);
    }
    if (scaled <= static_cast<double>(kRawMin)) {
      ++overflow_stats().conversion_saturations;
      return from_raw(kRawMin);
    }
    const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
    return from_raw(static_cast<std::int32_t>(rounded));
  }

  static constexpr Fixed from_raw(std::int32_t raw) noexcept {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  static constexpr Fixed from_int(std::int32_t value) noexcept {
    return from_raw(saturate(static_cast<std::int64_t>(value) << FracBits));
  }

  [[nodiscard]] constexpr std::int32_t raw() const noexcept { return raw_; }

  [[nodiscard]] double to_double() const noexcept {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  static constexpr Fixed zero() noexcept { return from_raw(0); }
  static constexpr Fixed one() noexcept {
    return from_raw(static_cast<std::int32_t>(kOne));
  }
  static constexpr Fixed max() noexcept { return from_raw(kRawMax); }
  static constexpr Fixed min() noexcept { return from_raw(kRawMin); }
  /// Smallest positive representable increment (1 ulp).
  static constexpr Fixed epsilon() noexcept { return from_raw(1); }

  friend Fixed operator+(Fixed a, Fixed b) noexcept {
    const std::int64_t sum =
        static_cast<std::int64_t>(a.raw_) + static_cast<std::int64_t>(b.raw_);
    if (sum > kRawMax || sum < kRawMin) ++overflow_stats().add_saturations;
    return from_raw(saturate(sum));
  }

  friend Fixed operator-(Fixed a, Fixed b) noexcept {
    const std::int64_t diff =
        static_cast<std::int64_t>(a.raw_) - static_cast<std::int64_t>(b.raw_);
    if (diff > kRawMax || diff < kRawMin) ++overflow_stats().add_saturations;
    return from_raw(saturate(diff));
  }

  friend Fixed operator*(Fixed a, Fixed b) noexcept {
    std::int64_t product =
        static_cast<std::int64_t>(a.raw_) * static_cast<std::int64_t>(b.raw_);
    // Round to nearest before discarding FracBits. Adding the half-ulp
    // bias and arithmetic-shifting implements round-half-up for both
    // signs (Vivado HLS AP_RND semantics); subtracting for negatives
    // would corrupt exact products.
    const std::int64_t bias = std::int64_t{1} << (FracBits - 1);
    product += bias;
    const std::int64_t shifted = product >> FracBits;
    if (shifted > kRawMax || shifted < kRawMin) {
      ++overflow_stats().mul_saturations;
    }
    return from_raw(saturate(shifted));
  }

  friend Fixed operator/(Fixed a, Fixed b) noexcept {
    if (b.raw_ == 0) {
      ++overflow_stats().div_by_zero;
      return a.raw_ >= 0 ? max() : min();
    }
    const std::int64_t widened = static_cast<std::int64_t>(a.raw_)
                                 << FracBits;
    const std::int64_t quotient = widened / static_cast<std::int64_t>(b.raw_);
    if (quotient > kRawMax || quotient < kRawMin) {
      ++overflow_stats().div_saturations;
    }
    return from_raw(saturate(quotient));
  }

  constexpr Fixed operator-() const noexcept {
    if (raw_ == kRawMin) return max();  // |INT32_MIN| saturates
    return from_raw(-raw_);
  }

  Fixed& operator+=(Fixed other) noexcept { return *this = *this + other; }
  Fixed& operator-=(Fixed other) noexcept { return *this = *this - other; }
  Fixed& operator*=(Fixed other) noexcept { return *this = *this * other; }
  Fixed& operator/=(Fixed other) noexcept { return *this = *this / other; }

  constexpr auto operator<=>(const Fixed&) const noexcept = default;

 private:
  static constexpr std::int32_t saturate(std::int64_t wide) noexcept {
    if (wide > kRawMax) return kRawMax;
    if (wide < kRawMin) return kRawMin;
    return static_cast<std::int32_t>(wide);
  }

  std::int32_t raw_ = 0;
};

/// The paper's format: 32-bit word, 20 fractional bits ("Q20", §4.2).
using Q20 = Fixed<20>;

template <int F>
Fixed<F> abs(Fixed<F> x) noexcept {
  return x < Fixed<F>::zero() ? -x : x;
}

template <int F>
Fixed<F> clamp(Fixed<F> x, Fixed<F> lo, Fixed<F> hi) noexcept {
  if (x < lo) return lo;
  if (x > hi) return hi;
  return x;
}

/// ReLU, the paper's activation (G(x) = x if x >= 0 else 0).
template <int F>
Fixed<F> relu(Fixed<F> x) noexcept {
  return x < Fixed<F>::zero() ? Fixed<F>::zero() : x;
}

/// Newton–Raphson reciprocal: models an FPGA divider that computes 1/x
/// with multiply-only iterations. Exposed for the precision ablation; the
/// seq_train datapath uses the exact operator/ (a pipelined divider).
template <int F>
Fixed<F> reciprocal_nr(Fixed<F> x, int iterations = 4) noexcept {
  using Fx = Fixed<F>;
  if (x.raw() == 0) {
    ++overflow_stats().div_by_zero;
    return Fx::max();
  }
  const bool negative = x < Fx::zero();
  Fx ax = abs(x);
  // Scale ax into [0.5, 1) by counting leading bits, seed with the
  // classic linear estimate 48/17 - 32/17 * ax, then iterate
  // y <- y * (2 - ax * y); finally undo the scaling.
  int shift = 0;
  while (ax >= Fx::one()) {
    ax = Fx::from_raw(ax.raw() >> 1);
    ++shift;
  }
  while (ax.raw() != 0 &&
         ax < Fx::from_double(0.5)) {
    ax = Fx::from_raw(ax.raw() << 1);
    --shift;
  }
  Fx y = Fx::from_double(48.0 / 17.0) - Fx::from_double(32.0 / 17.0) * ax;
  const Fx two = Fx::from_int(2);
  for (int i = 0; i < iterations; ++i) y = y * (two - ax * y);
  // 1/x = (1/ax) >> shift (ax = x * 2^-shift => 1/x = (1/ax) * 2^-shift).
  std::int64_t raw = y.raw();
  if (shift > 0) {
    raw >>= shift;
  } else if (shift < 0) {
    const int up = -shift;
    if (up < 62) raw <<= up;
  }
  if (raw > Fx::kRawMax) raw = Fx::kRawMax;
  Fx out = Fx::from_raw(static_cast<std::int32_t>(raw));
  return negative ? -out : out;
}

}  // namespace oselm::fixed
