// AVX2/FMA kernel set. Compiled with -mavx2 -mfma (see src/CMakeLists.txt)
// and only ever entered through the runtime dispatcher in kernels.cpp, so
// no instruction here executes on a CPU without both features.
//
// Double kernels: every multiply-accumulate step is a fused multiply-add
// (vector vfmadd lanes and std::fma scalar tails are the same operation),
// so an element's value never depends on which lane group it landed in.
// The only order-sensitive operation is the dot-product reduction; dot()
// and fused_act_dot() share one reduction structure (two 4-wide
// accumulators over 8-element blocks, a fixed horizontal sum, then a
// sequential fma tail) so they stay bit-identical to each other. matvec()
// has its own (four rows reduced together), so its rows are not dot()'s
// bits. sym_update() has no reduction at all and equals the scalar set.
//
// Q20 kernels: one exactness idiom — prove cheaply that no saturation can
// occur, then run a wrap-free path on 8 int32 words per vector; whenever
// the proof fails, recompute that row or group through the scalar
// q20detail primitives, so values AND saturation counters match the
// reference. Products come from even/odd _mm256_mul_epi32 pairs (the odd
// words shifted down by 32); bits [20, 52) of `product + 2^19` are the
// rounded Q20 product whenever it fits in int32, and they are repacked
// into 8 int32 lanes.
//   * Dot-style kernels (q20_dot, q20_matvec, q20_hidden_mac,
//     q20_action_dot) pick the largest k with |init| + n * 2^k <=
//     INT32_MAX and OR-accumulate w = p + 2^19 + 2^(k+20). If no w has a
//     bit at or above k+21, every rounded term lies in [-2^k, 2^k), so no
//     multiply saturates and every prefix of the sequential sum stays
//     inside int32: the saturating sum equals init + sum(w >> 20) -
//     n * 2^k, which wrapping arithmetic computes exactly.
//   * Element-wise kernels (q20_rank1_downdate, q20_axpy) check in O(n)
//     that |scale| * max|u| + 2^19 < 2^51, so no multiply saturates; the
//     int32 add/sub then gets a per-group signed-overflow test.
// Tail lanes are masked loads of zero, which contribute exactly the bare
// offset and are never stored.
#if defined(OSELM_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/kernels.hpp"
#include "linalg/kernels_q20_inline.hpp"

namespace oselm::linalg::kernels::avx2 {

namespace {

// -- double helpers ---------------------------------------------------------

/// Fixed horizontal sum: (v0 + v2) + (v1 + v3) via 128-bit halves.
inline double hsum(__m256d v) noexcept {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  const __m128d high = _mm_unpackhi_pd(pair, pair);
  return _mm_cvtsd_f64(_mm_add_sd(pair, high));
}

/// ReLU that matches the scalar `x >= 0.0 ? x : 0.0` bit-for-bit
/// (keeps -0.0, returns +0.0 for negatives).
inline __m256d relu_pd(__m256d v) noexcept {
  const __m256d keep = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_GE_OQ);
  return _mm256_and_pd(v, keep);
}

inline double act_scalar(Act act, double x) noexcept {
  switch (act) {
    case Act::kReLU:
      return x >= 0.0 ? x : 0.0;
    case Act::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case Act::kTanh:
      return std::tanh(x);
    case Act::kLinear:
      return x;
  }
  return x;
}

/// The symmetric-update sweep: P_ij <- fma(-sigma * w_i, w_j, P_ij), then
/// * p_scale when kScale (the * 1.0 it skips is exact, so both
/// instantiations equal the scalar set's fma-then-scale bit for bit).
template <bool kScale>
void sym_update_sweep(double* p, std::size_t n, const double* w,
                      double sigma, double p_scale) noexcept {
  const __m256d ps = _mm256_set1_pd(p_scale);
  const auto scale = [ps](__m256d v) noexcept {
    return kScale ? _mm256_mul_pd(v, ps) : v;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double a = -sigma * w[i];
    const __m256d av = _mm256_set1_pd(a);
    double* row = p + i * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256d t0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + j),
                                         _mm256_loadu_pd(row + j));
      const __m256d t1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + j + 4),
                                         _mm256_loadu_pd(row + j + 4));
      _mm256_storeu_pd(row + j, scale(t0));
      _mm256_storeu_pd(row + j + 4, scale(t1));
    }
    if (j + 4 <= n) {
      const __m256d t = _mm256_fmadd_pd(av, _mm256_loadu_pd(w + j),
                                        _mm256_loadu_pd(row + j));
      _mm256_storeu_pd(row + j, scale(t));
      j += 4;
    }
    for (; j < n; ++j) {
      const double t = std::fma(a, w[j], row[j]);
      row[j] = kScale ? t * p_scale : t;
    }
  }
}

// -- Q20 helpers ------------------------------------------------------------
//
// Vector constants are materialized per call site (the compiler hoists them
// out of loops); a namespace-scope __m256i constant would run AVX
// instructions during static initialization, before the runtime dispatcher
// can rule them out.

using q20detail::kFrac;
using q20detail::kRawMax;
using q20detail::kRoundBias;

/// All-ones in the first `count` int32 lanes (count in [0, 8]).
inline __m256i lane_mask(std::size_t count) noexcept {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Loads the first `count` words of a group, zeros elsewhere.
inline __m256i load_group(const std::int32_t* p, std::size_t count) noexcept {
  return count == 8
             ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))
             : _mm256_maskload_epi32(p, lane_mask(count));
}

inline void store_group(std::int32_t* p, std::size_t count,
                        __m256i v) noexcept {
  if (count == 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  } else {
    _mm256_maskstore_epi32(p, lane_mask(count), v);
  }
}

/// int64 lanes of a[i] * b[i] + offset for the even and the odd words.
struct Wide8 {
  __m256i even;
  __m256i odd;
};

inline Wide8 offset_products(__m256i a, __m256i b, __m256i offset) noexcept {
  const __m256i even = _mm256_mul_epi32(a, b);
  const __m256i odd =
      _mm256_mul_epi32(_mm256_srli_epi64(a, 32), _mm256_srli_epi64(b, 32));
  return {_mm256_add_epi64(even, offset), _mm256_add_epi64(odd, offset)};
}

/// Bits [20, 52) of every lane, back in 8 int32 words in lane order.
inline __m256i frac_words(const Wide8& w) noexcept {
  return _mm256_blend_epi32(_mm256_srli_epi64(w.even, kFrac),
                            _mm256_slli_epi64(w.odd, 32 - kFrac), 0xAA);
}

/// Any int32 lane with its sign bit set.
inline bool any_sign(__m256i v) noexcept {
  return _mm256_movemask_ps(_mm256_castsi256_ps(v)) != 0;
}

inline std::int64_t hsum64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i pair = _mm_add_epi64(lo, hi);
  return _mm_extract_epi64(pair, 0) + _mm_extract_epi64(pair, 1);
}

inline std::uint64_t abs_u64(std::int32_t v) noexcept {
  return v < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(v)
               : static_cast<std::uint64_t>(v);
}

/// Calls step(j, count) over consecutive groups of 8 words, then once for
/// a partial tail group; full groups pass a constant 8 so the group masks
/// fold away.
template <typename Step>
inline void for_each_group(std::size_t n, Step&& step) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) step(j, std::size_t{8});
  if (j < n) step(j, n - j);
}

inline std::uint64_t max_abs(const std::int32_t* v, std::size_t n) noexcept {
  // abs_epi32 leaves INT32_MIN as 0x80000000, which is 2^31 unsigned.
  __m256i m = _mm256_setzero_si256();
  for_each_group(n, [&](std::size_t j, std::size_t count) {
    m = _mm256_max_epu32(m, _mm256_abs_epi32(load_group(v + j, count)));
  });
  m = _mm256_max_epu32(m, _mm256_permute2x128_si256(m, m, 1));
  m = _mm256_max_epu32(m, _mm256_shuffle_epi32(m, 0x4E));
  m = _mm256_max_epu32(m, _mm256_shuffle_epi32(m, 0xB1));
  return static_cast<std::uint32_t>(_mm256_cvtsi256_si32(m));
}

/// The dot-style range proof for terms in [-2^k, 2^k) (see the header).
struct TermRange {
  __m256i offset;       ///< 2^19 + 2^(k+20) in every int64 lane
  __m256i outside;      ///< bits at or above k+21
  std::int64_t excess;  ///< 2^k, what each term's w >> 20 overstates
};

inline TermRange term_range(int k) noexcept {
  const std::int64_t limit = std::int64_t{1} << (k + kFrac + 1);
  return {_mm256_set1_epi64x(kRoundBias + (limit >> 1)),
          _mm256_set1_epi64x(-limit), std::int64_t{1} << k};
}

/// Largest k with max_abs_init + n * 2^k <= INT32_MAX, or -1 if none.
inline int proof_k(std::uint64_t max_abs_init, std::size_t n) noexcept {
  const auto raw_max = static_cast<std::uint64_t>(kRawMax);
  if (max_abs_init > raw_max) return -1;
  const std::uint64_t per_term =
      (raw_max - max_abs_init) / std::max<std::size_t>(n, 1);
  return static_cast<int>(std::bit_width(per_term)) - 1;  // -1 when 0
}

/// Dot-style accumulator: the int64 sum of w >> 20 and the OR of every w.
struct ProvenSum {
  __m256i sum = _mm256_setzero_si256();
  __m256i bits = _mm256_setzero_si256();
  std::size_t terms = 0;  ///< lanes added, masked tail lanes included

  void add(__m256i a, __m256i b, const TermRange& range) noexcept {
    const Wide8 w = offset_products(a, b, range.offset);
    bits = _mm256_or_si256(bits, _mm256_or_si256(w.even, w.odd));
    sum = _mm256_add_epi64(
        sum, _mm256_add_epi64(_mm256_srli_epi64(w.even, kFrac),
                              _mm256_srli_epi64(w.odd, kFrac)));
    terms += 8;
  }

  [[nodiscard]] bool proven(const TermRange& range) const noexcept {
    return _mm256_testz_si256(bits, range.outside) != 0;
  }

  /// init + the exact sum of the rounded terms (valid once proven()).
  [[nodiscard]] std::int32_t result(std::int32_t init,
                                    const TermRange& range) const noexcept {
    return static_cast<std::int32_t>(
        init + hsum64(sum) - static_cast<std::int64_t>(terms) * range.excess);
  }
};

/// Range-proved init + sum a[j] * b[j]; false (nothing written) when the
/// proof fails.
inline bool proven_dot(const std::int32_t* a, const std::int32_t* b,
                       std::size_t n, std::int32_t init,
                       const TermRange& range, std::int32_t& out) noexcept {
  ProvenSum acc;
  for_each_group(n, [&](std::size_t j, std::size_t count) {
    acc.add(load_group(a + j, count), load_group(b + j, count), range);
  });
  if (!acc.proven(range)) return false;
  out = acc.result(init, range);
  return true;
}

/// row[j] = row[j] -/+ q_mul(scale, u[j]) for j in [begin, end) through
/// the scalar primitives (which count the saturations).
template <bool kSubtract>
void scalar_scaled_update(std::int32_t* row, std::int32_t scale,
                          const std::int32_t* u, std::size_t begin,
                          std::size_t end, Q20SatCounts& sat) noexcept {
  for (std::size_t j = begin; j < end; ++j) {
    const std::int32_t prod = q20detail::q_mul(scale, u[j], sat);
    row[j] = kSubtract ? q20detail::q_sub(row[j], prod, sat)
                       : q20detail::q_add(row[j], prod, sat);
  }
}

/// The element-wise kernels' proof: q_mul(scale, u[j]) cannot saturate.
inline bool products_fit(std::uint64_t abs_scale,
                         std::uint64_t max_abs_u) noexcept {
  return abs_scale * max_abs_u + static_cast<std::uint64_t>(kRoundBias) <
         (std::uint64_t{1} << 51);
}

/// row[j] = row[j] -/+ q_mul(scale, u[j]) for j < n. When products_fit()
/// no multiply saturates and its rounded value is bits [20, 52) of
/// scale * u[j] + 2^19; a group whose int32 add/sub then overflows is
/// recomputed through the scalar primitives before anything is stored.
/// Otherwise the whole row takes the scalar path.
template <bool kSubtract>
void scaled_update(std::int32_t* row, std::int32_t scale,
                   const std::int32_t* u, std::size_t n,
                   std::uint64_t max_abs_u, Q20SatCounts& sat) noexcept {
  if (!products_fit(abs_u64(scale), max_abs_u)) {
    scalar_scaled_update<kSubtract>(row, scale, u, 0, n, sat);
    return;
  }
  const __m256i sv = _mm256_set1_epi32(scale);
  const __m256i bias = _mm256_set1_epi64x(kRoundBias);
  for_each_group(n, [&](std::size_t j, std::size_t count) {
    const __m256i r = load_group(row + j, count);
    const __m256i m =
        frac_words(offset_products(sv, load_group(u + j, count), bias));
    const __m256i out =
        kSubtract ? _mm256_sub_epi32(r, m) : _mm256_add_epi32(r, m);
    // Signed overflow iff the result's sign differs from both operands'
    // (add) or from the minuend's when the operands' signs differ (sub).
    const __m256i overflow =
        kSubtract ? _mm256_and_si256(_mm256_xor_si256(r, m),
                                     _mm256_xor_si256(r, out))
                  : _mm256_and_si256(_mm256_xor_si256(r, out),
                                     _mm256_xor_si256(m, out));
    if (any_sign(overflow)) {
      scalar_scaled_update<kSubtract>(row, scale, u, j, j + count, sat);
    } else {
      store_group(row + j, count, out);
    }
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Double kernels
// ---------------------------------------------------------------------------

double dot(const double* a, const double* b, std::size_t n) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
  }
  if (j + 4 <= n) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    j += 4;
  }
  double sum = hsum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) sum = std::fma(a[j], b[j], sum);
  return sum;
}

void axpy(double* y, double a, const double* x, std::size_t n) noexcept {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
    _mm256_storeu_pd(
        y + j + 4, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j + 4),
                                   _mm256_loadu_pd(y + j + 4)));
  }
  if (j + 4 <= n) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(av, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
    j += 4;
  }
  for (; j < n; ++j) y[j] = std::fma(a, x[j], y[j]);
}

void bias_activate(double* h, const double* bias, std::size_t n,
                   Act act) noexcept {
  if (act == Act::kSigmoid || act == Act::kTanh) {
    // Transcendental activations stay on libm in every mode.
    for (std::size_t j = 0; j < n; ++j) {
      h[j] = act_scalar(act, h[j] + bias[j]);
    }
    return;
  }
  const bool relu = act == Act::kReLU;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d t = _mm256_add_pd(_mm256_loadu_pd(h + j),
                              _mm256_loadu_pd(bias + j));
    if (relu) t = relu_pd(t);
    _mm256_storeu_pd(h + j, t);
  }
  for (; j < n; ++j) h[j] = act_scalar(act, h[j] + bias[j]);
}

void act_combine(const double* shared, const double* last_row, double code,
                 const double* bias, double* h_out, std::size_t n,
                 Act act) noexcept {
  if (act == Act::kSigmoid || act == Act::kTanh) {
    // fma matches the vector lanes of axpy/act_combine elsewhere in this
    // TU, so every element sees identical arithmetic regardless of path.
    for (std::size_t j = 0; j < n; ++j) {
      h_out[j] =
          act_scalar(act, std::fma(code, last_row[j], shared[j]) + bias[j]);
    }
    return;
  }
  const bool relu = act == Act::kReLU;
  const __m256d codev = _mm256_set1_pd(code);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d t = _mm256_fmadd_pd(codev, _mm256_loadu_pd(last_row + j),
                                _mm256_loadu_pd(shared + j));
    t = _mm256_add_pd(t, _mm256_loadu_pd(bias + j));
    if (relu) t = relu_pd(t);
    _mm256_storeu_pd(h_out + j, t);
  }
  for (; j < n; ++j) {
    const double t = std::fma(code, last_row[j], shared[j]) + bias[j];
    h_out[j] = act_scalar(act, t);
  }
}

double fused_act_dot(const double* shared, const double* last_row,
                     double code, const double* bias, const double* beta,
                     std::size_t n, Act act) noexcept {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t j = 0;
  if (act == Act::kReLU || act == Act::kLinear) {
    const bool relu = act == Act::kReLU;
    const __m256d codev = _mm256_set1_pd(code);
    const auto h4 = [&](std::size_t at) noexcept {
      __m256d t = _mm256_fmadd_pd(codev, _mm256_loadu_pd(last_row + at),
                                  _mm256_loadu_pd(shared + at));
      t = _mm256_add_pd(t, _mm256_loadu_pd(bias + at));
      return relu ? relu_pd(t) : t;
    };
    for (; j + 8 <= n; j += 8) {
      acc0 = _mm256_fmadd_pd(h4(j), _mm256_loadu_pd(beta + j), acc0);
      acc1 = _mm256_fmadd_pd(h4(j + 4), _mm256_loadu_pd(beta + j + 4), acc1);
    }
    if (j + 4 <= n) {
      acc0 = _mm256_fmadd_pd(h4(j), _mm256_loadu_pd(beta + j), acc0);
      j += 4;
    }
  } else {
    // Sigmoid/tanh: compute activations through libm into a staging block,
    // keeping the exact dot() reduction structure over the lanes.
    alignas(32) double buf[8];
    const auto fill = [&](std::size_t at, std::size_t count) noexcept {
      for (std::size_t k = 0; k < count; ++k) {
        const double t =
            std::fma(code, last_row[at + k], shared[at + k]) + bias[at + k];
        buf[k] = act_scalar(act, t);
      }
    };
    for (; j + 8 <= n; j += 8) {
      fill(j, 8);
      acc0 = _mm256_fmadd_pd(_mm256_load_pd(buf), _mm256_loadu_pd(beta + j),
                             acc0);
      acc1 = _mm256_fmadd_pd(_mm256_load_pd(buf + 4),
                             _mm256_loadu_pd(beta + j + 4), acc1);
    }
    if (j + 4 <= n) {
      fill(j, 4);
      acc0 = _mm256_fmadd_pd(_mm256_load_pd(buf), _mm256_loadu_pd(beta + j),
                             acc0);
      j += 4;
    }
  }
  double sum = hsum(_mm256_add_pd(acc0, acc1));
  for (; j < n; ++j) {
    const double t = std::fma(code, last_row[j], shared[j]) + bias[j];
    sum = std::fma(act_scalar(act, t), beta[j], sum);
  }
  return sum;
}

void matvec(const double* a, std::size_t rows, std::size_t cols,
            const double* x, double* y) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= rows; i += 4) {
    const double* r0 = a + i * cols;
    const double* r1 = r0 + cols;
    const double* r2 = r1 + cols;
    const double* r3 = r2 + cols;
    // Two accumulators per row: eight independent FMA chains.
    __m256d s0 = _mm256_setzero_pd(), t0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd(), t1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd(), t2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd(), t3 = _mm256_setzero_pd();
    std::size_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256d x0 = _mm256_loadu_pd(x + j);
      const __m256d x1 = _mm256_loadu_pd(x + j + 4);
      s0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), x0, s0);
      t0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j + 4), x1, t0);
      s1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), x0, s1);
      t1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j + 4), x1, t1);
      s2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j), x0, s2);
      t2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j + 4), x1, t2);
      s3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j), x0, s3);
      t3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j + 4), x1, t3);
    }
    if (j + 4 <= cols) {
      const __m256d x0 = _mm256_loadu_pd(x + j);
      s0 = _mm256_fmadd_pd(_mm256_loadu_pd(r0 + j), x0, s0);
      s1 = _mm256_fmadd_pd(_mm256_loadu_pd(r1 + j), x0, s1);
      s2 = _mm256_fmadd_pd(_mm256_loadu_pd(r2 + j), x0, s2);
      s3 = _mm256_fmadd_pd(_mm256_loadu_pd(r3 + j), x0, s3);
      j += 4;
    }
    // One reduction for all four rows: hadd pairs lanes within each
    // 128-bit half, the cross-half add finishes, and lane r is row i + r.
    const __m256d h01 =
        _mm256_hadd_pd(_mm256_add_pd(s0, t0), _mm256_add_pd(s1, t1));
    const __m256d h23 =
        _mm256_hadd_pd(_mm256_add_pd(s2, t2), _mm256_add_pd(s3, t3));
    _mm256_storeu_pd(y + i,
                     _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                                   _mm256_permute2f128_pd(h01, h23, 0x31)));
    for (; j < cols; ++j) {
      y[i] = std::fma(r0[j], x[j], y[i]);
      y[i + 1] = std::fma(r1[j], x[j], y[i + 1]);
      y[i + 2] = std::fma(r2[j], x[j], y[i + 2]);
      y[i + 3] = std::fma(r3[j], x[j], y[i + 3]);
    }
  }
  for (; i < rows; ++i) y[i] = dot(a + i * cols, x, cols);
}

void sym_update(double* p, std::size_t n, const double* w, double sigma,
                double p_scale) noexcept {
  if (p_scale == 1.0) {
    sym_update_sweep<false>(p, n, w, sigma, p_scale);
  } else {
    sym_update_sweep<true>(p, n, w, sigma, p_scale);
  }
}

// ---------------------------------------------------------------------------
// Q20 kernels
// ---------------------------------------------------------------------------

void q20_hidden_mac(const std::int32_t* a, std::size_t rows,
                    std::size_t units, const std::int32_t* x,
                    const std::int32_t* init, std::int32_t* out, bool relu,
                    Q20SatCounts& sat) noexcept {
  const int k = proof_k(max_abs(init, units), rows);
  if (k < 0) {
    scalar::q20_hidden_mac(a, rows, units, x, init, out, relu, sat);
    return;
  }
  // Each column is its own dot with seed init[j]; its 8-lane group sums the
  // terms' w >> 20 in wrapping int32 lanes and removes rows * 2^k at the end.
  const TermRange range = term_range(k);
  const __m256i excess = _mm256_set1_epi32(static_cast<int>(rows) << k);
  for_each_group(units, [&](std::size_t j, std::size_t count) {
    __m256i acc = load_group(init + j, count);
    __m256i bits = _mm256_setzero_si256();
    for (std::size_t i = 0; i < rows; ++i) {
      const Wide8 w = offset_products(load_group(a + i * units + j, count),
                                      _mm256_set1_epi32(x[i]), range.offset);
      bits = _mm256_or_si256(bits, _mm256_or_si256(w.even, w.odd));
      acc = _mm256_add_epi32(acc, frac_words(w));
    }
    if (_mm256_testz_si256(bits, range.outside) == 0) {
      for (std::size_t c = j; c < j + count; ++c) {
        std::int32_t acc_c = init[c];
        for (std::size_t i = 0; i < rows; ++i) {
          acc_c = q20detail::q_add(
              acc_c, q20detail::q_mul(x[i], a[i * units + c], sat), sat);
        }
        out[c] = relu ? q20detail::q_relu(acc_c) : acc_c;
      }
      return;
    }
    acc = _mm256_sub_epi32(acc, excess);
    if (relu) acc = _mm256_max_epi32(acc, _mm256_setzero_si256());
    store_group(out + j, count, acc);
  });
}

std::int32_t q20_dot(const std::int32_t* a, const std::int32_t* b,
                     std::size_t n, std::int32_t init,
                     Q20SatCounts& sat) noexcept {
  const int k = proof_k(abs_u64(init), n);
  std::int32_t out = 0;
  if (k >= 0 && proven_dot(a, b, n, init, term_range(k), out)) return out;
  return scalar::q20_dot(a, b, n, init, sat);
}

void q20_matvec(const std::int32_t* m, std::size_t n, const std::int32_t* x,
                std::int32_t* y, Q20SatCounts& sat) noexcept {
  const int k = proof_k(0, n);
  if (k < 0) {
    scalar::q20_matvec(m, n, x, y, sat);
    return;
  }
  const TermRange range = term_range(k);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t* row = m + i * n;
    if (!proven_dot(row, x, n, 0, range, y[i])) {
      y[i] = scalar::q20_dot(row, x, n, 0, sat);
    }
  }
}

std::int32_t q20_action_dot(const std::int32_t* shared,
                            const std::int32_t* last_row, std::int32_t code,
                            const std::int32_t* beta, std::size_t units,
                            Q20SatCounts& sat) noexcept {
  const int k = proof_k(0, units);
  if (k < 0) {
    return scalar::q20_action_dot(shared, last_row, code, beta, units, sat);
  }
  // h = relu(shared + code * last_row): the correction's rounded product
  // fits int32 iff its w over the full int32 term range (k = 31) keeps
  // bits 52+ clear, and then bits [20, 52) hold it plus 2^31; the add gets
  // the signed-overflow test. The output MAC is the dot-style proof.
  const TermRange word = term_range(31);
  const TermRange range = term_range(k);
  const __m256i codev = _mm256_set1_epi32(code);
  const __m256i sign = _mm256_set1_epi32(std::numeric_limits<int>::min());
  __m256i corr_bits = _mm256_setzero_si256();
  __m256i overflow = _mm256_setzero_si256();
  ProvenSum acc;
  for_each_group(units, [&](std::size_t j, std::size_t count) {
    const Wide8 w =
        offset_products(codev, load_group(last_row + j, count), word.offset);
    corr_bits = _mm256_or_si256(corr_bits, _mm256_or_si256(w.even, w.odd));
    const __m256i corr = _mm256_xor_si256(frac_words(w), sign);
    const __m256i s = load_group(shared + j, count);
    const __m256i h = _mm256_add_epi32(s, corr);
    overflow = _mm256_or_si256(
        overflow, _mm256_and_si256(_mm256_xor_si256(s, h),
                                   _mm256_xor_si256(corr, h)));
    acc.add(_mm256_max_epi32(h, _mm256_setzero_si256()),
            load_group(beta + j, count), range);
  });
  if (_mm256_testz_si256(corr_bits, word.outside) == 0 || any_sign(overflow) ||
      !acc.proven(range)) {
    return scalar::q20_action_dot(shared, last_row, code, beta, units, sat);
  }
  return acc.result(0, range);
}

void q20_rank1_downdate(std::int32_t* p, std::size_t n,
                        const std::int32_t* u, std::int32_t inv,
                        std::int32_t* scaled_ws, Q20SatCounts& sat) noexcept {
  // The O(n) scaled vector goes through the scalar primitives (counted
  // directly); each row of the O(n^2) sweep is range-proved on its own.
  for (std::size_t i = 0; i < n; ++i) {
    scaled_ws[i] = q20detail::q_mul(u[i], inv, sat);
  }
  const std::uint64_t max_u = max_abs(u, n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled_update<true>(p + i * n, scaled_ws[i], u, n, max_u, sat);
  }
}

void q20_axpy(std::int32_t* y, std::int32_t a, const std::int32_t* x,
              std::size_t n, Q20SatCounts& sat) noexcept {
  scaled_update<false>(y, a, x, n, max_abs(x, n), sat);
}

void q20_quantize(const double* src, std::int32_t* dst, std::size_t n,
                  Q20SatCounts& sat) noexcept {
  const __m256d scale = _mm256_set1_pd(1048576.0);
  const __m256d hi = _mm256_set1_pd(2147483647.0);
  const __m256d lo = _mm256_set1_pd(-2147483648.0);
  const __m256d half_pos = _mm256_set1_pd(0.5);
  const __m256d half_neg = _mm256_set1_pd(-0.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(src + i), scale);
    const __m256d over = _mm256_cmp_pd(scaled, hi, _CMP_GE_OQ);
    const __m256d under = _mm256_cmp_pd(scaled, lo, _CMP_LE_OQ);
    const __m256d nan = _mm256_cmp_pd(scaled, scaled, _CMP_UNORD_Q);
    if (_mm256_movemask_pd(_mm256_or_pd(_mm256_or_pd(over, under), nan)) !=
        0) {
      for (std::size_t c = i; c < i + 4; ++c) {
        dst[c] = q20detail::q_from_double(src[c], sat);
      }
      continue;
    }
    const __m256d nonneg =
        _mm256_cmp_pd(scaled, _mm256_setzero_pd(), _CMP_GE_OQ);
    const __m256d offset = _mm256_blendv_pd(half_neg, half_pos, nonneg);
    // cvttpd truncates toward zero, matching the reference's int cast.
    const __m128i words = _mm256_cvttpd_epi32(_mm256_add_pd(scaled, offset));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), words);
  }
  for (; i < n; ++i) dst[i] = q20detail::q_from_double(src[i], sat);
}

void q20_dequantize(const std::int32_t* src, double* dst,
                    std::size_t n) noexcept {
  // Multiplying by the exact power-of-two reciprocal equals the
  // reference's division bit-for-bit.
  const __m256d inv_scale = _mm256_set1_pd(1.0 / 1048576.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d values = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    _mm256_storeu_pd(dst + i, _mm256_mul_pd(values, inv_scale));
  }
  for (; i < n; ++i) dst[i] = static_cast<double>(src[i]) / 1048576.0;
}

}  // namespace oselm::linalg::kernels::avx2

#endif  // OSELM_HAVE_AVX2_KERNELS
