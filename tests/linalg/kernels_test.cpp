// Kernel-layer equivalence suite: every dispatched kernel against the
// scalar reference, over remainder-lane sizes (1, 7, 8, 9, 31, ...) and
// unaligned spans.
//
//   * double kernels: <= 1e-12 relative (the AVX2 set fuses multiply-adds
//     and vector-reduces dot products, so the last ulps may differ);
//     fused_act_dot must additionally reproduce act_combine + dot
//     BIT-exactly under whichever mode is active — that identity is what
//     keeps the backend's predict paths mutually bit-identical. The
//     symmetric P updates are bit-identical across modes and exactly
//     symmetric; matvec is pinned against a long double reference.
//   * q20 kernels: bit-exact in values AND saturation counters, including
//     inputs engineered to saturate (the FPGA fidelity contract).
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <limits>
#include <vector>

#include "fixed/fixed_point.hpp"
#include "linalg/ops.hpp"
#include "util/rng.hpp"

namespace oselm::linalg::kernels {
namespace {

const std::size_t kSizes[] = {1, 7, 8, 9, 31, 64, 100};

/// Forces SIMD dispatch for the scope; restores the available-default on
/// exit (each test file is its own binary, so no cross-suite leakage).
class SimdGuard {
 public:
  SimdGuard() { set_simd_enabled(true); }
  ~SimdGuard() { reset_simd_override(); }
};

std::vector<double> random_vec(std::size_t n, util::Rng& rng, double lo = -2.0,
                               double hi = 2.0) {
  std::vector<double> v(n);
  rng.fill_uniform(v, lo, hi);
  return v;
}

/// Unaligned view: copies `v` into a buffer offset by one double so the
/// data pointer is 8-byte- but never 32-byte-aligned.
struct Unaligned {
  std::vector<double> storage;
  double* data;
  explicit Unaligned(const std::vector<double>& v)
      : storage(v.size() + 1, 0.0) {
    std::copy(v.begin(), v.end(), storage.begin() + 1);
    data = storage.data() + 1;
  }
};

void expect_close(double a, double b, const char* what, std::size_t n) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), 1e-12 * scale) << what << " n=" << n;
}

TEST(KernelDispatch, ReportsAConsistentState) {
  if (!simd_available()) {
    EXPECT_FALSE(simd_enabled());
    GTEST_SKIP() << "no SIMD kernel set on this host";
  }
  SimdGuard guard;
  EXPECT_TRUE(simd_enabled());
  EXPECT_STREQ(active_kernel_set(), "avx2");
  set_simd_enabled(false);
  EXPECT_FALSE(simd_enabled());
  EXPECT_STREQ(active_kernel_set(), "scalar");
}

TEST(KernelDot, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(1);
  for (const std::size_t n : kSizes) {
    const Unaligned a(random_vec(n, rng));
    const Unaligned b(random_vec(n, rng));
    expect_close(dot(a.data, b.data, n), scalar::dot(a.data, b.data, n),
                 "dot", n);
  }
}

TEST(KernelAxpy, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(2);
  for (const std::size_t n : kSizes) {
    const std::vector<double> x = random_vec(n, rng);
    const std::vector<double> y0 = random_vec(n, rng);
    Unaligned xs(x);
    Unaligned ys(y0);
    std::vector<double> y_ref = y0;
    axpy(ys.data, 0.7321, xs.data, n);
    scalar::axpy(y_ref.data(), 0.7321, x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_close(ys.data[i], y_ref[i], "axpy", n);
    }
  }
}

TEST(KernelBiasActivate, MatchesScalarReferenceForEveryActivation) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(3);
  for (const Act act :
       {Act::kReLU, Act::kSigmoid, Act::kTanh, Act::kLinear}) {
    for (const std::size_t n : kSizes) {
      const std::vector<double> h0 = random_vec(n, rng);
      const std::vector<double> bias = random_vec(n, rng);
      Unaligned hs(h0);
      std::vector<double> h_ref = h0;
      bias_activate(hs.data, bias.data(), n, act);
      scalar::bias_activate(h_ref.data(), bias.data(), n, act);
      for (std::size_t i = 0; i < n; ++i) {
        expect_close(hs.data[i], h_ref[i], "bias_activate", n);
      }
    }
  }
}

TEST(KernelActCombine, MatchesScalarReferenceForEveryActivation) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(4);
  for (const Act act :
       {Act::kReLU, Act::kSigmoid, Act::kTanh, Act::kLinear}) {
    for (const std::size_t n : kSizes) {
      const Unaligned shared(random_vec(n, rng));
      const Unaligned last(random_vec(n, rng));
      const std::vector<double> bias = random_vec(n, rng);
      std::vector<double> h_simd(n, 0.0);
      std::vector<double> h_ref(n, 0.0);
      act_combine(shared.data, last.data, -0.37, bias.data(), h_simd.data(),
                  n, act);
      scalar::act_combine(shared.data, last.data, -0.37, bias.data(),
                          h_ref.data(), n, act);
      for (std::size_t i = 0; i < n; ++i) {
        expect_close(h_simd[i], h_ref[i], "act_combine", n);
      }
    }
  }
}

TEST(KernelFusedActDot, MatchesScalarReference) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(5);
  for (const Act act :
       {Act::kReLU, Act::kSigmoid, Act::kTanh, Act::kLinear}) {
    for (const std::size_t n : kSizes) {
      const Unaligned shared(random_vec(n, rng));
      const Unaligned last(random_vec(n, rng));
      const std::vector<double> bias = random_vec(n, rng);
      const Unaligned beta(random_vec(n, rng));
      expect_close(
          fused_act_dot(shared.data, last.data, 0.81, bias.data(), beta.data,
                        n, act),
          scalar::fused_act_dot(shared.data, last.data, 0.81, bias.data(),
                                beta.data, n, act),
          "fused_act_dot", n);
    }
  }
}

TEST(KernelFusedActDot, EqualsActCombinePlusDotBitExactInBothModes) {
  // The identity the backend-contract EXPECT_DOUBLE_EQ pins stand on:
  // within one dispatch mode, fusing must not change a single bit.
  util::Rng rng(6);
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const Act act :
         {Act::kReLU, Act::kSigmoid, Act::kTanh, Act::kLinear}) {
      for (const std::size_t n : kSizes) {
        const std::vector<double> shared = random_vec(n, rng);
        const std::vector<double> last = random_vec(n, rng);
        const std::vector<double> bias = random_vec(n, rng);
        const std::vector<double> beta = random_vec(n, rng);
        std::vector<double> h(n, 0.0);
        act_combine(shared.data(), last.data(), 1.0, bias.data(), h.data(),
                    n, act);
        const double staged = dot(h.data(), beta.data(), n);
        const double fused = fused_act_dot(shared.data(), last.data(), 1.0,
                                           bias.data(), beta.data(), n, act);
        EXPECT_EQ(fused, staged)
            << "mode=" << (simd ? "avx2" : "scalar") << " n=" << n;
      }
    }
  }
  reset_simd_override();
}

TEST(KernelSymRank1, MatchesScalarReferenceAndStaysSymmetric) {
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  SimdGuard guard;
  util::Rng rng(7);
  for (const std::size_t n : kSizes) {
    for (const double p_scale : {1.0, 1.0 / 0.97}) {
      // Build a symmetric P = B B^T + I.
      std::vector<double> b = random_vec(n * n, rng, -0.5, 0.5);
      std::vector<double> p(n * n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          double acc = i == j ? 1.0 : 0.0;
          for (std::size_t k = 0; k < n; ++k) {
            acc += b[i * n + k] * b[j * n + k];
          }
          p[i * n + j] = acc;
        }
      }
      const std::vector<double> u = random_vec(n, rng);
      std::vector<double> w(n);
      std::vector<double> p_simd = p;
      std::vector<double> p_ref = p;
      sym_rank1_update(p_simd.data(), n, u.data(), 0.31, p_scale, w.data());
      scalar::sym_rank1_update(p_ref.data(), n, u.data(), 0.31, p_scale,
                               w.data());
      for (std::size_t i = 0; i < n * n; ++i) {
        expect_close(p_simd[i], p_ref[i], "sym_rank1_update", n);
      }
      // The factored sweep makes symmetry exact, not just approximate.
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_EQ(p_simd[i * n + j], p_simd[j * n + i]);
        }
      }
    }
  }
}

/// Symmetric P = B B^T + I as a flat row-major buffer.
std::vector<double> random_spd(std::size_t n, util::Rng& rng) {
  std::vector<double> b = random_vec(n * n, rng, -0.5, 0.5);
  std::vector<double> p(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += b[i * n + k] * b[j * n + k];
      p[i * n + j] = acc;
    }
  }
  return p;
}

const std::size_t kUpdateSizes[] = {1, 3, 5, 32, 64, 67, 128};

/// The k-th update's inv in a long random stream: every fourth is
/// negative (an indefinite downdate, i.e. an update) and every fourth is
/// exactly zero, the two cases the sign of inv covers without a branch.
double stream_inv(std::size_t k, util::Rng& rng) {
  switch (k % 4) {
    case 1:
      return -rng.uniform(0.01, 0.2);
    case 3:
      return 0.0;
    default:
      return rng.uniform(0.01, 0.2);
  }
}

/// Runs `updates` random rank-1 updates from the same seed under the given
/// dispatch mode, checking exact symmetry every 100 updates and at the end.
std::vector<double> run_update_stream(std::size_t n, bool simd,
                                      std::size_t updates) {
  set_simd_enabled(simd);
  util::Rng rng(23 + n);
  std::vector<double> p = random_spd(n, rng);
  std::vector<double> w(n);
  for (std::size_t k = 0; k < updates; ++k) {
    const std::vector<double> u = random_vec(n, rng, -0.5, 0.5);
    const double inv = stream_inv(k, rng);
    const double p_scale = k % 2 == 0 ? 1.0 : 1.0 / 0.999;
    sym_rank1_update(p.data(), n, u.data(), inv, p_scale, w.data());
    if ((k + 1) % 100 != 0 && k + 1 != updates) continue;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(p[i * n + j], p[j * n + i])
            << "simd=" << simd << " n=" << n << " after update " << k;
      }
    }
  }
  for (const double v : p) EXPECT_TRUE(std::isfinite(v)) << "n=" << n;
  reset_simd_override();
  return p;
}

TEST(KernelSymRank1, StaysExactlySymmetricOverAThousandUpdates) {
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    for (const std::size_t n : kUpdateSizes) run_update_stream(n, simd, 1000);
  }
}

TEST(KernelSymRank1, ScalarAndSimdAreBitIdentical) {
  // Both sets round fma(-sigma * w_i, w_j, P_ij) and then scale, element
  // by element, so the same stream gives the same bits in either mode.
  if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
  for (const std::size_t n : kUpdateSizes) {
    ASSERT_EQ(run_update_stream(n, false, 200), run_update_stream(n, true, 200))
        << "n=" << n;
  }
}

TEST(KernelThreads, LinalgStartsNoThreads) {
  // Linear algebra runs on the calling thread at every size: neither a
  // large P-update nor a large GEMM may leave a thread behind. Counted
  // from /proc/self/task, so Linux only.
  const std::filesystem::path tasks("/proc/self/task");
  if (!std::filesystem::is_directory(tasks)) {
    GTEST_SKIP() << "no /proc/self/task on this host";
  }
  const auto thread_count = [&] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = thread_count();

  util::Rng rng(15);
  const std::size_t n = 1024;
  std::vector<double> p = random_vec(n * n, rng);
  const std::vector<double> u = random_vec(n, rng);
  std::vector<double> w(n);
  sym_rank1_update(p.data(), n, u.data(), 0.19, 1.0, w.data());

  MatD a(256, 256);
  a.fill(0.5);
  const MatD c = matmul(a, a);
  EXPECT_EQ(c(255, 255), 64.0);

  EXPECT_EQ(thread_count(), before);
}

TEST(KernelSymRankK, MatchesDenseDowndateAndStaysSymmetric) {
  util::Rng rng(14);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const std::size_t n : {9u, 31u, 64u}) {
      for (const std::size_t k : {2u, 3u, 5u}) {
        const std::vector<double> p0 = random_spd(n, rng);
        // W^T as k x n rows: the Eq. 5 downdate is W W^T, symmetric.
        const std::vector<double> wt = random_vec(k * n, rng);
        std::vector<double> p = p0;
        sym_rankk_downdate(p.data(), n, wt.data(), k);
        // Dense reference on the upper triangle.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = i; j < n; ++j) {
            double expected = p0[i * n + j];
            for (std::size_t c = 0; c < k; ++c) {
              expected -= wt[c * n + i] * wt[c * n + j];
            }
            expect_close(p[i * n + j], expected, "sym_rankk_downdate", n);
          }
        }
        // Exact symmetry without a mirror.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(p[i * n + j], p[j * n + i]);
          }
        }
      }
    }
  }
}

TEST(KernelSymRankK, KEqualsOneMatchesTheRank1Kernel) {
  // w = u * sqrt(inv) is the factor sym_rank1_update forms for inv > 0,
  // so one rank-k column reproduces the rank-1 update bit for bit, in
  // both dispatch modes.
  util::Rng rng(15);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  const std::size_t n = 100;
  const std::vector<double> p0 = random_spd(n, rng);
  const std::vector<double> u = random_vec(n, rng);
  const double inv = 0.37;
  std::vector<double> wt(n);
  for (std::size_t i = 0; i < n; ++i) wt[i] = u[i] * std::sqrt(inv);
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    std::vector<double> via_rankk = p0;
    sym_rankk_downdate(via_rankk.data(), n, wt.data(), 1);
    std::vector<double> via_rank1 = p0;
    std::vector<double> w(n);
    sym_rank1_update(via_rank1.data(), n, u.data(), inv, 1.0, w.data());
    ASSERT_EQ(via_rankk, via_rank1) << "simd=" << simd;
  }
}

TEST(KernelMatvec, MatchesLongDoubleReference) {
  // The blocked AVX2 matvec (four rows per pass, one reduction per four
  // rows) and the scalar per-row dot, against an extended-precision
  // reference within the standard dot-product error bound
  // cols * eps * sum_j |a_ij x_j|, over row and column remainders and
  // unaligned spans.
  util::Rng rng(16);
  const struct RestoreDispatch {
    ~RestoreDispatch() { reset_simd_override(); }
  } restore;
  const std::size_t kDims[] = {1, 3, 4, 5, 7, 8, 9, 31, 64, 67, 100};
  for (const bool simd : {false, true}) {
    if (simd && !simd_available()) continue;
    set_simd_enabled(simd);
    for (const std::size_t rows : kDims) {
      for (const std::size_t cols : kDims) {
        const Unaligned a(random_vec(rows * cols, rng));
        const Unaligned x(random_vec(cols, rng));
        std::vector<double> y(rows, -1.0);
        matvec(a.data, rows, cols, x.data, y.data());
        for (std::size_t i = 0; i < rows; ++i) {
          long double ref = 0.0L;
          double magnitude = 0.0;
          for (std::size_t j = 0; j < cols; ++j) {
            const double term = a.data[i * cols + j] * x.data[j];
            ref += static_cast<long double>(a.data[i * cols + j]) *
                   static_cast<long double>(x.data[j]);
            magnitude += std::abs(term);
          }
          const double bound = static_cast<double>(cols) *
                               std::numeric_limits<double>::epsilon() *
                               magnitude;
          EXPECT_LE(std::abs(static_cast<double>(ref) - y[i]), bound)
              << "simd=" << simd << " rows=" << rows << " cols=" << cols
              << " row=" << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Q20 kernels: bit-exact, counters included
// ---------------------------------------------------------------------------

std::vector<std::int32_t> random_q20(std::size_t n, util::Rng& rng,
                                     double lo = -2.0, double hi = 2.0) {
  std::vector<std::int32_t> v(n);
  for (auto& w : v) w = fixed::Q20::from_double(rng.uniform(lo, hi)).raw();
  return v;
}

/// Values near the Q20 limits so multiplies and accumulations saturate.
std::vector<std::int32_t> extreme_q20(std::size_t n, util::Rng& rng) {
  std::vector<std::int32_t> v(n);
  for (auto& w : v) {
    const double huge = rng.uniform(900.0, 1023.0);  // Q20 max ~2047.99
    w = fixed::Q20::from_double(rng.bernoulli(0.5) ? huge : -huge).raw();
  }
  return v;
}

void expect_sat_eq(const Q20SatCounts& a, const Q20SatCounts& b,
                   const char* what, std::size_t n) {
  EXPECT_EQ(a.add, b.add) << what << " add n=" << n;
  EXPECT_EQ(a.mul, b.mul) << what << " mul n=" << n;
  EXPECT_EQ(a.conversion, b.conversion) << what << " conversion n=" << n;
}

class Q20KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd_available()) GTEST_SKIP() << "no SIMD kernel set";
    set_simd_enabled(true);
  }
  void TearDown() override { reset_simd_override(); }
};

TEST_F(Q20KernelTest, DotIsBitExactIncludingSaturation) {
  util::Rng rng(10);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto a = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto b = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      const std::int32_t got = q20_dot(a.data(), b.data(), n, 12345, sat_simd);
      const std::int32_t want =
          scalar::q20_dot(a.data(), b.data(), n, 12345, sat_ref);
      EXPECT_EQ(got, want) << "n=" << n << " extreme=" << extreme;
      expect_sat_eq(sat_simd, sat_ref, "q20_dot", n);
    }
  }
}

TEST_F(Q20KernelTest, HiddenMacIsBitExactIncludingSaturation) {
  util::Rng rng(11);
  for (const std::size_t units : kSizes) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{5}}) {
      for (const bool extreme : {false, true}) {
        const auto a = extreme ? extreme_q20(rows * units, rng)
                               : random_q20(rows * units, rng);
        const auto x = extreme ? extreme_q20(rows, rng)
                               : random_q20(rows, rng);
        const auto init = random_q20(units, rng);
        for (const bool relu : {false, true}) {
          std::vector<std::int32_t> out_simd(units, 0);
          std::vector<std::int32_t> out_ref(units, 0);
          Q20SatCounts sat_simd;
          Q20SatCounts sat_ref;
          q20_hidden_mac(a.data(), rows, units, x.data(), init.data(),
                         out_simd.data(), relu, sat_simd);
          scalar::q20_hidden_mac(a.data(), rows, units, x.data(), init.data(),
                                 out_ref.data(), relu, sat_ref);
          EXPECT_EQ(out_simd, out_ref)
              << "units=" << units << " rows=" << rows
              << " extreme=" << extreme << " relu=" << relu;
          expect_sat_eq(sat_simd, sat_ref, "q20_hidden_mac", units);
        }
      }
    }
  }
}

TEST_F(Q20KernelTest, ActionDotIsBitExactIncludingSaturation) {
  util::Rng rng(12);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto shared = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto last = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto beta = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const std::int32_t code = fixed::Q20::from_double(-1.0).raw();
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      const std::int32_t got = q20_action_dot(shared.data(), last.data(),
                                              code, beta.data(), n, sat_simd);
      const std::int32_t want = scalar::q20_action_dot(
          shared.data(), last.data(), code, beta.data(), n, sat_ref);
      EXPECT_EQ(got, want) << "n=" << n << " extreme=" << extreme;
      expect_sat_eq(sat_simd, sat_ref, "q20_action_dot", n);
    }
  }
}

TEST_F(Q20KernelTest, MatvecIsBitExact) {
  util::Rng rng(13);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      auto m = random_q20(n * n, rng);
      if (extreme) {
        // Saturate every other row so proved and fallback rows interleave.
        const auto hot = extreme_q20(n * n, rng);
        for (std::size_t i = 0; i < n; i += 2) {
          std::copy_n(hot.begin() + i * n, n, m.begin() + i * n);
        }
      }
      const auto x = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      std::vector<std::int32_t> y_simd(n, 0);
      std::vector<std::int32_t> y_ref(n, 0);
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      q20_matvec(m.data(), n, x.data(), y_simd.data(), sat_simd);
      scalar::q20_matvec(m.data(), n, x.data(), y_ref.data(), sat_ref);
      EXPECT_EQ(y_simd, y_ref) << "n=" << n << " extreme=" << extreme;
      expect_sat_eq(sat_simd, sat_ref, "q20_matvec", n);
    }
  }
}

TEST_F(Q20KernelTest, Rank1DowndateIsBitExactIncludingSaturation) {
  util::Rng rng(14);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto p0 = extreme ? extreme_q20(n * n, rng)
                              : random_q20(n * n, rng);
      const auto u = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const std::int32_t inv = fixed::Q20::from_double(0.493).raw();
      std::vector<std::int32_t> p_simd = p0;
      std::vector<std::int32_t> p_ref = p0;
      std::vector<std::int32_t> ws_simd(n, 0);
      std::vector<std::int32_t> ws_ref(n, 0);
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      q20_rank1_downdate(p_simd.data(), n, u.data(), inv, ws_simd.data(),
                         sat_simd);
      scalar::q20_rank1_downdate(p_ref.data(), n, u.data(), inv,
                                 ws_ref.data(), sat_ref);
      EXPECT_EQ(p_simd, p_ref) << "n=" << n << " extreme=" << extreme;
      expect_sat_eq(sat_simd, sat_ref, "q20_rank1_downdate", n);
    }
  }
}

TEST_F(Q20KernelTest, AxpyIsBitExactIncludingSaturation) {
  util::Rng rng(15);
  for (const std::size_t n : kSizes) {
    for (const bool extreme : {false, true}) {
      const auto x = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const auto y0 = extreme ? extreme_q20(n, rng) : random_q20(n, rng);
      const std::int32_t a =
          fixed::Q20::from_double(extreme ? 800.0 : 0.7).raw();
      std::vector<std::int32_t> y_simd = y0;
      std::vector<std::int32_t> y_ref = y0;
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      q20_axpy(y_simd.data(), a, x.data(), n, sat_simd);
      scalar::q20_axpy(y_ref.data(), a, x.data(), n, sat_ref);
      EXPECT_EQ(y_simd, y_ref) << "n=" << n << " extreme=" << extreme;
      expect_sat_eq(sat_simd, sat_ref, "q20_axpy", n);
    }
  }
}

// -- Edges of the AVX2 range proofs. Every case runs the dispatched kernel
// against the scalar reference; whichever side of a proof a case lands on,
// values and counters must match.

constexpr std::int32_t kOneRaw = std::int32_t{1} << 20;
constexpr std::int32_t kMaxRaw = std::numeric_limits<std::int32_t>::max();
constexpr std::int32_t kMinRaw = std::numeric_limits<std::int32_t>::min();
// 2^19 * 255 * (257 * 65537) = 2^51 - 2^19: the rounded product is 2^31,
// one past kMaxRaw. One less in the second factor rounds to 2^31 - 128.
constexpr std::int32_t kEdgeA = 133693440;  // 2^19 * 255
constexpr std::int32_t kEdgeB = 16843009;   // 257 * 65537

void expect_dot_exact(const std::vector<std::int32_t>& a,
                      const std::vector<std::int32_t>& b, std::int32_t init,
                      const char* what) {
  Q20SatCounts sat_simd;
  Q20SatCounts sat_ref;
  const std::int32_t got = q20_dot(a.data(), b.data(), a.size(), init,
                                   sat_simd);
  const std::int32_t want =
      scalar::q20_dot(a.data(), b.data(), a.size(), init, sat_ref);
  EXPECT_EQ(got, want) << what << " init=" << init;
  expect_sat_eq(sat_simd, sat_ref, what, a.size());
}

TEST_F(Q20KernelTest, DotPrefixOnTheRawLimitsIsBitExact) {
  for (const std::size_t n : {8, 9, 64}) {
    const std::vector<std::int32_t> ones(n, kOneRaw);  // term == a[j]
    std::vector<std::int32_t> up(n);
    std::int64_t total = 0;
    for (std::size_t j = 0; j < n; ++j) {
      up[j] = 1000 + static_cast<std::int32_t>(j);
      total += up[j];
    }
    std::vector<std::int32_t> down(n);
    std::transform(up.begin(), up.end(), down.begin(),
                   [](std::int32_t v) { return -v; });
    const auto max_seed = static_cast<std::int32_t>(kMaxRaw - total);
    const auto min_seed = static_cast<std::int32_t>(kMinRaw + total);
    // The last prefix lands exactly on a limit, or one past it.
    expect_dot_exact(up, ones, max_seed, "final prefix == kRawMax");
    expect_dot_exact(up, ones, max_seed + 1, "final prefix > kRawMax");
    expect_dot_exact(down, ones, min_seed, "final prefix == kRawMin");
    expect_dot_exact(down, ones, min_seed - 1, "final prefix < kRawMin");
    // A middle prefix touches (or clips at) the limit, then falls back.
    std::vector<std::int32_t> peak = up;
    std::fill(peak.begin() + static_cast<std::ptrdiff_t>(n / 2), peak.end(),
              -5000);
    std::int64_t rise = 0;
    for (std::size_t j = 0; j < n / 2; ++j) rise += peak[j];
    const auto peak_seed = static_cast<std::int32_t>(kMaxRaw - rise);
    expect_dot_exact(peak, ones, peak_seed, "middle prefix == kRawMax");
    expect_dot_exact(peak, ones, peak_seed + 1, "middle prefix > kRawMax");

    // Seeds at the proof's own bound, |init| + n * 2^k == INT32_MAX, with
    // terms on either side of [-2^k, 2^k).
    for (const int k : {10, 20}) {
      const std::int32_t step = std::int32_t{1} << k;
      const auto seed = static_cast<std::int32_t>(
          kMaxRaw - static_cast<std::int64_t>(n) * step);
      for (const std::int32_t term : {step - 1, step, step + 1, -step,
                                      -step - 1}) {
        const std::vector<std::int32_t> terms(n, term);
        expect_dot_exact(terms, ones, seed, "seed at the proof bound");
        expect_dot_exact(terms, ones, -seed, "negative seed at the bound");
      }
    }
  }
}

TEST_F(Q20KernelTest, SeedsNearTheLimitsAreBitExact) {
  util::Rng rng(17);
  for (const std::size_t n : kSizes) {
    for (const std::int32_t init :
         {kMaxRaw, kMaxRaw - 5, kMinRaw, kMinRaw + 5, kMaxRaw / 2,
          kMinRaw / 2}) {
      const auto a = random_q20(n, rng, -40.0, 40.0);
      const auto b = random_q20(n, rng, -40.0, 40.0);
      expect_dot_exact(a, b, init, "q20_dot seed near the limits");
    }
    // Hidden MAC: one column seeded at a limit (no proof for the whole
    // call) or just inside it (a small k for every group).
    constexpr std::size_t kRows = 5;
    const auto a = random_q20(kRows * n, rng, -40.0, 40.0);
    const auto x = random_q20(kRows, rng, -40.0, 40.0);
    for (const std::int32_t edge : {kMaxRaw, kMinRaw, kMaxRaw - 3000}) {
      auto init = random_q20(n, rng);
      init[n / 2] = edge;
      std::vector<std::int32_t> out_simd(n, 0);
      std::vector<std::int32_t> out_ref(n, 0);
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      q20_hidden_mac(a.data(), kRows, n, x.data(), init.data(),
                     out_simd.data(), false, sat_simd);
      scalar::q20_hidden_mac(a.data(), kRows, n, x.data(), init.data(),
                             out_ref.data(), false, sat_ref);
      EXPECT_EQ(out_simd, out_ref) << "n=" << n << " edge=" << edge;
      expect_sat_eq(sat_simd, sat_ref, "q20_hidden_mac seed", n);
    }
  }
}

TEST_F(Q20KernelTest, ProductRoundingEdgeIsBitExact) {
  // q20_dot: one edge product alone, and amid small terms.
  for (const std::int32_t b : {kEdgeB, kEdgeB - 1, -kEdgeB, -kEdgeB - 1}) {
    expect_dot_exact({kEdgeA}, {b}, 0, "edge product");
    std::vector<std::int32_t> a(11, 3 * kOneRaw);
    std::vector<std::int32_t> bs(11, kOneRaw / 4);
    a[9] = kEdgeA;
    bs[9] = b;
    expect_dot_exact(a, bs, 0, "edge product in the tail group");
  }

  // q20_axpy / q20_rank1_downdate: the product sits at the edge of the
  // element-wise proof, and the add/sub lands on or one past a limit.
  const std::int32_t near_max = kEdgeB - 1;  // kEdgeA * near_max -> 2^31 - 128
  for (const std::int32_t big : {near_max, kEdgeB}) {
    for (const std::int32_t slack : {127, 128}) {
      std::vector<std::int32_t> x(17, kOneRaw / 8);
      x[1] = big;
      x[12] = -big;
      std::vector<std::int32_t> y0(17, 5);
      y0[1] = slack;
      y0[12] = -slack;
      std::vector<std::int32_t> y_simd = y0;
      std::vector<std::int32_t> y_ref = y0;
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      q20_axpy(y_simd.data(), kEdgeA, x.data(), x.size(), sat_simd);
      scalar::q20_axpy(y_ref.data(), kEdgeA, x.data(), x.size(), sat_ref);
      EXPECT_EQ(y_simd, y_ref) << "big=" << big << " slack=" << slack;
      expect_sat_eq(sat_simd, sat_ref, "q20_axpy edge", x.size());

      // inv == 1.0 makes scaled == u: row 0 scales by `big` against
      // max|u| == kEdgeA, row 1 by kEdgeA itself (always saturating).
      const std::vector<std::int32_t> u = {big,     kEdgeA, 5, -7, kOneRaw,
                                           -kOneRaw, 3,     2, 1};
      const std::size_t n = u.size();
      std::vector<std::int32_t> p0(n * n, kOneRaw);
      p0[1] = -slack;  // p(0, 1) -= 2^31 - 128 (or more)
      p0[8] = slack;   // tail group
      std::vector<std::int32_t> p_simd = p0;
      std::vector<std::int32_t> p_ref = p0;
      std::vector<std::int32_t> ws_simd(n, 0);
      std::vector<std::int32_t> ws_ref(n, 0);
      Q20SatCounts dd_simd;
      Q20SatCounts dd_ref;
      q20_rank1_downdate(p_simd.data(), n, u.data(), kOneRaw, ws_simd.data(),
                         dd_simd);
      scalar::q20_rank1_downdate(p_ref.data(), n, u.data(), kOneRaw,
                                 ws_ref.data(), dd_ref);
      EXPECT_EQ(p_simd, p_ref) << "big=" << big << " slack=" << slack;
      expect_sat_eq(dd_simd, dd_ref, "q20_rank1_downdate edge", n);
    }
  }

  // q20_action_dot: code * last_row at the edge, shared landing the sum on
  // or one past kRawMax.
  for (const std::int32_t big : {near_max, kEdgeB}) {
    for (const std::int32_t slack : {127, 128}) {
      std::vector<std::int32_t> shared(9, kOneRaw / 2);
      std::vector<std::int32_t> last(9, kOneRaw / 4);
      const std::vector<std::int32_t> beta(9, 1 << 6);
      shared[2] = slack;
      last[2] = big;
      Q20SatCounts sat_simd;
      Q20SatCounts sat_ref;
      const std::int32_t got = q20_action_dot(
          shared.data(), last.data(), kEdgeA, beta.data(), 9, sat_simd);
      const std::int32_t want = scalar::q20_action_dot(
          shared.data(), last.data(), kEdgeA, beta.data(), 9, sat_ref);
      EXPECT_EQ(got, want) << "big=" << big << " slack=" << slack;
      expect_sat_eq(sat_simd, sat_ref, "q20_action_dot edge", 9);
    }
  }
}

TEST_F(Q20KernelTest, QuantizeRoundTripIsBitExactIncludingSaturation) {
  util::Rng rng(16);
  for (const std::size_t n : kSizes) {
    std::vector<double> src(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Mix healthy values with ones beyond the Q20 range (|x| < 2048)
      // and NaNs (raw 0, counted as conversions).
      src[i] = rng.bernoulli(0.25) ? rng.uniform(-9000.0, 9000.0)
                                   : rng.uniform(-2.0, 2.0);
      if (i % 5 == 3) src[i] = std::numeric_limits<double>::quiet_NaN();
    }
    std::vector<std::int32_t> q_simd(n, 0);
    std::vector<std::int32_t> q_ref(n, 0);
    Q20SatCounts sat_simd;
    Q20SatCounts sat_ref;
    q20_quantize(src.data(), q_simd.data(), n, sat_simd);
    scalar::q20_quantize(src.data(), q_ref.data(), n, sat_ref);
    EXPECT_EQ(q_simd, q_ref) << "n=" << n;
    expect_sat_eq(sat_simd, sat_ref, "q20_quantize", n);
    // Quantize must agree with fixed::Q20::from_double itself, counters
    // included.
    fixed::overflow_stats().reset();
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(q_ref[i], fixed::Q20::from_double(src[i]).raw()) << i;
      if (std::isnan(src[i])) {
        EXPECT_EQ(q_ref[i], 0) << i;
      }
    }
    EXPECT_EQ(fixed::overflow_stats().conversion_saturations,
              sat_ref.conversion);

    std::vector<double> d_simd(n, 0.0);
    std::vector<double> d_ref(n, 0.0);
    q20_dequantize(q_simd.data(), d_simd.data(), n);
    scalar::q20_dequantize(q_ref.data(), d_ref.data(), n);
    EXPECT_EQ(d_simd, d_ref) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d_ref[i], fixed::Q20::from_raw(q_ref[i]).to_double()) << i;
    }
  }
}

}  // namespace
}  // namespace oselm::linalg::kernels
