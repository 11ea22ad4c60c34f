// Fixed-size log-linear latency histogram owned by the benchmark.
//
// 128 linear sub-buckets per power-of-two octave (bucket width <= 0.8% of
// its value) from 2^-7 us (~8 ns) to 2^27 us (~134 s). Quantiles
// interpolate linearly inside the bucket that holds the rank, so a
// reported percentile moves continuously with the data instead of
// snapping to bucket edges. The storage is fixed (35 KiB), so memory
// does not grow with throughput.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class Histogram {
 public:
  static constexpr int kSub = 128;
  static constexpr int kMinExp = -7;
  static constexpr int kOctaves = 34;
  static constexpr int kBuckets = kSub * kOctaves + 2;  // + under/overflow

  void record(double us) noexcept {
    ++counts_[static_cast<std::size_t>(index(us))];
    ++n_;
    sum_ += us;
  }

  void merge(const Histogram& other) noexcept {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
    sum_ += other.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
  }
  [[nodiscard]] double quantile(double q) const {
    return mixed_quantile({{this, 1.0}}, q);
  }

  /// Quantile of a weighted mixture: part i contributes its samples with
  /// total weight weights_i (so two designs can count equally whatever
  /// their sample counts).
  static double mixed_quantile(
      const std::vector<std::pair<const Histogram*, double>>& parts,
      double q) {
    std::vector<double> per_sample;
    double total = 0.0;
    for (const auto& [h, w] : parts) {
      per_sample.push_back(h->n_ == 0 ? 0.0 : w / static_cast<double>(h->n_));
      total += h->n_ == 0 ? 0.0 : w;
    }
    if (total <= 0.0) return 0.0;
    const double rank = q * total;
    double cum = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      double mass = 0.0;
      for (std::size_t i = 0; i < parts.size(); ++i) {
        mass += static_cast<double>(parts[i].first->counts_[b]) *
                per_sample[i];
      }
      if (mass <= 0.0) continue;
      if (cum + mass >= rank) {
        const double frac = (rank - cum) / mass;
        return lower(b) + frac * (upper(b) - lower(b));
      }
      cum += mass;
    }
    return upper(kBuckets - 2);
  }

  /// The highest of the usual percentiles that still has at least ten
  /// samples above it (0 when there are fewer than 20 samples).
  [[nodiscard]] static double resolvable_percentile(std::uint64_t n) {
    double best = 0.0;
    for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
      if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
    }
    return best;
  }

 private:
  static int index(double us) noexcept {
    if (!(us >= std::ldexp(1.0, kMinExp))) return 0;
    int exp = 0;
    const double m = std::frexp(us, &exp);  // us = m * 2^exp, m in [0.5, 1)
    const int octave = exp - 1 - kMinExp;
    if (octave >= kOctaves) return kBuckets - 1;
    const int sub = static_cast<int>((m * 2.0 - 1.0) * kSub);
    return 1 + octave * kSub + sub;
  }
  static double lower(int b) noexcept {
    if (b == 0) return 0.0;
    if (b == kBuckets - 1) return std::ldexp(1.0, kMinExp + kOctaves);
    const int octave = (b - 1) / kSub;
    const int sub = (b - 1) % kSub;
    return std::ldexp(1.0 + static_cast<double>(sub) / kSub, kMinExp + octave);
  }
  static double upper(int b) noexcept {
    if (b == 0) return std::ldexp(1.0, kMinExp);
    if (b == kBuckets - 1) return lower(b);
    return lower(b) + std::ldexp(1.0 / kSub, kMinExp + (b - 1) / kSub);
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
};

}  // namespace perfbench
