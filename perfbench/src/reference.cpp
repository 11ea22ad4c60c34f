#include "reference.hpp"

#include <array>
#include <chrono>
#include <cmath>

namespace perfbench {

namespace {

constexpr int kHidden = 64;
constexpr int kInput = 5;
constexpr int kSteps = 64;

struct Model {
  Model() {
    for (int j = 0; j < kHidden; ++j) {
      for (int i = 0; i < kInput; ++i) {
        w[j * kInput + i] = 0.1 * std::sin(1.0 + j * kInput + i);
      }
      b[j] = 0.05 * std::cos(1.0 + j);
      for (int k = 0; k < kHidden; ++k) p[j * kHidden + k] = j == k ? 1.0 : 0.0;
    }
  }
  std::array<double, kHidden * kInput> w{};
  std::array<double, kHidden> b{};
  std::array<double, kHidden> beta{};
  std::array<double, kHidden * kHidden> p{};
};

/// One OS-ELM step on input x with target t.
void step(Model& m, const std::array<double, kInput>& x, double t) {
  std::array<double, kHidden> h{};
  for (int j = 0; j < kHidden; ++j) {
    double a = m.b[j];
    for (int i = 0; i < kInput; ++i) a += m.w[j * kInput + i] * x[i];
    h[j] = 1.0 / (1.0 + std::exp(-a));
  }
  std::array<double, kHidden> ph{};
  double q = 0.0;
  double hph = 0.0;
  for (int j = 0; j < kHidden; ++j) {
    double a = 0.0;
    for (int k = 0; k < kHidden; ++k) a += m.p[j * kHidden + k] * h[k];
    ph[j] = a;
    hph += h[j] * a;
    q += m.beta[j] * h[j];
  }
  const double inv = 1.0 / (1.0 + hph);
  const double err = t - q;
  for (int j = 0; j < kHidden; ++j) {
    const double s = ph[j] * inv;
    for (int k = 0; k < kHidden; ++k) m.p[j * kHidden + k] -= s * ph[k];
    m.beta[j] += s * err;
  }
}

}  // namespace

double time_reference() {
  // Each call starts from the same state, so every call does identical
  // work.
  Model m;
  static volatile double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  std::array<double, kInput> x{};
  for (int s = 0; s < kSteps; ++s) {
    for (int i = 0; i < kInput; ++i) x[i] = std::sin(0.1 * (s + 1) * (i + 1));
    step(m, x, std::cos(0.05 * s));
  }
  sink = sink + m.beta[0] + m.p[0];
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
