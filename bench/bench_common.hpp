// Shared helpers for the figure/table benches: fidelity knobs read from
// the environment, regression-gate configuration, and the
// measured->modeled-board time conversion.
#pragma once

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/design.hpp"
#include "core/experiment.hpp"
#include "hw/cycle_model.hpp"
#include "hw/platform_model.hpp"
#include "util/env_flags.hpp"
#include "util/op_accounting.hpp"

namespace oselm::bench {

/// Fidelity knobs; defaults keep every bench in the seconds-to-minutes
/// range while preserving the paper's qualitative results.
struct BenchKnobs {
  std::size_t trials;
  std::size_t episode_cap;
  std::vector<std::size_t> unit_sweep;

  static BenchKnobs from_env() {
    BenchKnobs knobs;
    knobs.trials = static_cast<std::size_t>(util::env_int("OSELM_TRIALS", 5));
    knobs.episode_cap =
        static_cast<std::size_t>(util::env_int("OSELM_EPISODE_CAP", 6000));
    const auto units = util::env_int("OSELM_UNITS", 0);
    if (units > 0) {
      knobs.unit_sweep = {static_cast<std::size_t>(units)};
    } else {
      knobs.unit_sweep = {32, 64, 128, 192};
    }
    return knobs;
  }
};

/// Speedup regression gate from the environment, shared by every gated
/// bench so gates are configured uniformly: `var` holds a percentage
/// (130 -> a 1.3x bar); unset/0 disables the gate. Parsed once per
/// variable per process — benches call this per measurement without
/// re-reading the environment.
inline double min_speedup_gate(
    const std::string& var = "OSELM_BENCH_MIN_SPEEDUP_PCT") {
  static std::map<std::string, double> cache;
  const auto it = cache.find(var);
  if (it != cache.end()) return it->second;
  const double gate =
      static_cast<double>(util::env_int(var, 0)) / 100.0;
  cache.emplace(var, gate);
  return gate;
}

/// Applies a min_speedup_gate: returns false (and prints the diagnostic)
/// when the gate is enabled and `speedup` falls below it.
inline bool check_speedup_gate(const std::string& var, const char* label,
                               double speedup) {
  const double gate = min_speedup_gate(var);
  if (gate > 0.0 && speedup < gate) {
    std::fprintf(stderr, "FAIL: %s speedup %.3f below the %.2f bar (%s)\n",
                 label, speedup, gate, var.c_str());
    return false;
  }
  return true;
}

/// Modeled PYNQ-Z1 seconds per category for one design run, derived from
/// the instrumented invocation counts (see hw::SoftwarePlatformModel).
///
/// Count composition per category (documented in the agent sources):
///   predict_init / predict_seq : one count per Q evaluation
///   seq_train  : 1 train + 2 target evaluations per update (~3 counts;
///                terminal transitions skip the evaluations, <2% effect)
///   init_train : 1 solve + 2 target evaluations per buffered sample
///   predict_1 / predict_32 / train_DQN : one count per op
inline util::OpBreakdown to_board_seconds(const util::OpBreakdown& measured,
                                          core::Design design,
                                          std::size_t hidden_units,
                                          std::size_t input_dim = 5,
                                          std::size_t state_dim = 4,
                                          std::size_t actions = 2) {
  using util::OpCategory;
  const hw::SoftwarePlatformModel sw;
  util::OpBreakdown board;

  if (design == core::Design::kDqn) {
    board.add(OpCategory::kPredict1,
              static_cast<double>(measured.invocations(OpCategory::kPredict1)) *
                  sw.dqn_predict_seconds(1, state_dim, hidden_units, actions),
              measured.invocations(OpCategory::kPredict1));
    board.add(
        OpCategory::kPredict32,
        static_cast<double>(measured.invocations(OpCategory::kPredict32)) *
            sw.dqn_predict_seconds(32, state_dim, hidden_units, actions),
        measured.invocations(OpCategory::kPredict32));
    board.add(OpCategory::kTrainDqn,
              static_cast<double>(measured.invocations(OpCategory::kTrainDqn)) *
                  sw.dqn_train_seconds(32, state_dim, hidden_units, actions),
              measured.invocations(OpCategory::kTrainDqn));
    return board;
  }

  // FPGA Q evaluations run through the batched predict_actions schedule
  // (shared state projection + one AXI handshake per batch), so the
  // per-evaluation cost is the amortized batch cost over `actions`.
  const double predict_model =
      design == core::Design::kFpga
          ? hw::CycleModel(hidden_units, input_dim)
                    .predict_batch_seconds(actions) /
                static_cast<double>(actions)
          : sw.oselm_predict_seconds(hidden_units, input_dim);
  const double seq_model =
      design == core::Design::kFpga
          ? hw::CycleModel(hidden_units, input_dim).seq_train_seconds()
          : sw.oselm_seq_train_seconds(hidden_units, input_dim);
  // init_train runs on the board CPU in every design (Fig. 3). ELM's
  // batch training uses an SVD pseudo-inverse instead of the SPD solve;
  // charge it a 3x factor over the Cholesky-based Eq. 8 path.
  const double init_factor = design == core::Design::kElm ? 3.0 : 1.0;
  const double init_model =
      init_factor *
      sw.oselm_init_train_seconds(hidden_units, input_dim, hidden_units);

  for (const OpCategory cat :
       {OpCategory::kPredictInit, OpCategory::kPredictSeq}) {
    const std::uint64_t n = measured.invocations(cat);
    board.add(cat, static_cast<double>(n) * predict_model, n);
  }
  {
    const std::uint64_t n = measured.invocations(OpCategory::kSeqTrain);
    const auto updates = static_cast<double>(n) / 3.0;
    board.add(OpCategory::kSeqTrain,
              updates * seq_model + 2.0 * updates * predict_model, n);
  }
  {
    const std::uint64_t n = measured.invocations(OpCategory::kInitTrain);
    const double solves =
        static_cast<double>(n) / (2.0 * static_cast<double>(hidden_units) + 1.0);
    const double evals = static_cast<double>(n) - solves;
    board.add(OpCategory::kInitTrain,
              solves * init_model + evals * predict_model, n);
  }
  return board;
}

/// Paper Figure 5 completion times [s] (designs x units), -1 = did not
/// complete. Order: ELM, OS-ELM, OS-ELM-L2, OS-ELM-Lipschitz,
/// OS-ELM-L2-Lipschitz, DQN, FPGA.
///
/// The abstract (PAPER.md) claims 29.77x (OS-ELM) and 89.40x (FPGA) over
/// DQN at N = 64. 2208.897 / 74.20 = 29.77 agrees with this table, but
/// 2208.897 / 89.40 = 24.71 s, not the 17.52 s below (126.08x). Which one
/// Fig. 5 shows is unverified; 17.52 stays, as perfbench prints it.
struct PaperFig5Row {
  std::size_t units;
  double seconds[7];
};

inline std::vector<PaperFig5Row> paper_fig5() {
  return {
      {32, {-1, -1, 132.27, -1, 55.02, 3232.54, 6.88}},
      {64, {127.08, -1, 647.56, -1, 74.20, 2208.897, 17.52}},
      {128, {-1, -1, -1, -1, 241.81, 1348.99, 81.79}},
      {192, {-1, -1, -1, -1, 722.64, 1581.02, 155.00}},
  };
}

}  // namespace oselm::bench
