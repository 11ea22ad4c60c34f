// The three benchmark workloads. All use N = 64 hidden units and are
// closed loops: every session (or single agent) waits for its action
// before it steps again.
//
//   solve        single agents train to completion, one trial after
//                another, over a seed set drawn from --seed: the paper's
//                own workload (no server, no worker threads).
//   serve-eval   one AsyncQServer, a primed network, 64 kEvaluate
//                sessions: batches fill and nothing trains.
//   serve-train  RouterQServer with 2 replicas averaging every 256
//                updates, 16 kTrain sessions: small batches next to
//                seq_train, init_train, resets and sync rounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The metrics of the final JSON line: every end-to-end metric, or with
  /// --trace 1 every per-layer metric.
  std::vector<Metric> metrics;
  /// Printed with their units but kept out of the JSON line: figures
  /// that exist for one workload only or that are deterministic models.
  std::vector<Metric> extra;
  std::vector<std::string> notes;

  [[nodiscard]] bool correct() const noexcept {
    return check_failures.empty();
  }
  void check(bool ok, const std::string& what) {
    if (!ok && std::find(check_failures.begin(), check_failures.end(),
                         what) == check_failures.end()) {
      check_failures.push_back(what);
    }
  }
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
Report run_workload(const Args& args);

}  // namespace perfbench
