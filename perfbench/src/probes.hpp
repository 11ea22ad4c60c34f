// Outside-in probes: the two seams through which the benchmark watches
// the program without changing it.
//
//   * TimedEnv wraps an env::Environment. It is handed to AsyncQServer
//     through AsyncSessionSpec::env_factory, or to rl::run_training
//     directly. Untraced it reads the clock twice per call: the time from
//     one return to the session's next step() call is the observation ->
//     action response an edge device waits for.
//   * TimedBackend decorates an OsElmQBackend and is registered in
//     rl::BackendRegistry::global() under "perfbench:<inner-id>". It is
//     installed only in traced runs; it forwards every virtual (state
//     export/import too) and shares the inner backend's ledger.
//
// In a traced run both seams append fixed-size records to a TraceStore;
// waterfall.cpp joins them after the run.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "env/environment.hpp"
#include "histogram.hpp"
#include "rl/agent.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Share of the machine's CPU time that the hypervisor gave to other
/// guests ("steal" in /proc/stat) between laps; 0 where unavailable.
class StealMeter {
 public:
  StealMeter() : last_(read()) {}
  /// Steal share since construction or the previous lap.
  double lap();

 private:
  struct Jiffies {
    double steal = 0.0;
    double total = 0.0;
  };
  static Jiffies read();
  Jiffies last_;
};

/// Digest of the exact bytes of `n` doubles (an observation, or the
/// leading state of an encoded (state, action) row).
std::uint64_t obs_key(const double* data, std::size_t n) noexcept;

// ---------------------------------------------------------------------------
// Trace storage
// ---------------------------------------------------------------------------

/// One environment call: reset() or step().
struct EnvRec {
  std::uint64_t t_call = 0;
  std::uint64_t t_ret = 0;
  std::uint64_t key = 0;  ///< obs_key of the returned observation
  std::uint32_t session = 0;
  std::uint32_t seq = 0;  ///< call number within the session
  bool is_reset = false;
};

enum class CallKind : std::uint8_t {
  kPredict,
  kSeqTrain,
  kInitTrain,
  kSyncTarget,
  kInitialize,
  kExport,
  kImport,
};
inline constexpr std::size_t kCallKinds = 7;
const char* call_kind_name(CallKind kind) noexcept;

/// One backend call. Its rows' observation keys live in
/// TraceStore::row_keys[first_row, first_row + rows).
struct CallRec {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t first_row = 0;
  std::uint32_t rows = 0;
  CallKind kind = CallKind::kPredict;
};

/// Fixed-capacity, append-only span storage shared by all threads. The
/// window closes for every buffer as soon as one of them is full, so the
/// records that remain describe one contiguous interval.
class TraceStore {
 public:
  TraceStore(std::size_t env_cap, std::size_t call_cap, std::size_t row_cap);

  void open() noexcept;
  void close() noexcept;
  [[nodiscard]] bool is_open() const noexcept {
    return open_.load(std::memory_order_relaxed);
  }
  void add_env(const EnvRec& rec) noexcept;
  void add_call(CallRec rec, const std::uint64_t* keys,
                std::size_t n) noexcept;

  [[nodiscard]] std::uint64_t opened_ns() const noexcept { return opened_; }
  [[nodiscard]] std::uint64_t closed_ns() const noexcept {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t env_count() const noexcept;
  [[nodiscard]] std::size_t call_count() const noexcept;

  std::vector<EnvRec> env;
  std::vector<CallRec> calls;
  std::vector<std::uint64_t> row_keys;

 private:
  std::atomic<bool> open_{false};
  std::uint64_t opened_ = 0;
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::size_t> env_n_{0};
  std::atomic<std::size_t> call_n_{0};
  std::atomic<std::size_t> row_n_{0};
};

// ---------------------------------------------------------------------------
// Environment seam
// ---------------------------------------------------------------------------

/// Response samples split into measurement windows. Each recording
/// thread writes its own histograms, so recording takes no lock; read the
/// windows once the recording threads are quiescent. Reporting the median
/// over windows keeps a burst of host noise in one window from moving a
/// whole run's figure.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(std::size_t windows);
  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  /// Samples recorded from now on go to window `w`; -1 stops recording.
  void set_window(int w) noexcept {
    current_.store(w, std::memory_order_relaxed);
  }
  void record(double us);
  [[nodiscard]] std::size_t windows() const noexcept { return windows_; }
  /// Window `w` merged over the recording threads.
  [[nodiscard]] Histogram window(std::size_t w) const;
  [[nodiscard]] Histogram total() const;

 private:
  std::size_t windows_;
  std::uint64_t id_;  ///< unique per instance; keys the per-thread slot
  std::atomic<int> current_{-1};
  mutable std::mutex mu_;  ///< guards slots_ (registration, reads)
  std::vector<std::unique_ptr<std::vector<Histogram>>> slots_;
};

/// Per-phase aggregate that every TimedEnv folds into when destroyed.
struct EnvSink {
  std::mutex mu;
  std::uint64_t steps = 0;     ///< every step() call
  std::uint64_t resets = 0;
  std::uint64_t failures = 0;  ///< calls that threw
  double busy_s = 0.0;         ///< time inside the wrapped env
};

class TimedEnv final : public oselm::env::Environment {
 public:
  /// Responses go to `responses` (in its current window; steps and busy
  /// time are always counted); `trace` is null in untraced runs.
  TimedEnv(oselm::env::EnvironmentPtr inner, EnvSink& sink,
           WindowedHistogram& responses, TraceStore* trace,
           std::uint32_t session);
  TimedEnv(const TimedEnv&) = delete;
  TimedEnv& operator=(const TimedEnv&) = delete;
  ~TimedEnv() override;

  oselm::env::Observation reset() override;
  oselm::env::StepResult step(std::size_t action) override;
  void seed(std::uint64_t seed_value) override { inner_->seed(seed_value); }
  [[nodiscard]] const oselm::env::BoxSpace& observation_space()
      const override {
    return inner_->observation_space();
  }
  [[nodiscard]] const oselm::env::DiscreteSpace& action_space()
      const override {
    return inner_->action_space();
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_->max_episode_steps();
  }

  [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }

 private:
  void finish(std::uint64_t t_call, const oselm::env::Observation& obs,
              bool is_reset);

  oselm::env::EnvironmentPtr inner_;
  EnvSink& sink_;
  WindowedHistogram& responses_;
  TraceStore* trace_;
  std::uint32_t session_;
  std::uint32_t seq_ = 0;
  std::uint64_t last_ret_ = 0;  ///< 0 until the first return
  std::uint64_t steps_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t busy_ns_ = 0;
};

// ---------------------------------------------------------------------------
// Backend seam
// ---------------------------------------------------------------------------

/// Counters of one decorated backend. Each backend is touched by one
/// thread at a time (an agent's, or a server's batch thread), so these
/// are plain fields read after that thread has stopped.
struct LaneStats {
  std::string inner_id;
  bool fixed_point = false;  ///< the Q20 FPGA model
  std::array<std::uint64_t, kCallKinds> calls{};
  std::array<std::uint64_t, kCallKinds> ns{};
  std::array<std::uint64_t, kCallKinds> rows{};
  std::uint64_t failures = 0;
  /// Modeled PL cycles of the predict/seq_train calls (fixed-point only).
  std::uint64_t model_cycles = 0;
  std::uint64_t first_ns = 0;  ///< start of the first call
  std::uint64_t last_ns = 0;   ///< end of the latest call

  [[nodiscard]] std::uint64_t busy_ns() const noexcept;
};

/// What the registered decorator factories report into. One per traced
/// phase; set with install_backend_probe before any decorated backend is
/// built.
struct BackendProbe {
  TraceStore* trace = nullptr;
  std::mutex mu;
  std::vector<std::shared_ptr<LaneStats>> lanes;
};

/// Registers "perfbench:software" and "perfbench:fpga-q20" once per
/// process and points their factories at `probe` (null detaches).
void install_backend_probe(BackendProbe* probe);

/// The registry id of the decorated `inner_id`.
std::string timed_backend_id(const std::string& inner_id);

}  // namespace perfbench
