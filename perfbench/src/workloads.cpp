#include "workloads.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "core/design.hpp"
#include "env/registry.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "rl/async_server.hpp"
#include "rl/backend_registry.hpp"
#include "rl/router.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"
#include "waterfall.hpp"

namespace perfbench {

namespace {

namespace core = oselm::core;
namespace env = oselm::env;
namespace linalg = oselm::linalg;
namespace rl = oselm::rl;
namespace util = oselm::util;

constexpr std::size_t kHidden = 64;
constexpr const char* kEnvId = "ShapedCartPole-v0";

// solve: trials per design in one pass over the seed set, and the episode
// cap within which a trial counts as solved.
constexpr std::size_t kSoftwareTrials = 24;
constexpr std::size_t kFpgaTrials = 12;
constexpr std::size_t kEpisodeCap = 1500;

// serve-*: closed-loop client slots, and the episode budget after which a
// session retires and its slot admits a fresh one. The budgets bound each
// session's trajectory storage, so memory does not grow with throughput.
constexpr std::size_t kEvalSlots = 64;
constexpr std::size_t kEvalEpisodes = 2000;
constexpr std::size_t kTrainSlots = 16;
constexpr std::size_t kTrainEpisodes = 400;
constexpr std::size_t kReplayEpisodes = 300;
constexpr int kSetupRepeats = 21;
// setup_s is this quantile of the run's set-up repetitions: low enough to
// pass over the repetitions the shared host slowed.
constexpr double kSetupQuantile = 0.1;
constexpr double kWarmupSeconds = 0.5;
// serve-*: the run is cut into windows, each with its own rate and
// percentiles; each figure is the kBestShare quantile of its windows,
// counted from the best end.
constexpr double kWindowSeconds = 0.5;
constexpr double kBestShare = 0.1;
constexpr std::size_t kReplays = 2;

// Trace capacity (records). Memory ~110 MB; a serve-eval window then
// spans about a second and a solve pass usually fits whole.
constexpr std::size_t kTraceEnv = 1'000'000;
constexpr std::size_t kTraceCalls = 2'000'000;
constexpr std::size_t kTraceRows = 3'000'000;
constexpr std::uint64_t kTraceMarginNs = 2'000'000;
constexpr std::size_t kSpanSteps = 2000;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The q-quantile of `v`, interpolated between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double f = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + f * (v[i + 1] - v[i]) : v[i];
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// The CPUs this thread may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0, double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c, d);
  return buf;
}

std::string sample_note(const char* what, std::uint64_t samples) {
  return std::string(what) + ": " + std::to_string(samples) +
         " samples; highest percentile with >= 10 samples beyond it: p" +
         fmt("%g", Histogram::resolvable_percentile(samples));
}

/// Checks a TrainResult's own bookkeeping against its per-episode vectors.
bool self_consistent(const rl::TrainResult& r) {
  double total = 0.0;
  for (const double s : r.episode_steps) total += s;
  return r.episodes == r.episode_steps.size() &&
         r.episode_returns.size() == r.episode_steps.size() &&
         static_cast<double>(r.total_steps) == total;
}

rl::BackendConfig backend_config(std::uint64_t seed) {
  const rl::SimplifiedOutputModel model(4, 2);
  rl::BackendConfig config;
  config.input_dim = model.input_dim();
  config.hidden_units = kHidden;
  config.seed = mix(seed, 7);
  return config;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Everything the per-layer rows are computed from. Rows of a layer the
/// workload does not exercise read 0.
struct LayerView {
  bool solve = false;
  bool router = false;
  double max_batch = 1.0;
  std::vector<std::shared_ptr<LaneStats>> lanes;
  double env_busy_s = 0.0;
  std::uint64_t env_calls = 0;
  std::uint64_t env_failures = 0;
  std::uint64_t software_steps = 0;  ///< env steps served by "software"
  double software_host_s = 0.0;      ///< solve: software trials' host time
  Waterfall wf;
  double hw_model_pl_s = 0.0;
  double serve_add_us = 0.0;
  double router_add_us = 0.0;
  double mean_batch_rows = 0.0;
  double sync_rounds = 0.0;
  double spillovers = 0.0;
  double agent_overhead_us = 0.0;
  double overhead_frac = 0.0;
  double response_gap_frac = 0.0;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> layer_metrics(const LayerView& v) {
  const auto k = [](CallKind kind) { return static_cast<std::size_t>(kind); };
  double sw_calls[kCallKinds] = {};
  double sw_ns[kCallKinds] = {};
  double sw_rows[kCallKinds] = {};
  double hw_calls[kCallKinds] = {};
  double hw_ns[kCallKinds] = {};
  double hw_cycles = 0.0;
  double failures = 0.0;
  double sw_busy_ns = 0.0;
  double max_lane_busy = 0.0;
  double sync_ns = 0.0;
  for (const auto& lane : v.lanes) {
    failures += static_cast<double>(lane->failures);
    for (std::size_t i = 0; i < kCallKinds; ++i) {
      auto& calls = lane->fixed_point ? hw_calls : sw_calls;
      auto& ns = lane->fixed_point ? hw_ns : sw_ns;
      calls[i] += static_cast<double>(lane->calls[i]);
      ns[i] += static_cast<double>(lane->ns[i]);
      if (!lane->fixed_point) sw_rows[i] += static_cast<double>(lane->rows[i]);
    }
    if (lane->fixed_point) {
      hw_cycles += static_cast<double>(lane->model_cycles);
      continue;
    }
    sw_busy_ns += static_cast<double>(lane->busy_ns());
    sync_ns += static_cast<double>(lane->ns[k(CallKind::kExport)] +
                                   lane->ns[k(CallKind::kImport)]);
    if (lane->last_ns > lane->first_ns) {
      max_lane_busy = std::max(
          max_lane_busy,
          static_cast<double>(lane->busy_ns()) /
              static_cast<double>(lane->last_ns - lane->first_ns));
    }
  }
  const double pred = sw_calls[k(CallKind::kPredict)];
  const double seq = sw_calls[k(CallKind::kSeqTrain)];
  const double init = sw_calls[k(CallKind::kInitTrain)];
  const double rows_per_call = ratio(sw_rows[k(CallKind::kPredict)], pred);
  const Waterfall& wf = v.wf;
  const bool serve = !v.solve;
  const double hw_pl_ns =
      hw_ns[k(CallKind::kPredict)] + hw_ns[k(CallKind::kSeqTrain)];

  return {
      {"env.step_us",
       1e6 * ratio(v.env_busy_s, static_cast<double>(v.env_calls)), "us"},
      {"env.busy_s", v.env_busy_s, "s"},
      {"env.failures", static_cast<double>(v.env_failures), "count"},
      {"backend.predict_calls", pred, "count"},
      {"backend.predict_us", 1e-3 * ratio(sw_ns[k(CallKind::kPredict)], pred),
       "us"},
      {"backend.predict_rows", rows_per_call, "rows"},
      {"backend.batch_fill", ratio(rows_per_call, v.max_batch), "1"},
      {"backend.seq_train_calls", seq, "count"},
      {"backend.seq_train_us",
       1e-3 * ratio(sw_ns[k(CallKind::kSeqTrain)], seq), "us"},
      {"backend.update_frac",
       ratio(seq, static_cast<double>(v.software_steps)), "1"},
      {"backend.init_train_calls", init, "count"},
      {"backend.init_train_us",
       1e-3 * ratio(sw_ns[k(CallKind::kInitTrain)], init), "us"},
      {"backend.busy_frac",
       v.solve ? ratio(sw_busy_ns * 1e-9, v.software_host_s) : max_lane_busy,
       "1"},
      {"backend.failures", failures, "count"},
      {"hw.predict_us",
       1e-3 * ratio(hw_ns[k(CallKind::kPredict)], hw_calls[k(CallKind::kPredict)]),
       "us"},
      {"hw.seq_train_us",
       1e-3 * ratio(hw_ns[k(CallKind::kSeqTrain)],
                    hw_calls[k(CallKind::kSeqTrain)]),
       "us"},
      {"hw.model_pl_s", v.hw_model_pl_s, "s"},
      {"hw.host_ns_per_cycle", ratio(hw_pl_ns, hw_cycles), "ns"},
      {"serve.wait_us",
       serve ? ratio(wf.wait_us, static_cast<double>(wf.steps_with_calls))
             : 0.0,
       "us"},
      {"serve.resume_us",
       serve ? ratio(wf.resume_us, static_cast<double>(wf.steps_with_calls))
             : 0.0,
       "us"},
      {"serve.train_wait_us",
       serve ? ratio(wf.train_wait_us, static_cast<double>(wf.train_steps))
             : 0.0,
       "us"},
      {"serve.add_session_us", v.serve_add_us, "us"},
      {"serve.mean_batch_rows", v.mean_batch_rows, "rows"},
      {"router.add_session_us", v.router_add_us, "us"},
      {"router.sync_rounds", v.sync_rounds, "count"},
      {"router.sync_busy_s", v.router ? sync_ns * 1e-9 : 0.0, "s"},
      {"router.spillovers", v.spillovers, "count"},
      {"agent.overhead_us_per_step", v.agent_overhead_us, "us"},
      {"trace.steps", static_cast<double>(wf.steps), "count"},
      {"trace.unmatched_frac", wf.unmatched_frac(), "1"},
      {"trace.overhead_frac", v.overhead_frac, "1"},
      {"trace.response_gap_frac", v.response_gap_frac, "1"},
  };
}

/// The reconciliation row: the traced segments' per-step means against
/// the untraced mean step response.
std::string reconciliation(const Waterfall& wf, double untraced_mean_us) {
  const double traced = wf.per_step(wf.response_us);
  return fmt("reconcile (us/step): wait %.3f + backend %.3f", wf.per_step(wf.wait_us),
             wf.per_step(wf.backend_us)) +
         fmt(" + between %.3f + resume %.3f", wf.per_step(wf.between_us),
             wf.per_step(wf.resume_us)) +
         fmt(" + no-call %.3f = traced mean response %.3f",
             wf.per_step(wf.nocall_us), traced) +
         fmt("; untraced mean response %.3f (gap %+.1f%%); env.step %.3f",
             untraced_mean_us,
             100.0 * ratio(traced - untraced_mean_us, untraced_mean_us),
             wf.per_step(wf.env_us));
}

std::string waterfall_note(const Waterfall& wf) {
  return fmt("trace window %.3f s: %.0f step spans, %.0f backend rows ",
             wf.window_s, static_cast<double>(wf.steps),
             static_cast<double>(wf.rows)) +
         fmt("(%.0f matched, %.0f at episode boundaries or window edges, "
             "%.0f unmatched)",
             static_cast<double>(wf.rows_matched),
             static_cast<double>(wf.rows_boundary),
             static_cast<double>(wf.rows_unmatched));
}

std::string spans_path(const Args& args) {
  return args.out_dir + "/" + args.workload + "-seed" +
         std::to_string(args.seed) + "-spans.json";
}

// ---------------------------------------------------------------------------
// solve
// ---------------------------------------------------------------------------

struct Trial {
  core::Design design;
  std::uint64_t agent_seed;
  std::uint64_t env_seed;
};

std::size_t design_slot(core::Design d) {
  return d == core::Design::kFpga ? 1 : 0;
}

std::vector<Trial> solve_trials(std::uint64_t seed) {
  std::vector<Trial> trials;
  // Designs interleave, so a slow stretch of the host hits both alike.
  const std::size_t every = (kSoftwareTrials + kFpgaTrials) / kFpgaTrials;
  for (std::size_t i = 0; i < kSoftwareTrials + kFpgaTrials; ++i) {
    trials.push_back({i % every == every - 1 ? core::Design::kFpga
                                             : core::Design::kOsElmL2Lipschitz,
                      mix(seed, 2 * i), mix(seed, 2 * i + 1)});
  }
  return trials;
}

struct TrialOut {
  bool threw = false;
  bool solved = false;
  double host_s = 0.0;
  /// kReferenceSeconds over the reference's time around the trial: the
  /// factor that takes the trial's times to the reference host speed.
  double scale = 1.0;
  std::uint64_t end_ns = 0;
  std::uint64_t steps = 0;
  double response_sum_us = 0.0;  ///< observation -> action
  std::uint64_t response_n = 0;
  double env_busy_s = 0.0;
  double board_s = 0.0;     ///< modeled PYNQ-Z1 seconds (FPGA design)
  double model_pl_s = 0.0;  ///< ledger: modeled PL predict + seq_train
  std::vector<double> episode_steps;
};

struct PassOut {
  std::vector<double> setup_s;  ///< every set-up repetition
  double host_s = 0.0;
  std::vector<TrialOut> trials;
  /// Per trial; folded into the run's best passes, then dropped, so
  /// memory does not grow with the number of passes.
  std::vector<Histogram> responses;
};

/// A trial's best passes so far, one per timed figure. Every pass gives
/// a trial the same trajectory, so its passes differ only in what the
/// shared host did meanwhile; the best is the one the host disturbed
/// least.
/// Times are compared at the reference host speed.
struct BestPass {
  double sec_per_step = 0.0;  ///< 0 until a pass completes the trial
  double raw_sec_per_step = 0.0;  ///< of that pass, as measured
  Histogram p50;  ///< responses of the pass with the lowest median
  double p50_scale = 1.0;
  Histogram p99;  ///< responses of the pass with the lowest p99
  double p99_scale = 1.0;
};

void fold_best(PassOut& pass, std::vector<BestPass>& best) {
  for (std::size_t i = 0; i < best.size(); ++i) {
    const TrialOut& t = pass.trials[i];
    if (t.threw || t.steps == 0) continue;
    BestPass& b = best[i];
    const bool first = b.sec_per_step == 0.0;
    const double raw = t.host_s / static_cast<double>(t.steps);
    if (first || raw * t.scale < b.sec_per_step) {
      b.sec_per_step = raw * t.scale;
      b.raw_sec_per_step = raw;
    }
    const Histogram& h = pass.responses[i];
    if (first ||
        h.quantile(0.50) * t.scale < b.p50.quantile(0.50) * b.p50_scale) {
      b.p50 = h;
      b.p50_scale = t.scale;
    }
    if (first ||
        h.quantile(0.99) * t.scale < b.p99.quantile(0.99) * b.p99_scale) {
      b.p99 = h;
      b.p99_scale = t.scale;
    }
  }
  std::vector<Histogram>().swap(pass.responses);
}

/// The run's end-to-end figures, from each trial's best passes. Every
/// trial counts equally, whatever its trajectory length, and so do the
/// two designs: steps_per_s inverts the mean over the designs of the
/// median over trials of host seconds per step, and the response
/// percentiles come from the mixture of the trials' samples, each design
/// weighted 1/2. Trial lengths differ by orders of magnitude between
/// seeds; step-weighted figures would follow the few longest trials.
struct SolveFigures {
  double steps_per_s = 0.0;
  double sec_per_step[2] = {0.0, 0.0};
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// With `at_reference` the figures are at the reference host speed;
/// otherwise as measured. The percentiles of a mixture of passes are
/// scaled by the mixture's mean factor.
SolveFigures solve_figures(const std::vector<Trial>& trials,
                           const std::vector<BestPass>& best,
                           bool at_reference) {
  std::vector<double> per_design[2];
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (best[i].sec_per_step == 0.0) continue;
    per_design[design_slot(trials[i].design)].push_back(
        at_reference ? best[i].sec_per_step : best[i].raw_sec_per_step);
  }
  std::vector<std::pair<const Histogram*, double>> p50_parts;
  std::vector<std::pair<const Histogram*, double>> p99_parts;
  double p50_scale = 0.0;
  double p99_scale = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (best[i].sec_per_step == 0.0 || best[i].p50.count() == 0) continue;
    const double weight =
        0.5 / static_cast<double>(
                  per_design[design_slot(trials[i].design)].size());
    p50_parts.emplace_back(&best[i].p50, weight);
    p99_parts.emplace_back(&best[i].p99, weight);
    p50_scale += weight * best[i].p50_scale;
    p99_scale += weight * best[i].p99_scale;
  }
  SolveFigures f;
  for (std::size_t d = 0; d < 2; ++d) f.sec_per_step[d] = median(per_design[d]);
  f.steps_per_s = ratio(2.0, f.sec_per_step[0] + f.sec_per_step[1]);
  f.p50_us = Histogram::mixed_quantile(p50_parts, 0.50) *
             (at_reference ? p50_scale : 1.0);
  f.p99_us = Histogram::mixed_quantile(p99_parts, 0.99) *
             (at_reference ? p99_scale : 1.0);
  return f;
}


/// One pass over the seed set: build every agent and env (set-up, timed
/// kSetupRepeats times), then train each to completion.
PassOut solve_pass(const std::vector<Trial>& trials, TraceStore* trace,
                   EnvSink& sink, std::uint32_t& next_session, Report& rep,
                   const std::vector<int>& cpus, std::size_t pass_index) {
  PassOut out;
  out.trials.resize(trials.size());
  std::vector<std::unique_ptr<WindowedHistogram>> responses(trials.size());
  for (auto& r : responses) {
    r = std::make_unique<WindowedHistogram>(1);
    r->set_window(0);
  }
  std::vector<rl::AgentPtr> agents(trials.size());
  std::vector<std::unique_ptr<TimedEnv>> envs(trials.size());

  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < trials.size(); ++i) {
      core::AgentConfig config;
      config.design = trials[i].design;
      config.hidden_units = kHidden;
      config.seed = trials[i].agent_seed;
      if (trace != nullptr) {
        config.backend_id = timed_backend_id(config.resolved_backend_id());
      }
      agents[i] = core::make_agent(config);
      envs[i] = std::make_unique<TimedEnv>(
          env::make_environment(kEnvId, trials[i].env_seed), sink,
          *responses[i], trace, next_session++);
    }
    out.setup_s.push_back(seconds_since(t0));
  }

  rl::TrainerConfig trainer;
  trainer.max_episodes = kEpisodeCap;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    TrialOut& t = out.trials[i];
    if (!cpus.empty()) pin_to({cpus[(i + pass_index) % cpus.size()]});
    const double ref_before = time_reference();
    const std::uint64_t s0 = now_ns();
    rl::TrainResult r;
    try {
      r = rl::run_training(*agents[i], *envs[i], trainer);
    } catch (const std::exception& e) {
      t.threw = true;
      rep.notes.push_back(std::string("trial threw: ") + e.what());
      envs[i].reset();
      agents[i].reset();
      continue;
    }
    t.end_ns = now_ns();
    t.host_s = static_cast<double>(t.end_ns - s0) * 1e-9;
    t.scale = kReferenceSeconds / (0.5 * (ref_before + time_reference()));
    t.steps = envs[i]->steps();
    const Histogram response = responses[i]->window(0);
    t.response_sum_us = response.sum();
    t.response_n = response.count();
    t.env_busy_s = r.breakdown.get(util::OpCategory::kEnvironment);
    t.solved = r.solved;
    rep.check(self_consistent(r), "solve: TrainResult bookkeeping matches "
                                  "its per-episode vectors");
    rep.check(t.steps == r.total_steps,
              "solve: env-wrapper step count equals TrainResult::total_steps");
    rep.check(!r.solved || r.first_solved_episode == r.episodes,
              "solve: a solved trial stops at its first solved episode");
    if (trials[i].design == core::Design::kFpga) {
      using util::OpCategory;
      t.model_pl_s = r.breakdown.get(OpCategory::kPredictInit) +
                     r.breakdown.get(OpCategory::kPredictSeq) +
                     r.breakdown.get(OpCategory::kSeqTrain);
      if (r.solved) {
        t.board_s = oselm::bench::to_board_seconds(
                        r.breakdown, core::Design::kFpga, kHidden)
                        .total_excluding_env();
      }
    }
    t.episode_steps = std::move(r.episode_steps);
    envs[i].reset();  // folds its counters into the sink
    agents[i].reset();
    out.host_s += t.host_s;
  }
  if (!cpus.empty()) pin_to(cpus);
  out.responses.reserve(trials.size());
  for (const auto& r : responses) out.responses.push_back(r->window(0));
  return out;
}

void check_same_trajectories(const PassOut& ref, const PassOut& pass,
                             Report& rep) {
  for (std::size_t i = 0; i < ref.trials.size(); ++i) {
    rep.check(ref.trials[i].threw ||
                  ref.trials[i].episode_steps == pass.trials[i].episode_steps,
              "solve: repeated runs give identical per-seed trajectories");
  }
}

Report run_solve(const Args& args) {
  Report rep;
  const std::vector<Trial> trials = solve_trials(args.seed);
  EnvSink sink;
  std::uint32_t next_session = 0;
  std::vector<PassOut> passes;
  const double budget = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::size_t min_passes = args.trace ? 1 : 2;
  const std::uint64_t t0 = now_ns();
  std::vector<BestPass> best(trials.size());
  // Trial i runs on CPU (i + pass) mod n, with the reference timed on
  // the same CPU just before and after it. The single solve thread would
  // otherwise sit on one vCPU for the whole run; rotating gives every
  // trial passes on every CPU.
  const std::vector<int> cpus = allowed_cpus();
  do {
    passes.push_back(solve_pass(trials, nullptr, sink, next_session, rep,
                                cpus, passes.size()));
    fold_best(passes.back(), best);
    check_same_trajectories(passes.front(), passes.back(), rep);
    if (passes.size() > 1) {
      for (TrialOut& t : passes.back().trials) t.episode_steps = {};
    }
  } while (passes.size() < min_passes ||
           seconds_since(t0) * (1.0 + 1.0 / static_cast<double>(
                                            passes.size())) <= budget);

  // The timed figures come from each trial's best passes.
  const SolveFigures f = solve_figures(trials, best, true);
  const SolveFigures raw = solve_figures(trials, best, false);
  std::vector<double> setups;
  std::vector<double> pass_hosts;
  std::uint64_t samples = 0;
  for (const BestPass& b : best) samples += b.p99.count();
  for (const PassOut& p : passes) {
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
    pass_hosts.push_back(p.host_s);
    for (const TrialOut& t : p.trials) {
      ++rep.attempted;
      if (t.threw) ++rep.failed;
    }
  }

  const PassOut& first = passes.front();
  std::size_t solved = 0;
  std::size_t fpga_solved = 0;
  double board = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialOut& t = first.trials[i];
    if (t.solved) ++solved;
    if (t.solved && trials[i].design == core::Design::kFpga) {
      ++fpga_solved;
      board += t.board_s;
    }
  }
  const double paper_fpga_s = oselm::bench::paper_fig5()[1].seconds[6];
  rep.extra = {
      {"solve_s", median(pass_hosts), "s"},
      {"solved_frac",
       static_cast<double>(solved) / static_cast<double>(trials.size()), "1"},
      {"board_solve_s",
       ratio(board, static_cast<double>(fpga_solved)), "s"},
      {"paper_fig5_fpga_s", paper_fpga_s, "s"},
      {"failed_frac",
       ratio(static_cast<double>(rep.failed),
             static_cast<double>(rep.attempted)),
       "1"},
      {"software_steps_per_s", ratio(1.0, f.sec_per_step[0]), "1/s"},
      {"fpga_steps_per_s", ratio(1.0, f.sec_per_step[1]), "1/s"},
      {"measured_steps_per_s", raw.steps_per_s, "1/s"},
      {"measured_step_p50_us", raw.p50_us, "us"},
      {"measured_step_p99_us", raw.p99_us, "us"},
  };
  rep.notes.push_back(
      fmt("seed set: %.0f software + %.0f FPGA-design trials, episode cap "
          "%.0f; timed figures from each trial's best of %.0f passes",
          static_cast<double>(kSoftwareTrials),
          static_cast<double>(kFpgaTrials), static_cast<double>(kEpisodeCap),
          static_cast<double>(passes.size())));
  rep.notes.push_back(
      "board_solve_s is the mean modeled PYNQ-Z1 time per solved FPGA-design "
      "trial (bench::to_board_seconds from op counts), next to the paper's "
      "Fig. 5 value at N=64; the model has no validation beyond that figure");
  rep.notes.push_back(sample_note("step response", samples) +
                      " (the trials' lowest-p99 passes)");
  rep.notes.push_back(
      fmt("timed figures are at the reference host speed (reference %.0f us; "
          "see reference.hpp); measured_* are the same figures as measured",
          kReferenceSeconds * 1e6));

  if (!args.trace) {
    rep.metrics = {
        {"setup_s", quantile(setups, kSetupQuantile), "s"},
        {"steps_per_s", f.steps_per_s, "1/s"},
        {"step_p50_us", f.p50_us, "us"},
        {"step_p99_us", f.p99_us, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    return rep;
  }

  // Traced phase: one more pass over the same seed set with the backend
  // decorator installed and spans recorded.
  TraceStore store(kTraceEnv, kTraceCalls, kTraceRows);
  BackendProbe probe;
  probe.trace = &store;
  install_backend_probe(&probe);
  EnvSink traced_sink;
  store.open();
  const PassOut traced =
      solve_pass(trials, &store, traced_sink, next_session, rep, cpus, 0);
  store.close();
  install_backend_probe(nullptr);
  check_same_trajectories(first, traced, rep);
  for (const TrialOut& t : traced.trials) {
    ++rep.attempted;
    if (t.threw) ++rep.failed;
  }

  LayerView v;
  v.solve = true;
  v.lanes = probe.lanes;
  v.wf = analyze(store, 0, spans_path(args), kSpanSteps);
  v.env_busy_s = traced_sink.busy_s;
  v.env_calls = traced_sink.steps + traced_sink.resets;
  v.env_failures = traced_sink.failures;
  double paired_traced = 0.0;
  double paired_untraced = 0.0;
  double untraced_resp = 0.0;
  std::uint64_t untraced_n = 0;
  double host_all = 0.0;
  double env_all = 0.0;
  std::uint64_t steps_all = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialOut& t = traced.trials[i];
    if (t.threw) continue;
    host_all += t.host_s;
    env_all += t.env_busy_s;
    steps_all += t.steps;
    if (trials[i].design == core::Design::kOsElmL2Lipschitz) {
      v.software_steps += t.steps;
      v.software_host_s += t.host_s;
    }
    v.hw_model_pl_s += t.model_pl_s;
    if (t.end_ns <= store.closed_ns()) {  // wholly inside the trace window
      paired_traced += t.host_s;
      paired_untraced += first.trials[i].host_s;
      untraced_resp += first.trials[i].response_sum_us;
      untraced_n += first.trials[i].response_n;
    }
  }
  double backend_s = 0.0;
  for (const auto& lane : v.lanes) {
    backend_s += static_cast<double>(lane->busy_ns()) * 1e-9;
  }
  v.agent_overhead_us =
      1e6 * ratio(host_all - env_all - backend_s, static_cast<double>(steps_all));
  v.overhead_frac = ratio(paired_traced, paired_untraced) - 1.0;
  const double untraced_mean =
      ratio(untraced_resp, static_cast<double>(untraced_n));
  v.response_gap_frac =
      ratio(v.wf.per_step(v.wf.response_us) - untraced_mean, untraced_mean);
  rep.metrics = layer_metrics(v);
  rep.notes.push_back(waterfall_note(v.wf));
  rep.notes.push_back(reconciliation(v.wf, untraced_mean));
  rep.notes.push_back(
      fmt("tracing overhead: traced host time %.4f s vs untraced %.4f s over "
          "the same trials (%+.1f%%)",
          paired_traced, paired_untraced, 100.0 * v.overhead_frac));
  return rep;
}

// ---------------------------------------------------------------------------
// serve-eval / serve-train
// ---------------------------------------------------------------------------

/// The serving tier under test, seen only through its public calls.
class Tier {
 public:
  virtual ~Tier() = default;
  /// Admits a session for client `slot`.
  virtual std::size_t add(const rl::AsyncSessionSpec& spec,
                          std::size_t slot) = 0;
  virtual rl::AsyncSessionResult wait(std::size_t id) = 0;
  virtual void stop() = 0;
  [[nodiscard]] virtual rl::AsyncServerStats stats() const = 0;
  [[nodiscard]] virtual double sync_rounds() const { return 0.0; }
  [[nodiscard]] virtual double spillovers() const { return 0.0; }
};

rl::QNetState primed_state(std::uint64_t seed) {
  // The scenario harness's recipe: an init_train on seeded random rows.
  const rl::OsElmQBackendPtr scratch =
      rl::make_backend("software", backend_config(seed));
  util::Rng rng(mix(seed, 11));
  linalg::MatD x(scratch->hidden_units(), scratch->input_dim());
  linalg::MatD t(scratch->hidden_units(), 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  scratch->init_train(x, t);
  return scratch->export_state();
}

rl::AsyncQServerConfig eval_server_config() {
  rl::AsyncQServerConfig config;
  config.name = "serve-eval";
  config.worker_threads = 2;
  config.max_batch = 32;
  config.max_wait_us = 100;
  // A retiring session counts as live until its result is delivered, so
  // a slot re-admitting at once needs headroom over the slot count; the
  // ready queue keeps the bound it would have at kEvalSlots.
  config.max_live_sessions = 2 * kEvalSlots;
  config.ready_queue_capacity = kEvalSlots;
  return config;
}

/// AsyncQServer with results delivered through its on_retire seam into a
/// future per session. AsyncQServer::wait would do, but every retirement
/// wakes every waiter, and 64 waiting clients perturb the run.
class AsyncTier final : public Tier {
 public:
  AsyncTier(const std::string& backend_id, std::uint64_t seed,
            rl::AsyncQServerConfig config)
      : server_(rl::make_backend(backend_id, backend_config(seed)),
                rl::SimplifiedOutputModel(4, 2),
                with_delivery(std::move(config))) {
    const rl::QNetState state = primed_state(seed);
    server_.run_exclusive(
        [&state](rl::OsElmQBackend& b) { b.import_state(state); });
  }
  AsyncTier(const AsyncTier&) = delete;
  AsyncTier& operator=(const AsyncTier&) = delete;
  ~AsyncTier() override { server_.stop(); }

  std::size_t add(const rl::AsyncSessionSpec& spec, std::size_t) override {
    // Held across admission so a session that retires at once still
    // finds its promise.
    const std::scoped_lock lk(mu_);
    const std::size_t id = server_.add_session(spec);
    results_[id] = promises_[id].get_future();
    return id;
  }
  rl::AsyncSessionResult wait(std::size_t id) override {
    std::future<rl::AsyncSessionResult> result;
    {
      const std::scoped_lock lk(mu_);
      result = std::move(results_.at(id));
      results_.erase(id);
    }
    return result.get();
  }
  void stop() override { server_.stop(); }
  [[nodiscard]] rl::AsyncServerStats stats() const override {
    return server_.stats();
  }

 private:
  rl::AsyncQServerConfig with_delivery(rl::AsyncQServerConfig config) {
    config.on_retire = [this](rl::AsyncSessionResult&& r) {
      std::promise<rl::AsyncSessionResult> promise;
      {
        const std::scoped_lock lk(mu_);
        const auto it = promises_.find(r.id);
        promise = std::move(it->second);
        promises_.erase(it);
      }
      promise.set_value(std::move(r));
    };
    return config;
  }

  std::mutex mu_;  ///< guards promises_ and results_
  std::map<std::size_t, std::promise<rl::AsyncSessionResult>> promises_;
  std::map<std::size_t, std::future<rl::AsyncSessionResult>> results_;
  rl::AsyncQServer server_;  // last: stopped before the maps go
};

class RouterTier final : public Tier {
 public:
  RouterTier(const std::string& backend_id, std::uint64_t seed)
      : router_(config(backend_id, seed), rl::SimplifiedOutputModel(4, 2)) {}
  std::size_t add(const rl::AsyncSessionSpec& spec,
                  std::size_t slot) override {
    // Slot s always prefers replica s % R, so the replicas serve equal
    // shares and never fill up.
    rl::RouterSessionSpec placed;
    placed.session = spec;
    for (std::size_t j = 0;; ++j) {
      placed.affinity_key =
          "slot" + std::to_string(slot) + "/" + std::to_string(j);
      if (router_.preferred_replica(placed.affinity_key) ==
          slot % router_.replica_count()) {
        break;
      }
    }
    return router_.add_session(placed);
  }
  rl::AsyncSessionResult wait(std::size_t id) override {
    return router_.wait(id);
  }
  void stop() override { router_.stop(); }
  [[nodiscard]] rl::AsyncServerStats stats() const override {
    return router_.stats().aggregate;
  }
  [[nodiscard]] double sync_rounds() const override {
    return static_cast<double>(router_.stats().syncs);
  }
  [[nodiscard]] double spillovers() const override {
    return static_cast<double>(router_.stats().spillovers);
  }

 private:
  static rl::RouterConfig config(const std::string& backend_id,
                                 std::uint64_t seed) {
    rl::RouterConfig c;
    c.name = "serve-train";
    c.replicas = 2;
    c.backend_id = backend_id;
    c.backend = backend_config(seed);
    c.server.worker_threads = 1;
    c.server.max_batch = 32;
    c.server.max_wait_us = 100;
    // A retiring session counts as live until its result is delivered,
    // so each replica gets room for every slot: a re-admitting slot never
    // finds its replica full.
    c.server.max_live_sessions = kTrainSlots;
    c.sync_policy = rl::TrainSyncPolicy::kPeriodicAverage;
    c.sync_every_updates = 256;
    return c;
  }

  rl::RouterQServer router_;
};

/// A served evaluate session kept for the determinism replay.
struct ReplayCase {
  rl::AsyncSessionSpec spec;
  std::vector<double> episode_steps;
};

struct SlotLog {
  std::uint64_t admitted = 0;
  std::uint64_t ended = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  bool consistent = true;
  Histogram add_us;
  std::vector<std::string> errors;
  std::vector<ReplayCase> replays;
};

/// Per-phase state every session's env wrapper reports into.
struct ServePhase {
  explicit ServePhase(std::size_t windows) : responses(windows) {}

  EnvSink sink;
  WindowedHistogram responses;
  std::unique_ptr<TraceStore> trace;
  BackendProbe probe;
  std::atomic<std::uint32_t> next_session{0};

  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  ///< when the measured phase has stopped
  std::vector<double> window_steps_per_s;
  double stats_us = 0.0;
  double stop_ms = 0.0;
  SlotLog total;
  rl::AsyncServerStats final_stats;
  double sync_rounds = 0.0;
  double spillovers = 0.0;
};

rl::AsyncSessionSpec session_spec(bool train, std::uint64_t seed,
                                  std::size_t slot, std::uint64_t gen) {
  rl::AsyncSessionSpec spec;
  spec.session.env_id = kEnvId;
  spec.session.env_seed = mix(seed, 1'000'000 + 4096 * gen + 2 * slot);
  spec.session.agent_seed = mix(seed, 1'000'001 + 4096 * gen + 2 * slot);
  spec.session.agent.gamma = core::AgentConfig{}.gamma;
  if (train) {
    spec.mode = rl::AsyncSessionMode::kTrain;
    spec.session.trainer.max_episodes = kTrainEpisodes;
    spec.session.trainer.reset_interval = 300;
    spec.session.trainer.stop_on_solved = false;
  } else {
    spec.mode = rl::AsyncSessionMode::kEvaluate;
    spec.session.trainer.max_episodes = kEvalEpisodes;
    spec.session.trainer.solved_threshold = 1e18;  // run the whole budget
    spec.session.trainer.reset_interval = 0;
  }
  return spec;
}

void client_loop(Tier& tier, ServePhase& ph, bool train, std::uint64_t seed,
                 std::size_t slot, const std::atomic<bool>& stop,
                 SlotLog& log) {
  for (std::uint64_t gen = 0; !stop.load(std::memory_order_acquire); ++gen) {
    rl::AsyncSessionSpec spec = session_spec(train, seed, slot, gen);
    ServePhase* phase = &ph;
    spec.env_factory = [phase](std::uint64_t env_seed) {
      return std::make_unique<TimedEnv>(
          env::make_environment(kEnvId, env_seed), phase->sink,
          phase->responses, phase->trace.get(),
          phase->next_session.fetch_add(1, std::memory_order_relaxed));
    };
    std::size_t id = 0;
    const std::uint64_t t0 = now_ns();
    try {
      id = tier.add(spec, slot);
    } catch (const rl::AdmissionError& e) {
      if (e.reason() != rl::AdmissionRejectReason::kStopping) {
        ++log.refused;
        log.errors.push_back(e.what());
      }
      return;
    }
    log.add_us.record(static_cast<double>(now_ns() - t0) * 1e-3);
    ++log.admitted;
    rl::AsyncSessionResult r = tier.wait(id);
    ++log.ended;
    if (r.failed) {
      ++log.failed;
      log.errors.push_back(r.error);
    }
    if (!self_consistent(r.train)) log.consistent = false;
    if (!train && slot < kReplays && !r.train.episode_steps.empty()) {
      spec.env_factory = nullptr;
      log.replays.push_back({spec, std::move(r.train.episode_steps)});
    }
  }
}

/// Runs one serving phase of `seconds` measured seconds.
std::unique_ptr<ServePhase> serve_phase(bool train, const Args& args,
                                        double seconds, bool traced) {
  auto ph = std::make_unique<ServePhase>(static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds))));
  if (traced) {
    ph->trace =
        std::make_unique<TraceStore>(kTraceEnv, kTraceCalls, kTraceRows);
    ph->probe.trace = ph->trace.get();
    install_backend_probe(&ph->probe);
  }
  const std::string backend_id =
      traced ? timed_backend_id("software") : "software";

  std::unique_ptr<Tier> tier;
  const auto set_up = [&] {
    tier.reset();
    {
      const std::scoped_lock lk(ph->probe.mu);
      ph->probe.lanes.clear();  // keep the kept tier's backends only
    }
    const std::uint64_t t0 = now_ns();
    if (train) {
      tier = std::make_unique<RouterTier>(backend_id, args.seed);
    } else {
      tier = std::make_unique<AsyncTier>(backend_id, args.seed,
                                         eval_server_config());
    }
    ph->setup_s.push_back(seconds_since(t0));
  };
  for (int k = 0; k < kSetupRepeats; ++k) set_up();

  const std::size_t slots = train ? kTrainSlots : kEvalSlots;
  std::atomic<bool> stop{false};
  std::vector<SlotLog> logs(slots);
  std::vector<std::thread> clients;
  clients.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    clients.emplace_back([&, s] {
      client_loop(*tier, *ph, train, args.seed, s, stop, logs[s]);
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

  // Measure in windows; each reports its own rate and percentiles.
  const std::size_t windows = ph->responses.windows();
  const auto window_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / static_cast<double>(windows));
  std::uint64_t t = now_ns();
  std::uint64_t steps = tier->stats().steps;
  ph->stats_us = static_cast<double>(now_ns() - t) * 1e-3;
  std::uint64_t start = now_ns();
  if (traced) ph->trace->open();
  for (std::size_t w = 0; w < windows; ++w) {
    ph->responses.set_window(static_cast<int>(w));
    sleep_until_ns(start + window_ns);
    const std::uint64_t steps_now = tier->stats().steps;
    const std::uint64_t end = now_ns();
    ph->window_steps_per_s.push_back(
        static_cast<double>(steps_now - steps) /
        (static_cast<double>(end - start) * 1e-9));
    steps = steps_now;
    start = end;
  }
  ph->responses.set_window(-1);
  if (traced) ph->trace->close();

  stop.store(true, std::memory_order_release);
  t = now_ns();
  tier->stop();
  ph->stop_ms = static_cast<double>(now_ns() - t) * 1e-6;
  for (std::thread& c : clients) c.join();
  ph->final_stats = tier->stats();
  ph->sync_rounds = tier->sync_rounds();
  ph->spillovers = tier->spillovers();
  tier.reset();
  ph->peak_rss_mb = peak_rss_mb();
  if (traced) {
    install_backend_probe(nullptr);
  } else {
    // As many set-ups again after the measured phase, so that one burst
    // of host load cannot cover all of them.
    for (int k = 0; k < kSetupRepeats; ++k) set_up();
    tier.reset();
  }

  for (SlotLog& log : logs) {
    SlotLog& all = ph->total;
    all.admitted += log.admitted;
    all.ended += log.ended;
    all.failed += log.failed;
    all.refused += log.refused;
    all.consistent = all.consistent && log.consistent;
    all.add_us.merge(log.add_us);
    for (auto& e : log.errors) all.errors.push_back(std::move(e));
    for (auto& r : log.replays) all.replays.push_back(std::move(r));
  }
  return ph;
}

/// Replays served evaluate sessions alone on a fresh AsyncQServer, for
/// their first (up to kReplayEpisodes) episodes; the documented contract
/// is a bit-identical trajectory.
void check_replays(const ServePhase& ph, std::uint64_t seed, Report& rep) {
  rep.check(!ph.total.replays.empty(),
            "serve-eval: a served session is available to replay");
  for (ReplayCase c : ph.total.replays) {
    const std::size_t episodes =
        std::min(c.episode_steps.size(), kReplayEpisodes);
    c.episode_steps.resize(episodes);
    c.spec.session.trainer.max_episodes = episodes;
    rl::AsyncQServerConfig config = eval_server_config();
    config.worker_threads = 1;
    AsyncTier alone("software", seed, config);
    const rl::AsyncSessionResult r = alone.wait(alone.add(c.spec, 0));
    rep.check(r.completed && r.train.episode_steps == c.episode_steps,
              "serve-eval: a session replayed alone on a fresh AsyncQServer "
              "gives bit-identical episode_steps");
  }
}

void check_phase(const ServePhase& ph, const char* name, Report& rep) {
  const SlotLog& all = ph.total;
  const std::string w = name;
  rep.check(all.ended == all.admitted,
            w + ": every admitted session ends exactly once");
  rep.check(ph.final_stats.sessions_admitted == all.admitted,
            w + ": server admissions equal client admissions");
  rep.check(ph.sink.steps == ph.final_stats.steps,
            w + ": env-wrapper step count equals stats().steps");
  rep.check(all.failed == 0 && all.refused == 0 &&
                ph.final_stats.env_failures == 0 &&
                ph.final_stats.backend_failures == 0,
            w + ": zero failed or refused sessions");
  rep.check(all.consistent,
            w + ": every TrainResult matches its per-episode vectors");
  for (std::size_t i = 0; i < std::min<std::size_t>(all.errors.size(), 3);
       ++i) {
    rep.notes.push_back(w + " error: " + all.errors[i]);
  }
}

Report run_serve(const Args& args, bool train) {
  Report rep;
  const char* name = train ? "serve-train" : "serve-eval";
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const std::unique_ptr<ServePhase> a =
      serve_phase(train, args, untraced_s, /*traced=*/false);
  check_phase(*a, name, rep);
  if (!train) check_replays(*a, args.seed, rep);

  // Each figure is taken over the run's windows at kBestShare from its
  // best end: the host is shared, and a window in which other guests took
  // the CPU measures them, not this program.
  const std::size_t windows = a->responses.windows();
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const Histogram h = a->responses.window(w);
    p50.push_back(h.quantile(0.50));
    p99.push_back(h.quantile(0.99));
  }
  const Histogram resp = a->responses.total();
  const double untraced_sps = median(a->window_steps_per_s);
  rep.attempted = a->total.admitted + a->total.refused;
  rep.failed = a->total.failed + a->total.refused;
  rep.extra = {
      {"failed_frac",
       ratio(static_cast<double>(rep.failed),
             static_cast<double>(rep.attempted)),
       "1"},
      {"step_mean_us", resp.mean(), "us"},
      {"add_session_p50_us", a->total.add_us.quantile(0.5), "us"},
      {"stats_call_us", a->stats_us, "us"},
      {"stop_ms", a->stop_ms, "ms"},
      {"mean_batch_rows", a->final_stats.mean_batch_rows(), "rows"},
      {"sessions_admitted", static_cast<double>(a->total.admitted), "count"},
      {"median_window_steps_per_s", untraced_sps, "1/s"},
  };
  rep.notes.push_back(
      sample_note("step response", resp.count() / windows) +
      fmt(" (per window; each figure is the %.2f quantile of %.0f windows of "
          "%.2f s, from its best end)",
          kBestShare, static_cast<double>(windows), kWindowSeconds));

  if (!args.trace) {
    rep.metrics = {
        {"setup_s", quantile(a->setup_s, kSetupQuantile), "s"},
        {"steps_per_s",
         quantile(a->window_steps_per_s, 1.0 - kBestShare), "1/s"},
        {"step_p50_us", quantile(p50, kBestShare), "us"},
        {"step_p99_us", quantile(p99, kBestShare), "us"},
        {"peak_rss_mb", a->peak_rss_mb, "MB"},
    };
    return rep;
  }

  const std::unique_ptr<ServePhase> b =
      serve_phase(train, args, args.seconds / 2.0, /*traced=*/true);
  check_phase(*b, name, rep);
  rep.attempted += b->total.admitted + b->total.refused;
  rep.failed += b->total.failed + b->total.refused;
  LayerView v;
  v.router = train;
  v.max_batch = 32.0;
  v.lanes = b->probe.lanes;
  v.env_busy_s = b->sink.busy_s;
  v.env_calls = b->sink.steps + b->sink.resets;
  v.env_failures = b->sink.failures;
  v.software_steps = b->sink.steps;
  v.wf = analyze(*b->trace, kTraceMarginNs, spans_path(args), kSpanSteps);
  (train ? v.router_add_us : v.serve_add_us) = b->total.add_us.mean();
  v.mean_batch_rows = b->final_stats.mean_batch_rows();
  v.sync_rounds = b->sync_rounds;
  v.spillovers = b->spillovers;
  const double traced_sps =
      ratio(static_cast<double>(v.wf.window_step_calls), v.wf.window_s);
  v.overhead_frac = ratio(untraced_sps, traced_sps) - 1.0;
  v.response_gap_frac =
      ratio(v.wf.per_step(v.wf.response_us) - resp.mean(), resp.mean());
  rep.metrics = layer_metrics(v);
  rep.notes.push_back(waterfall_note(v.wf));
  rep.notes.push_back(reconciliation(v.wf, resp.mean()));
  rep.notes.push_back(
      fmt("tracing overhead: untraced %.0f steps/s vs %.0f steps/s inside "
          "the trace window (%+.1f%% time per step)",
          untraced_sps, traced_sps, 100.0 * v.overhead_frac));
  return rep;
}

}  // namespace

Report run_workload(const Args& args) {
  if (args.workload == "solve") return run_solve(args);
  if (args.workload == "serve-eval") return run_serve(args, false);
  if (args.workload == "serve-train") return run_serve(args, true);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
