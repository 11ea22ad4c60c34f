// Named metrics registry: atomic counters/gauges, histogram handles,
// live counter sources, a periodic sampler, and Prometheus / JSONL
// exporters.
//
// Instrumented code registers a metric ONCE (registration takes a mutex
// and validates the name against the Prometheus grammar) and then holds
// the returned reference forever — updates are single relaxed atomic ops
// on the handle, safe from any thread. Histograms wrap the existing
// util::LatencyHistogram (quarter-octave buckets, merge-based) behind a
// tiny spinlock-free mutex; they sit off the per-step hot path (batch
// linger, admission wait), so a mutexed record is fine there.
//
// Objects that keep their own counters (the serving tiers) do not copy
// them into the registry: add_source() registers a callback that appends
// the object's labeled series at snapshot time, and the returned handle
// takes the series out of later snapshots when the object goes away (a
// running sampler still writes one last line that includes them).
// CounterSet and CounterField give such an object one table per stats
// struct, which its stats(), merge(), to_json() and export all iterate.
//
// Snapshots are wall-clock stamped (`captured_at_us`, microseconds since
// the Unix epoch) so they line up with AsyncServerStats/RouterStats
// captured_at_us and with trace timelines. Two writers, no network
// dependency:
//   - prometheus_text(): the text exposition format (counters as
//     `# TYPE x counter` families with optional `{label="value"}`
//     series, histograms as summaries with p50/p95/p99 quantile lines) —
//     serve the file with any static server or node_exporter's textfile
//     collector;
//   - jsonl_line(): one self-contained JSON object per snapshot,
//     appended to a .metrics.jsonl time-series file by the sampler.
//
// The sampler runs on a util::ThreadPool(1) lane (never a naked
// std::thread — the lint gate forbids those) and flips the global
// timing_enabled() flag while active, which is what gates the few
// instrumentation sites that need an extra clock read (e.g. batch-linger
// measurement) so the default-off serving path stays clock-free.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/latency_histogram.hpp"

namespace oselm::util {
class ThreadPool;
}  // namespace oselm::util

namespace oselm::obs {

/// Monotone event count. add() from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value. set()/add() from any thread.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe wrapper over util::LatencyHistogram. Keep off per-step
/// hot paths (record takes a mutex); fine for per-batch / per-admission
/// seams.
class Histogram {
 public:
  void record(double value) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    histogram_.record(value);
  }
  void merge(const util::LatencyHistogram& other) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    histogram_.merge(other);
  }
  [[nodiscard]] util::LatencyHistogram snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return histogram_;
  }

 private:
  mutable std::mutex mutex_;
  util::LatencyHistogram histogram_;
};

/// One counter series: a metric name, its label pairs (empty for a
/// registered counter) and its value.
struct CounterSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::uint64_t value = 0;
};

/// One field of a stats struct's counter table: its JSON key, which also
/// names the exported series, and the member that holds it.
template <class Stats>
struct CounterField {
  const char* key;
  std::uint64_t Stats::*member;
};

/// The live counters behind a `Fields` table (a constexpr std::array of
/// CounterField): one relaxed atomic per field, addressed at compile time
/// by the stats member it fills, so each event is one atomic add.
template <const auto& Fields>
class CounterSet {
 public:
  template <auto Member>
  void add(std::uint64_t n = 1) noexcept {
    values_[index_of(Member)].fetch_add(n, std::memory_order_relaxed);
  }
  template <auto Member>
  [[nodiscard]] std::uint64_t value() const noexcept {
    return values_[index_of(Member)].load(std::memory_order_relaxed);
  }
  /// Copies every counter into its stats member.
  template <class Stats>
  void load_into(Stats& out) const noexcept {
    for (std::size_t i = 0; i < Fields.size(); ++i) {
      out.*Fields[i].member = values_[i].load(std::memory_order_relaxed);
    }
  }
  /// Appends `<prefix><key>_total{server="<server>"}` per counter.
  void export_to(std::vector<CounterSample>& out, const std::string& prefix,
                 const std::string& server) const {
    for (std::size_t i = 0; i < Fields.size(); ++i) {
      out.push_back({prefix + Fields[i].key + "_total",
                     {{"server", server}},
                     values_[i].load(std::memory_order_relaxed)});
    }
  }

 private:
  static consteval std::size_t index_of(auto member) {
    for (std::size_t i = 0; i < Fields.size(); ++i) {
      if (Fields[i].member == member) return i;
    }
    throw "CounterSet: member is not in the counter table";
  }

  std::array<std::atomic<std::uint64_t>, Fields.size()> values_{};
};

/// into.key += from.key for every field of the table.
template <class Stats, std::size_t N>
void add_counters(Stats& into, const Stats& from,
                  const std::array<CounterField<Stats>, N>& fields) noexcept {
  for (const CounterField<Stats>& field : fields) {
    into.*field.member += from.*field.member;
  }
}

/// One `  "key": value,` line per field of the table.
template <class Stats, std::size_t N>
[[nodiscard]] std::string counters_json(
    const Stats& stats, const std::array<CounterField<Stats>, N>& fields) {
  std::string out;
  for (const CounterField<Stats>& field : fields) {
    out += std::string("  \"") + field.key +
           "\": " + std::to_string(stats.*field.member) + ",\n";
  }
  return out;
}

/// One timestamped view of every registered metric and every source's
/// counter series. Counters are sorted by (name, labels); series with
/// equal name and labels (two live servers sharing a name) are summed.
struct MetricsSnapshot {
  std::uint64_t captured_at_us = 0;  ///< wall clock, us since Unix epoch
  std::vector<CounterSample> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, util::LatencyHistogram>> histograms;
};

class MetricsRegistry {
 public:
  /// Appends a live object's counter series to a snapshot. Runs under
  /// the registry's lock, so it must not call back into the registry.
  using Source = std::function<void(std::vector<CounterSample>&)>;

  /// Removes one registered source (see SourceHandle). While a sampler
  /// runs, it first takes a snapshot that still includes the source; the
  /// sampler writes it as an extra line, so a source that lives shorter
  /// than the sampler period still leaves its final counts in the file.
  struct SourceRemover {
    std::uint64_t id = 0;
    void operator()(MetricsRegistry* registry) const noexcept;
  };
  /// Owns one registered source. Destroying (or resetting) it removes the
  /// source; once that returns, no snapshot runs the callback again, so
  /// an object may own the handle of a source that reads its members.
  /// The registry must outlive the handle.
  using SourceHandle = std::unique_ptr<MetricsRegistry, SourceRemover>;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry the serving stack's instrumentation uses.
  /// Tests build private instances instead.
  static MetricsRegistry& global();

  /// Registers (or finds) a metric. Names must match the Prometheus
  /// grammar [a-zA-Z_:][a-zA-Z0-9_:]* — anything else throws
  /// std::invalid_argument. A name registered as one kind cannot be
  /// re-registered as another (throws). References stay valid for the
  /// registry's lifetime; callers cache them.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a counter source (see Source); its series appear in every
  /// snapshot until the returned handle is destroyed. Sources are not
  /// name-checked: they must emit valid metric and label names.
  [[nodiscard]] SourceHandle add_source(Source source);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Prometheus text exposition for a snapshot: one `# TYPE` header per
  /// counter family, then its series (`name{key="value"} n`, label
  /// values escaped), gauges with `# TYPE` headers, histograms as
  /// summaries (quantile labels 0.5 / 0.95 / 0.99 plus _sum/_count).
  /// Pinned by tests/obs/metrics_test.
  [[nodiscard]] static std::string prometheus_text(
      const MetricsSnapshot& snapshot);
  [[nodiscard]] std::string prometheus_text() const {
    return prometheus_text(snapshot());
  }

  /// One JSONL record: {"captured_at_us":..,"counters":{series:n,..},
  /// "gauges":{..},"histograms":{name:{count,min,mean,p50,p95,p99,max}}}
  /// where each counter series key is its Prometheus spelling,
  /// `name` or `name{key="value"}`.
  [[nodiscard]] static std::string jsonl_line(const MetricsSnapshot& snapshot);

  /// Starts a background sampler appending jsonl_line(snapshot()) to
  /// `path` every `period_ms` (>= 1), plus one line per source removed
  /// while it runs (see SourceRemover). Idempotent stop via
  /// stop_sampler(), which writes one final snapshot. While any sampler
  /// runs, timing_enabled() is true.
  bool start_sampler(const std::string& path, std::uint64_t period_ms);
  void stop_sampler();

 private:
  void sampler_loop(std::uint64_t period_ms);
  [[nodiscard]] MetricsSnapshot snapshot_locked() const;  // mutex_ held

  // Lock order: sampler_mutex_ > loop_mutex_; mutex_ (the name maps and
  // sources) is held while sources run, so it ranks above any lock a
  // source takes; each Histogram's internal mutex is a leaf. The sampler
  // lane takes loop_mutex_ only.
  mutable std::mutex mutex_;  // name maps + sources; handles self-synced
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::uint64_t, Source> sources_;
  std::uint64_t next_source_id_ = 0;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  bool sampling_ = false;  ///< a sampler will still write departed_
  std::vector<MetricsSnapshot> departed_;  ///< taken as sources left

  std::mutex sampler_mutex_;  // start/stop lifecycle (never held in loop)
  std::unique_ptr<util::ThreadPool> sampler_pool_;
  std::string sampler_path_;
  std::mutex loop_mutex_;  // sampler_stop_ + wakeup cv
  std::condition_variable loop_cv_;
  bool sampler_stop_ = false;
};

/// True while timing-hungry instrumentation should take clock reads:
/// set by MetricsRegistry sampler activity or explicitly (the tracer has
/// its own flag). Relaxed load — safe on hot paths.
[[nodiscard]] bool timing_enabled() noexcept;
void set_timing_enabled(bool enabled) noexcept;

/// Wall-clock microseconds since the Unix epoch (snapshot stamps and the
/// stats-satellite captured_at_us fields share this definition).
[[nodiscard]] std::uint64_t wall_clock_us() noexcept;

}  // namespace oselm::obs
