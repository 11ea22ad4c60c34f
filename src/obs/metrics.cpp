#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace oselm::obs {
namespace {

std::atomic<bool> g_timing_enabled{false};

/// Throws unless `name` matches the Prometheus grammar.
void check_metric_name(const std::string& name) {
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  const auto tail = [&head](char c) {
    return head(c) || (c >= '0' && c <= '9');
  };
  if (name.empty() || !head(name.front()) ||
      !std::all_of(name.begin(), name.end(), tail)) {
    throw std::invalid_argument("obs: invalid metric name '" + name + "'");
  }
}

/// Finds or adds `name` in `slots`; `other_kind` says another kind's map
/// already holds the name.
template <class Metric>
Metric& find_or_add(std::map<std::string, std::unique_ptr<Metric>>& slots,
                    const std::string& name, bool other_kind) {
  if (other_kind) {
    throw std::invalid_argument("obs: metric '" + name +
                                "' already registered as another kind");
  }
  std::unique_ptr<Metric>& slot = slots[name];
  if (!slot) slot = std::make_unique<Metric>();
  return *slot;
}

void append_double(std::string* out, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void append_u64(std::string* out, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  *out += buf;
}

/// Prometheus series spelling: `name` or `name{key="value",...}` with
/// backslash, double quote and newline escaped in label values.
std::string series_name(const CounterSample& sample) {
  if (sample.labels.empty()) return sample.name;
  std::string out = sample.name + '{';
  for (const auto& [key, value] : sample.labels) {
    if (out.back() != '{') out += ',';
    out += key + "=\"";
    for (const char c : value) {
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      if (c == '\\' || c == '"') out += '\\';
      out += c;
    }
    out += '"';
  }
  return out + '}';
}

}  // namespace

bool timing_enabled() noexcept {
  return g_timing_enabled.load(std::memory_order_relaxed);
}

void set_timing_enabled(bool enabled) noexcept {
  g_timing_enabled.store(enabled, std::memory_order_relaxed);
}

std::uint64_t wall_clock_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() { stop_sampler(); }

MetricsRegistry& MetricsRegistry::global() {
  // Leaked: instrumentation handles live in function-local statics whose
  // destruction order against this object is unspecified.
  static MetricsRegistry* instance = new MetricsRegistry;
  return *instance;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  check_metric_name(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(counters_, name,
                     gauges_.contains(name) || histograms_.contains(name));
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  check_metric_name(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(gauges_, name,
                     counters_.contains(name) || histograms_.contains(name));
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  check_metric_name(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_or_add(histograms_, name,
                     counters_.contains(name) || gauges_.contains(name));
}

MetricsRegistry::SourceHandle MetricsRegistry::add_source(Source source) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_source_id_++;
  sources_.emplace(id, std::move(source));
  return SourceHandle(this, SourceRemover{id});
}

void MetricsRegistry::SourceRemover::operator()(
    MetricsRegistry* registry) const noexcept {
  const std::lock_guard<std::mutex> lock(registry->mutex_);
  if (registry->sampling_) {
    // The source's last counts, for a run shorter than the sampler period.
    registry->departed_.push_back(registry->snapshot_locked());
  }
  registry->sources_.erase(id);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_locked();
}

MetricsSnapshot MetricsRegistry::snapshot_locked() const {
  MetricsSnapshot snap;
  snap.captured_at_us = wall_clock_us();
  std::vector<CounterSample> counters;
  for (const auto& [name, counter] : counters_) {
    counters.push_back({name, {}, counter->value()});
  }
  for (const auto& [id, source] : sources_) source(counters);
  std::sort(counters.begin(), counters.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
            });
  for (CounterSample& sample : counters) {
    if (!snap.counters.empty() && snap.counters.back().name == sample.name &&
        snap.counters.back().labels == sample.labels) {
      snap.counters.back().value += sample.value;
    } else {
      snap.counters.push_back(std::move(sample));
    }
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->snapshot());
  }
  return snap;  // std::map iteration => gauge/histogram names sorted
}

std::string MetricsRegistry::prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& sample = snapshot.counters[i];
    if (i == 0 || snapshot.counters[i - 1].name != sample.name) {
      out += "# TYPE " + sample.name + " counter\n";
    }
    out += series_name(sample) + ' ';
    append_u64(&out, sample.value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out += "# TYPE " + name + " gauge\n" + name + " ";
    append_double(&out, value);
    out += '\n';
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    out += "# TYPE " + name + " summary\n";
    for (const auto& [label, q] :
         {std::pair<const char*, double>{"0.5", 0.50},
          {"0.95", 0.95},
          {"0.99", 0.99}}) {
      out += name + "{quantile=\"" + label + "\"} ";
      append_double(&out, histogram.quantile(q));
      out += '\n';
    }
    out += name + "_sum ";
    append_double(&out, histogram.sum());
    out += '\n' + name + "_count ";
    append_u64(&out, histogram.count());
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::jsonl_line(const MetricsSnapshot& snapshot) {
  std::string out = "{\"captured_at_us\":";
  append_u64(&out, snapshot.captured_at_us);
  out += ",\"counters\":{";
  bool first = true;
  for (const CounterSample& sample : snapshot.counters) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(series_name(sample)) + "\":";
    append_u64(&out, sample.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
    append_double(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":" + histogram.to_json();
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::start_sampler(const std::string& path,
                                    std::uint64_t period_ms) {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_pool_ != nullptr || path.empty()) return false;
  {
    // Truncate up front so a restart never appends to a stale series,
    // and so an unwritable path fails here rather than silently in the
    // background lane.
    std::ofstream probe(path, std::ios::trunc);
    if (!probe) return false;
  }
  sampler_path_ = path;
  {
    const std::lock_guard<std::mutex> loop_lock(loop_mutex_);
    sampler_stop_ = false;
  }
  {
    const std::lock_guard<std::mutex> registry_lock(mutex_);
    sampling_ = true;
    departed_.clear();
  }
  set_timing_enabled(true);
  sampler_pool_ = std::make_unique<util::ThreadPool>(1);
  const std::uint64_t period = period_ms > 0 ? period_ms : 1;
  (void)sampler_pool_->submit([this, period] { sampler_loop(period); });
  return true;
}

void MetricsRegistry::sampler_loop(std::uint64_t period_ms) {
  std::ofstream file(sampler_path_, std::ios::app);
  bool last = false;
  while (true) {
    // Snapshots taken as sources left come first, in removal order, then
    // this period's. The last pass (a final snapshot, so short runs always
    // leave at least two points) also ends departure recording.
    std::vector<MetricsSnapshot> lines;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      lines.swap(departed_);
      lines.push_back(snapshot_locked());
      if (last) sampling_ = false;
    }
    if (file) {
      for (const MetricsSnapshot& snap : lines) {
        file << jsonl_line(snap) << '\n';
      }
      file.flush();
    }
    if (last) break;
    std::unique_lock<std::mutex> lock(loop_mutex_);
    last = loop_cv_.wait_for(lock, std::chrono::milliseconds(period_ms),
                             [this] { return sampler_stop_; });
  }
}

void MetricsRegistry::stop_sampler() {
  const std::lock_guard<std::mutex> lock(sampler_mutex_);
  if (sampler_pool_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> loop_lock(loop_mutex_);
    sampler_stop_ = true;
  }
  loop_cv_.notify_all();
  sampler_pool_.reset();  // joins the lane; the loop wrote its final line
  set_timing_enabled(false);
}

}  // namespace oselm::obs
