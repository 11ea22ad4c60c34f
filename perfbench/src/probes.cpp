#include "probes.hpp"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include "hw/cycle_model.hpp"
#include "rl/backend_registry.hpp"

namespace perfbench {

namespace ol = oselm::linalg;
namespace orl = oselm::rl;

StealMeter::Jiffies StealMeter::read() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {};
  double v[8] = {};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n < 8) return {};
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

double StealMeter::lap() {
  const Jiffies now = read();
  const double total = now.total - last_.total;
  const double share = total > 0.0 ? (now.steal - last_.steal) / total : 0.0;
  last_ = now;
  return share;
}

std::uint64_t obs_key(const double* data, std::size_t n) noexcept {
  // splitmix64 finalizer over each value's bit pattern: equal keys mean
  // equal bytes up to a 2^-64 collision chance.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= std::bit_cast<std::uint64_t>(data[i]);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  return h;
}

const char* call_kind_name(CallKind kind) noexcept {
  switch (kind) {
    case CallKind::kPredict:
      return "backend.predict";
    case CallKind::kSeqTrain:
      return "backend.seq_train";
    case CallKind::kInitTrain:
      return "backend.init_train";
    case CallKind::kSyncTarget:
      return "backend.sync_target";
    case CallKind::kInitialize:
      return "backend.initialize";
    case CallKind::kExport:
      return "backend.export_state";
    case CallKind::kImport:
      return "backend.import_state";
  }
  return "backend.unknown";
}

// ---------------------------------------------------------------------------
// TraceStore
// ---------------------------------------------------------------------------

TraceStore::TraceStore(std::size_t env_cap, std::size_t call_cap,
                       std::size_t row_cap)
    : env(env_cap), calls(call_cap), row_keys(row_cap) {}

void TraceStore::open() noexcept {
  opened_ = now_ns();
  open_.store(true, std::memory_order_release);
}

void TraceStore::close() noexcept {
  if (open_.exchange(false, std::memory_order_acq_rel)) {
    closed_.store(now_ns(), std::memory_order_release);
  }
}

void TraceStore::add_env(const EnvRec& rec) noexcept {
  if (!is_open()) return;
  const std::size_t i = env_n_.fetch_add(1, std::memory_order_relaxed);
  if (i >= env.size()) {
    close();
    return;
  }
  env[i] = rec;
}

void TraceStore::add_call(CallRec rec, const std::uint64_t* keys,
                          std::size_t n) noexcept {
  if (!is_open()) return;
  const std::size_t first = row_n_.fetch_add(n, std::memory_order_relaxed);
  const std::size_t i = call_n_.fetch_add(1, std::memory_order_relaxed);
  if (i >= calls.size() || first + n > row_keys.size()) {
    close();
    return;
  }
  for (std::size_t r = 0; r < n; ++r) row_keys[first + r] = keys[r];
  rec.first_row = static_cast<std::uint32_t>(first);
  rec.rows = static_cast<std::uint32_t>(n);
  calls[i] = rec;
}

std::size_t TraceStore::env_count() const noexcept {
  return std::min(env_n_.load(std::memory_order_acquire), env.size());
}

std::size_t TraceStore::call_count() const noexcept {
  return std::min(call_n_.load(std::memory_order_acquire), calls.size());
}

// ---------------------------------------------------------------------------
// WindowedHistogram
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_windowed_ids{1};
}  // namespace

WindowedHistogram::WindowedHistogram(std::size_t windows)
    : windows_(windows), id_(g_windowed_ids.fetch_add(1)) {}

void WindowedHistogram::record(double us) {
  const int w = current_.load(std::memory_order_relaxed);
  if (w < 0 || static_cast<std::size_t>(w) >= windows_) return;
  // Each thread caches its own slot, keyed by the instance id (never by
  // address, which a later instance may reuse).
  thread_local std::uint64_t owner = 0;
  thread_local std::vector<Histogram>* mine = nullptr;
  if (owner != id_) {
    auto slot = std::make_unique<std::vector<Histogram>>(windows_);
    mine = slot.get();
    const std::scoped_lock lk(mu_);
    slots_.push_back(std::move(slot));
    owner = id_;
  }
  (*mine)[static_cast<std::size_t>(w)].record(us);
}

Histogram WindowedHistogram::window(std::size_t w) const {
  Histogram out;
  const std::scoped_lock lk(mu_);
  for (const auto& slot : slots_) out.merge((*slot)[w]);
  return out;
}

Histogram WindowedHistogram::total() const {
  Histogram out;
  for (std::size_t w = 0; w < windows_; ++w) out.merge(window(w));
  return out;
}

// ---------------------------------------------------------------------------
// TimedEnv
// ---------------------------------------------------------------------------

TimedEnv::TimedEnv(oselm::env::EnvironmentPtr inner, EnvSink& sink,
                   WindowedHistogram& responses, TraceStore* trace,
                   std::uint32_t session)
    : inner_(std::move(inner)),
      sink_(sink),
      responses_(responses),
      trace_(trace),
      session_(session) {
  if (!inner_) throw std::invalid_argument("TimedEnv: null environment");
}

TimedEnv::~TimedEnv() {
  const std::scoped_lock lk(sink_.mu);
  sink_.steps += steps_;
  sink_.resets += resets_;
  sink_.failures += failures_;
  sink_.busy_s += static_cast<double>(busy_ns_) * 1e-9;
}

void TimedEnv::finish(std::uint64_t t_call,
                      const oselm::env::Observation& obs, bool is_reset) {
  const std::uint64_t t_ret = now_ns();
  busy_ns_ += t_ret - t_call;
  last_ret_ = t_ret;
  if (trace_ != nullptr && trace_->is_open()) {
    trace_->add_env(EnvRec{t_call, t_ret, obs_key(obs.data(), obs.size()),
                           session_, seq_, is_reset});
  }
  ++seq_;
}

oselm::env::Observation TimedEnv::reset() {
  const std::uint64_t t_call = now_ns();
  oselm::env::Observation obs;
  try {
    obs = inner_->reset();
  } catch (...) {
    ++failures_;
    throw;
  }
  ++resets_;
  finish(t_call, obs, /*is_reset=*/true);
  return obs;
}

oselm::env::StepResult TimedEnv::step(std::size_t action) {
  const std::uint64_t t_call = now_ns();
  if (last_ret_ != 0) {
    responses_.record(static_cast<double>(t_call - last_ret_) * 1e-3);
  }
  oselm::env::StepResult result;
  try {
    result = inner_->step(action);
  } catch (...) {
    ++failures_;
    throw;
  }
  ++steps_;
  finish(t_call, result.observation, /*is_reset=*/false);
  return result;
}

// ---------------------------------------------------------------------------
// TimedBackend
// ---------------------------------------------------------------------------

std::uint64_t LaneStats::busy_ns() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t v : ns) total += v;
  return total;
}

namespace {

class TimedBackend final : public orl::OsElmQBackend {
 public:
  TimedBackend(orl::OsElmQBackendPtr inner, std::shared_ptr<LaneStats> stats,
               TraceStore* trace)
      : OsElmQBackend(inner->ledger_ptr()),
        inner_(std::move(inner)),
        stats_(std::move(stats)),
        trace_(trace),
        state_dim_(inner_->input_dim() - 1),
        cycles_(inner_->hidden_units(), inner_->input_dim()) {}

  void initialize() override {
    timed(CallKind::kInitialize, 0, nullptr, 0, [&] { inner_->initialize(); });
  }
  double predict_main(const ol::VecD& sa) override {
    double q = 0.0;
    timed(CallKind::kPredict, 1, sa.data(), sa.size(),
          [&] { q = inner_->predict_main(sa); },
          cycles_.predict_cycles());
    return q;
  }
  double predict_target(const ol::VecD& sa) override {
    double q = 0.0;
    timed(CallKind::kPredict, 1, sa.data(), sa.size(),
          [&] { q = inner_->predict_target(sa); },
          cycles_.predict_cycles());
    return q;
  }
  void predict_actions(const ol::VecD& state, const ol::VecD& action_codes,
                       orl::QNetwork which, ol::VecD& q_out) override {
    timed(CallKind::kPredict, 1, state.data(), state.size(),
          [&] { inner_->predict_actions(state, action_codes, which, q_out); },
          cycles_.predict_batch_cycles(action_codes.size()));
  }
  void predict_actions_multi(const ol::MatD& states,
                             const ol::VecD& action_codes,
                             orl::QNetwork which, ol::MatD& q_out) override {
    timed(CallKind::kPredict, states.rows(),
          states.rows() == 0 ? nullptr : states.row_ptr(0), states.cols(),
          [&] {
            inner_->predict_actions_multi(states, action_codes, which, q_out);
          },
          cycles_.predict_multi_cycles(states.rows(), action_codes.size()));
  }
  void init_train(const ol::MatD& x, const ol::MatD& t) override {
    timed(CallKind::kInitTrain, x.rows(),
          x.rows() == 0 ? nullptr : x.row_ptr(0), x.cols(),
          [&] { inner_->init_train(x, t); });
  }
  void seq_train(const ol::VecD& sa, double target) override {
    timed(CallKind::kSeqTrain, 1, sa.data(), sa.size(),
          [&] { inner_->seq_train(sa, target); }, cycles_.seq_train_cycles());
  }
  void sync_target() override {
    timed(CallKind::kSyncTarget, 0, nullptr, 0,
          [&] { inner_->sync_target(); });
  }
  [[nodiscard]] bool initialized() const override {
    return inner_->initialized();
  }
  [[nodiscard]] std::size_t input_dim() const override {
    return inner_->input_dim();
  }
  [[nodiscard]] std::size_t hidden_units() const override {
    return inner_->hidden_units();
  }
  [[nodiscard]] bool supports_state_sync() const override {
    return inner_->supports_state_sync();
  }
  [[nodiscard]] orl::QNetState export_state() const override {
    orl::QNetState out;
    const_cast<TimedBackend*>(this)->timed(
        CallKind::kExport, 0, nullptr, 0,
        [&] { out = inner_->export_state(); });
    return out;
  }
  void import_state(const orl::QNetState& state) override {
    timed(CallKind::kImport, 0, nullptr, 0,
          [&] { inner_->import_state(state); });
  }

 private:
  /// Times `fn`. Row i of the call starts at rows_base + i * row_stride;
  /// its key covers the leading state_dim_ entries, which are the bytes
  /// the environment returned.
  template <typename Fn>
  void timed(CallKind kind, std::size_t rows, const double* rows_base,
             std::size_t row_stride, Fn&& fn, std::size_t model_cycles = 0) {
    const std::uint64_t t0 = now_ns();
    try {
      fn();
    } catch (...) {
      ++stats_->failures;
      throw;
    }
    const std::uint64_t t1 = now_ns();
    const auto k = static_cast<std::size_t>(kind);
    ++stats_->calls[k];
    stats_->ns[k] += t1 - t0;
    stats_->rows[k] += rows;
    if (stats_->fixed_point) stats_->model_cycles += model_cycles;
    if (stats_->first_ns == 0) stats_->first_ns = t0;
    stats_->last_ns = t1;
    if (trace_ != nullptr && trace_->is_open()) {
      keys_.resize(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        keys_[r] = obs_key(rows_base + r * row_stride, state_dim_);
      }
      trace_->add_call(CallRec{t0, t1, 0, 0, kind}, keys_.data(), rows);
    }
  }

  orl::OsElmQBackendPtr inner_;
  std::shared_ptr<LaneStats> stats_;
  TraceStore* trace_;
  std::size_t state_dim_;
  oselm::hw::CycleModel cycles_;
  std::vector<std::uint64_t> keys_;
};

std::atomic<BackendProbe*> g_probe{nullptr};

orl::OsElmQBackendPtr make_timed(const std::string& inner_id,
                                 const orl::BackendConfig& config) {
  BackendProbe* probe = g_probe.load(std::memory_order_acquire);
  if (probe == nullptr) {
    throw std::logic_error("perfbench: backend probe not installed");
  }
  auto stats = std::make_shared<LaneStats>();
  stats->inner_id = inner_id;
  stats->fixed_point = orl::backend_capabilities(inner_id).fixed_point;
  {
    const std::scoped_lock lk(probe->mu);
    probe->lanes.push_back(stats);
  }
  return std::make_shared<TimedBackend>(orl::make_backend(inner_id, config),
                                        std::move(stats), probe->trace);
}

}  // namespace

std::string timed_backend_id(const std::string& inner_id) {
  return "perfbench:" + inner_id;
}

void install_backend_probe(BackendProbe* probe) {
  static const bool registered = [] {
    auto& registry = orl::BackendRegistry::global();
    for (const char* inner : {"software", "fpga-q20"}) {
      const std::string id = inner;
      registry.register_backend(
          timed_backend_id(id), registry.capabilities(id),
          [id](const orl::BackendConfig& config) {
            return make_timed(id, config);
          });
    }
    return true;
  }();
  (void)registered;
  g_probe.store(probe, std::memory_order_release);
}

}  // namespace perfbench
