// End-to-end observability over the serving stack: a traced
// RouterQServer run (training + averaging + a hard replica kill with
// rescues) must export a Chrome trace-event JSON that validates, shows
// the batch/train/rescue/averaging span categories, and spans at least
// two distinct threads — the acceptance criterion for the tracing layer.
// The metrics half: every live server exports its own counters, labeled
// server="<name>", equal to its stats(), and a destroyed server's series
// leave the next snapshot (also while the sampler is running).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rl/backend_registry.hpp"
#include "rl/router.hpp"
#include "util/rng.hpp"

namespace oselm::obs {
namespace {

using rl::AsyncSessionMode;
using rl::AsyncSessionSpec;
using rl::RouterConfig;
using rl::RouterQServer;
using rl::SimplifiedOutputModel;

RouterConfig traced_router_config() {
  RouterConfig config;
  config.name = "traced-fleet";
  config.replicas = 2;
  config.backend_id = "software";
  config.backend.input_dim = 5;
  config.backend.hidden_units = 16;
  config.backend.l2_delta = 0.5;
  config.backend.spectral_normalize = true;
  config.backend.seed = 99;
  config.server.worker_threads = 2;
  config.server.max_batch = 8;
  config.server.max_wait_us = 50;
  config.server.max_live_sessions = 8;
  config.sync_policy = rl::TrainSyncPolicy::kPeriodicAverage;
  config.sync_every_updates = 32;
  return config;
}

AsyncSessionSpec session_spec(AsyncSessionMode mode, std::uint64_t env_seed,
                              std::uint64_t agent_seed,
                              std::size_t episodes) {
  AsyncSessionSpec spec;
  spec.mode = mode;
  spec.session.env_id = "ShapedCartPole-v0";
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.solved_threshold = 1e9;
  spec.session.trainer.reset_interval = 0;
  return spec;
}

TEST(ServingTrace, RouterRunExportsPerfettoLoadableTrace) {
  Tracer::set_enabled(false);
  Tracer::reset_for_testing();
  Tracer::set_enabled(true);

  {
    RouterQServer router(traced_router_config(), SimplifiedOutputModel(4, 2));
    // Training sessions on both replicas: init_train + seq_train spans,
    // and enough updates for at least one averaging round.
    std::vector<std::size_t> trainers;
    for (std::size_t r = 0; r < 2; ++r) {
      AsyncSessionSpec train =
          session_spec(AsyncSessionMode::kTrain, 11 + r, 21 + r, 12);
      trainers.push_back(router.add_session({train, "trainer"}));
    }
    for (const std::size_t id : trainers) (void)router.wait(id);

    // A slow evaluation pinned mid-flight while its replica dies: the
    // rescue machinery records its spans and instants.
    AsyncSessionSpec victim =
        session_spec(AsyncSessionMode::kEvaluate, 913, 37, 10);
    victim.session.env_id = "delay:500:ShapedCartPole-v0";
    const std::size_t victim_id = router.add_session({victim, "victim"});
    router.kill_replica(router.preferred_replica("victim"));
    (void)router.wait(victim_id);
    router.stop();

    const rl::RouterStats stats = router.stats();
    EXPECT_GT(stats.captured_at_us, 0u);
    EXPECT_GT(stats.uptime_us, 0u);
    EXPECT_GE(stats.replacements, 1u);
  }
  Tracer::set_enabled(false);

  const std::vector<TraceEvent> events = Tracer::drain();
  std::set<std::string> span_categories;
  std::set<std::uint32_t> span_tids;
  for (const TraceEvent& event : events) {
    if (event.phase != 'X') continue;
    span_categories.insert(event.category);
    span_tids.insert(event.tid);
  }
  EXPECT_TRUE(span_categories.count("batch")) << "no batch spans";
  EXPECT_TRUE(span_categories.count("train")) << "no train spans";
  EXPECT_TRUE(span_categories.count("rescue")) << "no rescue spans";
  EXPECT_TRUE(span_categories.count("averaging")) << "no averaging spans";
  EXPECT_GE(span_tids.size(), 2u)
      << "spans must come from at least two threads";

  const std::string json = Tracer::chrome_trace_json(events);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;

  JsonValue root;
  ASSERT_TRUE(parse_json(json, &root, &error)) << error;
  const JsonValue* trace_events = root.find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_TRUE(trace_events->is_array());
  EXPECT_GE(trace_events->items.size(), events.size());

  Tracer::reset_for_testing();
}

TEST(ServingTrace, AsyncStatsCarryCaptureStamps) {
  // The stats satellite alone (no tracing): captured_at_us/uptime_us are
  // stamped, merged keep-newest/keep-largest, and emitted in the JSON.
  RouterConfig config = traced_router_config();
  config.sync_policy = rl::TrainSyncPolicy::kIndependent;
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  const std::size_t id = router.add_session(
      {session_spec(AsyncSessionMode::kEvaluate, 5, 7, 2), "probe"});
  (void)router.wait(id);
  const rl::RouterStats stats = router.stats();
  router.stop();

  EXPECT_GT(stats.captured_at_us, 1'577'836'800'000'000u);  // after 2020
  EXPECT_GT(stats.aggregate.captured_at_us, 0u);
  for (const rl::AsyncServerStats& replica : stats.per_replica) {
    EXPECT_GT(replica.captured_at_us, 0u);
    EXPECT_LE(replica.captured_at_us, stats.captured_at_us + 1'000'000u);
  }
  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"captured_at_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"uptime_us\": "), std::string::npos);

  rl::AsyncServerStats merged;
  rl::AsyncServerStats newer;
  newer.captured_at_us = 100;
  newer.uptime_us = 50;
  merged.merge(newer);
  EXPECT_EQ(merged.captured_at_us, 100u);
  EXPECT_EQ(merged.uptime_us, 50u);
  rl::AsyncServerStats older;
  older.captured_at_us = 40;
  older.uptime_us = 80;
  merged.merge(older);
  EXPECT_EQ(merged.captured_at_us, 100u);  // keep newest stamp
  EXPECT_EQ(merged.uptime_us, 80u);        // keep largest uptime
}

/// The counter series a snapshot holds for one server label, by name.
std::map<std::string, std::uint64_t> server_series(
    const MetricsSnapshot& snapshot, const std::string& server) {
  std::map<std::string, std::uint64_t> out;
  for (const CounterSample& sample : snapshot.counters) {
    if (sample.labels.size() == 1 && sample.labels[0].first == "server" &&
        sample.labels[0].second == server) {
      out.emplace(sample.name, sample.value);
    }
  }
  return out;
}

/// Expects `series` to hold exactly `prefix<key>_total` = stats.key for
/// every field of `fields` (plus `extra` further series).
template <class Stats, std::size_t N>
void expect_series_equal_stats(
    const std::map<std::string, std::uint64_t>& series, const Stats& stats,
    const std::array<CounterField<Stats>, N>& fields,
    const std::string& prefix, std::size_t extra = 0) {
  EXPECT_EQ(series.size(), N + extra);
  for (const CounterField<Stats>& field : fields) {
    const auto it = series.find(prefix + field.key + "_total");
    ASSERT_NE(it, series.end()) << field.key;
    EXPECT_EQ(it->second, stats.*field.member) << field.key;
  }
}

std::unique_ptr<rl::AsyncQServer> export_server(const std::string& name) {
  rl::BackendConfig backend = traced_router_config().backend;
  rl::AsyncQServerConfig config = traced_router_config().server;
  config.name = name;
  return std::make_unique<rl::AsyncQServer>(
      rl::make_backend("software", backend), SimplifiedOutputModel(4, 2),
      config);
}

TEST(ServingMetrics, StandaloneServerExportsItsStatsCounters) {
  const std::unique_ptr<rl::AsyncQServer> server = export_server("solo");
  for (std::size_t i = 0; i < 3; ++i) {
    server->add_session(
        session_spec(AsyncSessionMode::kTrain, 40 + i, 50 + i, 4));
  }
  (void)server->drain();
  const rl::AsyncServerStats stats = server->stats();
  ASSERT_GT(stats.steps, 0u);
  ASSERT_GT(stats.train_updates, 0u);
  expect_series_equal_stats(
      server_series(MetricsRegistry::global().snapshot(), "solo"), stats,
      rl::kAsyncServerCounters, "oselm_async_");
  // The text exposition carries the same labeled series.
  EXPECT_NE(MetricsRegistry::global().prometheus_text().find(
                "oselm_async_steps_total{server=\"solo\"} " +
                std::to_string(stats.steps) + "\n"),
            std::string::npos);
}

TEST(ServingMetrics, RouterExportsEachReplicaAndItsOwnCounters) {
  RouterConfig config = traced_router_config();
  config.name = "export-fleet";
  RouterQServer router(config, SimplifiedOutputModel(4, 2));
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 4; ++i) {
    ids.push_back(router.add_session(
        {session_spec(AsyncSessionMode::kTrain, 60 + i, 70 + i, 6), ""}));
  }
  for (const std::size_t id : ids) (void)router.wait(id);
  // A kill adds health transitions and a replacement incarnation, whose
  // series restart from zero with the new server.
  router.kill_replica(0);
  while (router.stats().replacements == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)router.drain();
  router.stop();

  const MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  for (std::size_t r = 0; r < router.replica_count(); ++r) {
    const std::string name = "export-fleet/r" + std::to_string(r);
    SCOPED_TRACE(name);
    expect_series_equal_stats(server_series(snapshot, name),
                              router.replica(r).stats(),
                              rl::kAsyncServerCounters, "oselm_async_");
  }
  const rl::RouterStats stats = router.stats();
  EXPECT_EQ(stats.sessions_admitted, 4u);
  EXPECT_EQ(stats.replacements, 1u);
  const std::map<std::string, std::uint64_t> own =
      server_series(snapshot, "export-fleet");
  expect_series_equal_stats(own, stats, rl::kRouterCounters,
                            "oselm_router_", /*extra=*/1);
  std::uint64_t transitions = 0;
  for (const rl::ReplicaHealthInfo& info : stats.health) {
    transitions += info.timeline.size() - 1;
  }
  EXPECT_EQ(transitions, 3u);  // failed, replaced, healthy
  EXPECT_EQ(own.at("oselm_router_health_transitions_total"), transitions);
  // No process-wide serving totals: every serving series is labeled.
  for (const CounterSample& sample : snapshot.counters) {
    if (sample.name.rfind("oselm_", 0) == 0) {
      EXPECT_FALSE(sample.labels.empty()) << sample.name;
    }
  }
}

TEST(ServingMetrics, LiveServersExportSeparatelyAndLeaveWhenDestroyed) {
  std::unique_ptr<rl::AsyncQServer> a = export_server("left");
  std::unique_ptr<rl::AsyncQServer> b = export_server("right");
  (void)a->wait(
      a->add_session(session_spec(AsyncSessionMode::kEvaluate, 1, 2, 2)));
  (void)b->wait(
      b->add_session(session_spec(AsyncSessionMode::kEvaluate, 3, 4, 3)));

  MetricsSnapshot snapshot = MetricsRegistry::global().snapshot();
  const auto left = server_series(snapshot, "left");
  const auto right = server_series(snapshot, "right");
  EXPECT_EQ(left.at("oselm_async_steps_total"), a->stats().steps);
  EXPECT_EQ(right.at("oselm_async_steps_total"), b->stats().steps);
  EXPECT_EQ(left.at("oselm_async_sessions_admitted_total"), 1u);
  EXPECT_EQ(right.at("oselm_async_sessions_admitted_total"), 1u);

  a.reset();
  snapshot = MetricsRegistry::global().snapshot();
  EXPECT_TRUE(server_series(snapshot, "left").empty());
  EXPECT_EQ(server_series(snapshot, "right").at("oselm_async_steps_total"),
            b->stats().steps);
  b.reset();
  EXPECT_TRUE(
      server_series(MetricsRegistry::global().snapshot(), "right").empty());
}

TEST(ServingMetrics, SamplerSnapshotsWhileServersAreDestroyed) {
  // The sampler lane runs each server's export source while servers are
  // built, serve and are destroyed on this thread; under TSan this is
  // the proof that the source handle's removal orders against snapshots.
  const std::string path =
      ::testing::TempDir() + "/oselm_serving_metrics_test.jsonl";
  ASSERT_TRUE(MetricsRegistry::global().start_sampler(path, 1));
  for (std::size_t i = 0; i < 20; ++i) {
    const std::unique_ptr<rl::AsyncQServer> server =
        export_server("churn-" + std::to_string(i % 2));
    for (std::size_t s = 0; s < 2; ++s) {
      server->add_session(
          session_spec(AsyncSessionMode::kEvaluate, 80 + i, 90 + s, 2));
    }
    (void)server->drain();
  }
  MetricsRegistry::global().stop_sampler();

  std::ifstream file(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(file, line)) {
    ++lines;
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
  }
  EXPECT_GE(lines, 2u);
  // The last line was written after every server was destroyed.
  EXPECT_EQ(line.find("churn-"), std::string::npos) << line;
  std::remove(path.c_str());
}

TEST(ServingMetrics, ServerShorterThanTheSamplerPeriodKeepsItsCounters) {
  // The server is built, serves and is destroyed between the sampler's
  // initial and final lines, so neither can see it; the line written as
  // its source leaves carries its final counts.
  const std::string path =
      ::testing::TempDir() + "/oselm_short_server_metrics_test.jsonl";
  ASSERT_TRUE(MetricsRegistry::global().start_sampler(path, 60000));
  const auto line_count = [&path] {
    std::ifstream in(path);
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) ++count;
    return count;
  };
  for (int i = 0; i < 5000 && line_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(line_count(), 1u);  // the initial line, before the server
  std::uint64_t steps = 0;
  {
    const std::unique_ptr<rl::AsyncQServer> server =
        export_server("short-lived");
    (void)server->wait(server->add_session(
        session_spec(AsyncSessionMode::kEvaluate, 5, 6, 2)));
    steps = server->stats().steps;
  }
  ASSERT_GT(steps, 0u);
  MetricsRegistry::global().stop_sampler();

  std::ifstream file(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(file, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 3u);
  const std::string key = "oselm_async_steps_total{server=\"short-lived\"}";
  std::size_t carrying = 0;
  for (const std::string& l : lines) {
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(l, &root, &error)) << error << "\n" << l;
    const JsonValue* value = root.find("counters")->find(key);
    if (value == nullptr) continue;
    EXPECT_EQ(value->number_value, static_cast<double>(steps));
    ++carrying;
  }
  EXPECT_EQ(carrying, 1u);
  // Later snapshots no longer carry the destroyed server.
  EXPECT_EQ(lines.back().find("short-lived"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace oselm::obs
