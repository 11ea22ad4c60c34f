// obs::MetricsRegistry — named counters/gauges/histograms with
// Prometheus text and JSONL exporters plus the periodic sampler.
//
// Load-bearing properties:
//   * registration validates names against the Prometheus grammar and
//     refuses cross-kind re-registration; same-kind re-registration
//     returns the SAME handle;
//   * snapshots are wall-clock stamped and name-sorted;
//   * a source's labeled series appear in snapshots only while its
//     handle lives, and equal series from two sources are summed;
//   * the Prometheus exposition format is pinned (dashboards parse it),
//     labeled families included;
//   * every JSONL line is a self-contained parseable JSON object;
//   * the sampler appends at least an initial and a final snapshot and
//     flips timing_enabled() for its lifetime, plus one line per source
//     that leaves while it runs, carrying that source's final counts.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "util/thread_pool.hpp"

namespace oselm::obs {
namespace {

TEST(MetricsHandles, CounterGaugeHistogramBasics) {
  Counter counter;
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);

  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);

  Histogram histogram;
  histogram.record(10.0);
  histogram.record(20.0);
  EXPECT_EQ(histogram.snapshot().count(), 2u);
}

TEST(MetricsHandles, ConcurrentCounterAddsSumExactly) {
  Counter counter;
  util::ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  futures.reserve(4);
  for (int t = 0; t < 4; ++t) {
    futures.push_back(pool.submit([&counter] {
      for (int i = 0; i < 10'000; ++i) counter.add();
    }));
  }
  for (std::future<void>& f : futures) f.get();
  EXPECT_EQ(counter.value(), 40'000u);
}

TEST(MetricsRegistry, ValidatesNamesAndKinds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("1leading_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(registry.gauge("has space"), std::invalid_argument);
  EXPECT_NO_THROW(registry.counter("ok_name_total"));
  EXPECT_NO_THROW(registry.gauge("ns:scoped_value"));

  // Same kind: same handle. Other kind: refused.
  Counter& a = registry.counter("shared");
  Counter& b = registry.counter("shared");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("shared"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("shared"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotIsStampedAndSorted) {
  MetricsRegistry registry;
  registry.counter("zz_total").add(7);
  registry.counter("aa_total").add(1);
  registry.gauge("mid_value").set(3.0);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.captured_at_us, 0u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[1].name, "zz_total");
  EXPECT_EQ(snap.counters[1].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.0);
}

/// A source exporting one two-series family, labeled server="a"/"b".
MetricsRegistry::SourceHandle add_served_source(MetricsRegistry& registry,
                                                std::string b_label) {
  return registry.add_source(
      [b_label = std::move(b_label)](std::vector<CounterSample>& out) {
        out.push_back({"served_total", {{"server", b_label}}, 5});
        out.push_back({"served_total", {{"server", "a"}}, 2});
      });
}

TEST(MetricsRegistry, SourcesExportLabeledSeriesWhileTheirHandleLives) {
  MetricsRegistry registry;
  registry.counter("plain_total").add(1);
  {
    const MetricsRegistry::SourceHandle handle =
        add_served_source(registry, "b");
    const MetricsSnapshot snap = registry.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].name, "plain_total");
    EXPECT_TRUE(snap.counters[0].labels.empty());
    // Sorted by (name, labels): server="a" before server="b".
    EXPECT_EQ(snap.counters[1].name, "served_total");
    EXPECT_EQ(snap.counters[1].labels.at(0).second, "a");
    EXPECT_EQ(snap.counters[1].value, 2u);
    EXPECT_EQ(snap.counters[2].labels.at(0).second, "b");
    EXPECT_EQ(snap.counters[2].value, 5u);
  }
  // The handle is gone, and so are its series.
  ASSERT_EQ(registry.snapshot().counters.size(), 1u);

  // Two live sources with an equal series (servers sharing a name): the
  // snapshot sums it into one series, so the exposition stays valid.
  MetricsRegistry::SourceHandle first = add_served_source(registry, "b");
  MetricsRegistry::SourceHandle second = add_served_source(registry, "b");
  MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[1].value, 4u);
  EXPECT_EQ(snap.counters[2].value, 10u);
  // A moved-from handle owns nothing; reset() removes the source once.
  MetricsRegistry::SourceHandle moved = std::move(first);
  first.reset();
  EXPECT_EQ(registry.snapshot().counters[2].value, 10u);
  moved.reset();
  moved.reset();
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters[2].value, 5u);
}

TEST(MetricsRegistry, PrometheusTextFormatIsPinned) {
  MetricsRegistry registry;
  registry.counter("requests_total").add(3);
  registry.gauge("queue_depth").set(2.5);
  registry.histogram("latency_us").record(10.0);
  // A label value needing every escape: backslash, quote, newline.
  const MetricsRegistry::SourceHandle handle =
      add_served_source(registry, "r\\1\"x\ny");
  const std::string text = registry.prometheus_text();

  EXPECT_NE(text.find("# TYPE requests_total counter\nrequests_total 3\n"),
            std::string::npos)
      << text;
  // One # TYPE line per labeled family, then each series, labels sorted.
  EXPECT_NE(text.find("# TYPE served_total counter\n"
                      "served_total{server=\"a\"} 2\n"
                      "served_total{server=\"r\\\\1\\\"x\\ny\"} 5\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE served_total"),
            text.rfind("# TYPE served_total"))
      << text;
  EXPECT_NE(text.find("# TYPE queue_depth gauge\nqueue_depth 2.5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE latency_us summary\n"), std::string::npos);
  for (const char* quantile : {"0.5", "0.95", "0.99"}) {
    EXPECT_NE(text.find("latency_us{quantile=\"" + std::string(quantile) +
                        "\"} "),
              std::string::npos)
        << text;
  }
  EXPECT_NE(text.find("latency_us_sum 10\n"), std::string::npos) << text;
  EXPECT_NE(text.find("latency_us_count 1\n"), std::string::npos) << text;
}

TEST(MetricsRegistry, JsonlLineIsSelfContainedJson) {
  MetricsRegistry registry;
  registry.counter("events_total").add(5);
  registry.gauge("level").set(-1.25);
  registry.histogram("lat_us").record(100.0);
  const MetricsRegistry::SourceHandle handle =
      add_served_source(registry, "b");
  const std::string line = MetricsRegistry::jsonl_line(registry.snapshot());

  JsonValue root;
  std::string error;
  ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
  ASSERT_TRUE(root.is_object());
  const JsonValue* stamp = root.find("captured_at_us");
  ASSERT_NE(stamp, nullptr);
  EXPECT_TRUE(stamp->is_number());
  const JsonValue* counters = root.find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* events = counters->find("events_total");
  ASSERT_NE(events, nullptr);
  EXPECT_DOUBLE_EQ(events->number_value, 5.0);
  // Labeled series carry their Prometheus spelling as the key.
  const JsonValue* served = counters->find("served_total{server=\"b\"}");
  ASSERT_NE(served, nullptr) << line;
  EXPECT_DOUBLE_EQ(served->number_value, 5.0);
  const JsonValue* gauges = root.find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* level = gauges->find("level");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->number_value, -1.25);
  const JsonValue* histograms = root.find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* lat = histograms->find("lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_NE(lat->find("count"), nullptr);
}

TEST(MetricsRegistry, SamplerWritesParseableSeriesAndFlipsTimingFlag) {
  const std::string path =
      ::testing::TempDir() + "/oselm_metrics_sampler_test.jsonl";
  MetricsRegistry registry;
  Counter& ticks = registry.counter("ticks_total");
  EXPECT_FALSE(timing_enabled());
  ASSERT_TRUE(registry.start_sampler(path, /*period_ms=*/5));
  EXPECT_TRUE(timing_enabled());
  EXPECT_FALSE(registry.start_sampler(path, 5));  // one sampler at a time
  ticks.add(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  registry.stop_sampler();
  EXPECT_FALSE(timing_enabled());
  registry.stop_sampler();  // idempotent

  std::ifstream file(path);
  ASSERT_TRUE(file.is_open());
  std::string line;
  std::size_t lines = 0;
  std::uint64_t last_stamp = 0;
  while (std::getline(file, line)) {
    ++lines;
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(line, &root, &error)) << error << "\n" << line;
    const JsonValue* stamp = root.find("captured_at_us");
    ASSERT_NE(stamp, nullptr);
    EXPECT_GE(static_cast<std::uint64_t>(stamp->number_value), last_stamp);
    last_stamp = static_cast<std::uint64_t>(stamp->number_value);
  }
  EXPECT_GE(lines, 2u);  // at least the initial and the final snapshot
  std::remove(path.c_str());
}

TEST(MetricsRegistry, SamplerKeepsTheFinalCountsOfASourceThatLeaves) {
  const std::string path =
      ::testing::TempDir() + "/oselm_metrics_departed_test.jsonl";
  MetricsRegistry registry;
  // A period far longer than the test: only the initial line, the
  // departure line and the final line can be written.
  ASSERT_TRUE(registry.start_sampler(path, /*period_ms=*/60000));
  const auto initial_line_written = [&path] {
    std::ifstream in(path);
    std::string first;
    return static_cast<bool>(std::getline(in, first));
  };
  for (int i = 0; i < 5000 && !initial_line_written(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(initial_line_written());
  add_served_source(registry, "brief").reset();
  EXPECT_TRUE(registry.snapshot().counters.empty());  // gone from snapshots
  registry.stop_sampler();
  add_served_source(registry, "after").reset();  // no sampler: no line

  std::ifstream file(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(file, line)) lines.push_back(line);
  std::size_t carrying = 0;
  for (const std::string& l : lines) {
    JsonValue root;
    std::string error;
    ASSERT_TRUE(parse_json(l, &root, &error)) << error << "\n" << l;
    const JsonValue* brief =
        root.find("counters")->find("served_total{server=\"brief\"}");
    if (brief != nullptr) {
      EXPECT_EQ(brief->number_value, 5.0);
      ++carrying;
    }
    EXPECT_EQ(l.find("after"), std::string::npos) << l;
  }
  EXPECT_EQ(carrying, 1u);
  EXPECT_GE(lines.size(), 3u);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, SamplerRefusesUnwritablePath) {
  MetricsRegistry registry;
  EXPECT_FALSE(registry.start_sampler("", 5));
  EXPECT_FALSE(
      registry.start_sampler("/nonexistent-dir-zz/metrics.jsonl", 5));
  EXPECT_FALSE(timing_enabled());
}

TEST(MetricsGlobals, WallClockLooksLikeUnixMicroseconds) {
  const std::uint64_t us = wall_clock_us();
  // After 2020-01-01 and before 2100-01-01, in microseconds.
  EXPECT_GT(us, 1'577'836'800'000'000u);
  EXPECT_LT(us, 4'102'444'800'000'000u);
}

}  // namespace
}  // namespace oselm::obs
