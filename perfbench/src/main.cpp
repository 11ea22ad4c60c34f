// perfbench — the repository benchmark.
//
//   perfbench --workload <solve|serve-eval|serve-train> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints every metric with its unit, the run metadata and the
// correctness checks, then as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones from a traced run. A copy of everything printed goes to
// .bench_out/<workload>-seed<n>-trace<t>.json, and a traced run also
// writes its first step spans to .bench_out/<workload>-seed<n>-spans.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "linalg/kernels.hpp"
#include "probes.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Report;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<solve|serve-eval|serve-train> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  char meta[512];
  std::snprintf(meta, sizeof(meta),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
                "\"kernel_set\": \"%s\", \"omp_threads\": %d}",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, oselm::linalg::kernels::active_kernel_set(),
                omp_threads);

  Report rep;
  perfbench::StealMeter steal;
  try {
    std::filesystem::create_directories(args.out_dir);
    rep = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  // A run whose host stole much CPU time is noisier than its windows can
  // absorb; the share is printed so such a run can be recognised.
  rep.extra.push_back({"host_steal_frac", steal.lap(), "1"});
  for (Metric& m : rep.metrics) {
    if (!std::isfinite(m.value)) {
      rep.check(false, "metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }

  std::printf("meta: %s\n", meta);
  for (const Metric& m : rep.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : rep.extra) {
    std::printf("info   %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : rep.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& f : rep.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("checks: %s\n", rep.correct() ? "all passed" : "FAILED");

  const std::string result =
      std::string("{\"correct\": ") + (rep.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(rep.attempted) +
      ", \"failed\": " + std::to_string(rep.failed) +
      ", \"metrics\": " + json_metrics(rep.metrics) + "}";

  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::string notes = "[";
    for (std::size_t i = 0; i < rep.notes.size(); ++i) {
      notes += (i == 0 ? "" : ", ") + json_string(rep.notes[i]);
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < rep.check_failures.size(); ++i) {
      failures += (i == 0 ? "" : ", ") + json_string(rep.check_failures[i]);
    }
    std::fprintf(f,
                 "{\"meta\": %s,\n \"result\": %s,\n \"info\": %s,\n "
                 "\"notes\": %s],\n \"check_failures\": %s]}\n",
                 meta, result.c_str(), json_metrics(rep.extra).c_str(),
                 notes.c_str(), failures.c_str());
    std::fclose(f);
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}
