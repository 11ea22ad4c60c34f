// Deterministic schedule expansion: ScenarioSpec -> the exact timeline
// the chaos driver executes.
//
// expand_schedule() is a PURE function of the spec (master seed included):
// it draws every per-session choice — env id from the mix, fault wrapper
// and its per-instance seed, train/eval mode, env seed, agent seed,
// affinity key — from ONE dedicated util::Rng stream seeded by the
// spec's master seed, in a fixed call order. Same spec + seed therefore
// expands to a bit-identical schedule on every run and platform (the
// fault-schedule reproducibility pin in tests/scenario/spec_test.cpp),
// and the expansion never touches any environment's rng.
//
// The digest hashes the schedule's canonical text with util::fnv1a, so
// two verdict JSONs can be compared for "same plan" without shipping the
// plan itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"

namespace oselm::scenario {

/// One fully-resolved session: everything add_session needs.
struct PlannedSession {
  std::size_t index = 0;    ///< global admission order across bursts
  std::string env_id;       ///< final registry id, fault wrapper included
  bool train = false;       ///< kTrain vs kEvaluate (lockstep: ignored)
  std::uint64_t env_seed = 0;
  std::uint64_t agent_seed = 0;
  std::string affinity_key; ///< router placement / duplicate detection
};

/// One mass-join burst at a fixed offset from scenario start.
struct PlannedBurst {
  std::uint64_t at_ms = 0;
  std::vector<PlannedSession> sessions;
};

struct ScenarioSchedule {
  std::vector<PlannedBurst> bursts;
  std::size_t total_sessions = 0;
  bool stall_planned = false;
  std::size_t stall_before_burst = 0;  ///< stall launches before this burst
  std::uint64_t stall_ms = 0;
  std::size_t stall_replica = 0;
  /// Backend-fault plan: the serving backend id gets wrapped as
  /// "fault:<kind>:<rate>:<seed>:<backend_id>" with a per-run seed drawn
  /// from the schedule stream (AFTER the per-session draws, so adding a
  /// backend fault to a spec never reshuffles its session plan).
  bool backend_fault_planned = false;
  std::string backend_fault_kind;
  double backend_fault_rate = 0.0;
  std::uint64_t backend_fault_seed = 0;
  std::size_t backend_fault_replica = 0;  ///< router: faulted replica
  /// Replica-kill event: kill_replica hard-killed from this burst on,
  /// once it holds a live session (see ScenarioSpec).
  bool kill_planned = false;
  std::size_t kill_replica = 0;
  std::size_t kill_before_burst = 0;
  /// util::fnv1a over to_text() — the reproducibility fingerprint the
  /// verdict JSON reports.
  std::uint64_t digest = 0;

  /// Canonical human-readable listing (one line per session/burst/stall);
  /// the digest input. Deterministic by construction.
  [[nodiscard]] std::string to_text() const;
};

/// Expands `spec` (which must already validate()) into its schedule.
[[nodiscard]] ScenarioSchedule expand_schedule(const ScenarioSpec& spec);

}  // namespace oselm::scenario
