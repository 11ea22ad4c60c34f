// The fault core shared by env::FaultEnv and rl::FaultBackend.
//
// Both decorators are named by one registry grammar,
// "fault:<kind>:<rate>:<seed>:<inner-id>", and fire from one kind of
// schedule: a DEDICATED util::Rng stream seeded by the id's seed, one
// bernoulli(rate) decision per faultable call. This module owns that
// decision — the schedule and its preview, the id parser and formatter,
// and the nested-error wrapper — so each decorator keeps only its kind
// list and its kind-specific effects.
//
// The schedule is a pure function of (rate, seed): it never draws from
// the wrapped object's rng, and util::Rng is platform-stable, so the same
// pair fires on the same calls on every run and platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace oselm::util {

/// A seeded fire/no-fire stream; draw() consumes one decision per call.
class FaultSchedule {
 public:
  /// Throws std::invalid_argument("<who>: rate <rate> outside [0, 1]")
  /// unless 0 <= rate <= 1 (NaN is rejected).
  FaultSchedule(double rate, std::uint64_t seed, std::string_view who);

  /// The next decision. Counts the call and, when it fires, the fault.
  bool draw() noexcept;
  /// Restarts the stream at its seed. The counts are cumulative and
  /// survive a rewind.
  void rewind() noexcept { rng_ = Rng(seed_); }

  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Draws so far.
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  /// Draws that fired.
  [[nodiscard]] std::uint64_t fired() const noexcept { return fired_; }

 private:
  double rate_;
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t calls_ = 0;
  std::uint64_t fired_ = 0;
};

/// The decisions a FaultSchedule built with (rate, seed) makes over its
/// next `draws` draws: element k is the k-th draw after construction or
/// rewind(). This IS the schedule contract tests and scenarios pin.
[[nodiscard]] std::vector<bool> fault_schedule_preview(double rate,
                                                       std::uint64_t seed,
                                                       std::size_t draws);

/// The fields of "fault:<kind>:<rate>:<seed>:<inner-id>".
struct FaultId {
  std::string kind;
  double rate = 0.0;
  std::uint64_t seed = 0;
  std::string inner_id;
};

/// Parses an id known to start with "fault:", leaving the kind for the
/// decorator's registry to check. Every error is a std::invalid_argument
/// prefixed with `who` ("make_environment" or "make_backend"): "malformed
/// fault id" for a missing field or an empty inner id, "fault rate"
/// outside [0, 1], and a non-numeric or over-64-bit "fault seed".
[[nodiscard]] FaultId parse_fault_id(const std::string& id,
                                     std::string_view who);

/// "fault:<kind>:<rate>:<seed>:<inner>", the inverse of parse_fault_id.
[[nodiscard]] std::string format_fault_id(std::string_view kind, double rate,
                                          std::uint64_t seed,
                                          std::string_view inner);

/// A rate or probability as "%.12g", the spelling of format_fault_id and
/// of scenario spec text: it round-trips every value a spec file writes
/// and stays readable ("0.05", not "0.050000000000000003").
[[nodiscard]] std::string format_rate(double rate);

/// Parses `text`, a decimal field of `id`, as an integer no greater than
/// `max`. Throws std::invalid_argument "<who>: non-numeric <field> in
/// '<id>'" or "<who>: <field> in '<id>' exceeds <limit>".
[[nodiscard]] std::uint64_t parse_unsigned_field(
    std::string_view text, std::uint64_t max, std::string_view limit,
    std::string_view who, std::string_view field, const std::string& id);

/// Runs `build` for a modifier's inner id. A std::invalid_argument that
/// does not already quote `outer_id` is rethrown with
/// " (inside modifier id '<outer_id>')" appended: callers wrote the outer
/// id, and an error naming only the innermost fragment is undebuggable
/// from their logs.
template <typename Fn>
auto with_outer_id(const std::string& outer_id, Fn&& build)
    -> decltype(build()) {
  try {
    return build();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.find("'" + outer_id + "'") != std::string::npos) throw;
    throw std::invalid_argument(what + " (inside modifier id '" + outer_id +
                                "')");
  }
}

}  // namespace oselm::util
