// Seeded fault-injection decorator for OS-ELM backends — the backend-side
// twin of env::FaultEnv.
//
// The self-healing router (replica health, session rescue, replacement)
// needs *backend* failures it can reproduce bit-for-bit: a replica whose
// arithmetic substrate throws mid-batch, stalls the batch thread, or
// silently corrupts predictions to NaN. FaultBackend decorates any
// registered backend with exactly those modes, fired by a
// util::FaultSchedule (util/fault.hpp): a dedicated stream that never
// perturbs the wrapped backend's rng, so the learned weights under a given
// config seed are bit-identical with and without the wrapper, and
// util::fault_schedule_preview() pins the fire sequence without training
// a network.
//
// One bernoulli(rate) decision is drawn per SERVING-PATH call —
// predict_main, predict_target, predict_actions, predict_actions_multi,
// init_train, seq_train, sync_target — in call order. What a firing fault
// does depends on the kind:
//
//   kThrow  throws rl::BackendFaultInjected BEFORE delegating — the
//           serving stack's backend-failure isolation path (fail_batch,
//           replica health degradation).
//   kStall  sleeps stall_duration() first, then delegates unchanged —
//           the latency-only fault; results are bit-identical to the
//           unwrapped backend.
//   kNan    delegates, then corrupts the PREDICT outputs to quiet NaN
//           (predict_main/predict_target return NaN; predict_actions and
//           predict_actions_multi fill q_out with NaN). Training and sync
//           calls consume their draw but pass through unchanged — the
//           silent-corruption mode AsyncQServer's NaN scan must catch.
//
// STATE-MANAGEMENT CALLS NEVER FAULT: initialize(), export_state() and
// import_state() pass through un-faulted and consume no draw. Replica
// replacement seeds a fresh server from an exported QNetState and the
// periodic-average sync round-trips state through every replica; both must
// keep working on a replica whose serving path is mid-failure, so the
// fault axis deliberately cannot reach them.
//
// Registry integration: rl::make_backend accepts
// "fault:<kind>:<rate>:<seed>:<inner-id>" (e.g.
// "fault:throw:0.05:9:software"), nestable with itself — so scenario
// specs compose backend fault plans from ids alone, with the same
// nested-error reporting as the env registry.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rl/agent.hpp"
#include "util/fault.hpp"

namespace oselm::rl {

/// Thrown by FaultBackend's kThrow kind. A distinct type so chaos tests
/// can tell an injected backend failure from a genuine arithmetic bug.
class BackendFaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class BackendFaultKind { kThrow, kStall, kNan };

/// "throw" / "stall" / "nan" — the registry-id spelling.
[[nodiscard]] std::string_view to_string(BackendFaultKind kind) noexcept;

/// The valid <kind> spellings for "fault:<kind>:..." backend ids, in
/// registry order — the single source for error messages and docs.
[[nodiscard]] std::string_view backend_fault_kinds() noexcept;

/// The kind whose to_string() is `text`, if any.
[[nodiscard]] std::optional<BackendFaultKind> parse_backend_fault_kind(
    std::string_view text) noexcept;

class FaultBackend final : public OsElmQBackend {
 public:
  /// `inner_id` names `inner` in injected-failure messages, which quote
  /// the full "fault:<kind>:<rate>:<seed>:<inner-id>";
  /// `rate` in [0, 1] is the per-call fault probability; `seed` fixes the
  /// fault schedule (independent of the inner backend's config seed);
  /// `stall` is the kStall sleep duration (other kinds ignore it). Element
  /// k of util::fault_schedule_preview(rate, seed, n) is the decision of
  /// the k-th draw-consuming call after construction. The decorator
  /// charges the INNER backend's ledger — time accounting is transparent
  /// to the wrapper.
  FaultBackend(OsElmQBackendPtr inner, const std::string& inner_id,
               BackendFaultKind kind, double rate, std::uint64_t seed,
               std::chrono::microseconds stall = kDefaultStall);

  void initialize() override;
  [[nodiscard]] double predict_main(const linalg::VecD& sa) override;
  [[nodiscard]] double predict_target(const linalg::VecD& sa) override;
  void predict_actions(const linalg::VecD& state,
                       const linalg::VecD& action_codes, QNetwork which,
                       linalg::VecD& q_out) override;
  void predict_actions_multi(const linalg::MatD& states,
                             const linalg::VecD& action_codes,
                             QNetwork which, linalg::MatD& q_out) override;
  void init_train(const linalg::MatD& x, const linalg::MatD& t) override;
  void seq_train(const linalg::VecD& sa, double target) override;
  void sync_target() override;

  [[nodiscard]] bool initialized() const override;
  [[nodiscard]] std::size_t input_dim() const override;
  [[nodiscard]] std::size_t hidden_units() const override;
  [[nodiscard]] bool supports_state_sync() const override;
  [[nodiscard]] QNetState export_state() const override;
  void import_state(const QNetState& state) override;

  [[nodiscard]] BackendFaultKind kind() const noexcept { return kind_; }
  [[nodiscard]] double rate() const noexcept { return schedule_.rate(); }
  [[nodiscard]] std::uint64_t fault_seed() const noexcept {
    return schedule_.seed();
  }
  [[nodiscard]] std::chrono::microseconds stall_duration() const noexcept {
    return stall_;
  }
  /// Faults injected so far (draws that fired, across all serving calls).
  [[nodiscard]] std::uint64_t fault_count() const noexcept {
    return schedule_.fired();
  }
  [[nodiscard]] const OsElmQBackendPtr& inner() const noexcept {
    return inner_;
  }

  static constexpr std::chrono::microseconds kDefaultStall{2000};

 private:
  /// One schedule draw; traces and returns whether this call faults.
  bool draw_fault();
  [[noreturn]] void throw_fault(const char* call);
  /// Applies the firing fault's pre-delegation effect (throw or stall).
  void fire_before(bool fired, const char* call);

  OsElmQBackendPtr inner_;
  BackendFaultKind kind_;
  std::chrono::microseconds stall_;
  util::FaultSchedule schedule_;  ///< one draw per serving-path call
  std::string id_;                ///< this decorator's registry id
};

}  // namespace oselm::rl
