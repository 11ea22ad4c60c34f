#include "env/fault_env.hpp"

#include <thread>
#include <utility>

#include "obs/trace.hpp"

namespace oselm::env {

std::string_view to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kSpike:
      return "spike";
  }
  return "unknown";
}

std::string_view fault_kinds() noexcept { return "drop|reorder|throw|spike"; }

std::optional<FaultKind> parse_fault_kind(std::string_view text) noexcept {
  for (const FaultKind kind : {FaultKind::kDrop, FaultKind::kReorder,
                               FaultKind::kThrow, FaultKind::kSpike}) {
    if (to_string(kind) == text) return kind;
  }
  return std::nullopt;
}

FaultEnv::FaultEnv(EnvironmentPtr inner, FaultKind kind, double rate,
                   std::uint64_t seed, std::chrono::microseconds spike)
    : inner_(std::move(inner)),
      kind_(kind),
      spike_(spike),
      schedule_(rate, seed, "FaultEnv") {
  if (!inner_) throw std::invalid_argument("FaultEnv: null inner env");
  if (spike_.count() < 0) {
    throw std::invalid_argument("FaultEnv: negative spike duration");
  }
  name_ = util::format_fault_id(to_string(kind_), rate, seed, inner_->name());
}

bool FaultEnv::draw_fault() {
  // The schedule stream is consumed on EVERY call — even kinds that treat
  // a firing reset as a no-op — so the decision sequence stays aligned
  // with util::fault_schedule_preview() regardless of kind.
  const bool fired = schedule_.draw();
  if (fired) {
    switch (kind_) {
      case FaultKind::kDrop:
        OSELM_TRACE_INSTANT("fault", "env_drop");
        break;
      case FaultKind::kReorder:
        OSELM_TRACE_INSTANT("fault", "env_reorder");
        break;
      case FaultKind::kThrow:
        OSELM_TRACE_INSTANT("fault", "env_throw");
        break;
      case FaultKind::kSpike:
        OSELM_TRACE_INSTANT("fault", "env_spike");
        break;
    }
  }
  return fired;
}

void FaultEnv::throw_fault(const char* call) {
  throw FaultInjected("FaultEnv: injected failure on " + std::string(call) +
                      " #" + std::to_string(schedule_.calls()) + " of '" +
                      name_ + "'");
}

void FaultEnv::seed(std::uint64_t seed_value) {
  inner_->seed(seed_value);
  // Rewind the fault stream to ITS OWN seed: reseeding the dynamics must
  // reproduce the whole run, faults included, and the env seed must never
  // leak into the fault schedule.
  schedule_.rewind();
}

Observation FaultEnv::reset() {
  // Episode boundaries clear the frame-delivery state before the draw:
  // stale frames never cross episodes.
  lagging_ = false;
  held_.clear();
  has_delivered_ = false;
  const bool fired = draw_fault();
  if (fired) {
    switch (kind_) {
      case FaultKind::kThrow:
        throw_fault("reset");
        break;
      case FaultKind::kSpike:
        std::this_thread::sleep_for(spike_);
        break;
      case FaultKind::kDrop:
      case FaultKind::kReorder:
        break;  // nothing delivered yet — nothing to drop or reorder
    }
  }
  last_delivered_ = inner_->reset();
  has_delivered_ = true;
  return last_delivered_;
}

StepResult FaultEnv::step(std::size_t action) {
  const bool fired = draw_fault();
  if (fired && kind_ == FaultKind::kThrow) throw_fault("step");
  if (fired && kind_ == FaultKind::kSpike) {
    std::this_thread::sleep_for(spike_);
  }
  StepResult result = inner_->step(action);
  switch (kind_) {
    case FaultKind::kThrow:
    case FaultKind::kSpike:
      break;  // observations always pass through unchanged
    case FaultKind::kDrop:
      if (fired && has_delivered_) {
        // The frame was dropped: the caller sees the stale observation;
        // reward and termination flags are real.
        result.observation = last_delivered_;
      }
      break;
    case FaultKind::kReorder:
      if (fired) {
        if (!lagging_) {
          if (has_delivered_) {
            // Enter the lag: hold the fresh frame, deliver the stale one.
            lagging_ = true;
            held_ = result.observation;
            result.observation = last_delivered_;
          }
        } else {
          // Second firing: the held frame "arrived too late" and is
          // dropped; delivery snaps back to the newest frame.
          lagging_ = false;
          held_.clear();
        }
      } else if (lagging_) {
        // Steady lag: deliver the held frame, hold the fresh one.
        std::swap(result.observation, held_);
      }
      break;
  }
  last_delivered_ = result.observation;
  has_delivered_ = true;
  return result;
}

}  // namespace oselm::env
