#include "env/registry.hpp"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "env/acrobot.hpp"
#include "env/cartpole.hpp"
#include "env/fault_env.hpp"
#include "env/grid_world.hpp"
#include "env/latency_env.hpp"
#include "env/mountain_car.hpp"
#include "env/shaping.hpp"
#include "util/fault.hpp"

namespace oselm::env {

namespace {

/// Parses "delay:<micros>:<inner-id>" and builds the wrapped environment.
/// `id` is known to start with "delay:".
EnvironmentPtr make_delayed(const std::string& id, std::uint64_t seed_value) {
  const std::size_t micros_begin = 6;  // past "delay:"
  const std::size_t sep = id.find(':', micros_begin);
  if (sep == std::string::npos || sep == micros_begin ||
      sep + 1 == id.size()) {
    throw std::invalid_argument(
        "make_environment: malformed delay id '" + id +
        "' (expected delay:<micros>:<inner-id>)");
  }
  // One hour per step is already absurd; the bound doubles as an
  // overflow guard so an over-long field throws instead of wrapping.
  constexpr std::uint64_t kMaxDelayMicros = 3'600'000'000;
  const std::uint64_t micros = util::parse_unsigned_field(
      std::string_view(id).substr(micros_begin, sep - micros_begin),
      kMaxDelayMicros, std::to_string(kMaxDelayMicros) + " us",
      "make_environment", "delay", id);
  EnvironmentPtr inner = util::with_outer_id(
      id, [&] { return make_environment(id.substr(sep + 1), seed_value); });
  return std::make_unique<LatencyEnv>(std::move(inner),
                                      std::chrono::microseconds(micros));
}

/// Parses "fault:<kind>:<rate>:<seed>:<inner-id>" and builds the wrapped
/// environment. `id` is known to start with "fault:".
EnvironmentPtr make_faulted(const std::string& id, std::uint64_t seed_value) {
  const util::FaultId parsed = util::parse_fault_id(id, "make_environment");
  const std::optional<FaultKind> kind = parse_fault_kind(parsed.kind);
  if (!kind) {
    throw std::invalid_argument(
        "make_environment: unknown fault kind '" + parsed.kind + "' in '" +
        id + "' (expected " + std::string(fault_kinds()) + ")");
  }
  EnvironmentPtr inner = util::with_outer_id(
      id, [&] { return make_environment(parsed.inner_id, seed_value); });
  return std::make_unique<FaultEnv>(std::move(inner), *kind, parsed.rate,
                                    parsed.seed);
}

}  // namespace

EnvironmentPtr make_environment(const std::string& id,
                                std::uint64_t seed_value) {
  if (id.starts_with("delay:")) return make_delayed(id, seed_value);
  if (id.starts_with("fault:")) return make_faulted(id, seed_value);
  if (id == "CartPole-v0") {
    return std::make_unique<CartPole>(CartPoleParams{}, seed_value);
  }
  if (id == "ShapedCartPole-v0") return make_shaped_cartpole(seed_value);
  if (id == "ShapedMountainCar-v0") {
    return std::make_unique<GoalShaping>(
        std::make_unique<MountainCar>(MountainCarParams{}, seed_value));
  }
  if (id == "ShapedAcrobot-v1") {
    return std::make_unique<GoalShaping>(
        std::make_unique<Acrobot>(AcrobotParams{}, seed_value));
  }
  if (id == "MountainCar-v0") {
    return std::make_unique<MountainCar>(MountainCarParams{}, seed_value);
  }
  if (id == "Acrobot-v1") {
    return std::make_unique<Acrobot>(AcrobotParams{}, seed_value);
  }
  if (id == "GridWorld") {
    return std::make_unique<GridWorld>(GridWorldParams{}, seed_value);
  }
  // List the alternatives: callers typo'd a concrete id or a modifier
  // prefix, and the registered set is small enough to enumerate inline.
  std::string known;
  for (const std::string& env_id : registered_environments()) {
    if (!known.empty()) known += ", ";
    known += env_id;
  }
  std::string modifiers;
  for (const std::string& prefix : registered_modifiers()) {
    if (!modifiers.empty()) modifiers += ", ";
    modifiers += prefix;
  }
  throw std::invalid_argument("make_environment: unknown id '" + id +
                              "' (known: " + known +
                              "; modifiers: " + modifiers + ")");
}

std::vector<std::string> registered_environments() {
  return {"CartPole-v0",        "ShapedCartPole-v0",
          "MountainCar-v0",     "ShapedMountainCar-v0",
          "Acrobot-v1",         "ShapedAcrobot-v1",
          "GridWorld"};
}

std::vector<std::string> registered_modifiers() {
  // Prefix families applied recursively in front of any id from
  // registered_environments() (or another modifier). Enumerate-then-
  // construct callers compose these with the concrete ids.
  return {"delay:", "fault:"};
}

}  // namespace oselm::env
