#include "util/fault.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace oselm::util {

FaultSchedule::FaultSchedule(double rate, std::uint64_t seed,
                             std::string_view who)
    : rate_(rate), seed_(seed), rng_(seed) {
  if (!(rate_ >= 0.0 && rate_ <= 1.0)) {
    throw std::invalid_argument(std::string(who) + ": rate " +
                                format_rate(rate_) + " outside [0, 1]");
  }
}

bool FaultSchedule::draw() noexcept {
  ++calls_;
  const bool fired = rng_.bernoulli(rate_);
  if (fired) ++fired_;
  return fired;
}

std::vector<bool> fault_schedule_preview(double rate, std::uint64_t seed,
                                         std::size_t draws) {
  Rng rng(seed);
  std::vector<bool> schedule(draws);
  for (std::size_t i = 0; i < draws; ++i) schedule[i] = rng.bernoulli(rate);
  return schedule;
}

FaultId parse_fault_id(const std::string& id, std::string_view who) {
  const std::string prefix = std::string(who) + ": ";
  const auto malformed = [&] {
    return std::invalid_argument(
        prefix + "malformed fault id '" + id +
        "' (expected fault:<kind>:<rate>:<seed>:<inner-id>)");
  };
  const std::size_t kind_begin = 6;  // past "fault:"
  const std::size_t kind_end = id.find(':', kind_begin);
  if (kind_end == std::string::npos) throw malformed();
  const std::size_t rate_end = id.find(':', kind_end + 1);
  if (rate_end == std::string::npos) throw malformed();
  const std::size_t seed_end = id.find(':', rate_end + 1);
  if (seed_end == std::string::npos || seed_end + 1 == id.size()) {
    throw malformed();
  }

  FaultId parsed;
  parsed.kind = id.substr(kind_begin, kind_end - kind_begin);
  const std::string rate_text =
      id.substr(kind_end + 1, rate_end - kind_end - 1);
  if (rate_text.empty()) throw malformed();
  errno = 0;
  char* rate_tail = nullptr;
  parsed.rate = std::strtod(rate_text.c_str(), &rate_tail);
  if (errno != 0 || rate_tail == rate_text.c_str() || *rate_tail != '\0' ||
      !(parsed.rate >= 0.0 && parsed.rate <= 1.0)) {
    throw std::invalid_argument(prefix + "fault rate '" + rate_text +
                                "' in '" + id + "' is not a number in [0, 1]");
  }

  if (seed_end == rate_end + 1) throw malformed();
  parsed.seed = parse_unsigned_field(
      std::string_view(id).substr(rate_end + 1, seed_end - rate_end - 1),
      UINT64_MAX, "64 bits", who, "fault seed", id);
  parsed.inner_id = id.substr(seed_end + 1);
  return parsed;
}

std::string format_fault_id(std::string_view kind, double rate,
                            std::uint64_t seed, std::string_view inner) {
  // Appends rather than operator+ chains: GCC 12 reports a -Wrestrict
  // false positive (PR105651) on `"literal" + std::string` at -O2.
  std::string id = "fault:";
  id += kind;
  id += ':';
  id += format_rate(rate);
  id += ':';
  id += std::to_string(seed);
  id += ':';
  id += inner;
  return id;
}

std::string format_rate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", rate);
  return buffer;
}

std::uint64_t parse_unsigned_field(std::string_view text, std::uint64_t max,
                                   std::string_view limit,
                                   std::string_view who,
                                   std::string_view field,
                                   const std::string& id) {
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument(std::string(who) + ": non-numeric " +
                                  std::string(field) + " in '" + id + "'");
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (max - digit) / 10) {
      throw std::invalid_argument(std::string(who) + ": " +
                                  std::string(field) + " in '" + id +
                                  "' exceeds " + std::string(limit));
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace oselm::util
