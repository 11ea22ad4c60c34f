// util/fault — the schedule and id grammar both fault decorators share.
//
// The schedule itself is pinned here. The decorator suites
// (tests/env/fault_env_test.cpp, tests/rl/fault_backend_test.cpp) pin that
// each decorator fires as this schedule says, plus kind-specific effects.
#include "util/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace oselm::util {
namespace {

/// Runs parse_fault_id and expects a std::invalid_argument whose message
/// contains every fragment.
void expect_rejected(const std::string& id,
                     std::initializer_list<const char*> fragments) {
  try {
    (void)parse_fault_id(id, "make_test");
    ADD_FAILURE() << "expected std::invalid_argument for '" << id << "'";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_EQ(message.rfind("make_test: ", 0), 0u) << message;
    for (const char* fragment : fragments) {
      EXPECT_NE(message.find(fragment), std::string::npos)
          << "message '" << message << "' lacks '" << fragment << "'";
    }
  }
}

TEST(FaultSchedule, PreviewIsSeedDeterministicAndRateBounded) {
  const std::vector<bool> a = fault_schedule_preview(0.3, 7, 64);
  EXPECT_EQ(a, fault_schedule_preview(0.3, 7, 64));
  EXPECT_NE(a, fault_schedule_preview(0.3, 8, 64));
  for (const bool fired : fault_schedule_preview(0.0, 7, 32)) {
    EXPECT_FALSE(fired);
  }
  for (const bool fired : fault_schedule_preview(1.0, 7, 32)) {
    EXPECT_TRUE(fired);
  }
}

TEST(FaultSchedule, DrawsMatchThePreviewAndCount) {
  const std::vector<bool> preview = fault_schedule_preview(0.5, 42, 48);
  FaultSchedule schedule(0.5, 42, "test");
  std::uint64_t fired = 0;
  for (std::size_t k = 0; k < preview.size(); ++k) {
    EXPECT_EQ(schedule.draw(), preview[k]) << "draw " << k;
    if (preview[k]) ++fired;
  }
  EXPECT_EQ(schedule.calls(), preview.size());
  EXPECT_EQ(schedule.fired(), fired);
  EXPECT_DOUBLE_EQ(schedule.rate(), 0.5);
  EXPECT_EQ(schedule.seed(), 42u);
}

TEST(FaultSchedule, RewindRestartsTheStreamAndKeepsTheCounts) {
  const std::vector<bool> preview = fault_schedule_preview(0.5, 9, 16);
  FaultSchedule schedule(0.5, 9, "test");
  for (std::size_t k = 0; k < 5; ++k) (void)schedule.draw();
  const std::uint64_t fired_before = schedule.fired();
  schedule.rewind();
  EXPECT_EQ(schedule.calls(), 5u);
  EXPECT_EQ(schedule.fired(), fired_before);
  for (std::size_t k = 0; k < preview.size(); ++k) {
    EXPECT_EQ(schedule.draw(), preview[k]) << "draw " << k;
  }
  EXPECT_EQ(schedule.calls(), 5u + preview.size());
}

TEST(FaultId, ParsesEveryFieldAndFormatsBackToTheSameId) {
  // The inner id keeps its own colons, the seed takes all 64 bits, and
  // the rate keeps full precision through format_fault_id.
  const std::string id =
      "fault:throw:0.123456789:18446744073709551615:delay:5:GridWorld";
  const FaultId parsed = parse_fault_id(id, "make_test");
  EXPECT_EQ(parsed.kind, "throw");
  EXPECT_DOUBLE_EQ(parsed.rate, 0.123456789);
  EXPECT_EQ(parsed.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parsed.inner_id, "delay:5:GridWorld");
  EXPECT_EQ(format_fault_id(parsed.kind, parsed.rate, parsed.seed,
                            parsed.inner_id),
            id);
  EXPECT_EQ(format_rate(0.05), "0.05");
  // The kind is the decorator's to check, so any text passes through.
  EXPECT_EQ(parse_fault_id("fault::0.5:9:GridWorld", "make_test").kind, "");
}

TEST(FaultId, RejectsEmptyAndMissingFields) {
  const char* grammar = "(expected fault:<kind>:<rate>:<seed>:<inner-id>)";
  for (const char* id :
       {"fault:", "fault:drop", "fault:drop:0.5", "fault:drop:0.5:9",
        "fault:drop::9:GridWorld", "fault:drop:0.5::GridWorld"}) {
    expect_rejected(id, {"malformed fault id", grammar});
  }
  // An empty inner id is malformed too: there is nothing to wrap.
  expect_rejected("fault:drop:0.5:9:", {"malformed fault id", grammar});
}

TEST(FaultId, RejectsRatesThatAreNotNumbersInTheUnitInterval) {
  for (const char* rate : {"nan", "inf", "-0.1", "1.5", "lots", "0.5x"}) {
    const std::string id = std::string("fault:drop:") + rate + ":9:GridWorld";
    expect_rejected(id, {"fault rate '", rate, "is not a number in [0, 1]"});
  }
}

TEST(FaultId, RejectsSeedsThatAreNotUnsigned64BitIntegers) {
  expect_rejected("fault:drop:0.5:18446744073709551616:GridWorld",
                  {"fault seed", "exceeds 64 bits"});
  expect_rejected("fault:drop:0.5:nine:GridWorld",
                  {"non-numeric fault seed"});
  expect_rejected("fault:drop:0.5:-1:GridWorld", {"non-numeric fault seed"});
}

}  // namespace
}  // namespace oselm::util
