// Joins a traced run's env and backend records into per-step spans.
//
// A step span (session, k) runs from the return of the session's previous
// env call to the return of its k-th step() call. Its children, in order:
//   serve.wait    observation returned -> first backend call carrying it
//   backend.*     the calls carrying it (their full duration)
//   serve.between gaps between those calls (re-queueing between the TD
//                 target / seq_train round trip and the greedy predict)
//   serve.resume  end of the last call -> the next step() call
//   env.step      the step() call itself
// Steps whose response needed no backend call (a random action, no
// update) have a single `nocall` segment instead. The segments partition
// the span, so their per-step means add up to the traced mean response.
//
// A backend row is matched by the exact bytes of its observation: the
// predict rows, and the leading state of a seq_train / init_train row,
// are copies of what a session's env returned. The matched record names
// the session; the call's start time picks the step whose response
// interval contains it.
#pragma once

#include <cstdint>
#include <string>

#include "probes.hpp"

namespace perfbench {

struct Waterfall {
  std::uint64_t steps = 0;             ///< step spans analysed
  std::uint64_t window_step_calls = 0; ///< step() returns in the window
  std::uint64_t steps_with_calls = 0;
  std::uint64_t train_steps = 0;       ///< steps carrying a seq_train
  // Sums over the analysed steps, microseconds.
  double response_us = 0.0;
  double env_us = 0.0;
  double wait_us = 0.0;
  double backend_us = 0.0;
  double between_us = 0.0;
  double resume_us = 0.0;
  double nocall_us = 0.0;
  double train_wait_us = 0.0;  ///< observation -> seq_train start
  // Backend rows inside the window.
  std::uint64_t rows = 0;
  std::uint64_t rows_matched = 0;
  /// Matched to a session but outside any step response: episode-boundary
  /// work (the terminal transition's update, target syncs, resets).
  std::uint64_t rows_boundary = 0;
  std::uint64_t rows_unmatched = 0;
  double window_s = 0.0;

  [[nodiscard]] double per_step(double sum) const noexcept {
    return steps == 0 ? 0.0 : sum / static_cast<double>(steps);
  }
  [[nodiscard]] double unmatched_frac() const noexcept {
    return rows == 0 ? 0.0
                     : static_cast<double>(rows_unmatched) /
                           static_cast<double>(rows);
  }
};

/// Analyses the records of `trace` that lie at least `margin_ns` inside
/// its open window. When `spans_path` is non-empty, writes the first
/// `max_span_steps` step spans there as Chrome trace-event JSON.
Waterfall analyze(const TraceStore& trace, std::uint64_t margin_ns,
                  const std::string& spans_path,
                  std::size_t max_span_steps);

}  // namespace perfbench
