#include "waterfall.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

struct Step {
  std::uint32_t session = 0;
  std::uint32_t seq = 0;  ///< seq of the step() call that closes the span
  std::uint64_t resp_start = 0;
  std::uint64_t resp_end = 0;
  std::uint64_t env_end = 0;
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last = 0;
  std::uint64_t backend_ns = 0;
  std::uint64_t train_start = std::numeric_limits<std::uint64_t>::max();
  std::size_t last_call = std::numeric_limits<std::size_t>::max();
};

double us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

void write_spans(const std::string& path, const TraceStore& trace,
                 const std::vector<Step>& steps,
                 const std::vector<std::vector<std::size_t>>& step_calls,
                 std::uint64_t origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  const auto rel = [origin](std::uint64_t t) { return us(t - origin); };
  bool first = true;
  const auto event = [&](const char* name, std::uint32_t tid,
                         std::uint64_t t0, std::uint64_t t1,
                         const Step& st) {
    if (t1 < t0) return;
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%u,"
                 "\"step\":%u}}",
                 first ? "" : ",", name, tid, rel(t0), us(t1 - t0),
                 st.session, st.seq);
    first = false;
  };
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t s = 0; s < step_calls.size(); ++s) {
    const Step& st = steps[s];
    event("step", st.session, st.resp_start, st.env_end, st);
    if (step_calls[s].empty()) {
      event("nocall", st.session, st.resp_start, st.resp_end, st);
    } else {
      event("serve.wait", st.session, st.resp_start, st.first, st);
      for (const std::size_t c : step_calls[s]) {
        const CallRec& call = trace.calls[c];
        event(call_kind_name(call.kind), st.session, call.t0, call.t1, st);
      }
      event("serve.resume", st.session, st.last, st.resp_end, st);
    }
    event("env.step", st.session, st.resp_end, st.env_end, st);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace

Waterfall analyze(const TraceStore& trace, std::uint64_t margin_ns,
                  const std::string& spans_path,
                  std::size_t max_span_steps) {
  Waterfall w;
  const std::uint64_t lo = trace.opened_ns() + margin_ns;
  const std::uint64_t closed = trace.closed_ns();
  const std::uint64_t hi = closed > margin_ns ? closed - margin_ns : 0;
  if (hi <= lo) return w;
  w.window_s = static_cast<double>(hi - lo) * 1e-9;

  std::vector<EnvRec> env(
      trace.env.begin(),
      trace.env.begin() + static_cast<std::ptrdiff_t>(trace.env_count()));
  std::sort(env.begin(), env.end(), [](const EnvRec& a, const EnvRec& b) {
    return a.session != b.session ? a.session < b.session : a.seq < b.seq;
  });
  const std::size_t n = env.size();
  if (n == 0) return w;

  // [begin, end) of each session's records, in call order.
  std::vector<std::pair<std::size_t, std::size_t>> range(
      static_cast<std::size_t>(env.back().session) + 1, {0, 0});
  for (std::size_t j = 0; j < n; ++j) {
    auto& r = range[env[j].session];
    if (r.second == 0) r.first = j;
    r.second = j + 1;
  }

  // One step span per (return, next step() call) pair inside the window.
  std::vector<std::size_t> span_of(n, std::numeric_limits<std::size_t>::max());
  std::vector<Step> steps;
  for (const EnvRec& rec : env) {
    if (!rec.is_reset && rec.t_ret >= lo && rec.t_ret <= hi) {
      ++w.window_step_calls;
    }
  }
  for (std::size_t j = 0; j + 1 < n; ++j) {
    const EnvRec& a = env[j];
    const EnvRec& b = env[j + 1];
    if (b.session != a.session || b.seq != a.seq + 1 || b.is_reset ||
        a.t_ret < lo || b.t_ret > hi) {
      continue;
    }
    span_of[j] = steps.size();
    Step st;
    st.session = a.session;
    st.seq = b.seq;
    st.resp_start = a.t_ret;
    st.resp_end = b.t_call;
    st.env_end = b.t_ret;
    steps.push_back(st);
  }

  std::vector<std::pair<std::uint64_t, std::size_t>> keys(n);
  for (std::size_t j = 0; j < n; ++j) keys[j] = {env[j].key, j};
  std::sort(keys.begin(), keys.end());

  std::vector<std::vector<std::size_t>> step_calls(
      spans_path.empty() ? 0 : std::min(steps.size(), max_span_steps));

  const std::size_t n_calls = trace.call_count();
  for (std::size_t c = 0; c < n_calls; ++c) {
    const CallRec& call = trace.calls[c];
    if (call.rows == 0 || call.t0 < lo || call.t1 > hi) continue;
    for (std::uint32_t r = 0; r < call.rows; ++r) {
      ++w.rows;
      const std::uint64_t key = trace.row_keys[call.first_row + r];
      // Identical bytes can recur only when a seed repeats (solve replays
      // its seed set); the latest return before the call is the source.
      auto it = std::lower_bound(
          keys.begin(), keys.end(), key,
          [](const auto& e, std::uint64_t k) { return e.first < k; });
      std::size_t source = n;
      for (; it != keys.end() && it->first == key; ++it) {
        const std::size_t j = it->second;
        if (env[j].t_ret <= call.t0 &&
            (source == n || env[j].t_ret > env[source].t_ret)) {
          source = j;
        }
      }
      if (source == n) {
        ++w.rows_unmatched;
        continue;
      }
      // The session's latest return at or before the call start.
      const auto [sb, se] = range[env[source].session];
      const auto pos = std::upper_bound(
          env.begin() + static_cast<std::ptrdiff_t>(sb),
          env.begin() + static_cast<std::ptrdiff_t>(se), call.t0,
          [](std::uint64_t t, const EnvRec& e) { return t < e.t_ret; });
      const auto j = static_cast<std::size_t>(pos - env.begin()) - 1;
      const std::size_t s = span_of[j];
      if (s == std::numeric_limits<std::size_t>::max()) {
        ++w.rows_boundary;
        continue;
      }
      Step& st = steps[s];
      if (call.t1 > st.resp_end) {
        ++w.rows_unmatched;
        continue;
      }
      ++w.rows_matched;
      if (st.last_call == c) continue;  // another row of the same call
      st.last_call = c;
      st.backend_ns += call.t1 - call.t0;
      st.first = std::min(st.first, call.t0);
      st.last = std::max(st.last, call.t1);
      if (call.kind == CallKind::kSeqTrain) {
        st.train_start = std::min(st.train_start, call.t0);
      }
      if (s < step_calls.size()) step_calls[s].push_back(c);
    }
  }

  for (const Step& st : steps) {
    ++w.steps;
    w.response_us += us(st.resp_end - st.resp_start);
    w.env_us += us(st.env_end - st.resp_end);
    if (st.last == 0) {
      w.nocall_us += us(st.resp_end - st.resp_start);
      continue;
    }
    ++w.steps_with_calls;
    w.wait_us += us(st.first - st.resp_start);
    w.backend_us += us(st.backend_ns);
    w.between_us += us(st.last - st.first) - us(st.backend_ns);
    w.resume_us += us(st.resp_end - st.last);
    if (st.train_start != std::numeric_limits<std::uint64_t>::max()) {
      ++w.train_steps;
      w.train_wait_us += us(st.train_start - st.resp_start);
    }
  }

  if (!spans_path.empty()) {
    write_spans(spans_path, trace, steps, step_calls, trace.opened_ns());
  }
  return w;
}

}  // namespace perfbench
