// rl::AsyncQServer — the asynchronous continuous-batching serving engine.
//
// Load-bearing properties:
//   * per-session determinism for evaluation sessions: the same seed
//     yields the exact same trajectory at ANY worker-thread count, alone
//     or co-scheduled — even though cross-session batch composition is
//     scheduling-dependent (the acceptance pin for the async redesign);
//   * a solo training session reproduces the lockstep QServer N=1 run
//     (and therefore the single-agent run_training trajectory) exactly,
//     backend call stream included;
//   * lifecycle robustness: admission control rejects past the cap with a
//     clear error, a session whose environment throws mid-step retires
//     without poisoning the batch thread, and shutdown with in-flight
//     requests joins cleanly (exercised under ASan/UBSan and TSan in CI);
//   * handoff conservation: across worker counts and batch sizes, every
//     admitted session retires exactly once and no step is lost between
//     the batch thread's resume push and the worker lanes.
#include "rl/async_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "env/registry.hpp"
#include "rl/backend_registry.hpp"
#include "rl/serving.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace oselm::rl {
namespace {

constexpr std::size_t kHidden = 16;

BackendConfig backend_config(std::uint64_t seed) {
  BackendConfig config;
  config.input_dim = 5;
  config.hidden_units = kHidden;
  config.l2_delta = 0.5;
  config.spectral_normalize = true;
  config.seed = seed;
  return config;
}

/// Runs the Eq. 8 initial training on deterministic random data so
/// evaluation sessions see a non-trivial Q surface.
void prime_backend(OsElmQBackend& backend, std::uint64_t seed) {
  util::Rng rng(seed);
  const std::size_t rows = backend.hidden_units();
  linalg::MatD x(rows, backend.input_dim());
  linalg::MatD t(rows, 1);
  rng.fill_uniform(x.storage(), -1.0, 1.0);
  rng.fill_uniform(t.storage(), -1.0, 1.0);
  backend.init_train(x, t);
}

AsyncSessionSpec eval_spec(std::uint64_t env_seed, std::uint64_t agent_seed,
                           std::size_t episodes = 6) {
  AsyncSessionSpec spec;
  spec.mode = AsyncSessionMode::kEvaluate;
  spec.session.env_id = "ShapedCartPole-v0";
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.solved_threshold = 1e9;  // run the full budget
  spec.session.trainer.reset_interval = 0;
  return spec;
}

struct Trajectory {
  std::vector<double> steps;
  std::vector<double> returns;
  std::size_t episodes = 0;
  std::size_t total_steps = 0;

  explicit Trajectory(const TrainResult& r)
      : steps(r.episode_steps),
        returns(r.episode_returns),
        episodes(r.episodes),
        total_steps(r.total_steps) {}
  bool operator==(const Trajectory&) const = default;
};

class PerBackend : public ::testing::TestWithParam<std::string> {};

TEST_P(PerBackend, EvalSessionIsDeterministicAcrossThreadsAndCoTenants) {
  const std::string backend_id = GetParam();
  const std::size_t hardware =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());

  // The probe session under four schedules: worker pools of 1 and
  // hardware width, alone and co-scheduled with 7 other sessions.
  const auto run_probe = [&](std::size_t workers, bool co_tenants) {
    OsElmQBackendPtr backend =
        make_backend(backend_id, backend_config(2024));
    prime_backend(*backend, 77);
    AsyncQServerConfig config;
    config.worker_threads = workers;
    config.max_batch = 8;
    config.max_wait_us = 50;
    AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                        config);
    const std::size_t probe = server.add_session(eval_spec(913, 37));
    if (co_tenants) {
      for (std::size_t i = 0; i < 7; ++i) {
        server.add_session(eval_spec(400 + i, 90 + i, 8));
      }
    }
    const AsyncSessionResult result = server.wait(probe);
    server.drain();
    EXPECT_TRUE(result.completed);
    EXPECT_FALSE(result.failed);
    return Trajectory(result.train);
  };

  const Trajectory alone_serial = run_probe(1, false);
  ASSERT_GT(alone_serial.total_steps, 0u);
  ASSERT_EQ(alone_serial.episodes, 6u);
  EXPECT_EQ(run_probe(hardware, false), alone_serial) << "threads change it";
  EXPECT_EQ(run_probe(1, true), alone_serial) << "co-tenants change it";
  EXPECT_EQ(run_probe(hardware, true), alone_serial)
      << "threads + co-tenants change it";
}

TEST_P(PerBackend, SoloTrainSessionMatchesTheLockstepQServerExactly) {
  const std::string backend_id = GetParam();
  ServingSessionSpec spec;
  spec.env_id = "ShapedCartPole-v0";
  spec.env_seed = 913;
  spec.agent_seed = 37;
  spec.trainer.max_episodes = 60;
  spec.trainer.reset_interval = 25;  // exercise the §4.3 reset round trip

  // Lockstep reference on a fresh backend of the same seed.
  QServer lockstep(make_backend(backend_id, backend_config(5150)),
                   SimplifiedOutputModel(4, 2));
  lockstep.add_session(spec);
  const QServerResult reference = lockstep.run();

  OsElmQBackendPtr backend = make_backend(backend_id, backend_config(5150));
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2));
  AsyncSessionSpec async_spec;
  async_spec.session = spec;
  async_spec.mode = AsyncSessionMode::kTrain;
  const AsyncSessionResult served =
      server.wait(server.add_session(async_spec));

  ASSERT_TRUE(served.completed);
  EXPECT_EQ(Trajectory(served.train),
            Trajectory(reference.sessions.at(0)));
  EXPECT_EQ(served.train.resets, reference.sessions.at(0).resets);
  EXPECT_EQ(served.train.solved, reference.sessions.at(0).solved);
  EXPECT_EQ(served.train.first_solved_episode,
            reference.sessions.at(0).first_solved_episode);

  // The backend call stream is identical, so the shared ledger's
  // invocation counts match the lockstep server's.
  using util::OpCategory;
  for (const OpCategory cat :
       {OpCategory::kPredictInit, OpCategory::kPredictSeq,
        OpCategory::kSeqTrain, OpCategory::kInitTrain}) {
    EXPECT_EQ(raw->ledger().breakdown().invocations(cat),
              reference.breakdown.invocations(cat))
        << util::op_category_name(cat);
  }
}

TEST(AsyncQServer, SoloTrainFpgaModeledTimeMatchesBitForBit) {
  // Deterministic modeled PL seconds: with one session every coalesced
  // batch carries one state, so the as-batched charges degenerate to the
  // lockstep N=1 stream bit-for-bit.
  ServingSessionSpec spec;
  spec.env_seed = 4242;
  spec.agent_seed = 11;
  spec.trainer.max_episodes = 40;
  spec.trainer.reset_interval = 0;

  QServer lockstep(make_backend("fpga-q20", backend_config(999)),
                   SimplifiedOutputModel(4, 2));
  lockstep.add_session(spec);
  const QServerResult reference = lockstep.run();

  OsElmQBackendPtr backend = make_backend("fpga-q20", backend_config(999));
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2));
  AsyncSessionSpec async_spec;
  async_spec.session = spec;
  async_spec.mode = AsyncSessionMode::kTrain;
  (void)server.wait(server.add_session(async_spec));

  // kInitTrain is excluded: the Eq. 7/8 solve runs on the CPU side of the
  // Fig. 3 split and charges measured wall-clock, never bit-stable.
  using util::OpCategory;
  for (const OpCategory cat :
       {OpCategory::kPredictInit, OpCategory::kPredictSeq,
        OpCategory::kSeqTrain}) {
    EXPECT_DOUBLE_EQ(raw->ledger().breakdown().get(cat),
                     reference.breakdown.get(cat))
        << util::op_category_name(cat);
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredBackends, PerBackend,
                         ::testing::ValuesIn(registered_backends()),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == '-' || c == '.') c = '_';
                           }
                           return name;
                         });

TEST(AsyncQServer, ValidatesConstructionAndSpecs) {
  EXPECT_THROW(AsyncQServer(nullptr, SimplifiedOutputModel(4, 2)),
               std::invalid_argument);
  AsyncQServer server(make_backend("software", backend_config(1)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec mismatched;
  mismatched.session.env_id = "GridWorld";  // width 3 vs backend width 5
  EXPECT_THROW(server.add_session(mismatched), std::invalid_argument);
  AsyncSessionSpec null_factory = eval_spec(1, 2);
  null_factory.env_factory = [](std::uint64_t) {
    return env::EnvironmentPtr{};
  };
  EXPECT_THROW(server.add_session(null_factory), std::invalid_argument);
  EXPECT_EQ(server.live_sessions(), 0u);
  EXPECT_THROW(server.wait(99), std::invalid_argument);
}

TEST(AdmissionError, WhatEmbedsReasonAndSessionInTheCanonicalFormat) {
  // The pinned canonical format —
  //   <who>: admission rejected (<reason>) for session '<session>': <detail>
  // — so a bare catch-and-log already tells the operator which session
  // was refused and why, without switching on reason().
  const AdmissionError capacity(AdmissionRejectReason::kCapacity,
                                "AsyncQServer::add_session",
                                "ShapedCartPole-v0#12#22", "cap reached");
  EXPECT_STREQ(capacity.what(),
               "AsyncQServer::add_session: admission rejected (capacity) "
               "for session 'ShapedCartPole-v0#12#22': cap reached");
  const AdmissionError stopping(AdmissionRejectReason::kStopping,
                                "RouterQServer::add_session", "k7",
                                "router is stopping");
  EXPECT_STREQ(stopping.what(),
               "RouterQServer::add_session: admission rejected (stopping) "
               "for session 'k7': router is stopping");
  const AdmissionError duplicate(AdmissionRejectReason::kDuplicateId,
                                 "driver", "k7", "key already live");
  EXPECT_STREQ(duplicate.what(),
               "driver: admission rejected (duplicate-id) for session "
               "'k7': key already live");
}

TEST(AsyncQServer, AdmissionControlRejectsBeyondTheCapWithAClearError) {
  AsyncQServerConfig config;
  config.max_live_sessions = 2;
  config.worker_threads = 2;
  AsyncQServer server(make_backend("software", backend_config(7)),
                      SimplifiedOutputModel(4, 2), config);
  // Slow sessions so both stay live while the third knocks.
  AsyncSessionSpec slow = eval_spec(10, 20, 50);
  slow.session.env_id = "delay:2000:ShapedCartPole-v0";
  const std::size_t a = server.add_session(slow);
  slow.session.env_seed = 11;
  const std::size_t b = server.add_session(slow);
  try {
    server.add_session(eval_spec(12, 22));
    FAIL() << "expected admission rejection";
  } catch (const AdmissionError& e) {
    // Structured reason + a clear message: callers can branch on the
    // enum (retry later vs give up) without parsing the text.
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kCapacity);
    EXPECT_NE(std::string(e.what()).find("admission rejected"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("cap (2)"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(server.stats().admission_rejections, 1u);
  EXPECT_EQ(server.stats().stopping_rejections, 0u);
  server.stop();
  // The cap frees as sessions retire: after stop() everything is retired,
  // but admission is closed — and the rejection says WHY.
  try {
    server.add_session(eval_spec(13, 23));
    FAIL() << "expected a stopping rejection";
  } catch (const AdmissionError& e) {
    EXPECT_EQ(e.reason(), AdmissionRejectReason::kStopping);
  }
  EXPECT_EQ(server.stats().stopping_rejections, 1u);
  (void)a;
  (void)b;
}

TEST(AsyncQServer, ConcurrentJoinsRacingStopNeverHangOrMiscount) {
  // Regression for the join()-racing-stop() window: joins that land
  // while stop() tears the server down must either be admitted (and then
  // retired by the stop) or rejected with a structured AdmissionError —
  // never a hang, a crash, or a lost session. TSan covers the race in CI.
  AsyncQServerConfig config;
  config.worker_threads = 4;
  config.max_live_sessions = 8;
  AsyncQServer server(make_backend("software", backend_config(41)),
                      SimplifiedOutputModel(4, 2), config);
  constexpr std::size_t kAttempts = 24;
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<std::uint64_t> rejected_capacity{0};
  std::atomic<std::uint64_t> rejected_stopping{0};
  util::ThreadPool joiners(4);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < kAttempts; ++i) {
    futures.push_back(joiners.submit([&server, &admitted,
                                      &rejected_capacity,
                                      &rejected_stopping, i] {
      AsyncSessionSpec spec = eval_spec(300 + i, 310 + i, 50);
      spec.session.env_id = "delay:500:ShapedCartPole-v0";
      try {
        server.add_session(spec);
        admitted.fetch_add(1);
      } catch (const AdmissionError& e) {
        if (e.reason() == AdmissionRejectReason::kCapacity) {
          rejected_capacity.fetch_add(1);
        } else {
          EXPECT_EQ(e.reason(), AdmissionRejectReason::kStopping);
          rejected_stopping.fetch_add(1);
        }
      }
    }));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.stop();  // races the joins above
  for (std::future<void>& f : futures) f.get();
  server.stop();  // idempotent after the race

  // Conservation: every attempt is admitted or rejected with a reason,
  // every admitted session has exactly one result, and the server's own
  // ledger agrees with the driver's.
  EXPECT_EQ(admitted + rejected_capacity + rejected_stopping, kAttempts);
  EXPECT_EQ(server.drain().size(), admitted.load());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_admitted, admitted.load());
  EXPECT_EQ(stats.sessions_retired, admitted.load());
  EXPECT_EQ(stats.admission_rejections, rejected_capacity.load());
  EXPECT_EQ(stats.stopping_rejections, rejected_stopping.load());
  EXPECT_EQ(server.live_sessions(), 0u);
}

/// ShapedCartPole that forwards every call; the test environments below
/// override reset() or step() to inject their behaviour.
class CartPoleWrapper : public env::Environment {
 public:
  explicit CartPoleWrapper(std::uint64_t seed)
      : inner_(env::make_environment("ShapedCartPole-v0", seed)) {}

  env::Observation reset() override { return inner_->reset(); }
  env::StepResult step(std::size_t action) override {
    return inner_->step(action);
  }
  void seed(std::uint64_t seed_value) override { inner_->seed(seed_value); }
  [[nodiscard]] const env::BoxSpace& observation_space() const override {
    return inner_->observation_space();
  }
  [[nodiscard]] const env::DiscreteSpace& action_space() const override {
    return inner_->action_space();
  }
  [[nodiscard]] std::string_view name() const override { return "Wrapped"; }
  [[nodiscard]] std::size_t max_episode_steps() const override {
    return inner_->max_episode_steps();
  }

 private:
  env::EnvironmentPtr inner_;
};

/// CartPole wrapper whose step() throws after a fixed number of calls —
/// the "sensor disconnected mid-episode" failure.
class FlakyEnv final : public CartPoleWrapper {
 public:
  FlakyEnv(std::uint64_t seed, std::size_t fail_after)
      : CartPoleWrapper(seed), fail_after_(fail_after) {}

  env::StepResult step(std::size_t action) override {
    if (++calls_ > fail_after_) {
      throw std::runtime_error("sensor disconnected");
    }
    return CartPoleWrapper::step(action);
  }

 private:
  std::size_t fail_after_;
  std::size_t calls_ = 0;
};

TEST(AsyncQServer, EnvFailureRetiresTheSessionWithoutPoisoningTheRest) {
  AsyncQServer server(make_backend("software", backend_config(8)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec flaky = eval_spec(30, 40, 50);
  flaky.env_factory = [](std::uint64_t seed) {
    return std::make_unique<FlakyEnv>(seed, 25);
  };
  const std::size_t failing = server.add_session(flaky);
  const std::size_t healthy = server.add_session(eval_spec(31, 41));

  const AsyncSessionResult failed = server.wait(failing);
  EXPECT_TRUE(failed.failed);
  EXPECT_FALSE(failed.completed);
  EXPECT_NE(failed.error.find("sensor disconnected"), std::string::npos);

  const AsyncSessionResult ok = server.wait(healthy);
  EXPECT_TRUE(ok.completed);
  EXPECT_FALSE(ok.failed);

  // The batch thread survived: a session admitted AFTER the failure is
  // served to completion.
  const AsyncSessionResult after =
      server.wait(server.add_session(eval_spec(32, 42)));
  EXPECT_TRUE(after.completed);
  EXPECT_EQ(server.stats().sessions_retired, 3u);
}

TEST(AsyncQServer, TrainSessionEnvFailureAlsoRetiresCleanly) {
  AsyncQServer server(make_backend("software", backend_config(9)),
                      SimplifiedOutputModel(4, 2));
  AsyncSessionSpec flaky;
  flaky.mode = AsyncSessionMode::kTrain;
  flaky.session.env_seed = 50;
  flaky.session.agent_seed = 60;
  flaky.session.trainer.max_episodes = 100;
  flaky.session.trainer.reset_interval = 0;
  flaky.env_factory = [](std::uint64_t seed) {
    // Fails after the Eq. 7/8 buffer has filled, mid sequential training.
    return std::make_unique<FlakyEnv>(seed, 3 * kHidden);
  };
  const AsyncSessionResult failed =
      server.wait(server.add_session(flaky));
  EXPECT_TRUE(failed.failed);
  EXPECT_NE(failed.error.find("sensor disconnected"), std::string::npos);
  // Co-tenant trained on the same backend afterwards — not poisoned.
  AsyncSessionSpec train = flaky;
  train.env_factory = nullptr;
  train.session.trainer.max_episodes = 5;
  EXPECT_TRUE(server.wait(server.add_session(train)).completed);
}

TEST(AsyncQServer, StopWithInFlightSlowSessionsJoinsCleanly) {
  // Sessions sleeping inside env steps while stop() lands: in-flight
  // requests must be served, every session retired at its next step
  // boundary, and all threads joined (ASan/UBSan and TSan cover the
  // teardown races in CI).
  AsyncQServerConfig config;
  config.worker_threads = 4;
  AsyncQServer server(make_backend("software", backend_config(10)),
                      SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec = eval_spec(70 + i, 80 + i, 100000);
    spec.session.env_id = "delay:1000:ShapedCartPole-v0";
    server.add_session(spec);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();
  EXPECT_EQ(server.live_sessions(), 0u);
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const AsyncSessionResult& r : results) {
    EXPECT_FALSE(r.completed);  // interrupted, not finished
    EXPECT_FALSE(r.failed);
  }
}

TEST(AsyncQServer, DestructionWithoutStopIsAGracefulStop) {
  {
    AsyncQServer server(make_backend("software", backend_config(11)),
                        SimplifiedOutputModel(4, 2));
    AsyncSessionSpec spec = eval_spec(90, 91, 100000);
    spec.session.env_id = "delay:500:ShapedCartPole-v0";
    server.add_session(spec);
    // Destructor runs with the session mid-flight.
  }
  SUCCEED();
}

/// CartPole wrapper that counts live instances (a leak shows as a
/// non-zero count once its server is gone) and sleeps `step_delay_us` per
/// step, so sessions pile up on the run queue behind a busy lane.
class CountedEnv final : public CartPoleWrapper {
 public:
  CountedEnv(std::uint64_t seed, std::atomic<int>& live,
             std::uint64_t step_delay_us)
      : CartPoleWrapper(seed), live_(live), step_delay_us_(step_delay_us) {
    live_.fetch_add(1);
  }
  CountedEnv(const CountedEnv&) = delete;
  CountedEnv& operator=(const CountedEnv&) = delete;
  ~CountedEnv() override { live_.fetch_sub(1); }

  env::StepResult step(std::size_t action) override {
    std::this_thread::sleep_for(std::chrono::microseconds(step_delay_us_));
    return CartPoleWrapper::step(action);
  }

 private:
  std::atomic<int>& live_;
  std::uint64_t step_delay_us_;
};

AsyncSessionSpec train_spec(std::uint64_t env_seed, std::uint64_t agent_seed,
                            std::size_t episodes) {
  AsyncSessionSpec spec;
  spec.mode = AsyncSessionMode::kTrain;
  spec.session.env_seed = env_seed;
  spec.session.agent_seed = agent_seed;
  spec.session.trainer.max_episodes = episodes;
  spec.session.trainer.solved_threshold = 1e9;  // run the full budget
  spec.session.trainer.reset_interval = 4;      // exercise kReset rows
  return spec;
}

TEST(AsyncQServer, HandoffConservesSessionsAndStepsAcrossLanesAndBatches) {
  // Every row of every batch goes back to the worker lanes exactly once —
  // greedy rows in one push after the argmax, train/init/sync/reset rows
  // one by one — so across lane counts and batch sizes no session is lost
  // or resumed twice, and no step goes uncounted.
  const std::size_t hardware =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, hardware}) {
    for (const std::size_t max_batch : {std::size_t{1}, std::size_t{32}}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " max_batch=" + std::to_string(max_batch));
      AsyncQServerConfig config;
      config.worker_threads = workers;
      config.max_batch = max_batch;
      config.max_wait_us = 50;
      AsyncQServer server(make_backend("software", backend_config(61)),
                          SimplifiedOutputModel(4, 2), config);
      std::set<std::size_t> admitted;
      for (std::size_t i = 0; i < 6; ++i) {
        admitted.insert(server.add_session(eval_spec(500 + i, 510 + i, 6)));
      }
      for (std::size_t i = 0; i < 3; ++i) {
        admitted.insert(server.add_session(train_spec(520 + i, 530 + i, 16)));
      }
      const std::vector<AsyncSessionResult> results = server.drain();
      const AsyncServerStats stats = server.stats();

      std::set<std::size_t> retired;
      std::uint64_t session_steps = 0;
      for (const AsyncSessionResult& r : results) {
        EXPECT_TRUE(retired.insert(r.id).second) << "retired twice: " << r.id;
        EXPECT_TRUE(r.completed) << r.id << ": " << r.error;
        session_steps += r.train.total_steps;
      }
      EXPECT_EQ(retired, admitted);
      EXPECT_EQ(stats.sessions_admitted, admitted.size());
      EXPECT_EQ(stats.sessions_retired, admitted.size());
      EXPECT_EQ(stats.steps, session_steps);
      EXPECT_GT(stats.train_updates, 0u);
      EXPECT_LE(stats.mean_batch_rows(), static_cast<double>(max_batch));
    }
  }
}

TEST(AsyncQServer, DestructionWithSessionsOnTheRunQueueRetiresAndFreesAll) {
  // One lane, sixteen sessions with slow steps: a coalesced batch hands
  // all sixteen back at once and fifteen wait on the run queue while the
  // lane steps one. Destroying the server there must still retire every
  // session exactly once and free every environment.
  std::atomic<int> live_envs{0};
  std::mutex retired_mutex;
  std::map<std::size_t, int> retirements;
  std::size_t admitted = 0;
  {
    AsyncQServerConfig config;
    config.worker_threads = 1;
    config.on_retire = [&](AsyncSessionResult&& result) {
      const std::scoped_lock lk(retired_mutex);
      ++retirements[result.id];
    };
    AsyncQServer server(make_backend("software", backend_config(62)),
                        SimplifiedOutputModel(4, 2), config);
    for (std::size_t i = 0; i < 16; ++i) {
      AsyncSessionSpec spec = eval_spec(540 + i, 560 + i, 100000);
      spec.env_factory = [&live_envs](std::uint64_t seed) {
        return std::make_unique<CountedEnv>(seed, live_envs, 200);
      };
      server.add_session(spec);
      ++admitted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(live_envs.load(), 0) << "a session's environment leaked";
  ASSERT_EQ(retirements.size(), admitted);
  for (const auto& [id, count] : retirements) {
    EXPECT_EQ(count, 1) << "session " << id;
  }
}

TEST(AsyncQServer, OnRetireCallbackRunsAfterTheSlotIsFreed) {
  // A lone session retires into the callback. By then it must have left
  // the live count: the router wakes bounded-wait admissions from inside
  // this callback, and a woken admission has to find the slot free.
  std::atomic<AsyncQServer*> self{nullptr};
  std::atomic<std::size_t> live_in_callback{99};
  AsyncQServerConfig config;
  config.worker_threads = 1;
  config.on_retire = [&](AsyncSessionResult&&) {
    live_in_callback = self.load()->live_sessions();
  };
  AsyncQServer server(make_backend("software", backend_config(64)),
                      SimplifiedOutputModel(4, 2), config);
  self = &server;
  server.add_session(eval_spec(590, 591, 3));
  server.stop();  // returns only after the callback has returned
  EXPECT_EQ(live_in_callback.load(), 0u);
}

/// Environment whose reset() sleeps, then throws: its session retires
/// with an error without ever sending the batch thread a request.
class SlowFailingResetEnv final : public CartPoleWrapper {
 public:
  using CartPoleWrapper::CartPoleWrapper;

  env::Observation reset() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    throw std::runtime_error("simulator never came up");
  }
};

TEST(AsyncQServer, RetirementEndsTheLingerOfAPendingBatch) {
  // Two live sessions: the healthy one's first request lingers for a
  // co-tenant, while the other retires without ever sending one. Once it
  // is gone every live session has a request pending, so the batch must
  // fire then — not after the full (here, 20 s) linger.
  AsyncQServerConfig config;
  config.worker_threads = 2;
  config.max_wait_us = 20'000'000;
  AsyncQServer server(make_backend("software", backend_config(63)),
                      SimplifiedOutputModel(4, 2), config);
  AsyncSessionSpec failing = eval_spec(580, 581, 1);
  failing.env_factory = [](std::uint64_t seed) {
    return std::make_unique<SlowFailingResetEnv>(seed);
  };
  const auto start = std::chrono::steady_clock::now();
  const std::size_t doomed = server.add_session(failing);
  const std::size_t healthy = server.add_session(eval_spec(582, 583, 2));
  EXPECT_TRUE(server.wait(healthy).completed);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_TRUE(server.wait(doomed).failed);
  EXPECT_LT(elapsed_s, 5.0) << "the batch sat out its linger";
}

TEST(AsyncQServer, BoundedReadyQueueBackpressureStillCompletes) {
  AsyncQServerConfig config;
  config.ready_queue_capacity = 1;  // maximal backpressure
  config.worker_threads = 3;
  AsyncQServer server(make_backend("software", backend_config(12)),
                      SimplifiedOutputModel(4, 2), config);
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 6; ++i) {
    ids.push_back(server.add_session(eval_spec(100 + i, 110 + i)));
  }
  for (const std::size_t id : ids) {
    EXPECT_TRUE(server.wait(id).completed) << id;
  }
}

TEST(AsyncQServer, EvaluationNeverMutatesTheBackend) {
  OsElmQBackendPtr backend = make_backend("software", backend_config(13));
  prime_backend(*backend, 5);
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2));
  for (std::size_t i = 0; i < 3; ++i) {
    server.add_session(eval_spec(120 + i, 130 + i));
  }
  server.drain();
  EXPECT_TRUE(raw->initialized());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.train_updates, 0u);
  EXPECT_EQ(stats.init_trains, 0u);
  EXPECT_GT(stats.steps, 0u);
}

TEST(AsyncQServer, TelemetryCountsAndJsonAreCoherent) {
  AsyncQServerConfig config;
  config.max_batch = 4;
  config.max_wait_us = 2000;
  config.worker_threads = 2;
  AsyncQServer server(make_backend("software", backend_config(14)),
                      SimplifiedOutputModel(4, 2), config);
  for (std::size_t i = 0; i < 4; ++i) {
    server.add_session(eval_spec(140 + i, 150 + i));
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  const AsyncServerStats stats = server.stats();

  std::uint64_t session_steps = 0;
  for (const AsyncSessionResult& r : results) {
    session_steps += r.train.total_steps;
    EXPECT_EQ(r.step_latency_us.count(), r.train.total_steps) << r.id;
    EXPECT_GT(r.step_latency_us.quantile(0.5), 0.0) << r.id;
  }
  EXPECT_EQ(stats.steps, session_steps);
  // Every step latency landed in the merged histogram at retirement.
  EXPECT_EQ(stats.step_latency_us.count(), session_steps);
  // Each greedy evaluation is one row of some coalesced batch.
  EXPECT_GE(stats.batch_rows, stats.batches);
  EXPECT_LE(stats.mean_batch_rows(),
            static_cast<double>(config.max_batch));
  EXPECT_EQ(stats.batch_rows_hist.count(), stats.batches);
  EXPECT_EQ(stats.sessions_admitted, 4u);
  EXPECT_EQ(stats.sessions_retired, 4u);

  const std::string json = stats.to_json();
  for (const char* key :
       {"\"steps\"", "\"batches\"", "\"mean_batch_rows\"",
        "\"step_latency_us\"", "\"batch_rows_hist\"", "\"p95\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(AsyncQServer, DrainReturnsResultsInAdmissionOrder) {
  AsyncQServer server(make_backend("software", backend_config(15)),
                      SimplifiedOutputModel(4, 2));
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 3; ++i) {
    AsyncSessionSpec spec = eval_spec(160 + i, 170 + i, 2 + i);
    ids.push_back(server.add_session(spec));
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].id, ids[i]);
    EXPECT_EQ(results[i].train.episodes, 2 + i);
  }
  // Results are delivered exactly once: a second drain has nothing left
  // and re-waiting a claimed session is an error (this is what keeps a
  // long-lived server's memory bounded).
  EXPECT_TRUE(server.drain().empty());
  EXPECT_THROW((void)server.wait(ids[0]), std::logic_error);
}

TEST(AsyncQServer, EmptyEpisodeBudgetRetiresImmediately) {
  AsyncQServer server(make_backend("software", backend_config(16)),
                      SimplifiedOutputModel(4, 2));
  const AsyncSessionResult result =
      server.wait(server.add_session(eval_spec(180, 181, 0)));
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.train.episodes, 0u);
  EXPECT_EQ(result.train.total_steps, 0u);
}

TEST(AsyncQServer, SharedTrainingSessionsAllRetireAndTrainTheBackend) {
  // Co-tenant training is scheduling-dependent by contract, but the
  // lifecycle invariants hold: one init_train on the shared network,
  // sequential updates from many sessions, everyone retires.
  AsyncQServerConfig config;
  config.worker_threads = 4;
  OsElmQBackendPtr backend = make_backend("software", backend_config(17));
  const OsElmQBackend* raw = backend.get();
  AsyncQServer server(std::move(backend), SimplifiedOutputModel(4, 2),
                      config);
  for (std::size_t i = 0; i < 4; ++i) {
    AsyncSessionSpec spec;
    spec.mode = AsyncSessionMode::kTrain;
    spec.session.env_seed = 200 + i;
    spec.session.agent_seed = 210 + i;
    spec.session.trainer.max_episodes = 15;
    spec.session.trainer.solved_threshold = 1e9;
    spec.session.trainer.reset_interval = 0;  // shared net: no resets
    server.add_session(spec);
  }
  const std::vector<AsyncSessionResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const AsyncSessionResult& r : results) {
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.train.episodes, 15u);
  }
  EXPECT_TRUE(raw->initialized());
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.init_trains, 1u);
  EXPECT_GT(stats.train_updates, 0u);
}

TEST(AsyncQServer, RunExclusiveTouchesTheBackendAndUnblocksBuffering) {
  AsyncQServer server(make_backend("software", backend_config(23)),
                      SimplifiedOutputModel(4, 2));
  EXPECT_FALSE(server.backend().initialized());
  // Priming through run_exclusive must also refresh the worker-visible
  // initialized mirror — sessions admitted afterwards train sequentially
  // instead of buffering toward their own init chunk.
  server.run_exclusive(
      [](OsElmQBackend& backend) { prime_backend(backend, 99); });
  EXPECT_TRUE(server.backend().initialized());

  AsyncSessionSpec train;
  train.mode = AsyncSessionMode::kTrain;
  train.session.env_seed = 7;
  train.session.agent_seed = 8;
  train.session.trainer.max_episodes = 5;
  train.session.trainer.solved_threshold = 1e9;
  train.session.trainer.reset_interval = 0;
  const AsyncSessionResult result = server.wait(server.add_session(train));
  EXPECT_TRUE(result.completed);
  const AsyncServerStats stats = server.stats();
  EXPECT_EQ(stats.init_trains, 0u) << "session re-ran its own init chunk";
  EXPECT_GT(stats.train_updates, 0u);
  EXPECT_EQ(server.train_update_count(), stats.train_updates);
}

TEST(AsyncQServer, RunExclusivePropagatesExceptionsAndWorksAfterStop) {
  AsyncQServer server(make_backend("software", backend_config(29)),
                      SimplifiedOutputModel(4, 2));
  EXPECT_THROW(server.run_exclusive([](OsElmQBackend&) {
                 throw std::runtime_error("sync fault");
               }),
               std::runtime_error);
  // The batch thread survives a throwing callback.
  const AsyncSessionResult ok = server.wait(server.add_session(
      eval_spec(60, 61, 2)));
  EXPECT_TRUE(ok.completed);

  server.stop();
  // After stop() the callback runs inline on the caller — state sync and
  // post-mortem inspection still work against the quiescent backend.
  bool ran = false;
  server.run_exclusive([&ran](OsElmQBackend& backend) {
    prime_backend(backend, 99);
    ran = true;
  });
  EXPECT_TRUE(ran);
  EXPECT_TRUE(server.backend().initialized());
}

TEST(AsyncQServer, ResultsCarryTheConfiguredServerName) {
  AsyncQServerConfig config;
  config.name = "edge-0";
  AsyncQServer server(make_backend("software", backend_config(31)),
                      SimplifiedOutputModel(4, 2), config);
  EXPECT_EQ(server.name(), "edge-0");
  const AsyncSessionResult result =
      server.wait(server.add_session(eval_spec(70, 71, 2)));
  EXPECT_EQ(result.served_by, "edge-0");
}

}  // namespace
}  // namespace oselm::rl
