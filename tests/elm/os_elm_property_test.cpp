// Property pins for the symmetric rank-1 P-update rewrite.
//
//   * Structure: seq_train_one updates P as one fma sweep over the full
//     square in factored form (kernels::sym_rank1_update), which rounds
//     P(i,j) and P(j,i) from the same exact product, so P must stay
//     EXACTLY symmetric — and, as the inverse of a growing SPD Gram
//     matrix, positive-definite — across long random update streams. The
//     seed's unfactored full-matrix sweep let rounding drift P(i,j) away
//     from P(j,i); this suite guards against that class of drift.
//   * Dispatch: the SIMD and scalar kernel sets may round differently at
//     the last ulps, but a whole closed-loop gridworld training run must
//     stay pinned within 1e-8 between OSELM_SIMD settings.
#include <gtest/gtest.h>

#include <cmath>

#include "elm/os_elm.hpp"
#include "env/grid_world.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernels.hpp"
#include "rl/backend_registry.hpp"
#include "rl/oselm_q_agent.hpp"
#include "rl/trainer.hpp"
#include "util/rng.hpp"

namespace oselm {
namespace {

elm::ElmConfig property_config(std::size_t hidden) {
  elm::ElmConfig cfg;
  cfg.input_dim = 5;
  cfg.hidden_units = hidden;
  cfg.output_dim = 1;
  cfg.l2_delta = 0.5;
  return cfg;
}

linalg::MatD random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  linalg::MatD m(r, c);
  rng.fill_uniform(m.storage(), -1.0, 1.0);
  return m;
}

void expect_exactly_symmetric(const linalg::MatD& p, std::size_t update) {
  for (std::size_t i = 0; i < p.rows(); ++i) {
    for (std::size_t j = i + 1; j < p.cols(); ++j) {
      ASSERT_EQ(p(i, j), p(j, i))
          << "P drifted asymmetric at (" << i << "," << j << ") after update "
          << update;
    }
  }
}

void run_symmetry_pd_stream(double lambda) {
  constexpr std::size_t kHidden = 24;
  constexpr std::size_t kUpdates = 1000;
  util::Rng rng(91);
  elm::OsElm model(property_config(kHidden), rng);
  model.init_train(random_matrix(kHidden, 5, rng),
                   random_matrix(kHidden, 1, rng));

  linalg::VecD x(5, 0.0);
  linalg::VecD t(1, 0.0);
  for (std::size_t update = 1; update <= kUpdates; ++update) {
    rng.fill_uniform(x, -1.0, 1.0);
    t[0] = rng.uniform(-1.0, 1.0);
    model.seq_train_one_forgetting(x, t, lambda);
    expect_exactly_symmetric(model.p(), update);
    if (update % 100 == 0 || update == kUpdates) {
      // P = (sum H^T H + delta I)^-1 is SPD in exact arithmetic; a
      // Cholesky factorization succeeding is the numerical witness.
      const auto factor = linalg::cholesky_decompose(model.p());
      ASSERT_TRUE(factor.spd)
          << "P lost positive-definiteness after update " << update
          << " (lambda " << lambda << ")";
    }
  }
}

TEST(OsElmPUpdateProperty, PStaysSymmetricAndPdOver1kUpdates) {
  run_symmetry_pd_stream(1.0);
}

TEST(OsElmPUpdateProperty, PStaysSymmetricAndPdWithForgetting) {
  run_symmetry_pd_stream(0.97);
}

// ---------------------------------------------------------------------------
// SIMD-on vs OSELM_SIMD=off trajectory pin (closed loop)
// ---------------------------------------------------------------------------

struct GridworldRun {
  rl::TrainResult result;
  linalg::VecD probe_q;
};

GridworldRun run_gridworld(bool simd) {
  linalg::kernels::set_simd_enabled(simd);
  env::GridWorldParams params;  // 4x4, pits {5, 7}
  env::GridWorld env(params);

  rl::BackendConfig backend_config;
  backend_config.input_dim = 3;  // (x, y) + action code
  backend_config.hidden_units = 32;
  backend_config.l2_delta = 0.1;
  backend_config.spectral_normalize = false;
  backend_config.seed = 209;

  rl::OsElmQAgentConfig agent_config;
  agent_config.gamma = 0.95;
  agent_config.epsilon_greedy = 0.5;
  agent_config.random_update = false;
  rl::OsElmQAgent agent(rl::make_backend("software", backend_config),
                        rl::SimplifiedOutputModel(2, 4), agent_config, 2,
                        "simd-pin");

  rl::TrainerConfig trainer;
  trainer.max_episodes = 60;
  trainer.episode_step_cap = 64;
  trainer.reset_interval = 0;
  trainer.solved_threshold = 1e9;

  GridworldRun out;
  out.result = rl::run_training(agent, env, trainer);
  // Greedy Q landscape over the grid as the end-state fingerprint.
  for (std::size_t cell = 0; cell < params.width * params.height; ++cell) {
    const double wx = static_cast<double>(cell % params.width) /
                      static_cast<double>(params.width - 1);
    const double wy = static_cast<double>(cell / params.width) /
                      static_cast<double>(params.height - 1);
    for (std::size_t a = 0; a < 4; ++a) {
      out.probe_q.push_back(agent.q_value({wx, wy}, a));
    }
  }
  linalg::kernels::reset_simd_override();
  return out;
}

TEST(OsElmSimdDispatchProperty, GridworldTrajectoriesMatchAcrossModes) {
  const GridworldRun scalar_run = run_gridworld(false);
  const GridworldRun simd_run = run_gridworld(true);

  // The exploration stream and episode boundaries must not diverge at
  // all: a last-ulp Q difference only matters if it flips an argmax, and
  // over this horizon it must not.
  ASSERT_EQ(scalar_run.result.episodes, simd_run.result.episodes);
  ASSERT_EQ(scalar_run.result.episode_steps.size(),
            simd_run.result.episode_steps.size());
  for (std::size_t e = 0; e < scalar_run.result.episode_steps.size(); ++e) {
    EXPECT_EQ(scalar_run.result.episode_steps[e],
              simd_run.result.episode_steps[e])
        << "episode " << e;
    EXPECT_NEAR(scalar_run.result.episode_returns[e],
                simd_run.result.episode_returns[e], 1e-8)
        << "episode " << e;
  }
  // Learned Q values agree to 1e-8 across the whole greedy landscape.
  ASSERT_EQ(scalar_run.probe_q.size(), simd_run.probe_q.size());
  for (std::size_t i = 0; i < scalar_run.probe_q.size(); ++i) {
    EXPECT_NEAR(scalar_run.probe_q[i], simd_run.probe_q[i], 1e-8) << i;
  }
}

}  // namespace
}  // namespace oselm
