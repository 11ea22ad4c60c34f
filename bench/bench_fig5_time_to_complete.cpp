// Regenerates Figure 5: execution time to complete CartPole-v0 for all
// seven designs at 32/64/128/192 hidden units, broken down by operation.
//
// Three views are reported per design/width:
//   measured : native C++ wall-clock on this host (plus modeled PL time
//              for the FPGA design's predict/seq_train, as in Fig. 3);
//   board    : the same runs converted to modeled PYNQ-Z1 seconds via
//              hw::SoftwarePlatformModel (NumPy/PyTorch on a 650 MHz A9)
//              using the instrumented per-op invocation counts;
//   paper    : the values reported in §4.4.
//
// Completion = first episode surviving the 200-step cap (see
// rl::TrainerConfig). Times average over OSELM_TRIALS solved trials
// (paper: 100 software / 20 FPGA trials; default here: 5).
#include <cstdio>

#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"

int main() {
  using namespace oselm;
  using util::OpCategory;
  const bench::BenchKnobs knobs = bench::BenchKnobs::from_env();

  std::printf(
      "Figure 5 — execution time to complete CartPole-v0 (avg over %zu "
      "trials, cap %zu episodes)\n\n",
      knobs.trials, knobs.episode_cap);

  util::CsvWriter csv("fig5_time_to_complete.csv");
  csv.write_row({"units", "design", "solved_trials", "trials",
                 "mean_episodes", "measured_total_s", "board_total_s",
                 "paper_total_s", "measured_seq_train_s",
                 "measured_init_train_s", "measured_predict_s",
                 "board_seq_train_s", "board_init_train_s",
                 "board_predict_s", "board_train_dqn_s"});

  const auto paper_rows = bench::paper_fig5();

  for (const std::size_t units : knobs.unit_sweep) {
    const bench::PaperFig5Row* paper = nullptr;
    for (const auto& row : paper_rows) {
      if (row.units == units) paper = &row;
    }

    std::vector<util::Bar> measured_bars;
    std::vector<util::Bar> board_bars;
    double board_dqn_total = -1.0;
    std::vector<std::pair<std::string, double>> board_totals;

    std::size_t design_index = 0;
    for (const core::Design design : core::all_designs()) {
      core::RunSpec spec;
      spec.agent.design = design;
      spec.agent.hidden_units = units;
      spec.agent.seed = 1;
      spec.env_seed = 38;
      spec.trainer.max_episodes = knobs.episode_cap;
      spec.trainer.reset_interval = 300;
      const core::TrialSummary summary =
          core::run_trials(spec, knobs.trials, 0);

      const std::string name(core::design_name(design));
      const double paper_s =
          paper != nullptr ? paper->seconds[design_index] : -1.0;

      if (summary.solved_count == 0) {
        std::printf(
            "  [%3zu units] %-20s did not complete in %zu trials "
            "(paper: %s)\n",
            units, name.c_str(), knobs.trials,
            paper_s < 0 ? "did not complete either" : "completed");
        csv.write_values(units, name, summary.solved_count, summary.trials,
                         0.0, -1.0, -1.0, paper_s, -1.0, -1.0, -1.0, -1.0,
                         -1.0, -1.0, -1.0);
        ++design_index;
        continue;
      }

      const util::OpBreakdown& m = summary.mean_breakdown;
      const util::OpBreakdown board =
          bench::to_board_seconds(m, design, units);
      const double measured_total = m.total_excluding_env();
      const double board_total = board.total_excluding_env();
      if (design == core::Design::kDqn) board_dqn_total = board_total;
      board_totals.emplace_back(name, board_total);

      char paper_text[32] = "-";
      if (paper_s >= 0) {
        std::snprintf(paper_text, sizeof paper_text, "%.2fs", paper_s);
      }
      std::printf(
          "  [%3zu units] %-20s solved %zu/%zu  ep=%6.0f  measured=%9.4fs  "
          "board=%9.2fs  paper=%s\n",
          units, name.c_str(), summary.solved_count, summary.trials,
          summary.mean_episodes_to_complete, measured_total, board_total,
          paper_text);

      const double measured_predict = m.get(OpCategory::kPredictInit) +
                                      m.get(OpCategory::kPredictSeq) +
                                      m.get(OpCategory::kPredict1) +
                                      m.get(OpCategory::kPredict32);
      const double board_predict = board.get(OpCategory::kPredictInit) +
                                   board.get(OpCategory::kPredictSeq) +
                                   board.get(OpCategory::kPredict1) +
                                   board.get(OpCategory::kPredict32);
      csv.write_values(units, name, summary.solved_count, summary.trials,
                       summary.mean_episodes_to_complete, measured_total,
                       board_total, paper_s, m.get(OpCategory::kSeqTrain),
                       m.get(OpCategory::kInitTrain), measured_predict,
                       board.get(OpCategory::kSeqTrain),
                       board.get(OpCategory::kInitTrain), board_predict,
                       board.get(OpCategory::kTrainDqn));

      const auto make_bar = [&](const util::OpBreakdown& b) {
        return util::Bar{
            name,
            {{"seq_train", b.get(OpCategory::kSeqTrain)},
             {"init_train", b.get(OpCategory::kInitTrain)},
             {"predict", b.get(OpCategory::kPredictInit) +
                             b.get(OpCategory::kPredictSeq)},
             {"train_DQN", b.get(OpCategory::kTrainDqn)},
             {"predict_1", b.get(OpCategory::kPredict1)},
             {"predict_32", b.get(OpCategory::kPredict32)}}};
      };
      measured_bars.push_back(make_bar(m));
      board_bars.push_back(make_bar(board));
      ++design_index;
    }

    std::printf("\n  measured on this host (%zu units):\n%s\n", units,
                util::render_bar_chart(measured_bars, 60, "s").c_str());
    std::printf("  modeled PYNQ-Z1 board (%zu units):\n%s\n", units,
                util::render_bar_chart(board_bars, 60, "s").c_str());

    if (board_dqn_total > 0.0) {
      std::printf("  modeled-board speedup vs DQN (paper in parens):\n");
      std::size_t idx = 0;
      for (const auto& [name, total] : board_totals) {
        double paper_ratio = -1.0;
        if (paper != nullptr) {
          // Find this design's paper seconds and divide into DQN's.
          for (std::size_t d = 0; d < 7; ++d) {
            if (std::string(core::design_name(core::all_designs()[d])) ==
                    name &&
                paper->seconds[d] > 0 && paper->seconds[5] > 0) {
              paper_ratio = paper->seconds[5] / paper->seconds[d];
            }
          }
        }
        if (name != "DQN" && total > 0.0) {
          std::printf("    %-20s %7.2fx", name.c_str(),
                      board_dqn_total / total);
          if (paper_ratio > 0.0) std::printf("  (paper: %.2fx)", paper_ratio);
          std::printf("\n");
        }
        ++idx;
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Caveats: measured host times make the C++ DQN baseline far cheaper\n"
      "per step than the paper's PyTorch-on-ARM DQN; the board-modeled view\n"
      "restores the paper's per-op cost structure. The board model's\n"
      "calibration residuals are not published.\n"
      "CSV: fig5_time_to_complete.csv\n");
  return 0;
}
