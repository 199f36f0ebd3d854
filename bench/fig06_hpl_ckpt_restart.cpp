// Figure 6: summed per-process checkpoint time (6a) and restart time (6b),
// HPL, 16-128 processes.
//
// Paper shapes: (6a) GP ~ GP1, flat with scale; GP4 above them; NORM high,
// rising, spiky. (6b) NORM lowest (no resends), GP slightly above, GP1
// highest and most variable (resends to everyone).
#include "hpl_modes.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bench::HplSweepOptions opt;
  opt.procs = cli.get_int_list("procs", opt.procs, "process counts");
  opt.reps = cli.get_reps(5);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  const exp::Scenario sc = bench::hpl_scenario(
      "hpl/ckpt-restart", opt,
      [](int, Mode, const exp::ExperimentResult& res, exp::Collector& col) {
        col.add("ckpt", res.metrics.aggregate_ckpt_time_s());
        col.add("restart", res.restart_aggregate_s);
      });
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto stat = [&](std::size_t ni, Mode m, const char* metric) {
    return camp.stat(sc.cell_index({ni, bench::mode_index(opt.modes, m)}),
                     metric);
  };

  auto table_for = [&](const char* metric) {
    Table t({"procs", "GP_s", "GP1_s", "GP4_s", "NORM_s", "NORM_max_s"});
    for (std::size_t i = 0; i < opt.procs.size(); ++i) {
      t.add_row({Table::num(opt.procs[i]),
                 bench::cell_mean(stat(i, Mode::kGp, metric), 1),
                 bench::cell_mean(stat(i, Mode::kGp1, metric), 1),
                 bench::cell_mean(stat(i, Mode::kGp4, metric), 1),
                 bench::cell_mean(stat(i, Mode::kNorm, metric), 1),
                 bench::cell_max(stat(i, Mode::kNorm, metric), 1)});
    }
    return t;
  };

  bench::emit(
      "Figure 6a - summed checkpoint time (HPL). Expect: GP ~ GP1 flat; "
      "NORM rising and spiky",
      table_for("ckpt"), csv, &camp);
  bench::emit(
      "Figure 6b - summed restart time (HPL). Expect: NORM lowest, GP "
      "slightly above, GP1 highest/variable",
      table_for("restart"), csv, &camp);
  return 0;
}
