// Figure 7: total amount of data to resend during a whole-application
// restart (KB), HPL, modes GP / GP1 / GP4 (NORM resends nothing).
//
// Paper shape: GP low and stable; GP1 largest and most variable; GP4 in
// between, scaling steadily.
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
      "hpl/resend-data", opt,
      [](int, Mode, const exp::ExperimentResult& res, exp::Collector& col) {
        col.add("resend_kb",
                static_cast<double>(res.metrics.resend_bytes) / 1024.0);
      });
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto resend = [&](std::size_t ni, Mode m) {
    return camp.stat(sc.cell_index({ni, bench::mode_index(opt.modes, m)}),
                     "resend_kb");
  };

  Table t({"procs", "GP_KB", "GP1_KB", "GP4_KB", "GP1_max_KB"});
  for (std::size_t i = 0; i < opt.procs.size(); ++i) {
    t.add_row({Table::num(opt.procs[i]),
               bench::cell_mean(resend(i, Mode::kGp), 0),
               bench::cell_mean(resend(i, Mode::kGp1), 0),
               bench::cell_mean(resend(i, Mode::kGp4), 0),
               bench::cell_max(resend(i, Mode::kGp1), 0)});
  }
  bench::emit(
      "Figure 7 - data resent on restart (HPL). Expect: GP lowest/stable, "
      "GP1 largest/variable (NORM = 0 by construction)",
      t, csv, &camp);
  return 0;
}
