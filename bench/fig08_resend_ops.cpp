// Figure 8: number of resend operations to complete a restart (directed
// peer pairs that replayed data), HPL, modes GP / GP1 / GP4.
//
// Paper shape: GP1 most and most variable; GP and GP4 scale steadily and
// stay low.
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
      "hpl/resend-ops", opt,
      [](int, Mode, const exp::ExperimentResult& res, exp::Collector& col) {
        col.add("ops", static_cast<double>(res.metrics.resend_ops));
        col.add("msgs", static_cast<double>(res.metrics.resend_messages));
      });
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto stat = [&](std::size_t ni, Mode m, const char* metric) {
    return bench::cell_mean(
        camp.stat(sc.cell_index({ni, bench::mode_index(opt.modes, m)}),
                  metric),
        1);
  };

  Table t({"procs", "GP_ops", "GP1_ops", "GP4_ops", "GP_msgs", "GP1_msgs",
           "GP4_msgs"});
  for (std::size_t i = 0; i < opt.procs.size(); ++i) {
    t.add_row({Table::num(opt.procs[i]), stat(i, Mode::kGp, "ops"),
               stat(i, Mode::kGp1, "ops"), stat(i, Mode::kGp4, "ops"),
               stat(i, Mode::kGp, "msgs"), stat(i, Mode::kGp1, "msgs"),
               stat(i, Mode::kGp4, "msgs")});
  }
  bench::emit(
      "Figure 8 - resend operations on restart (HPL). Expect: GP1 most and "
      "most variable",
      t, csv, &camp);
  return 0;
}
