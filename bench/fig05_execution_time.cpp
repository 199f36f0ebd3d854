// Figure 5: HPL execution time with one checkpoint at t=60 s, and the
// difference from NORM (5b).
//
// Paper shapes: all four modes are close (within ~10 s); NORM fluctuates
// (checkpoint delay spikes leak into total time); GP's edge over NORM grows
// with scale (logging cost < saved coordination).
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
  const bool fault = cli.get_bool(
      "fault", false, "kill group 0 at t=80s (restore-from-image e2e)");
  cli.finish();
  opt.restart_after_finish = false;  // 5a/5b only need execution time
  // Post-checkpoint failure: the t=60s image exists, so the run exercises
  // the full kill -> restore -> replay path.
  if (fault) opt.failures = {{0, 80.0}};

  const exp::Scenario sc = bench::hpl_scenario(
      "hpl/exec-time", opt,
      [](int, Mode, const exp::ExperimentResult& res, exp::Collector& col) {
        col.add("exec", res.exec_time_s);
      });
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});
  auto exec = [&](std::size_t ni, Mode m) -> const RunningStats& {
    return camp.stat(sc.cell_index({ni, bench::mode_index(opt.modes, m)}),
                     "exec");
  };
  auto diff = [](const RunningStats& a, const RunningStats& b) {
    return a.count() && b.count() ? Table::num(a.mean() - b.mean(), 2)
                                  : std::string("n/a");
  };

  Table t5a({"procs", "GP_s", "GP1_s", "GP4_s", "NORM_s"});
  Table t5b({"procs", "GP-NORM_s", "GP1-NORM_s", "GP4-NORM_s"});
  for (std::size_t i = 0; i < opt.procs.size(); ++i) {
    const RunningStats& gp = exec(i, Mode::kGp);
    const RunningStats& gp1 = exec(i, Mode::kGp1);
    const RunningStats& gp4 = exec(i, Mode::kGp4);
    const RunningStats& norm = exec(i, Mode::kNorm);
    t5a.add_row({Table::num(opt.procs[i]), bench::cell_mean(gp, 1),
                 bench::cell_mean(gp1, 1), bench::cell_mean(gp4, 1),
                 bench::cell_mean(norm, 1)});
    t5b.add_row({Table::num(opt.procs[i]), diff(gp, norm), diff(gp1, norm),
                 diff(gp4, norm)});
  }
  bench::emit("Figure 5a - HPL execution time, one checkpoint at t=60s",
              t5a, csv, &camp);
  bench::emit(
      "Figure 5b - difference from NORM (lower is better). Expect: GP "
      "advantage grows with scale",
      t5b, csv, &camp);
  return 0;
}
