// Figure 9: average per-process checkpoint time broken into Lock MPI /
// Coordination / Checkpoint / Finalize, at 16 and 128 processes, all modes.
//
// Paper shapes: the image ("Checkpoint") phase is mode-independent and
// SHRINKS with scale (memory per process shrinks); NORM's coordination
// grows so much at 128 that it dominates; with a good grouping (GP) the
// overhead stays minimal.
#include "hpl_modes.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  bench::HplSweepOptions opt;
  opt.procs = cli.get_int_list("procs", {16, 128}, "process counts");
  opt.reps = cli.get_reps(5);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();
  opt.restart_after_finish = false;

  const exp::Scenario sc = bench::hpl_scenario(
      "hpl/ckpt-breakdown", opt,
      [](int, Mode, const exp::ExperimentResult& res, exp::Collector& col) {
        const core::PhaseTimes ph = res.metrics.mean_phases();
        col.add("lock", ph.lock_mpi);
        col.add("coord", ph.coordination);
        col.add("img", ph.checkpoint);
        col.add("fin", ph.finalize);
      });
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"procs", "mode", "lock_mpi_s", "coordination_s", "checkpoint_s",
           "finalize_s", "total_s"});
  for (std::size_t i = 0; i < opt.procs.size(); ++i) {
    for (std::size_t mi = 0; mi < opt.modes.size(); ++mi) {
      const std::size_t cell = sc.cell_index({i, mi});
      const RunningStats& lock = camp.stat(cell, "lock");
      const RunningStats& coord = camp.stat(cell, "coord");
      const RunningStats& img = camp.stat(cell, "img");
      const RunningStats& fin = camp.stat(cell, "fin");
      const std::string total =
          lock.count() ? Table::num(lock.mean() + coord.mean() + img.mean() +
                                        fin.mean(),
                                    3)
                       : std::string("n/a");
      t.add_row({Table::num(opt.procs[i]), bench::mode_name(opt.modes[mi]),
                 bench::cell_mean(lock, 3), bench::cell_mean(coord, 3),
                 bench::cell_mean(img, 3), bench::cell_mean(fin, 3), total});
    }
  }
  bench::emit(
      "Figure 9 - checkpoint time breakdown. Expect: image phase equal "
      "across modes and smaller at 128; NORM coordination dominates at 128",
      t, csv, &camp);
  return 0;
}
