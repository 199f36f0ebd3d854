// Figure 1: checkpoint coordination time in HPL with LAM/MPI.
//
// Paper: the aggregate (summed over processes) time spent coordinating ONE
// global checkpoint, excluding the image write, for HPL runs of 12..68
// processes. Shape to reproduce: gradual growth with process count, with
// large spikes at some scales caused by unexpected per-node delays.
#include "apps/hpl.hpp"
#include "bench_common.hpp"

using namespace gcr;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto procs = cli.get_int_list(
      "procs", {12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64, 68},
      "process counts");
  const int reps = cli.get_reps(5);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::Scenario sc;
  sc.name = "hpl/lam-coordination";
  sc.axes = {exp::SweepAxis::ints("procs", procs)};
  sc.reps = reps;
  sc.config = [](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = [](int nr) { return apps::make_hpl(nr); };
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.groups = group::make_norm(cfg.nranks);  // LAM/MPI: one global group
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 60.0;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("coord", res.metrics.aggregate_coordination_time_s());
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table table({"procs", "aggregate_coordination_s(mean)", "min", "max"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    const RunningStats& agg = camp.stat(i, "coord");
    table.add_row({Table::num(procs[i]), bench::cell_mean(agg, 1),
                   bench::cell_min(agg, 1), bench::cell_max(agg, 1)});
  }
  bench::emit(
      "Figure 1 - aggregate coordination time of one global checkpoint "
      "(HPL, NORM). Expect: growth with n, spiky (OS stragglers)",
      table, csv, &camp);
  return 0;
}
