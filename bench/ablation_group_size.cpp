// Ablation A1: maximum group size G (paper §3.2's discussion).
//
// The paper argues G should adapt to the network: larger groups reduce the
// amount of message logging but coordinate more processes per checkpoint;
// on slow networks large groups also have more in-transit data to clear.
// This sweep quantifies the trade-off on HPL for the default (Fast
// Ethernet) and a 10x faster network.
#include "apps/hpl.hpp"
#include "bench_common.hpp"

using namespace gcr;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 64, "process count"));
  const auto sizes = cli.get_int_list("sizes", {1, 2, 4, 8, 16, 32, 64},
                                      "max group sizes (must divide procs)");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  std::vector<std::int64_t> valid_sizes;
  for (std::int64_t g : sizes) {
    if (g > 0 && n % g == 0) valid_sizes.push_back(g);
  }

  exp::Scenario sc;
  sc.name = "hpl/group-size";
  sc.axes = {exp::SweepAxis::reals("net_scale", {1.0, 10.0}),
             exp::SweepAxis::ints("max_G", valid_sizes)};
  sc.reps = reps;
  sc.config = [n](const exp::SweepPoint& point) {
    const double bw_scale = point.get("net_scale");
    const int g = static_cast<int>(point.get_int("max_G"));
    exp::ExperimentConfig cfg;
    cfg.app = [](int nr) { return apps::make_hpl(nr); };
    cfg.nranks = n;
    cfg.seed = point.seed;
    cfg.groups = group::make_round_robin(n, n / g);
    cfg.net_bandwidth_Bps = 12.5e6 * bw_scale;
    cfg.net_latency_s = 70e-6 / bw_scale;
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 60.0;
    cfg.schedule.round_spread_s = 0.4;
    cfg.restart_after_finish = true;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("exec", res.exec_time_s);
    col.add("ckpt", res.metrics.aggregate_ckpt_time_s());
    col.add("logged_mb", static_cast<double>(res.metrics.logged_bytes) / 1e6);
    col.add("restart", res.restart_aggregate_s);
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"max_G", "net", "exec_s", "agg_ckpt_s", "logged_MB",
           "agg_restart_s"});
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (std::size_t gi = 0; gi < valid_sizes.size(); ++gi) {
      const std::size_t cell = sc.cell_index({bi, gi});
      t.add_row({Table::num(valid_sizes[gi]), bi ? "fast" : "ethernet",
                 bench::cell_mean(camp.stat(cell, "exec"), 1),
                 bench::cell_mean(camp.stat(cell, "ckpt"), 1),
                 bench::cell_mean(camp.stat(cell, "logged_mb"), 1),
                 bench::cell_mean(camp.stat(cell, "restart"), 1)});
    }
  }
  bench::emit(
      "Ablation A1 - max group size sweep (HPL). Expect: logging shrinks "
      "with G; coordination grows with G; best G larger on faster networks",
      t, csv, &camp);
  return 0;
}
