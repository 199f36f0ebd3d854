// Figure 14: average time per checkpoint, GP vs MPICH-VCL, CG Class C with
// remote checkpoint servers, 16..128 processes.
//
// Paper shape: GP below VCL throughout, both rising with scale (4 shared
// servers), VCL's trend steeper ("may perform much less efficiently than GP
// when the system is further scaled").
#include "apps/cg.hpp"
#include "bench_common.hpp"

using namespace gcr;
using bench::Mode;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto procs = cli.get_int_list("procs", {16, 32, 64, 128}, "counts");
  const int reps = cli.get_reps(3);
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::AppFactory app = [](int nr) { return apps::make_cg(nr); };
  auto cache = std::make_shared<bench::GroupCache>(app);

  exp::Scenario sc;
  sc.name = "cg/avg-ckpt-time";
  // protocol: 0 = GP (group protocol), 1 = VCL.
  sc.axes = {exp::SweepAxis::ints("procs", procs),
             exp::SweepAxis::ints("protocol", {0, 1})};
  sc.reps = reps;
  sc.config = [app, cache](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = app;
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.remote_storage = true;
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 60.0;
    if (point.get_int("protocol") == 1) {
      cfg.protocol = exp::ProtocolKind::kVcl;
    } else {
      cfg.groups = cache->get(Mode::kGp, cfg.nranks);
      cfg.schedule.round_spread_s = 0.4;
    }
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint&, const exp::ExperimentResult& res,
                  exp::Collector& col) {
    col.add("per_ckpt", res.metrics.mean_ckpt_time_s());
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"procs", "GP_per_ckpt_s", "VCL_per_ckpt_s"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    t.add_row(
        {Table::num(procs[i]),
         bench::cell_mean(camp.stat(sc.cell_index({i, 0}), "per_ckpt"), 2),
         bench::cell_mean(camp.stat(sc.cell_index({i, 1}), "per_ckpt"), 2)});
  }
  bench::emit(
      "Figure 14 - average time per checkpoint on remote storage (CG Class "
      "C). Expect: GP < VCL throughout, VCL rising steeply",
      t, csv, &camp);
  return 0;
}
