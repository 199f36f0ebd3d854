// Figure 2: MPI trace diagrams for CG using MPICH-VCL, checkpoints every
// 30 s, at 32 vs 128 processes.
//
// Paper: at 32 processes the checkpoint windows still contain message
// transfers (progress); at 128 the windows are light-grey "gaps" spanning
// nearly the whole checkpoint — the application is effectively paused, and
// checkpointing eats >50% of the execution time.
#include <algorithm>

#include "apps/cg.hpp"
#include "bench_common.hpp"
#include "trace/timeline.hpp"

using namespace gcr;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double interval = cli.get_double("interval", 30.0, "ckpt period (s)");
  const auto procs = cli.get_int_list("procs", {32, 128}, "process counts");
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  exp::Scenario sc;
  sc.name = "cg/vcl-trace";
  sc.axes = {exp::SweepAxis::ints("procs", procs)};
  sc.reps = 1;
  sc.config = [interval](const exp::SweepPoint& point) {
    exp::ExperimentConfig cfg;
    cfg.app = [](int nr) { return apps::make_cg(nr); };
    cfg.nranks = static_cast<int>(point.get_int("procs"));
    cfg.seed = point.seed;
    cfg.protocol = exp::ProtocolKind::kVcl;
    cfg.remote_storage = true;
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = interval;
    cfg.schedule.interval_s = interval;
    cfg.collect_trace = true;
    return cfg;
  };
  sc.collect = [](const exp::SweepPoint& point,
                  const exp::ExperimentResult& res, exp::Collector& col) {
    const int nranks = static_cast<int>(point.get_int("procs"));
    col.add("exec", res.exec_time_s);
    double windows = 0;
    for (const auto& rec : res.metrics.ckpts) {
      windows += sim::to_seconds(rec.end - rec.begin);
    }
    col.add("window_share", windows / (nranks * res.exec_time_s));
    col.add("gap",
            trace::gap_fraction(res.trace, res.metrics.ckpt_windows(), 5.0));

    trace::TimelineOptions opts;
    opts.begin = 0;
    opts.end = sim::from_seconds(res.exec_time_s);
    opts.columns = 110;
    // The paper shows P0-P3; clamp for runs smaller than 4 ranks.
    for (int r = 0; r < std::min(nranks, 4); ++r) opts.ranks.push_back(r);
    col.add_text(
        trace::render_timeline(res.trace, res.metrics.ckpt_windows(), opts));
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table table({"procs", "exec_s", "ckpt_window_share", "gap_fraction"});
  for (std::size_t i = 0; i < procs.size(); ++i) {
    for (const std::string& timeline : camp.cells[i].texts) {
      std::printf("---- CG with MPICH-VCL-style checkpoints, %lld processes "
                  "(P0-P3 shown) ----\n%s\n",
                  static_cast<long long>(procs[i]), timeline.c_str());
    }
    table.add_row({Table::num(procs[i]),
                   bench::cell_mean(camp.stat(i, "exec"), 1),
                   bench::cell_mean(camp.stat(i, "window_share"), 3),
                   bench::cell_mean(camp.stat(i, "gap"), 3)});
  }
  bench::emit(
      "Figure 2 - VCL blocking behavior. Expect: checkpoint windows and gap "
      "share far larger at 128 than at 32 (non-blocking turns blocking)",
      table, csv, &camp);
  return 0;
}
