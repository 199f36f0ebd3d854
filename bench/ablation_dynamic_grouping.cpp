// Ablation A2: Gopalan-Nagarajan dynamic dependent process groups (paper
// §6). Merging on every communication collapses to ONE global group as soon
// as a chain of messages links all processes — losing every benefit of
// grouping. Algorithm 2's bounded merge keeps groups small on the same
// traces.
#include "apps/cg.hpp"
#include "apps/hpl.hpp"
#include "apps/simple.hpp"
#include "bench_common.hpp"
#include "group/dynamic.hpp"

using namespace gcr;

namespace {

struct Workload {
  const char* name;
  exp::AppFactory app;
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"hpl", [](int nr) { return apps::make_hpl(nr); }});
  out.push_back({"cg", [](int nr) {
                   apps::CgParams p;
                   p.outer_iters = 10;
                   return apps::make_cg(nr, p);
                 }});
  out.push_back({"stencil-blocks", [](int nr) {
                   apps::Stencil1dParams p;
                   p.cluster_width = 4;
                   p.iterations = 20;
                   return apps::make_stencil1d(nr, p);
                 }});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int n = static_cast<int>(cli.get_int("procs", 32, "process count"));
  const bool csv = cli.get_bool("csv", false, "emit CSV");
  const int jobs = cli.get_jobs();
  cli.finish();

  const std::vector<Workload> loads = workloads();

  exp::Scenario sc;
  sc.name = "dynamic-grouping";
  sc.axes = {exp::SweepAxis::indices("workload", loads.size())};
  sc.reps = 1;
  sc.job = [n, &loads](const exp::SweepPoint& point, exp::Collector& col) {
    const Workload& w = loads[static_cast<std::size_t>(
        point.get_int("workload"))];
    const trace::Trace trace = exp::profile_app(w.app, n);
    const group::DynamicReplayResult dyn = group::replay_dynamic(n, trace);
    const group::GroupSet algo2 = group::form_groups_from_trace(n, trace);
    col.add("dynamic_groups", dyn.final_groups.num_groups());
    col.add("collapse_msgs",
            static_cast<double>(dyn.messages_until_collapse));
    col.add("algo2_groups", algo2.num_groups());
    col.add("algo2_largest", static_cast<double>(algo2.largest_group_size()));
  };
  const exp::CampaignResult camp = exp::run_campaign(sc, {jobs});

  Table t({"workload", "dynamic_groups", "collapse_after_msgs",
           "algo2_groups", "algo2_largest"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    auto stat = [&](const char* metric) {
      return static_cast<std::int64_t>(camp.stat(i, metric).mean());
    };
    t.add_row({loads[i].name, Table::num(stat("dynamic_groups")),
               Table::num(stat("collapse_msgs")),
               Table::num(stat("algo2_groups")),
               Table::num(stat("algo2_largest"))});
  }
  bench::emit(
      "Ablation A2 - dynamic merging vs Algorithm 2. Expect: dynamic "
      "grouping collapses to 1 group on HPL/CG (global chains); Algorithm 2 "
      "keeps bounded groups; only truly disjoint traffic (stencil blocks) "
      "stays partitioned under dynamic merging",
      t, csv, &camp);
  return 0;
}
