#include "exp/experiment.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "group/formation.hpp"
#include "group/strategies.hpp"
#include "mpi/runtime.hpp"
#include "trace/tracer.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace gcr::exp {
namespace {

sim::ClusterParams make_cluster_params(const ExperimentConfig& config) {
  sim::ClusterParams cp;
  cp.num_nodes = config.nranks + 1;  // + driver (mpirun) node
  cp.seed = config.seed;
  cp.net.latency_s = config.net_latency_s;
  cp.net.bandwidth_Bps = config.net_bandwidth_Bps;
  cp.net.topology = config.topology;
  cp.local_disk.bandwidth_Bps = config.disk_bandwidth_Bps;
  cp.local_disk.concurrency = config.storage.direct_concurrency;
  cp.num_remote_servers = config.remote_storage ? config.remote_servers : 0;
  cp.remote_server.bandwidth_Bps = config.remote_bandwidth_Bps;
  cp.remote_server.concurrency = config.storage.direct_concurrency;
  if (config.storage.mode != ckpt::StorageMode::kDirect) {
    const StorageConfig& s = config.storage;
    cp.tiers.num_burst_buffers = s.burst_buffers;
    cp.tiers.node_buffer.bandwidth_Bps = s.node_buffer_Bps;
    cp.tiers.burst_buffer.bandwidth_Bps = s.burst_buffer_Bps;
    cp.tiers.burst_buffer.concurrency = s.burst_buffer_concurrency;
    cp.tiers.pfs.bandwidth_Bps = s.pfs_Bps;
    cp.tiers.pfs.concurrency = s.pfs_concurrency;
  }
  cp.jitter.enabled = config.jitter;
  return cp;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  GCR_CHECK(config.app != nullptr);
  GCR_CHECK(config.nranks > 0);

  GCR_CHECK_MSG(config.shards == 1,
                "ExperimentConfig::shards must be 1 (one engine per run)");

  sim::Cluster cluster(make_cluster_params(config));
  mpi::Runtime runtime(cluster, config.nranks);
  apps::AppSpec spec = config.app(config.nranks);

  ckpt::CheckpointerOptions ckpt_opts;
  ckpt_opts.remote_storage = config.remote_storage;
  ckpt_opts.mode = config.storage.mode;
  ckpt_opts.bb_capacity_bytes =
      static_cast<std::int64_t>(config.storage.burst_buffer_capacity_bytes);
  ckpt::Checkpointer checkpointer(cluster, ckpt_opts);
  ckpt::ImageRegistry registry;
  registry.reserve_ranks(config.nranks);
  core::Metrics metrics;

  trace::Tracer tracer;
  if (config.collect_trace) {
    tracer.prepare(config.nranks);
    runtime.add_observer(&tracer);
  }

  std::unique_ptr<core::GroupProtocol> group_protocol;
  std::unique_ptr<core::VclProtocol> vcl_protocol;
  std::unique_ptr<core::CheckpointScheduler> scheduler;
  std::unique_ptr<core::RecoveryManager> recovery;
  std::unique_ptr<core::TrafficMatrix> traffic;
  std::unique_ptr<core::RegroupPlanner> planner;

  if (config.protocol == ProtocolKind::kGroup) {
    GCR_CHECK_MSG(config.groups.has_value(),
                  "group protocol requires a GroupSet");
    group_protocol = std::make_unique<core::GroupProtocol>(
        runtime, *config.groups, checkpointer, registry, spec.image_bytes,
        metrics, config.protocol_options);
    runtime.set_protocol(group_protocol.get());
    if (!config.per_group_intervals.empty()) {
      core::CheckpointScheduler::start_per_group(runtime, *group_protocol,
                                                 config.per_group_intervals);
    } else if (config.checkpoints) {
      scheduler = std::make_unique<core::CheckpointScheduler>(
          core::CheckpointScheduler::for_groups(runtime, *group_protocol,
                                                config.schedule));
    }
    recovery = std::make_unique<core::RecoveryManager>(
        runtime, *group_protocol, registry, checkpointer, config.recovery);
    for (const FailurePlan& f : config.failures) {
      recovery->fail_group_at(f.group, sim::from_seconds(f.at_s));
    }
    if (config.fault_model.kind != sim::FaultModelKind::kNone) {
      recovery->arm_fault_model(sim::make_fault_model(config.fault_model));
    }
    if (config.churn.kind != sim::ChurnModelKind::kNone) {
      GCR_CHECK_MSG(config.per_group_intervals.empty(),
                    "per-group intervals are indexed into a static "
                    "partition; churn re-derives the partition — use the "
                    "uniform schedule");
      traffic = std::make_unique<core::TrafficMatrix>(config.nranks);
      runtime.add_observer(traffic.get());
      planner = std::make_unique<core::RegroupPlanner>(traffic.get());
      recovery->arm_churn_model(sim::make_churn_model(config.churn),
                                planner.get(), config.churn_options);
    }
  } else {
    GCR_CHECK_MSG(config.failures.empty() && !config.restart_after_finish &&
                      config.fault_model.kind == sim::FaultModelKind::kNone,
                  "VCL restart/failures are not supported (see DESIGN.md §8)");
    vcl_protocol = std::make_unique<core::VclProtocol>(
        runtime, checkpointer, spec.image_bytes, metrics);
    runtime.set_protocol(vcl_protocol.get());
    if (config.checkpoints) {
      scheduler = std::make_unique<core::CheckpointScheduler>(
          core::CheckpointScheduler::for_vcl(runtime, *vcl_protocol,
                                             config.schedule));
    }
  }
  if (scheduler) scheduler->start();

  runtime.start_app(spec.body);

  const sim::Time deadline = sim::from_seconds(config.max_sim_s);
  cluster.engine().run_while([&] {
    return !runtime.job_finished() && cluster.engine().now() < deadline;
  });

  ExperimentResult result;
  result.finished = runtime.job_finished();
  const sim::Time end_time = cluster.engine().now();
  result.exec_time_s = sim::to_seconds(end_time);
  result.app_messages = runtime.app_messages_sent();
  result.app_bytes = runtime.app_bytes_sent();
  result.failures_injected = recovery ? recovery->failures_injected() : 0;
  result.failures_absorbed = recovery ? recovery->failures_absorbed() : 0;
  result.recoveries_completed = recovery ? recovery->recoveries_completed() : 0;
  result.recoveries_aborted = recovery ? recovery->recoveries_aborted() : 0;
  result.availability = recovery ? recovery->availability(end_time) : 1.0;
  if (recovery) {
    result.drains_completed = recovery->drains_completed();
    result.reclaims_clean = recovery->reclaims_clean();
    result.reclaims_forced = recovery->reclaims_forced();
    result.joins_completed = recovery->joins_completed();
    result.joins_aborted = recovery->joins_aborted();
    result.splits_installed = recovery->splits_installed();
    result.merges_installed = recovery->merges_installed();
  }
  result.final_num_groups =
      group_protocol ? group_protocol->groups().num_groups() : 0;
  if (spec.service_stats) result.service = spec.service_stats();

  if (result.finished && config.restart_after_finish && recovery) {
    const std::size_t before = metrics.restarts.size();
    recovery->restart_all_at(cluster.engine().now() + sim::from_seconds(1.0));
    const std::size_t want = before + static_cast<std::size_t>(config.nranks);
    cluster.engine().run_while([&] {
      return metrics.restarts.size() < want &&
             cluster.engine().now() < deadline + sim::from_seconds(5000);
    });
    GCR_CHECK_MSG(metrics.restarts.size() >= want,
                  "whole-application restart did not complete");
    for (std::size_t i = before; i < metrics.restarts.size(); ++i) {
      const auto& r = metrics.restarts[i];
      result.restart_aggregate_s += sim::to_seconds(r.end - r.begin);
      result.restart_records.push_back(r);
    }
  }

  result.shard_events = {cluster.engine().events_processed()};
  result.checkpoints_completed = metrics.completed_rounds(config.nranks);
  result.rounds_issued = scheduler ? scheduler->rounds_issued() : 0;
  if (const ckpt::TierStats* ts = checkpointer.tier_stats()) {
    result.tier_stats = *ts;
  }
  result.metrics = std::move(metrics);
  if (config.collect_trace) result.trace = tracer.take();
  return result;
}

sim::FaultModelParams group_fault_schedule(const group::GroupSet& groups,
                                           const std::vector<double>& mtbf_s,
                                           std::uint64_t seed,
                                           double max_sim_s) {
  GCR_CHECK(static_cast<int>(mtbf_s.size()) == groups.num_groups());
  sim::FaultModelParams params;
  const sim::Time end = sim::from_seconds(max_sim_s);
  for (std::size_t g = 0; g < mtbf_s.size(); ++g) {
    if (mtbf_s[g] <= 0) continue;
    Rng rng(mix_seed(seed, 0xFA11 + static_cast<std::uint64_t>(g)));
    // One rank per node: the first member's rank id is its node.
    const int node = groups.members(static_cast<int>(g)).front();
    sim::Time t = 0;
    do {
      t += sim::from_seconds(rng.next_exponential(mtbf_s[g]));
      params.schedule.push_back({sim::to_seconds(t), node});
      // The trace model reads times back through from_seconds.
      GCR_ASSERT(sim::from_seconds(params.schedule.back().at_s) == t);
    } while (t < end);
  }
  if (params.schedule.empty()) return params;
  std::stable_sort(params.schedule.begin(), params.schedule.end(),
                   [](const sim::FaultEvent& a, const sim::FaultEvent& b) {
                     return a.at_s < b.at_s;
                   });
  params.kind = sim::FaultModelKind::kTrace;
  return params;
}

trace::Trace profile_app(const AppFactory& app, int nranks,
                         std::uint64_t seed) {
  ExperimentConfig config;
  config.app = app;
  config.nranks = nranks;
  config.seed = seed;
  config.collect_trace = true;
  config.protocol = ProtocolKind::kGroup;
  config.groups = group::make_norm(nranks);
  config.checkpoints = false;
  ExperimentResult result = run_experiment(config);
  GCR_CHECK_MSG(result.finished, "profiling run did not finish");
  return std::move(result.trace);
}

group::GroupSet derive_groups(const AppFactory& app, int nranks,
                              int max_group_size, std::uint64_t seed) {
  const trace::Trace trace = profile_app(app, nranks, seed);
  group::FormationOptions options;
  options.max_group_size = max_group_size;
  return group::form_groups_from_trace(nranks, trace, options);
}

}  // namespace gcr::exp
