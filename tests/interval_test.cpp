// Checkpoint-interval planning (Young/Daly), the expected-waste model,
// per-group schedules, and random failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "apps/simple.hpp"
#include "core/interval.hpp"
#include "exp/experiment.hpp"
#include "group/strategies.hpp"
#include "util/rng.hpp"

namespace gcr::core {
namespace {

TEST(Interval, YoungFormula) {
  EXPECT_DOUBLE_EQ(young_interval(2.0, 3600.0), std::sqrt(2 * 2.0 * 3600.0));
  EXPECT_DOUBLE_EQ(young_interval(0.0, 100.0), 0.0);
}

TEST(Interval, YoungGrowsWithCostAndMtbf) {
  EXPECT_LT(young_interval(1.0, 1000.0), young_interval(4.0, 1000.0));
  EXPECT_LT(young_interval(1.0, 1000.0), young_interval(1.0, 4000.0));
  // Quadrupling the C*M product doubles T.
  EXPECT_NEAR(young_interval(2.0, 2000.0), 2 * young_interval(1.0, 1000.0),
              1e-9);
}

TEST(Interval, DalyCloseToYoungForSmallCost) {
  const double c = 1.0, m = 36000.0;
  EXPECT_NEAR(daly_interval(c, m), young_interval(c, m),
              0.05 * young_interval(c, m));
}

TEST(Interval, DalyFallsBackToMtbfForHugeCost) {
  EXPECT_DOUBLE_EQ(daly_interval(600.0, 1000.0), 1000.0);
}

TEST(Interval, WasteMinimizedNearYoung) {
  const double c = 2.0, r = 5.0, m = 3600.0;
  const double t_opt = young_interval(c, m);
  const double w_opt = expected_waste_fraction(t_opt, c, r, m);
  EXPECT_LT(w_opt, expected_waste_fraction(t_opt / 4, c, r, m));
  EXPECT_LT(w_opt, expected_waste_fraction(t_opt * 4, c, r, m));
}

TEST(Interval, WasteIsCappedAtOne) {
  EXPECT_DOUBLE_EQ(expected_waste_fraction(1.0, 100.0, 1000.0, 1.0), 1.0);
}

TEST(Interval, MeasuredCostsPerGroup) {
  group::GroupSet groups = group::make_round_robin(4, 2);
  Metrics m;
  CkptRecord rec;
  rec.rank = 0;  // group 0
  rec.phases.checkpoint = 2.0;
  m.ckpts.push_back(rec);
  rec.rank = 1;  // group 1
  rec.phases.checkpoint = 4.0;
  m.ckpts.push_back(rec);
  rec.rank = 2;  // group 0
  rec.phases.checkpoint = 6.0;
  m.ckpts.push_back(rec);
  const auto cost = measured_group_ckpt_cost(m, groups);
  ASSERT_EQ(cost.size(), 2u);
  EXPECT_DOUBLE_EQ(cost[0], 4.0);  // (2+6)/2
  EXPECT_DOUBLE_EQ(cost[1], 4.0);  // single record
}

TEST(Interval, MissingGroupFallsBackToGlobalMean) {
  group::GroupSet groups = group::make_round_robin(4, 2);
  Metrics m;
  CkptRecord rec;
  rec.rank = 0;
  rec.phases.checkpoint = 3.0;
  m.ckpts.push_back(rec);
  const auto cost = measured_group_ckpt_cost(m, groups);
  EXPECT_DOUBLE_EQ(cost[1], 3.0);  // group 1 has no records
}

TEST(Interval, PlanGivesFlakyGroupsShorterIntervals) {
  const std::vector<double> cost{1.0, 1.0, 1.0};
  const std::vector<GroupReliability> rel{{36000.0}, {3600.0}, {360.0}};
  const GroupIntervalPlan plan = plan_group_intervals(cost, rel);
  ASSERT_EQ(plan.interval_s.size(), 3u);
  EXPECT_GT(plan.interval_s[0], plan.interval_s[1]);
  EXPECT_GT(plan.interval_s[1], plan.interval_s[2]);
  // The uniform schedule must cope with the combined failure rate, so it is
  // shorter than the most reliable group's own interval.
  EXPECT_LT(plan.uniform_interval_s, plan.interval_s[0]);
}

exp::AppFactory ring_app(std::uint64_t iters) {
  return [iters](int n) {
    apps::RingParams p;
    p.iterations = iters;
    p.compute_s = 0.012;
    return apps::make_ring(n, p);
  };
}

TEST(Interval, PerGroupSchedulesFireAtDifferentRates) {
  exp::ExperimentConfig cfg;
  cfg.app = ring_app(60);
  cfg.nranks = 6;
  cfg.groups = group::make_round_robin(6, 3);
  cfg.jitter = false;
  // Group 0 checkpoints 4x as often as group 2; group 1 opts out.
  cfg.per_group_intervals = {0.1, 0.0, 0.4};
  exp::ExperimentResult res = exp::run_experiment(cfg);
  ASSERT_TRUE(res.finished);
  int per_group[3] = {0, 0, 0};
  for (const auto& rec : res.metrics.ckpts) {
    ++per_group[rec.rank % 3];
  }
  EXPECT_GT(per_group[0], per_group[2]);
  EXPECT_EQ(per_group[1], 0);
  EXPECT_GT(per_group[2], 0);
}

TEST(Interval, GroupFaultScheduleHitsOnlyFlakyGroups) {
  const group::GroupSet groups = group::make_round_robin(8, 4);
  const std::vector<double> mtbf = {2.0, 0.0, 5.0, -1.0};
  const double max_sim_s = 60.0;
  const sim::FaultModelParams p =
      exp::group_fault_schedule(groups, mtbf, /*seed=*/9, max_sim_s);
  ASSERT_EQ(p.kind, sim::FaultModelKind::kTrace);
  ASSERT_FALSE(p.schedule.empty());
  std::map<int, std::vector<double>> per_node;
  for (std::size_t i = 0; i < p.schedule.size(); ++i) {
    if (i > 0) EXPECT_LE(p.schedule[i - 1].at_s, p.schedule[i].at_s);
    per_node[p.schedule[i].node].push_back(p.schedule[i].at_s);
  }
  // Only groups 0 and 2 fail, each at the node of its first member.
  ASSERT_EQ(per_node.size(), 2u);
  for (int g : {0, 2}) {
    const auto& times = per_node[groups.members(g).front()];
    ASSERT_FALSE(times.empty());
    // The group's own stream, accumulated in integer nanoseconds.
    Rng rng(mix_seed(9, 0xFA11 + static_cast<std::uint64_t>(g)));
    const double m = mtbf[static_cast<std::size_t>(g)];
    sim::Time t = 0;
    for (double at : times) {
      t += sim::from_seconds(rng.next_exponential(m));
      EXPECT_EQ(sim::from_seconds(at), t);
    }
    // The stream ends with its first arrival at or past the watchdog.
    EXPECT_GE(times.back(), max_sim_s);
    if (times.size() > 1) EXPECT_LT(times[times.size() - 2], max_sim_s);
  }
}

TEST(Interval, GroupFaultScheduleWithoutFlakyGroupsIsNone) {
  const group::GroupSet groups = group::make_round_robin(6, 3);
  const sim::FaultModelParams p =
      exp::group_fault_schedule(groups, {0.0, 0.0, -2.0}, 1, 100.0);
  EXPECT_EQ(p.kind, sim::FaultModelKind::kNone);
  EXPECT_TRUE(p.schedule.empty());
}

TEST(Interval, RandomFailuresAreDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    exp::ExperimentConfig cfg;
    cfg.app = ring_app(50);
    cfg.nranks = 6;
    cfg.seed = seed;
    cfg.groups = group::make_round_robin(6, 3);
    cfg.checkpoints = true;
    cfg.schedule.first_at_s = 0.1;
    cfg.schedule.interval_s = 0.2;
    // Only group 0 is flaky.
    cfg.fault_model = exp::group_fault_schedule(*cfg.groups, {1.5, 0.0, 0.0},
                                                cfg.seed, cfg.max_sim_s);
    cfg.recovery.detect_s = 0.1;
    cfg.recovery.relaunch_s = 0.1;
    return exp::run_experiment(cfg);
  };
  exp::ExperimentResult a = run(3);
  exp::ExperimentResult b = run(3);
  ASSERT_TRUE(a.finished);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_DOUBLE_EQ(a.exec_time_s, b.exec_time_s);
  // Only group 0's ranks ever restarted.
  for (const auto& r : a.metrics.restarts) {
    EXPECT_EQ(r.rank % 3, 0);
  }
}

TEST(Interval, FlakyGroupSurvivesRandomStorm) {
  exp::ExperimentConfig cfg;
  cfg.app = ring_app(80);
  cfg.nranks = 8;
  cfg.seed = 7;
  cfg.groups = group::make_round_robin(8, 4);
  cfg.checkpoints = true;
  cfg.schedule.first_at_s = 0.1;
  cfg.schedule.interval_s = 0.15;
  cfg.fault_model = exp::group_fault_schedule(
      *cfg.groups, {1.0, 2.0, 0.0, 0.0}, cfg.seed, cfg.max_sim_s);
  cfg.recovery.detect_s = 0.1;
  cfg.recovery.relaunch_s = 0.1;
  exp::ExperimentResult res = exp::run_experiment(cfg);
  EXPECT_TRUE(res.finished);
  EXPECT_GT(res.failures_injected, 0);
}

}  // namespace
}  // namespace gcr::core
