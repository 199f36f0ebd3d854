// Campaign runner: executes a Scenario's jobs on a worker pool and merges
// the results deterministically (DESIGN.md §12).
//
// Every job is an independent simulated run (its own Engine/Cluster — the
// simulator shares no mutable state between runs), so jobs fan out across
// threads freely. Aggregation happens *after* all jobs complete, folding
// each job's Collector into its cell in job-index order; the output is
// therefore bit-identical for `--jobs 1` and `--jobs N`.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "util/stats.hpp"

namespace gcr::exp {

struct CampaignOptions {
  /// Worker threads; 0 = one per hardware thread. The pool is work-stealing
  /// over a shared job counter, so oversubscription (more workers than
  /// jobs) is harmless.
  int jobs = 0;
};

/// Aggregates for one cell of the sweep grid (one axis combination, all
/// seeds merged).
struct CellAggregate {
  std::map<std::string, RunningStats> metrics;
  std::vector<std::string> texts;  ///< job order, then add order within a job
  int runs = 0;
  int unfinished_runs = 0;  ///< watchdog-tripped runs (excluded from metrics)
  int vacuous_runs = 0;     ///< ExperimentResult::vacuous runs (likewise)
};

struct CampaignResult {
  std::vector<CellAggregate> cells;  ///< indexed by SweepPoint::cell
  std::size_t jobs_run = 0;
  int unfinished_runs = 0;  ///< total across cells
  int vacuous_runs = 0;     ///< total across cells

  /// Stats of a metric in a cell; an empty accumulator if never collected.
  const RunningStats& stat(std::size_t cell, const std::string& metric) const;
};

/// Expands the scenario and runs every job. Exactly one of scenario.job or
/// scenario.config (+ scenario.collect) must be set; aborts otherwise.
CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options = {});

}  // namespace gcr::exp
