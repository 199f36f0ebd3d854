#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "util/assert.hpp"

namespace gcr::exp {
namespace {

void run_job(const Scenario& scenario, const SweepPoint& point,
             Collector& out) {
  if (scenario.job) {
    scenario.job(point, out);
    return;
  }
  const ExperimentResult result = out.run(scenario.config(point));
  // A watchdog-tripped run's exec_time_s is the abort horizon, not an
  // execution time, and a vacuous run's checkpoint figures measure nothing;
  // collecting either would silently poison the averages.
  if (result.finished && !result.vacuous()) {
    scenario.collect(point, result, out);
  }
}

}  // namespace

const RunningStats& CampaignResult::stat(std::size_t cell,
                                         const std::string& metric) const {
  static const RunningStats kEmpty;
  if (cell >= cells.size()) return kEmpty;
  const auto it = cells[cell].metrics.find(metric);
  return it == cells[cell].metrics.end() ? kEmpty : it->second;
}

CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options) {
  GCR_CHECK_MSG(
      scenario.job ? (!scenario.config && !scenario.collect)
                   : (scenario.config != nullptr &&
                      scenario.collect != nullptr),
      "Scenario needs exactly one of `job` or `config` + `collect`");

  const std::vector<SweepPoint> jobs = scenario.expand();
  std::vector<Collector> collected(jobs.size());

  std::size_t workers = options.jobs > 0
                            ? static_cast<std::size_t>(options.jobs)
                            : std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, jobs.size());

  if (workers <= 1) {
    for (const SweepPoint& point : jobs) {
      run_job(scenario, point, collected[point.job]);
    }
  } else {
    std::atomic<std::size_t> next{0};
    std::mutex error_mu;
    std::exception_ptr first_error;
    auto worker = [&] {
      for (std::size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        try {
          run_job(scenario, jobs[i], collected[i]);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // Deterministic merge: fold collectors in job-index order, single-threaded.
  CampaignResult result;
  result.cells.resize(scenario.num_cells());
  result.jobs_run = jobs.size();
  for (const SweepPoint& point : jobs) {
    Collector& col = collected[point.job];
    CellAggregate& cell = result.cells[point.cell];
    for (const auto& [metric, value] : col.samples) {
      cell.metrics[metric].add(value);
    }
    for (std::string& text : col.texts) cell.texts.push_back(std::move(text));
    cell.runs += col.runs;
    cell.unfinished_runs += col.unfinished;
    result.unfinished_runs += col.unfinished;
    cell.vacuous_runs += col.vacuous;
    result.vacuous_runs += col.vacuous;
  }
  return result;
}

}  // namespace gcr::exp
