// gcr_perfbench: the simulation side of the repository benchmark.
//
// perfbench/run.py owns the timing loop, the aggregation and the report;
// this program owns the workloads. It links the gcr library and reaches it
// only through its public entry points (exp::run_campaign,
// exp::run_experiment, exp::profile_app, group::form_groups_from_trace), so
// every figure it prints is taken from outside the simulator.
//
// Commands (each prints exactly one JSON object on stdout):
//   units    --workload W --seed S
//       The workload's units (one simulated run each) and the control
//       pairs the traced pass times: a unit against its twin with one
//       layer switched off or swapped.
//   setup    --workload W --seed S --dir D
//       The workload's set-up: GP group derivation and config build. Group
//       sets are written to D for `run` and `campaign` to load.
//   run      --workload W --seed S --dir D --unit NAME
//       One unit, timed around exp::run_experiment, with the RSS before
//       the run and the process high-water mark after it.
//   campaign --seed S --dir D --timers 0|1
//       hpl_campaign: the whole grid through exp::run_campaign, one worker
//       per hardware thread; --timers 1 adds per-job timers.
//
// Every run record carries the per-run checks (a failed check names its
// reason) and a digest of the simulated result.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/hpl.hpp"
#include "apps/service.hpp"
#include "apps/simple.hpp"
#include "exp/campaign.hpp"
#include "exp/experiment.hpp"
#include "exp/scenario.hpp"
#include "group/formation.hpp"
#include "group/groupfile.hpp"
#include "group/strategies.hpp"
#include "sim/churn.hpp"
#include "sim/faults.hpp"
#include "util/cli.hpp"

using namespace gcr;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- units --

enum class AppKind { kHpl, kStencil, kService };
enum class Mode { kGp, kGp1, kGp4, kNorm };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kGp: return "GP";
    case Mode::kGp1: return "GP1";
    case Mode::kGp4: return "GP4";
    case Mode::kNorm: return "NORM";
  }
  return "?";
}

/// One simulated run. Twins share their base unit's seed, so a pair
/// differs only in the one knob the twin turns.
struct Unit {
  std::string name;
  AppKind app = AppKind::kHpl;
  int nranks = 0;
  Mode mode = Mode::kNorm;
  std::uint64_t seed = 1;
  bool trace_only = false;  ///< a twin: run by the traced pass only
  bool standalone = true;   ///< hpl_campaign: also run in its own process
  bool checkpoints = true;
  sim::TopologyKind topology = sim::TopologyKind::kFlat;
  ckpt::StorageMode storage = ckpt::StorageMode::kDirect;
  sim::FaultModelKind fault = sim::FaultModelKind::kNone;
  sim::ChurnModelKind churn = sim::ChurnModelKind::kNone;
  double first_ckpt_s = 0;     ///< HPL only (the other apps fix theirs)
  double ckpt_interval_s = 0;  ///< HPL only; 0 = one checkpoint
  bool restart = false;
};

struct Pair {
  std::string kind;  ///< ckpt | routed | faults | churn | tier
  std::string unit;
  std::string twin;
};

struct Workload {
  std::vector<Unit> units;
  std::vector<Pair> pairs;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Cell seed from the workload seed and a key that names the cell without
/// the knob its twins turn, so each twin reruns its base's inputs.
std::uint64_t cell_seed(std::uint64_t seed, const std::string& key) {
  return splitmix64(seed ^ fnv1a(key)) % 2147483647ULL + 1;
}

Unit twin_of(const Unit& base, const std::string& suffix) {
  Unit t = base;
  t.name = base.name + "~" + suffix;
  t.trace_only = true;
  t.standalone = true;
  return t;
}

/// Pairs `base` with twins whose knob is already off in its config: a
/// flat cell's flat twin, a fault-free cell's faults-off twin, a direct
/// cell's direct twin. Each twin reruns the same config, so the pair
/// measures a layer the workload does not exercise: the predicted "no
/// change", with the noise of a pair delta as its error bar.
void add_null_pairs(Workload& w, Unit base,
                    const std::vector<std::string>& kinds) {
  static const std::map<std::string, std::string> kSuffix = {
      {"routed", "flat"}, {"faults", "faults_off"}, {"tier", "direct"}};
  for (const std::string& kind : kinds) {
    const Unit t = twin_of(base, kSuffix.at(kind));
    w.units.push_back(t);
    w.pairs.push_back({kind, base.name, t.name});
  }
}

const Unit& find_unit(const Workload& w, const std::string& name) {
  for (const Unit& u : w.units) {
    if (u.name == name) return u;
  }
  std::fprintf(stderr, "gcr_perfbench: unknown unit '%s'\n", name.c_str());
  std::exit(2);
}

constexpr int kHplCampaignReps = 8;

Workload hpl_campaign(std::uint64_t seed) {
  Workload w;
  for (int procs = 16; procs <= 128; procs += 16) {
    for (Mode m : {Mode::kGp, Mode::kGp1, Mode::kGp4, Mode::kNorm}) {
      for (int rep = 1; rep <= kHplCampaignReps; ++rep) {
        Unit u;
        u.name = std::string("p") + std::to_string(procs) + "_" +
                 mode_name(m) + "_r" + std::to_string(rep);
        u.app = AppKind::kHpl;
        u.nranks = procs;
        u.mode = m;
        u.seed = cell_seed(seed, u.name);
        u.first_ckpt_s = 60.0;  // the paper's Fig. 5/6 protocol
        u.restart = true;
        // The largest runs also run alone: their process gives the per-run
        // memory figures, and their digest must match the campaign's.
        u.standalone = procs == 128 && rep == 1;
        w.units.push_back(u);
        if (u.standalone) {
          Unit off = twin_of(u, "ckpt_off");
          off.checkpoints = false;
          off.restart = false;
          w.units.push_back(off);
          w.pairs.push_back({"ckpt", u.name, off.name});
        }
      }
    }
  }
  add_null_pairs(w, find_unit(w, "p128_NORM_r1"), {"routed", "faults", "tier"});
  return w;
}

constexpr int kScaleNormRanks = 512;
constexpr int kScaleGpRanks = 4096;
constexpr int kScaleFatGpRanks = 1024;

Workload scale(std::uint64_t seed) {
  Workload w;
  auto add = [&](sim::TopologyKind topo, Mode m, int n) {
    Unit u;
    const std::string key = std::string(mode_name(m)) + "_" +
                            std::to_string(n);
    u.name = std::string(topo == sim::TopologyKind::kFlat ? "flat_" : "fat_") +
             key;
    u.app = AppKind::kStencil;
    u.nranks = n;
    u.mode = m;
    u.seed = cell_seed(seed, key);
    u.topology = topo;
    w.units.push_back(u);
    return u;
  };
  using sim::TopologyKind;
  const std::vector<Unit> cells = {
      add(TopologyKind::kFlat, Mode::kNorm, kScaleNormRanks),
      add(TopologyKind::kFlat, Mode::kGp, kScaleGpRanks),
      add(TopologyKind::kFatTree, Mode::kNorm, kScaleNormRanks),
      add(TopologyKind::kFatTree, Mode::kGp, kScaleFatGpRanks)};
  for (const Unit& c : cells) {
    Unit off = twin_of(c, "ckpt_off");
    off.checkpoints = false;
    w.units.push_back(off);
    w.pairs.push_back({"ckpt", c.name, off.name});
    if (c.topology == TopologyKind::kFlat) continue;
    // The routed cell's flat twin: a main cell when one has the same size
    // and mode, else a trace-only unit.
    const std::string flat = "flat_" + c.name.substr(4);
    const bool have =
        std::any_of(cells.begin(), cells.end(),
                    [&](const Unit& u) { return u.name == flat; });
    if (!have) {
      Unit f = twin_of(c, "");
      f.name = flat;
      f.topology = TopologyKind::kFlat;
      w.units.push_back(f);
    }
    w.pairs.push_back({"routed", c.name, flat});
  }
  add_null_pairs(w, cells.back(), {"faults", "tier"});
  return w;
}

constexpr int kResilienceRanks = 64;
// Seeds per cell. Fault counts, and with them run lengths, vary a lot from
// seed to seed (NORM restarts everyone on every fault), so the workload
// spreads its time over enough seeds for the total to be steady.
constexpr int kResilienceHplReps = 8;
constexpr int kResilienceServiceReps = 4;

Workload resilience(std::uint64_t seed) {
  Workload w;
  const std::vector<Mode> modes{Mode::kNorm, Mode::kGp, Mode::kGp1};
  const std::vector<ckpt::StorageMode> storages{ckpt::StorageMode::kDirect,
                                                ckpt::StorageMode::kDrain};
  std::vector<Unit> twins;
  auto add = [&](Unit u, const std::string& key, const std::string& kind) {
    // The storage mode is not part of the seed key: a drain cell's direct
    // twin is the direct cell of the same key.
    u.name = key + "_" + ckpt::storage_mode_name(u.storage);
    u.seed = cell_seed(seed, key);
    w.units.push_back(u);
    Unit off = twin_of(u, kind + "_off");
    off.fault = sim::FaultModelKind::kNone;
    off.churn = sim::ChurnModelKind::kNone;
    twins.push_back(off);
    w.pairs.push_back({kind, u.name, off.name});
    if (u.storage != ckpt::StorageMode::kDirect) {
      w.pairs.push_back({"tier", u.name, key + "_direct"});
    }
  };
  for (Mode m : modes) {
    for (ckpt::StorageMode s : storages) {
      for (sim::FaultModelKind f : {sim::FaultModelKind::kExponential,
                                    sim::FaultModelKind::kWeibull}) {
        for (int rep = 1; rep <= kResilienceHplReps; ++rep) {
          Unit u;
          u.app = AppKind::kHpl;
          u.nranks = kResilienceRanks;
          u.mode = m;
          u.storage = s;
          u.fault = f;
          u.first_ckpt_s = 20.0;
          u.ckpt_interval_s = 20.0;
          add(u,
              std::string("hpl_") + mode_name(m) + "_" +
                  sim::fault_model_name(f) + "_r" + std::to_string(rep),
              "faults");
        }
      }
      for (sim::ChurnModelKind c :
           {sim::ChurnModelKind::kDrains, sim::ChurnModelKind::kSpot,
            sim::ChurnModelKind::kRolling}) {
        for (int rep = 1; rep <= kResilienceServiceReps; ++rep) {
          Unit u;
          u.app = AppKind::kService;
          u.nranks = kResilienceRanks;
          u.mode = m;
          u.storage = s;
          u.churn = c;
          add(u,
              std::string("svc_") + mode_name(m) + "_" +
                  sim::churn_model_name(c) + "_r" + std::to_string(rep),
              "churn");
        }
      }
    }
  }
  w.units.insert(w.units.end(), twins.begin(), twins.end());
  // No cell here runs without checkpoints: the checkpoint layer is
  // attributed on a fault-free twin, against that twin with checkpoints off.
  Unit base = find_unit(w, "hpl_NORM_exp_r1_direct~faults_off");
  Unit off = twin_of(base, "ckpt_off");
  off.checkpoints = false;
  w.units.push_back(off);
  w.pairs.push_back({"ckpt", base.name, off.name});
  add_null_pairs(w, find_unit(w, "hpl_GP1_exp_r1_direct"), {"routed"});
  return w;
}

Workload workload(const std::string& name, std::uint64_t seed) {
  if (name == "hpl_campaign") return hpl_campaign(seed);
  if (name == "scale") return scale(seed);
  if (name == "resilience") return resilience(seed);
  std::fprintf(stderr, "gcr_perfbench: unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

// ------------------------------------------------------------ configs --

const apps::HplParams kHpl{};
constexpr int kStencilBlock = 8;  ///< stencil locality = GP group width

apps::ServiceParams service_params() {
  apps::ServiceParams sp;
  sp.requests = 400;
  sp.arrival_rate_hz = 4.0;
  sp.slo_s = 0.5;
  sp.cluster_width = 4;
  return sp;
}

exp::AppFactory app_factory(AppKind kind) {
  switch (kind) {
    case AppKind::kHpl:
      return [](int n) { return apps::make_hpl(n, kHpl); };
    case AppKind::kStencil:
      return [](int n) {
        apps::Stencil1dParams p;
        p.iterations = 40;
        p.halo_bytes = 32 * 1024;
        p.compute_s = 0.005;
        p.mem_bytes = 4 * 1024 * 1024;
        p.cluster_width = kStencilBlock;
        return apps::make_stencil1d(n, p);
      };
    case AppKind::kService: {
      const apps::ServiceParams sp = service_params();
      return [sp](int n) { return apps::make_service(n, sp); };
    }
  }
  return nullptr;
}

/// GP group bound per app: HPL's grid rows, the service's replica block,
/// the stencil's block width.
int gp_group_size(AppKind kind) {
  switch (kind) {
    case AppKind::kHpl: return kHpl.grid_rows;
    case AppKind::kService: return service_params().cluster_width;
    case AppKind::kStencil: return kStencilBlock;
  }
  return 0;
}

const char* app_name(AppKind kind) {
  switch (kind) {
    case AppKind::kHpl: return "hpl";
    case AppKind::kStencil: return "stencil";
    case AppKind::kService: return "service";
  }
  return "?";
}

/// Set-up books: profiling runs, and group formation (Algorithm 2 and the
/// fixed partitions).
struct SetupStats {
  double profile_s = 0;
  double form_s = 0;
  std::size_t trace_records = 0;
};

/// The trace-derived GP partition (profile, then Algorithm 2).
group::GroupSet derive_gp(AppKind kind, int n, std::uint64_t seed,
                          SetupStats& stats) {
  const auto t0 = Clock::now();
  const trace::Trace trace = exp::profile_app(app_factory(kind), n, seed);
  stats.profile_s += seconds_since(t0);
  stats.trace_records += trace.size();
  group::FormationOptions options;
  options.max_group_size = gp_group_size(kind);
  return group::form_groups_from_trace(n, trace, options);
}

std::string group_key(AppKind kind, Mode m, int n) {
  return std::string(app_name(kind)) + "_" + mode_name(m) + "_" +
         std::to_string(n);
}

/// Group sets for every unit, keyed by group_key. The stencil's GP is its
/// block partition (the scale campaign's choice: profiling a 4k-rank trace
/// is the cost Algorithm 2 amortizes, and for a block-local stencil the
/// derived answer is the block partition).
std::map<std::string, group::GroupSet> build_groups(const Workload& w,
                                                    std::uint64_t seed,
                                                    SetupStats& stats) {
  const auto t0 = Clock::now();
  const double profiled_before = stats.profile_s;
  std::map<std::string, group::GroupSet> out;
  for (const Unit& u : w.units) {
    const std::string key = group_key(u.app, u.mode, u.nranks);
    if (out.count(key)) continue;
    switch (u.mode) {
      case Mode::kGp:
        out.emplace(key, u.app == AppKind::kStencil
                             ? group::make_blocks(u.nranks, kStencilBlock)
                             : derive_gp(u.app, u.nranks,
                                         cell_seed(seed, key), stats));
        break;
      case Mode::kGp1: out.emplace(key, group::make_gp1(u.nranks)); break;
      case Mode::kGp4:
        out.emplace(key, group::make_sequential(u.nranks, 4));
        break;
      case Mode::kNorm: out.emplace(key, group::make_norm(u.nranks)); break;
    }
  }
  stats.form_s += seconds_since(t0) - (stats.profile_s - profiled_before);
  return out;
}

exp::ExperimentConfig make_config(const Unit& u, const group::GroupSet& gs) {
  exp::ExperimentConfig cfg;
  cfg.app = app_factory(u.app);
  cfg.nranks = u.nranks;
  cfg.seed = u.seed;
  cfg.groups = gs;
  cfg.shards = 1;
  cfg.checkpoints = u.checkpoints;
  cfg.restart_after_finish = u.restart;
  cfg.topology.kind = u.topology;
  cfg.topology.fattree_routing = sim::FatTreeRouting::kAdaptive;
  cfg.storage.mode = u.storage;
  switch (u.app) {
    case AppKind::kHpl:
      cfg.schedule.first_at_s = u.first_ckpt_s;
      cfg.schedule.interval_s = u.ckpt_interval_s;
      cfg.schedule.round_spread_s = 0.4;
      cfg.fault_model.kind = u.fault;
      cfg.fault_model.mtbf_s = 2000.0;
      cfg.fault_model.weibull_shape = 0.7;
      break;
    case AppKind::kStencil:
      cfg.schedule.first_at_s = 0.1;
      cfg.schedule.max_rounds = 1;
      cfg.protocol_options.commit_margin = std::max(2, u.nranks / 256);
      break;
    case AppKind::kService: {
      const apps::ServiceParams sp = service_params();
      cfg.schedule.first_at_s = 5.0;
      cfg.schedule.interval_s = 10.0;
      cfg.schedule.round_spread_s = 0.2;
      cfg.churn.kind = u.churn;
      cfg.churn.drain_mtbd_s = 40.0;
      cfg.churn.outage_s = 12.0;
      cfg.churn.warning_s = 5.0;
      const double horizon =
          static_cast<double>(sp.requests) / sp.arrival_rate_hz;
      cfg.churn.rolling_start_s = 0.1 * horizon;
      cfg.churn.rolling_step_s = 0.8 * horizon / u.nranks;
      cfg.recovery.detect_s = 0.5;
      cfg.recovery.relaunch_s = 0.5;
      break;
    }
  }
  return cfg;
}

// ------------------------------------------------------ checks, digest --

/// The first failed per-run check, or "" when the run is sound.
std::string check_run(const Unit& u, const exp::ExperimentResult& r) {
  if (!r.finished) return "watchdog: finished == false";
  if (r.failures_injected != r.recoveries_completed + r.recoveries_aborted) {
    return "recovery books: injected " + std::to_string(r.failures_injected) +
           " != completed " + std::to_string(r.recoveries_completed) +
           " + aborted " + std::to_string(r.recoveries_aborted);
  }
  if (u.checkpoints) {
    if (u.app == AppKind::kStencil && r.checkpoints_completed != 1) {
      return "vacuous: " + std::to_string(r.checkpoints_completed) +
             " checkpoints completed, want exactly 1";
    }
    if (r.checkpoints_completed == 0) {
      return "vacuous: checkpoints scheduled, 0 completed";
    }
  }
  if (u.fault != sim::FaultModelKind::kNone && r.failures_injected == 0) {
    return "vacuous: fault model configured, 0 faults injected";
  }
  if (u.churn != sim::ChurnModelKind::kNone &&
      r.drains_completed + r.reclaims_clean + r.reclaims_forced == 0) {
    return "vacuous: churn model configured, 0 departures";
  }
  if (u.restart) {
    std::vector<char> seen(static_cast<std::size_t>(u.nranks), 0);
    for (const core::RestartRecord& rec : r.restart_records) {
      if (rec.rank >= 0 && rec.rank < u.nranks) {
        seen[static_cast<std::size_t>(rec.rank)] = 1;
      }
    }
    const bool all = std::all_of(seen.begin(), seen.end(),
                                 [](char c) { return c != 0; });
    if (!all || r.restart_records.size() != seen.size()) {
      return "restart: " + std::to_string(r.restart_records.size()) +
             " restart records for " + std::to_string(u.nranks) + " ranks";
    }
  }
  return "";
}

/// Digest of the simulated result: everything the simulation decided,
/// nothing the host measured. Host event counts are left out on purpose,
/// so an engine change that dispatches fewer events keeps the digest.
class Digest {
 public:
  Digest& operator<<(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    text_ += buf;
    return *this;
  }
  Digest& operator<<(std::int64_t v) {
    text_ += std::to_string(v) + ";";
    return *this;
  }
  Digest& operator<<(int v) { return *this << static_cast<std::int64_t>(v); }
  Digest& operator<<(std::uint64_t v) {
    return *this << static_cast<std::int64_t>(v);
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a(text_));
    return buf;
  }

 private:
  std::string text_;
};

std::string digest_of(const exp::ExperimentResult& r) {
  Digest d;
  d << r.exec_time_s << r.app_messages << r.app_bytes
    << r.checkpoints_completed << static_cast<int>(r.finished);
  const core::Metrics& m = r.metrics;
  for (const core::CkptRecord& c : m.ckpts) {
    d << c.rank << c.epoch << c.signal_at << c.begin << c.end
      << c.phases.lock_mpi << c.phases.coordination << c.phases.checkpoint
      << c.phases.finalize;
  }
  for (const core::RestartRecord& rr : m.restarts) {
    d << rr.rank << rr.begin << rr.end << rr.image_read_s << rr.exchange_s;
  }
  d << m.logged_messages << m.logged_bytes << m.flushed_bytes
    << m.resend_ops << m.resend_messages << m.resend_bytes
    << m.aborted_rounds;
  const ckpt::TierStats& t = r.tier_stats;
  d << t.images_staged << t.drains_started << t.drains_completed
    << t.drains_abandoned << t.evictions << t.writer_stalls << t.bb_bytes_peak
    << t.reads_local << t.reads_bb << t.reads_pfs;
  d << r.failures_injected << r.failures_absorbed << r.recoveries_completed
    << r.recoveries_aborted << r.availability << r.drains_completed
    << r.reclaims_clean << r.reclaims_forced << r.joins_completed
    << r.joins_aborted << r.splits_installed << r.merges_installed
    << r.final_num_groups << r.restart_aggregate_s;
  if (r.service) {
    const apps::ServiceStats& s = *r.service;
    d << s.requests << s.completed << s.slo_misses << s.slo_miss_rate
      << s.mean_latency_s << s.p50_latency_s << s.p99_latency_s
      << s.p999_latency_s << s.max_latency_s;
  }
  return d.hex();
}

// --------------------------------------------------------------- output --

/// kB figure from /proc/self/status ("VmRSS", "VmHWM"); -1 if unreadable.
long proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stol(line.substr(len + 1));
    }
  }
  return -1;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// One run's record; job_start/job_end are seconds from campaign start
/// (per-job timers only). It keeps only what the report needs, so a
/// campaign's peak RSS is not inflated by results held for printing.
struct Record {
  std::string unit;
  std::string reason;
  std::string digest;
  std::string counters;  ///< JSON field: the layer counters
  double run_s = -1;
  double job_start = -1;
  double job_end = -1;
  std::uint64_t events = 0;
};

std::string counters_json(const exp::ExperimentResult& r) {
  const ckpt::TierStats& t = r.tier_stats;
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "\"counters\": {"
      "\"injected\": %d, \"completed\": %d, \"aborted\": %d, "
      "\"absorbed\": %d, \"drains\": %d, \"reclaims_clean\": %d, "
      "\"reclaims_forced\": %d, \"joins\": %d, \"merges\": %d, "
      "\"images_staged\": %" PRId64 ", \"drains_completed\": %" PRId64
      ", \"evictions\": %" PRId64 ", \"writer_stalls\": %" PRId64
      ", \"reads_node\": %" PRId64 ", \"reads_bb\": %" PRId64
      ", \"reads_pfs\": %" PRId64 "}",
      r.failures_injected, r.recoveries_completed,
      r.recoveries_aborted, r.failures_absorbed, r.drains_completed,
      r.reclaims_clean, r.reclaims_forced, r.joins_completed,
      r.merges_installed, t.images_staged, t.drains_completed, t.evictions,
      t.writer_stalls, t.reads_local, t.reads_bb, t.reads_pfs);
  return buf;
}

std::string record_json(const Record& rec) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"run_s\": %.9f, \"job_start\": %.9f, \"job_end\": %.9f, "
                "\"events\": %" PRIu64,
                rec.run_s, rec.job_start, rec.job_end, rec.events);
  return "{\"unit\": " + json_str(rec.unit) + ", \"reason\": " +
         json_str(rec.reason) + ", \"digest\": " + json_str(rec.digest) +
         ", " + buf + ", " + rec.counters + "}";
}

std::string setup_json(const SetupStats& s, double setup_s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\"setup_s\": %.9f, \"profile_s\": %.9f, \"form_s\": %.9f, "
                "\"trace_records\": %zu",
                setup_s, s.profile_s, s.form_s, s.trace_records);
  return buf;
}

/// Runs one unit; `timed` puts a host clock around the run.
Record run_unit(const Unit& u, const exp::ExperimentConfig& cfg,
                exp::Collector* col, bool timed) {
  Record rec;
  rec.unit = u.name;
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  const exp::ExperimentResult result =
      col ? col->run(cfg) : exp::run_experiment(cfg);
  if (timed) rec.run_s = seconds_since(t0);
  for (std::uint64_t e : result.shard_events) rec.events += e;
  rec.reason = check_run(u, result);
  rec.digest = digest_of(result);
  rec.counters = counters_json(result);
  return rec;
}

std::string groups_path(const std::string& dir, const std::string& key) {
  return dir + "/" + key + ".groups";
}

/// The group set `setup` wrote for `u`; exits when there is none, so no
/// run derives groups inside its measured process.
group::GroupSet load_groups(const std::string& dir, const Unit& u) {
  const std::string path =
      groups_path(dir, group_key(u.app, u.mode, u.nranks));
  std::optional<group::GroupSet> gs = group::load_groupfile(path);
  if (!gs) {
    std::fprintf(stderr, "gcr_perfbench: no group file %s (run setup first)\n",
                 path.c_str());
    std::exit(2);
  }
  return *gs;
}

// ------------------------------------------------------------ commands --

int cmd_units(const Workload& w) {
  std::string out = "{\"units\": [";
  for (std::size_t i = 0; i < w.units.size(); ++i) {
    const Unit& u = w.units[i];
    out += std::string(i ? ", " : "") + "{\"name\": " + json_str(u.name) +
           ", \"ranks\": " + std::to_string(u.nranks) +
           ", \"trace_only\": " + (u.trace_only ? "true" : "false") +
           ", \"standalone\": " + (u.standalone ? "true" : "false") + "}";
  }
  out += "], \"pairs\": [";
  for (std::size_t i = 0; i < w.pairs.size(); ++i) {
    const Pair& p = w.pairs[i];
    out += std::string(i ? ", " : "") + "{\"kind\": " + json_str(p.kind) +
           ", \"unit\": " + json_str(p.unit) + ", \"twin\": " +
           json_str(p.twin) + "}";
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

/// One set-up, timed: the set-up a user's process pays once. run.py
/// repeats it in fresh processes and reports the median.
int cmd_setup(const Workload& w, std::uint64_t seed, const std::string& dir) {
  SetupStats stats;
  const auto t0 = Clock::now();
  const auto groups = build_groups(w, seed, stats);
  std::vector<exp::ExperimentConfig> configs;
  for (const Unit& u : w.units) {
    configs.push_back(
        make_config(u, groups.at(group_key(u.app, u.mode, u.nranks))));
  }
  const double setup_s = seconds_since(t0);
  for (const auto& [key, gs] : groups) {
    if (!group::save_groupfile(groups_path(dir, key), gs)) {
      std::fprintf(stderr, "gcr_perfbench: cannot write %s\n",
                   groups_path(dir, key).c_str());
      return 1;
    }
  }
  std::printf("{%s}\n", setup_json(stats, setup_s).c_str());
  return 0;
}

int cmd_run(const Workload& w, const std::string& dir,
            const std::string& name) {
  const Unit& u = find_unit(w, name);
  const exp::ExperimentConfig cfg = make_config(u, load_groups(dir, u));
  const long rss_pre = proc_status_kb("VmRSS");
  const Record rec = run_unit(u, cfg, nullptr, true);
  const long hwm = proc_status_kb("VmHWM");
  std::string json = record_json(rec);
  json.pop_back();
  std::printf("%s, \"ranks\": %d, \"rss_pre_kb\": %ld, \"hwm_kb\": %ld}\n",
              json.c_str(), u.nranks, rss_pre, hwm);
  return 0;
}

int cmd_campaign(const Workload& w, const std::string& dir, bool timers) {
  std::vector<const Unit*> jobs;
  std::vector<exp::ExperimentConfig> configs;
  for (const Unit& u : w.units) {
    if (u.trace_only) continue;
    jobs.push_back(&u);
    configs.push_back(make_config(u, load_groups(dir, u)));
  }
  exp::Scenario sc;
  sc.name = "perfbench/hpl_campaign";
  sc.axes = {exp::SweepAxis::indices("unit", jobs.size())};
  sc.reps = 1;
  std::vector<Record> records(jobs.size());
  Clock::time_point t0;
  sc.job = [&](const exp::SweepPoint& point, exp::Collector& col) {
    const std::size_t i = static_cast<std::size_t>(point.get_int("unit"));
    if (!timers) {
      records[i] = run_unit(*jobs[i], configs[i], &col, false);
      return;
    }
    const double start = seconds_since(t0);
    records[i] = run_unit(*jobs[i], configs[i], &col, true);
    records[i].job_start = start;
    records[i].job_end = seconds_since(t0);
  };

  t0 = Clock::now();
  exp::run_campaign(sc, {});  // one worker per hardware thread
  const double wall_s = seconds_since(t0);
  const long hwm = proc_status_kb("VmHWM");

  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"wall_s\": %.9f, \"workers\": %u, \"hwm_kb\": %ld, "
                "\"records\": [",
                wall_s, std::max(1u, std::thread::hardware_concurrency()), hwm);
  std::string out = buf;
  for (std::size_t i = 0; i < records.size(); ++i) {
    out += (i ? ", " : "") + record_json(records[i]);
  }
  std::printf("%s]}\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: gcr_perfbench units|setup|run|campaign [flags]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  Cli cli(argc - 1, argv + 1);
  const std::string wl = cli.get_string("workload", "hpl_campaign", "workload");
  const auto seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 1, "workload seed (cell seeds derive from it)"));
  const std::string dir = cli.get_string("dir", ".", "group-file directory");
  const std::string unit = cli.get_string("unit", "", "unit to run");
  const bool timers = cli.get_int("timers", 0, "per-job timers (0|1)") != 0;
  cli.finish();

  const Workload w = workload(wl, seed);
  if (cmd == "units") return cmd_units(w);
  if (cmd == "setup") return cmd_setup(w, seed, dir);
  if (cmd == "run") return cmd_run(w, dir, unit);
  if (cmd == "campaign") return cmd_campaign(w, dir, timers);
  std::fprintf(stderr, "gcr_perfbench: unknown command '%s'\n", cmd.c_str());
  return 2;
}
