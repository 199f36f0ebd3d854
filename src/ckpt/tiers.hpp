// Multi-tier checkpoint storage: residency, write-behind drain, eviction.
//
// The cluster (sim/cluster.hpp) owns the tier DEVICES — per-node staging
// buffer, shared burst buffers, parallel file system. This module owns the
// tier POLICY: which tiers hold which rank's image, when a group's commit
// is durable, when the burst buffer drains to the PFS, and what a restart
// reads. See DESIGN.md §13.
//
// Write path (stage_image): setup is charged by the Checkpointer; the image
// is copied through the node's staging buffer, reserves burst-buffer
// capacity (stalling for evictions/drains under pressure), and lands on a
// burst-buffer server. It is then STAGED: the group protocol's finalize
// barrier decides whether it becomes visible (commit_image) or is thrown
// away (discard_staged) — mirroring ImageRegistry's two-phase visibility,
// with byte accounting attached.
//
// Commit semantics by mode:
//   * kBurstBuffer — the commit point is burst-buffer durability; images
//     stay resident there forever (nothing is evictable), so the capacity
//     must cover the committed working set plus one group's stage —
//     exhausting it is asserted as a configuration error, never a stall.
//   * kDrain — the commit point is still burst-buffer durability, but a
//     background write-behind drains each committed image to the PFS
//     through the burst buffer's outbound pipe (modeled as the PFS write
//     alone). Drained images become evictable under capacity pressure; a
//     superseding commit abandons an in-flight drain.
//
// Restart reads from the FASTEST tier holding the committed image: the
// node staging buffer if the rank never died since the commit, else a
// burst buffer, else the PFS. A node fault (PR-4 fault models) loses that
// rank's staging-buffer residency, so post-failure restores fall back to
// the shared tiers — the invariant `committed => resident somewhere` is
// asserted, never silently violated.
//
// Kill-safety: stage_image may be killed at any suspension (ProcessKilled
// unwind); reserved-but-unstaged capacity is returned by an RAII guard, so
// burst-buffer bytes are never stranded by a failure mid-checkpoint.
//
// Control edge (DESIGN.md §15.2): the tier POLICY state (residency maps,
// capacity accounting, drains) is one shared home-side arbiter. A caller
// runs its node-buffer leg itself, then reaches the arbiter through a
// fixed-latency control edge: every request is stamped (subject node,
// per-node seq), lands Cluster::control_latency() later, and same-tick
// arrivals are batched and executed in (node, seq) order — the same
// canonical admission order as sim::Network's routed injection edge.
// Replies cross back after another L and fire the caller's trigger.
// Commit/discard/failure notices are fire-and-forget ops through the same
// queue; a whole group's commits are posted at one caller instant and
// land at one home instant, keeping the leader's atomic-commit contract.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mpi/message.hpp"
#include "sim/cluster.hpp"
#include "sim/co.hpp"

namespace gcr::ckpt {

/// Where checkpoint images go and what "durable" means for a commit.
enum class StorageMode {
  kDirect,       ///< legacy: straight to local disk / NFS (bit-reproducible)
  kBurstBuffer,  ///< commit at burst-buffer durability; no PFS copy
  kDrain,        ///< commit at burst-buffer durability + async PFS drain
};

/// Stable lowercase name (config parsing, table headers).
const char* storage_mode_name(StorageMode mode);

struct TierStoreOptions {
  StorageMode mode = StorageMode::kBurstBuffer;
  /// Aggregate burst-buffer capacity across all servers (logical pool).
  std::int64_t bb_capacity_bytes = std::int64_t{8} << 30;
};

/// Counters exposed through ExperimentResult. All are monotone over a
/// run except `bb_bytes_used`, a current-occupancy gauge.
struct TierStats {
  std::int64_t images_staged = 0;    ///< stage_image completions
  std::int64_t drains_started = 0;   ///< write-behind coroutines spawned
  std::int64_t drains_completed = 0; ///< drains that marked PFS residency
  std::int64_t drains_abandoned = 0; ///< drains killed by a superseding epoch
  std::int64_t evictions = 0;        ///< drained images dropped for capacity
  std::int64_t writer_stalls = 0;    ///< stage waits for burst-buffer space
  std::int64_t bb_bytes_used = 0;    ///< current burst-buffer occupancy
  std::int64_t bb_bytes_peak = 0;    ///< high-water occupancy (bound: capacity)
  std::int64_t reads_local = 0;      ///< restores served from the node buffer
  std::int64_t reads_bb = 0;         ///< restores served from a burst buffer
  std::int64_t reads_pfs = 0;        ///< restores served from the PFS
};

/// Tier residency and drain orchestration for checkpoint images, keyed by
/// rank with ImageRegistry-style stage/commit/discard two-phase visibility.
/// Requires cluster.has_tiered_storage(); one instance per experiment.
class TierStore {
 public:
  TierStore(sim::Cluster& cluster, const TierStoreOptions& options);

  const TierStoreOptions& options() const { return options_; }
  const TierStats& stats() const { return stats_; }

  /// Stages `bytes` for `rank` (hosted on `node`) at checkpoint `epoch`:
  /// node-buffer copy, capacity reservation (may stall under pressure),
  /// burst-buffer write. Completes at burst-buffer durability. Replaces
  /// any prior stage for the rank. Kill-safe (see header comment).
  sim::Co<void> stage_image(int node, mpi::RankId rank, std::uint64_t epoch,
                            std::int64_t bytes);

  /// Promotes the rank's staged image to committed (restore-visible),
  /// superseding — and freeing — the previous committed image, and starts
  /// the write-behind drain in kDrain mode. Fire-and-forget: the caller
  /// never suspends, and a whole group's commits posted at one caller
  /// instant land at one home instant (atomic at the leader).
  void commit_image(mpi::RankId rank);

  /// Drops the rank's staged image, if any, returning its burst-buffer
  /// bytes (failure before the group's commit point).
  void discard_staged(mpi::RankId rank);

  /// Node fault: the rank's staged image dies with the process, its
  /// committed image loses node-buffer residency (restores fall back to
  /// the shared tiers), and any home-side pipeline still acting for the
  /// dead process is killed. NOT invoked for voluntary restarts — a
  /// relaunch on a healthy node reloads from the warm staging buffer.
  /// Fire-and-forget.
  void on_node_failed(mpi::RankId rank);

  /// Restart read: `bytes` from the fastest tier holding the rank's
  /// committed image (node buffer > burst buffer > PFS). Asserts that a
  /// committed image exists — callers gate on ImageRegistry::latest.
  sim::Co<void> read_image(int node, mpi::RankId rank, std::int64_t bytes);

 private:
  /// One image's tier residency. `in_local` refers to the staging buffer
  /// of the node the image was written from.
  struct Image {
    std::uint64_t epoch = 0;
    std::int64_t bytes = 0;
    bool in_local = false;
    bool in_bb = false;
    bool in_pfs = false;
    sim::ProcPtr drain;  ///< in-flight write-behind, if any
  };
  struct RankImages {
    std::optional<Image> staged;
    std::optional<Image> committed;
    std::uint64_t commit_seq = 0;  ///< for oldest-first eviction
    /// Home-side pipelines acting for the rank. These do NOT die with the
    /// rank's coroutines; the failure notice kills them instead.
    sim::ProcPtr stage_pipeline;
    sim::ProcPtr read_pipeline;
  };

  /// One control-edge request awaiting the canonical per-tick flush.
  struct TierOp {
    enum class Kind : std::uint8_t {
      kStage,       ///< reserve + burst-buffer write -> staged (replies)
      kCommit,      ///< staged -> committed (+ drain in kDrain mode)
      kDiscard,     ///< drop the staged image
      kNodeFailed,  ///< discard + drop node-buffer residency + kill pipelines
      kRead,        ///< pick the restore tier; read shared tiers (replies)
    };
    Kind kind;
    std::int32_t node;       ///< subject node (== rank for hosted ranks)
    mpi::RankId rank;
    std::uint64_t seq;       ///< per-subject-node request order
    std::uint64_t epoch;
    std::int64_t bytes;
  };

  /// Reply codes carried home -> caller.
  static constexpr int kReplyDone = 0;
  static constexpr int kReplyReadLocal = 1;  ///< read the node buffer locally

  /// A caller parked on a reply; unregistered by RAII on unwind.
  struct ReplyWaiter {
    sim::Trigger* trigger;
    int* result;
  };
  using ReplyKey = std::pair<std::int32_t, std::uint64_t>;  ///< (node, seq)

  sim::Engine& engine() { return cluster_->engine(); }
  /// Stamps (node, seq) and schedules the op home at +L.
  void post_op(TierOp op);
  void enqueue_op(TierOp op);  ///< home side: batch + schedule the flush
  void flush_ops();            ///< home side: canonical (node, seq) order
  void run_op(TierOp& op);
  /// Schedules the reply to the caller at +L (home side).
  void post_reply(int node, std::uint64_t seq, int result);
  /// Parks the caller until the (node, seq) reply lands.
  /// Kill-safe: the registration is erased on unwind and a reply for an
  /// unregistered key is dropped.
  sim::Co<void> await_reply(int node, std::uint64_t seq, int* result);
  void kill_pipeline(sim::ProcPtr& proc);

  sim::Co<void> stage_body(mpi::RankId rank, int node, std::uint64_t epoch,
                           std::int64_t bytes, std::uint64_t seq);
  sim::Co<void> read_body(mpi::RankId rank, int node, std::int64_t bytes,
                          std::uint64_t seq, bool from_bb);
  void do_commit(mpi::RankId rank);
  void do_discard(mpi::RankId rank);
  void do_node_failed(mpi::RankId rank);

  /// Grants `bytes` of burst-buffer capacity, evicting drained images or
  /// (kDrain only) stalling while the pool is exhausted; in kBurstBuffer
  /// mode an exhausted pool is asserted as a configuration error.
  sim::Co<void> reserve_bb(std::int64_t bytes);
  /// Evicts oldest drained committed images until `bytes` fit or nothing
  /// is evictable; returns true if the reservation now fits.
  bool evict_for(std::int64_t bytes);
  void release_bb(std::int64_t bytes);
  void drop_committed(RankImages& ri);
  sim::Co<void> drain_body(mpi::RankId rank, std::uint64_t epoch,
                           std::int64_t bytes);

  sim::Cluster* cluster_;
  TierStoreOptions options_;
  TierStats stats_;
  std::map<mpi::RankId, RankImages> ranks_;
  std::uint64_t next_commit_seq_ = 1;
  sim::Trigger space_freed_;

  /// Per-subject-node request counters.
  std::vector<std::uint64_t> node_seq_;
  /// Same-tick arrivals awaiting the canonical flush.
  std::vector<TierOp> pending_ops_;
  bool flush_scheduled_ = false;
  std::map<ReplyKey, ReplyWaiter> replies_;
};

}  // namespace gcr::ckpt
