// Group-based checkpoint/restart protocol — the paper's Algorithm 1
// (DESIGN.md §4).
//
// Checkpoints are coordinated *within* each group; across groups there is no
// coordination, only sender-based logging of inter-group messages with
// volume accounting:
//   * on send to an out-of-group peer: log asynchronously; on the first send
//     after a checkpoint, piggyback RR_P (received volume recorded at the
//     last checkpoint) so the peer can garbage-collect its log towards us;
//   * on receive: update R_P; apply piggybacked RR to GC our log;
//   * on a group checkpoint request: sync logs, record RR, coordinate a
//     consistent group snapshot (bookmark + drain + barrier), dump images,
//     barrier, resume — independent of all other groups;
//   * on restart: exchange R/S with every out-of-group peer, replay logged
//     messages the restarting rank lacks, and skip re-sends the peer
//     already received.
//
// NORM (global coordinated ckpt, LAM/MPI) is this protocol with one group:
// no logging, no exchanges. GP1 (uncoordinated + logging) is n groups of 1.
//
// Checkpoint trigger mechanics: system-level checkpointers interrupt a
// process anywhere; our app model snapshots at iteration-boundary safe
// points. To keep group coordination deadlock-free the leader runs a
// prepare/commit round that picks a target iteration I beyond every
// member's current position; members checkpoint exactly at iteration I
// (DESIGN.md §5). Cross-group stalls remain possible and transient — they
// are the waiting the paper measures — but never cyclic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ckpt/checkpointer.hpp"
#include "ckpt/image.hpp"
#include "core/metrics.hpp"
#include "core/msglog.hpp"
#include "group/group.hpp"
#include "mpi/hooks.hpp"
#include "mpi/peer_table.hpp"
#include "mpi/runtime.hpp"
#include "util/rng.hpp"

namespace gcr::core {

/// Models per-process image size (the app's memory footprint).
using ImageSizeFn = std::function<std::int64_t(mpi::RankId)>;

struct GroupProtocolOptions {
  double log_copy_Bps = 800e6;    ///< sender-side async log memcpy rate
  double log_per_msg_s = 3e-6;    ///< per-message logging bookkeeping
  double signal_handling_s = 2e-3;///< entering the checkpoint path
  double replay_per_msg_s = 40e-6;///< daemon cost per replayed message
  double exchange_handling_s = 150e-6;  ///< daemon cost per exchange
  int commit_margin = 2;          ///< safe points ahead for the commit target
  /// Single-process (uncoordinated) checkpoints are taken wherever the
  /// signal catches the process, modeled as a per-group random skew of up
  /// to this many safe points; coordinated groups' agreement rounds keep
  /// their cuts within one safe point. The resulting cut misalignment is
  /// what leaves inter-group traffic to be replayed on restart (Figs 7/8),
  /// and why GP1's resend volumes exceed GP's.
  int target_skew_steps = 4;
};

class GroupProtocol : public mpi::Interposer {
 public:
  GroupProtocol(mpi::Runtime& rt, const group::GroupSet& groups,
                ckpt::Checkpointer& checkpointer, ckpt::ImageRegistry& registry,
                ImageSizeFn image_bytes, Metrics& metrics,
                GroupProtocolOptions options = {});

  const group::GroupSet& groups() const { return groups_; }

  // ---- mpi::Interposer ----
  sim::Co<bool> before_send(mpi::Rank& rank, mpi::Message& msg) override;
  void on_deliver(mpi::Rank& rank, const mpi::Message& msg) override;
  sim::Co<void> at_safepoint(mpi::Rank& rank) override;
  void rank_started(mpi::Rank& rank) override;
  void rank_finished(mpi::Rank& rank) override;
  void rank_killed(mpi::Rank& rank) override;

  // ---- driver API (the mpirun side) ----
  /// Injects a checkpoint request for one group: a control message from the
  /// driver node to the group leader, which then runs prepare/commit.
  void request_group_checkpoint(int group);

  /// True while the group is restarting (exchange phase).
  bool group_restarting(int group) const;

  // ---- recovery API ----
  /// Before respawn_rank: marks the rank as restoring and installs the
  /// protocol-private state from the image (nullptr = restart from scratch).
  /// `restore_token` identifies the restore operation: every member staged
  /// by one group restore must get the same token (it keys the restart
  /// barrier — an elastic merge can put ranks with different incarnation
  /// counts into one group, so the incarnation cannot key it).
  void stage_restore(mpi::Rank& rank, const ckpt::StoredCheckpoint* image,
                     std::uint64_t restore_token);

  /// Invoked (synchronously, from the last member's restore coroutine)
  /// when a whole group finishes restart preparation. The recovery manager
  /// uses it to free the group's restore slot; an aborted restore never
  /// fires it (the coroutines die with the re-killed ranks).
  void set_restore_done_callback(std::function<void(int group)> fn) {
    restore_done_ = std::move(fn);
  }

  /// Protocol-private per-rank state stored inside checkpoint images. RR is
  /// the image's runtime R table; every piggyback is pending after a cut.
  struct StateSnapshot {
    MessageLog log;
  };

  // ---- elastic regrouping API (DESIGN.md §16; home engine only) ----
  /// Starts a split transition: until install_groups or end_transition,
  /// before_send logs any message that crosses a group boundary in the
  /// CURRENT *or* the `pending` grouping. This is what makes a later
  /// install sound at any committed cut inside the window: traffic between
  /// a departing rank and its old groupmates is in the sender logs from
  /// the moment the drain began.
  void begin_transition(const group::GroupSet& pending);
  /// Abandons the pending transition (drain aborted or forcibly reclaimed).
  void end_transition();

  /// True when every listed rank can tolerate a grouping change right now:
  /// alive, not inside a checkpoint round (leader round open, commit
  /// accepted, or mid-coordination) and not restoring. install_groups may
  /// only be called when this holds for every rank whose membership
  /// changes.
  bool quiescent_for_regroup(const std::vector<mpi::RankId>& ranks);

  /// Replaces the current grouping. The old GroupSet is retired, not
  /// destroyed — suspended checkpoint coroutines of unaffected groups hold
  /// references into its member vectors.
  void install_groups(group::GroupSet next);

  /// Marks every (a,b) pair with a in `a` and b in `b` for continued
  /// sender-side logging after a merge install, until the merged group's
  /// first joint commit clears it. Keeps restores sound while the group's
  /// members still hold images from different pre-merge cuts.
  void add_transitional_logging(const std::vector<mpi::RankId>& a,
                                const std::vector<mpi::RankId>& b);

 private:
  /// Algorithm 1's per-peer data.
  struct PeerState {
    std::int64_t rr = 0;    ///< RR_X: bytes received from the peer at the cut
    std::int64_t skip = 0;  ///< re-execution sends still to suppress
    std::uint64_t piggybacked_cut = 0;  ///< the cut whose RR the peer has
  };

  struct RankState {
    // --- Algorithm 1 data ---
    mpi::PeerTable<PeerState> peers;
    /// Cuts recorded in this incarnation, counting a restored image; with
    /// none, no send piggybacks RR.
    std::uint64_t cuts = 0;
    MessageLog log;
    /// Peers whose traffic stays logged although they are (now) in-group:
    /// set at a merge install, cleared at the group's first joint commit.
    /// Deliberately NOT reset by stage_restore — the need persists until a
    /// joint cut exists (DESIGN.md §16).
    std::set<mpi::RankId> extra_log;

    // --- checkpoint coordination ---
    bool commit_pending = false;
    std::uint64_t commit_epoch = 0;
    std::uint64_t commit_iteration = 0;
    sim::Time signal_at = 0;        ///< prepare (or request) arrival
    bool in_checkpoint = false;
    std::set<std::uint64_t> aborted;  ///< epochs abandoned mid-round
    /// This round's bookmarks by member slot (a slot is the member's
    /// lower_bound position in the sorted members): its S towards me, or
    /// kNoBookmark until its kBookmark arrives. Allocated by the round's
    /// first bookmark or drain start, freed when the rank's round ends.
    std::vector<std::int64_t> bookmarks;
    /// Members whose bookmark is missing or not yet covered by received
    /// bytes: seeded when the drain starts, kept exact by the kBookmark and
    /// delivery hooks, so a wake tests the predicate in O(1) (a rescan per
    /// wake, O(n) x O(n), made NORM untenable at 4k ranks).
    int bookmark_unmet = 0;
    std::map<std::uint64_t, int> barrier_acks;        ///< leader: (key)->count
    std::set<std::uint64_t> barrier_go;               ///< member: keys passed
    std::unique_ptr<sim::Trigger> event;  ///< generic state-change wakeup

    // --- leader round state ---
    bool round_open = false;  ///< leader: a request is being serviced
    std::uint64_t next_epoch = 1;
    std::map<std::uint64_t, std::vector<std::int64_t>> prepare_replies;

    // --- restart ---
    bool restoring = false;
    bool from_image = false;
    std::uint64_t restore_cut = 0;    ///< cut_seq of the restored image (0 = scratch)
    std::uint64_t restore_token = 0;  ///< keys this restore's barrier epoch
    std::int64_t restore_image_bytes = 0;
    /// Out-of-group peers with an exchange request in flight (alive when
    /// asked), each mapped to our restored R prefix from it. A peer that
    /// dies mid-exchange moves to `exchange_deferred`.
    mpi::PeerTable<std::int64_t> exchange_pending;
    /// Out-of-group peers that were dead when we restarted (overlapping
    /// recoveries) -> the same prefix, kept as a later commit moves RR: the
    /// request is re-sent when the peer respawns and completes on the
    /// daemon path; restart preparation does not wait for them (deadlock
    /// freedom across queued recoveries).
    mpi::PeerTable<std::int64_t> exchange_deferred;
    /// The reverse index of both tables: every rank that holds this rank
    /// in its exchange_pending or exchange_deferred, ascending, so a kill
    /// or a respawn visits exactly those ranks, in the order a scan of all
    /// n would, instead of scanning all n.
    std::vector<mpi::RankId> exchange_waiters;
    /// Auxiliary coroutines acting for this incarnation; killed with the
    /// rank so they never outlive it into a rolled-back state.
    sim::ProcPtr restore_proc;
    std::vector<sim::ProcPtr> serve_procs;

    gcr::Rng jitter_rng{0};
  };

  RankState& state(const mpi::Rank& rank) {
    return *states_[static_cast<std::size_t>(rank.id())];
  }
  mpi::RankId leader_of(int group) const {
    return groups_.members(group).front();
  }
  bool is_leader(const mpi::Rank& rank) const {
    return leader_of(groups_.group_of(rank.id())) == rank.id();
  }

  sim::Co<void> daemon_loop(mpi::Rank& rank);
  sim::Co<void> handle_ctrl(mpi::Rank& rank, mpi::Message msg);
  sim::Co<void> run_group_checkpoint(mpi::Rank& rank);
  sim::Co<void> run_restore(mpi::Rank& rank);
  sim::Co<void> serve_exchange(mpi::Rank& rank, mpi::Message msg);
  sim::Co<void> replay_to(mpi::Rank& rank, mpi::RankId peer,
                          std::int64_t after);
  /// In-group barrier via leader (ack/go). Returns false if epoch aborted.
  sim::Co<bool> group_barrier(mpi::Rank& rank, std::uint64_t epoch, int phase);
  /// Waits until pred() or the epoch aborts; returns !aborted.
  sim::Co<bool> wait_event(mpi::Rank& rank, std::uint64_t epoch,
                           const std::function<bool()>& pred);
  void wake(mpi::Rank& rank);
  /// Slot of `m` among the members of `rank`'s group, or -1 if `m` is not
  /// a member.
  int member_slot(const mpi::Rank& rank, mpi::RankId m) const;
  /// Re-bases the re-execution skip toward `q`, which recorded receiving
  /// `peer_r` bytes from `rank`. Only a positive skip takes a table entry.
  static void set_skip(const mpi::Rank& rank, RankState& st, mpi::RankId q,
                       std::int64_t peer_r);
  std::uint64_t draw_target_skew(RankState& st, bool coordinated);
  /// Records an exchange of `p` with `q` (pending or deferred) in q's
  /// exchange_waiters.
  void index_exchange(mpi::RankId p, mpi::RankId q);
  /// Removes `p` from q's exchange_waiters.
  void unindex_exchange(mpi::RankId p, mpi::RankId q);
  /// Drops p's pending or deferred exchange with `q`, if any.
  void drop_exchange(mpi::RankId p, mpi::RankId q);
  /// Drops every pending and deferred exchange of `p`.
  void drop_exchanges(mpi::RankId p);
  /// Re-issues the volume-exchange request of every rank that had deferred
  /// its exchange with `back`.
  void reissue_deferred_exchanges(mpi::RankId back);
  /// Moves `dead` from exchange_pending to exchange_deferred for every rank
  /// and wakes the waiters.
  void reroute_pending_exchanges(mpi::RankId dead);

  static std::uint64_t barrier_key(std::uint64_t epoch, int phase) {
    return epoch * 8 + static_cast<std::uint64_t>(phase);
  }

  mpi::Runtime* rt_;
  group::GroupSet groups_;
  /// Pending split grouping while a drain transition is open (see
  /// begin_transition); nullopt almost always.
  std::optional<group::GroupSet> transition_;
  /// Superseded groupings, kept alive because suspended checkpoint
  /// coroutines of unaffected groups hold `const auto&` references into
  /// their member vectors. GroupSet's move ctor moves the inner vectors'
  /// buffers, so those references stay valid across retirement.
  std::vector<std::unique_ptr<group::GroupSet>> retired_groups_;
  ckpt::Checkpointer* checkpointer_;
  ckpt::ImageRegistry* registry_;
  ImageSizeFn image_bytes_;
  Metrics* metrics_;
  GroupProtocolOptions options_;
  std::function<void(int group)> restore_done_;
  std::vector<std::unique_ptr<RankState>> states_;
};

}  // namespace gcr::core
