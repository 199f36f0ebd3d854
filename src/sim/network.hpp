// Network model: flat per-node NIC serialization, or a routed multi-link
// fabric with per-link fair-share contention.
//
// Flat (the default) is the paper's switched-Fast-Ethernet model: each node
// owns a full-duplex port, the switch is non-blocking, so the only
// contention is serialization at the sender's NIC. A message departs when
// the NIC is free, occupies it for `per_message + bytes/bandwidth`, and
// arrives `latency` after the occupation ends. Flat builds no Topology and
// no link state: the per-node NIC timestamps are its only implementation.
//
// Routed topologies (fat-tree, dragonfly — sim/topology.hpp) model every
// directed physical link as a fair-share contended resource, reusing the
// resettling protocol proven in sim::StorageDevice: a transfer's rate is
// its *bottleneck* share, min over route links of bandwidth/active; each
// membership change settles the affected transfers' progress at the old
// rate and re-splits from now. Completion estimates live in a lazy min-heap
// invalidated by per-transfer generations; a single generation-guarded
// engine timer fires the earliest one. Each sender NIC admits
// `nic_concurrency` transfers; later sends queue FIFO at the sender, which
// keeps the active set (and the per-event resettle cost) bounded by nodes,
// not by outstanding messages. The steady path allocates nothing: transfers
// recycle through a pooled free list, link membership is intrusive, and the
// heap reuses its buffer.
//
// Injection edge (DESIGN.md §15.2): every routed send reaches the
// contention machine over a fixed edge — the first hop of its route,
// modeled as one hop_latency_s of wire between the sender's NIC and the
// fabric (so an uncontended message still totals per_message +
// nhops*hop end to end: one hop at injection, nhops-1 at delivery). Each
// send writes an op slot and schedules a 16-byte inject op at t + hop; the
// fabric batches every op landing on one tick and admits them in
// canonical (source node, send seq) order, so admission order — and with
// it routing RNG draws and fair-share splits — does not depend on event
// insertion order. Completion schedules the delivery and an egress-done op
// one hop later; that op fires the egress trigger and is the only place a
// slot is recycled, so the steady path stays allocation-free.
//
// Kill protocol: abort_transfers_from(node) synchronously silences the
// node's pending op slots (triggers unhook, tickets stop resolving), then
// sends an abort op through the same canonical queue; the fabric drops the
// node's queued and in-flight transfers when it arrives (survivors
// resettled to reclaim the bandwidth). Transfers that clear
// their bottleneck before the abort op lands still deliver — the wire
// cannot be recalled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "sim/topology.hpp"
#include "util/assert.hpp"

namespace gcr::sim {

class Trigger;

struct NetParams {
  double latency_s = 70e-6;        ///< one-way wire+switch latency (flat)
  double bandwidth_Bps = 12.5e6;   ///< per-NIC egress bandwidth (100 Mb/s)
  double per_message_s = 10e-6;    ///< fixed per-message wire/stack cost
  double loopback_Bps = 400e6;     ///< same-node copy bandwidth (P4-era)
  double loopback_latency_s = 2e-6;
  /// Fabric shape + routing policy; kFlat selects the NIC model above.
  TopologyParams topology;
};

class Network {
 public:
  /// `routing_seed` feeds randomized routing policies (dragonfly Valiant);
  /// deterministic policies never draw from it.
  Network(Engine& engine, int num_nodes, const NetParams& params,
          std::uint64_t routing_seed = 0x6e6574);

  /// Nodes with their own NIC (valid src/dst range for send()).
  int num_nodes() const { return num_nodes_; }
  /// True when a topology exists, i.e. a multi-link fabric routes
  /// transfers (any kind but kFlat).
  bool routed() const { return topo_ != nullptr; }
  /// The routed fabric's topology. Requires routed().
  const Topology& topology() const {
    GCR_CHECK(routed());
    return *topo_;
  }

  struct SendTimes {
    Time egress_done;  ///< when the sender's buffer is reusable
    Time arrival;      ///< when `deliver` runs at the destination
    /// Nonzero for a routed fabric transfer: a handle for the egress-wait
    /// protocol below. 0 for flat and loopback sends (their egress_done is
    /// already exact).
    std::uint64_t ticket = 0;
  };

  /// Schedules an asynchronous transfer; `deliver` runs at arrival time.
  /// The returned times are exact for flat/loopback but uncontended
  /// *estimates* under routing, because a routed completion depends on
  /// future contention — block on the ticket (below) for the real signal.
  SendTimes send(int src_node, int dst_node, std::int64_t bytes,
                 SmallFn deliver);

  // ---- Egress-wait protocol (routed transfers only) ----
  // A sender that must block until its buffer drains registers a Trigger
  // against the ticket; the fabric fires it at bottleneck completion (the
  // same instant the arrival event is scheduled). The registration follows
  // StorageDevice's Active::done idiom: the *waiter* owns the trigger and
  // must clear the registration on unwind (kill-safety) — tickets are
  // generation-checked, so clearing after completion or abort is a no-op.

  /// True while the ticket's transfer is still queued or in flight.
  bool egress_pending(std::uint64_t ticket) const;
  /// Registers `t` to fire at the ticket's completion. The ticket must be
  /// pending; the trigger must outlive the wait (stack + RAII clear).
  void set_egress_trigger(std::uint64_t ticket, Trigger* t);
  /// Unregisters; safe on completed/aborted/reused tickets.
  void clear_egress_trigger(std::uint64_t ticket);

  /// Drops every queued and in-flight transfer originating at `src_node`:
  /// callbacks are destroyed (never fire), survivors sharing links speed
  /// up. Messages that already cleared their bottleneck (deliver event
  /// scheduled) still arrive — the wire cannot be recalled. No-op for flat,
  /// whose NIC timestamps model no recallable in-flight state.
  void abort_transfers_from(int src_node);

  /// Lower bound on the time any remote message spends in flight: the
  /// wire latency (flat) or one hop_latency_s (routed — the injection
  /// edge). Cluster::control_latency() derives from it (DESIGN.md §15.2).
  static double min_remote_latency_s(const NetParams& p) {
    return p.topology.kind == TopologyKind::kFlat
               ? p.latency_s
               : p.topology.hop_latency_s;
  }

  /// Fixed delay of the routed injection edge (and of the egress-done
  /// return): one hop_latency_s, floored at one tick so a zero-latency
  /// test config still orders send before admission. Admission state
  /// (link_active / active_transfers / queued_transfers) becomes visible
  /// only after this edge crosses.
  Time inject_latency() const {
    return std::max<Time>(1, from_seconds(params_.topology.hop_latency_s));
  }

  /// Cumulative payload bytes ever passed to send() (monotone).
  std::int64_t total_bytes() const { return total_bytes_; }
  /// Cumulative send() calls (monotone).
  std::int64_t total_messages() const { return total_messages_; }

  // Fabric accounting (routed transfers only; loopback and flat excluded).
  // Conservation invariant, checked by the torture suite:
  //   offered == delivered + dropped + (bytes still queued or in flight).
  std::int64_t fabric_bytes_offered() const { return fabric_offered_; }
  std::int64_t fabric_bytes_delivered() const { return fabric_delivered_; }
  std::int64_t fabric_bytes_dropped() const { return fabric_dropped_; }

  /// Transfers currently fair-sharing links / waiting for NIC admission.
  int active_transfers() const { return active_count_; }
  int queued_transfers() const { return queued_count_; }
  /// Admitted transfers currently crossing `link` (routed fabrics only).
  std::int32_t link_active(std::int32_t link) const {
    return link_active_[static_cast<std::size_t>(link)];
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr double kDoneEpsBytes = 0.5;

  enum class XferState : std::uint8_t { kFree, kQueued, kActive };

  /// Handle for one routed send. The content fields (seq/src/dst/bytes/
  /// deliver) are written by the sender before the inject op is scheduled
  /// and consumed exactly once by the fabric when the op lands; the
  /// control fields (pending/egress/epoch) are touched by the sender, by
  /// abort purges, and by the finalize op — the sole recycler.
  struct OpSlot {
    SmallFn deliver;
    std::uint64_t seq = 0;      ///< per-source-node send order
    Trigger* egress = nullptr;  ///< fired when the egress-done op lands
    std::int64_t bytes = 0;
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::uint32_t epoch = 0;  ///< slot-reuse guard for tickets
    std::uint32_t self = 0;   ///< index within slots_
    bool pending = false;     ///< send issued, egress-done not yet landed
  };

  /// One fabric op awaiting the canonical per-tick flush: an injection
  /// (slot != nullptr) or a source abort (slot == nullptr).
  struct PendingOp {
    std::int32_t src;
    std::uint64_t seq;
    OpSlot* slot;
  };

  /// One routed transfer. `remaining` is settled lazily (exact only at its
  /// own settle points); link membership is an intrusive doubly-linked list
  /// per hop so joins/leaves never allocate.
  struct Transfer {
    double remaining = 0;    ///< bytes left at last_settle
    double rate = 0;         ///< bottleneck share, bytes/s
    Time last_settle = 0;
    std::int64_t bytes = 0;
    std::int32_t src = -1;
    std::int32_t dst = -1;
    std::uint32_t est_gen = 0;  ///< invalidates stale heap estimates
    Time est_time = 0;          ///< fire time of the live heap entry
    std::uint64_t src_seq = 0;  ///< injection order key (abort guard)
    OpSlot* op = nullptr;       ///< source-side slot, for finalize posts
    XferState state = XferState::kFree;
    Route route;
    SmallFn deliver;
    std::uint32_t next_queued = kNil;  ///< sender FIFO chain
    std::array<std::uint32_t, Route::kMaxHops> lnext;  ///< member handles
    std::array<std::uint32_t, Route::kMaxHops> lprev;
  };

  struct Link {
    double bandwidth_Bps = 0;
    std::uint32_t head = kNil;  ///< first member handle
  };

  /// Per-sender NIC admission: `admitted` in flight, the rest chained FIFO.
  struct NodeState {
    std::int32_t admitted = 0;
    std::uint32_t q_head = kNil;
    std::uint32_t q_tail = kNil;
  };

  /// Lazy completion estimate; stale when gen != transfer's est_gen.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;  ///< push order, breaks same-tick ties
    std::uint32_t xfer;
    std::uint32_t gen;
  };
  struct HeapCmp {
    bool operator()(const HeapEntry& x, const HeapEntry& y) const {
      if (x.t != y.t) return x.t > y.t;
      return x.seq > y.seq;
    }
  };

  SendTimes send_flat(int src_node, std::int64_t bytes, SmallFn deliver,
                      Time now);
  SendTimes send_routed(int src_node, int dst_node, std::int64_t bytes,
                        SmallFn deliver, Time now);
  static std::uint64_t make_ticket(const OpSlot& s) {
    return (static_cast<std::uint64_t>(s.self + 1) << 32) | s.epoch;
  }
  /// Resolves a ticket to its live op slot, or nullptr if stale.
  const OpSlot* ticket_op(std::uint64_t ticket) const;
  OpSlot* alloc_slot();
  /// Egress-done / release landing: fires a still-registered trigger and
  /// recycles the slot (the only recycler).
  void finalize_slot(OpSlot* op);
  /// Fabric side: queues an op for the canonical flush of the current tick.
  void enqueue_fabric_op(std::int32_t src, std::uint64_t seq, OpSlot* slot);
  /// Runs after every op targeting this tick is queued (call_at at `now`
  /// sequences behind them); admits/aborts in (source node, seq) order.
  void flush_fabric_ops();
  void do_inject(OpSlot* op, Time now);
  void do_abort(std::int32_t node, std::uint64_t abort_seq, Time now);
  /// Drops one queued-or-active transfer at the fabric: accounts the bytes,
  /// frees the pool slot, and schedules the release op one hop later.
  void drop_transfer(std::uint32_t idx, Time now);

  /// Current fair share of one link: bandwidth * 1/active, via the
  /// reciprocal table (multiply, not divide — this runs ~1e9 times in a
  /// 4k-rank coordination storm). All rate producers use this exact
  /// expression so rate == share comparisons stay bitwise-exact.
  double share(std::size_t link) const {
    return links_[link].bandwidth_Bps *
           recip_[static_cast<std::size_t>(link_active_[link])];
  }

  std::uint32_t alloc_transfer();
  void free_transfer(std::uint32_t idx);
  void admit(std::uint32_t idx, Time now);
  void complete(std::uint32_t idx, Time now);
  /// Advances `remaining` to `now` at the pre-change rate.
  void settle(Transfer& t, Time now);
  double compute_rate(const Transfer& t) const;
  void push_estimate(std::uint32_t idx, Time now);
  /// Pushes a fresh estimate only if it beats the live entry; a live entry
  /// that fires early is harmless (on_timer re-estimates), one that fires
  /// late would deliver late, so only improvements need the heap.
  void maybe_push(std::uint32_t idx, Time now);
  /// Settles and re-rates the affected members of `link` after a membership
  /// change (skip = the transfer that triggered it, already fresh).
  /// `inserted` tells which direction the link's share moved: an insert can
  /// only clamp members down to the new share (no bottleneck search, no
  /// heap traffic — their live estimates just fire early), a removal
  /// re-derives the bottleneck for exactly the members this link was
  /// bottlenecking.
  void resettle_members(std::int32_t link, Time now, std::uint32_t skip,
                        bool inserted);
  void link_insert(std::int32_t link, std::uint32_t idx, int hop);
  void link_remove(std::int32_t link, std::uint32_t idx, int hop);
  void arm_timer();
  void on_timer();
  void compact_heap();

  Engine* engine_;
  NetParams params_;
  int num_nodes_;
  std::unique_ptr<Topology> topo_;  ///< null for flat
  Rng routing_rng_;
  std::vector<Time> egress_free_;  ///< flat path: per-node NIC next-free

  // Fabric state (sized only under routing).
  std::vector<Link> links_;
  std::vector<std::int32_t> link_active_;
  std::vector<double> recip_;  ///< recip_[a] == 1.0/a, up to peak occupancy
  std::vector<Transfer> pool_;
  std::vector<std::uint32_t> free_;
  std::vector<NodeState> nodes_;
  /// Op-slot arena: a deque keeps slot addresses stable while sends
  /// append, so in-flight ops and transfers hold bare OpSlot*s.
  std::deque<OpSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint64_t> node_seq_;  ///< per-node send/abort order
  std::vector<PendingOp> pending_ops_;   ///< fabric ops awaiting this tick's flush
  bool flush_scheduled_ = false;
  std::vector<HeapEntry> heap_;
  std::uint64_t heap_seq_ = 0;
  std::uint64_t timer_gen_ = 0;
  int active_count_ = 0;
  int queued_count_ = 0;

  std::int64_t total_bytes_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t fabric_offered_ = 0;
  std::int64_t fabric_delivered_ = 0;
  std::int64_t fabric_dropped_ = 0;
};

}  // namespace gcr::sim
