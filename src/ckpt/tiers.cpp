#include "ckpt/tiers.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/awaitables.hpp"
#include "util/assert.hpp"

namespace gcr::ckpt {

const char* storage_mode_name(StorageMode mode) {
  switch (mode) {
    case StorageMode::kDirect: return "direct";
    case StorageMode::kBurstBuffer: return "bb";
    case StorageMode::kDrain: return "drain";
  }
  return "?";
}

TierStore::TierStore(sim::Cluster& cluster, const TierStoreOptions& options)
    : cluster_(&cluster), options_(options), space_freed_(cluster.engine()),
      node_seq_(static_cast<std::size_t>(cluster.num_nodes()), 0) {
  GCR_CHECK_MSG(cluster.has_tiered_storage(),
                "TierStore requires cluster burst buffers (num_burst_buffers)");
  GCR_CHECK_MSG(options_.mode != StorageMode::kDirect,
                "direct mode bypasses the tier store");
  GCR_CHECK(options_.bb_capacity_bytes > 0);
}

// --------------------------------------------------------- control edge
//
// Same-tick arrivals at the home arbiter are batched and executed in
// (subject node, per-node seq) order. Every op lands as its own posted
// event, so by the time the first one executes, all of the tick's ops are
// already queued; the flush is posted at now — inserted after them — and
// therefore sees the complete batch. The sort key is assigned in the
// callers' execution order, so the admission order is a pure function of
// model state.

void TierStore::post_op(TierOp op) {
  engine().call_at(engine().now() + cluster_->control_latency(),
                   sim::SmallFn([this, op]() mutable { enqueue_op(op); }));
}

void TierStore::enqueue_op(TierOp op) {
  pending_ops_.push_back(op);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    engine().post(sim::SmallFn([this] { flush_ops(); }));
  }
}

void TierStore::flush_ops() {
  flush_scheduled_ = false;
  std::sort(pending_ops_.begin(), pending_ops_.end(),
            [](const TierOp& a, const TierOp& b) {
              if (a.node != b.node) return a.node < b.node;
              return a.seq < b.seq;
            });
  for (TierOp& op : pending_ops_) run_op(op);
  pending_ops_.clear();
}

void TierStore::post_reply(int node, std::uint64_t seq, int result) {
  engine().call_at(engine().now() + cluster_->control_latency(),
                   sim::SmallFn([this, node, seq, result] {
                     auto it = replies_.find(ReplyKey{node, seq});
                     if (it == replies_.end()) return;  // killed mid-wait
                     *it->second.result = result;
                     it->second.trigger->fire();
                   }));
}

sim::Co<void> TierStore::await_reply(int node, std::uint64_t seq,
                                     int* result) {
  sim::Trigger reply(engine());
  const ReplyKey key{node, seq};
  replies_[key] = ReplyWaiter{&reply, result};
  // RAII unregistration: a kill mid-wait must not leave a trigger pointer
  // into a dead stack frame (mirrors Runtime::await_egress).
  struct Guard {
    std::map<ReplyKey, ReplyWaiter>* waiters;
    ReplyKey key;
    ~Guard() { waiters->erase(key); }
  } guard{&replies_, key};
  co_await reply.wait();
}

void TierStore::kill_pipeline(sim::ProcPtr& proc) {
  if (proc && proc->alive()) engine().kill(*proc);
  proc.reset();
}

// ------------------------------------------------------- capacity arbiter

void TierStore::release_bb(std::int64_t bytes) {
  stats_.bb_bytes_used -= bytes;
  GCR_CHECK(stats_.bb_bytes_used >= 0);
  space_freed_.fire();
}

bool TierStore::evict_for(std::int64_t bytes) {
  while (stats_.bb_bytes_used + bytes > options_.bb_capacity_bytes) {
    // Oldest-commit-first over images that already drained to the PFS —
    // the only residents whose eviction keeps `committed => resident`.
    RankImages* victim = nullptr;
    for (auto& [rank, ri] : ranks_) {
      if (ri.committed && ri.committed->in_bb && ri.committed->in_pfs &&
          (victim == nullptr || ri.commit_seq < victim->commit_seq)) {
        victim = &ri;
      }
    }
    if (victim == nullptr) return false;
    victim->committed->in_bb = false;
    ++stats_.evictions;
    release_bb(victim->committed->bytes);
  }
  return true;
}

sim::Co<void> TierStore::reserve_bb(std::int64_t bytes) {
  GCR_CHECK_MSG(bytes <= options_.bb_capacity_bytes,
                "one image exceeds the whole burst-buffer capacity");
  for (;;) {
    if (stats_.bb_bytes_used + bytes <= options_.bb_capacity_bytes) break;
    if (evict_for(bytes)) break;
    // Pool exhausted and nothing evictable. In kDrain mode progress is
    // guaranteed — every committed image eventually drains and becomes
    // evictable — so the writer parks until a drain/discard/supersede
    // frees space. In kBurstBuffer mode nothing ever drains, and a
    // group's commit cannot free space before ALL its members staged, so
    // waiting here can deadlock the job into a watchdog trip; fail fast
    // with the sizing rule instead.
    GCR_CHECK_MSG(
        options_.mode == StorageMode::kDrain,
        "burst-buffer capacity exhausted in kBurstBuffer mode (nothing "
        "drains, so nothing is evictable): size bb_capacity_bytes to at "
        "least the committed images plus one full group's stage");
    ++stats_.writer_stalls;
    space_freed_.reset();
    co_await space_freed_.wait();
  }
  stats_.bb_bytes_used += bytes;
  stats_.bb_bytes_peak = std::max(stats_.bb_bytes_peak, stats_.bb_bytes_used);
}

// ------------------------------------------------------------- write path

sim::Co<void> TierStore::stage_image(int node, mpi::RankId rank,
                                     std::uint64_t epoch, std::int64_t bytes) {
  GCR_CHECK(bytes >= 0);
  // Memory-speed copy out of the application's address space into the
  // node's staging buffer (the process resumes only after the full image
  // left its memory — same blocking contract as a direct device write).
  // Only then does the request cross to the arbiter.
  co_await cluster_->node_buffer(node).write(bytes);
  const std::uint64_t seq = node_seq_[static_cast<std::size_t>(node)]++;
  post_op(TierOp{TierOp::Kind::kStage, node, rank, seq, epoch, bytes});
  int result = 0;
  co_await await_reply(node, seq, &result);
}

sim::Co<void> TierStore::stage_body(mpi::RankId rank, int node,
                                    std::uint64_t epoch, std::int64_t bytes,
                                    std::uint64_t seq) {
  co_await reserve_bb(bytes);
  // From here the reservation must survive a mid-transfer kill (the
  // failure notice kills this pipeline): the guard returns it unless the
  // bytes are handed off to the staged image below.
  struct ReserveGuard {
    TierStore* ts;
    std::int64_t bytes;
    bool handed_off = false;
    ~ReserveGuard() {
      if (!handed_off) ts->release_bb(bytes);
    }
  } guard{this, bytes};
  co_await cluster_->burst_buffer_for(node).write(bytes);

  RankImages& ri = ranks_[rank];
  if (ri.staged) release_bb(ri.staged->bytes);  // replaced prior stage
  Image img;
  img.epoch = epoch;
  img.bytes = bytes;
  img.in_local = true;
  img.in_bb = true;
  ri.staged = std::move(img);
  guard.handed_off = true;
  ++stats_.images_staged;
  ri.stage_pipeline.reset();  // done; self-release like drain_body
  post_reply(node, seq, kReplyDone);
}

void TierStore::drop_committed(RankImages& ri) {
  if (!ri.committed) return;
  if (ri.committed->drain && ri.committed->drain->alive()) {
    // Write-behind of a superseded epoch: abandon it (the PFS stops
    // spending bandwidth on an image no restore will ever pick).
    cluster_->engine().kill(*ri.committed->drain);
    ++stats_.drains_abandoned;
  }
  if (ri.committed->in_bb) release_bb(ri.committed->bytes);
  ri.committed.reset();
}

void TierStore::commit_image(mpi::RankId rank) {
  const int node = rank;  // mpi::Runtime hosts rank r on node r
  const std::uint64_t seq = node_seq_[static_cast<std::size_t>(node)]++;
  post_op(TierOp{TierOp::Kind::kCommit, node, rank, seq, 0, 0});
}

void TierStore::do_commit(mpi::RankId rank) {
  RankImages& ri = ranks_[rank];
  GCR_CHECK_MSG(ri.staged.has_value(),
                "commit_image without a staged image (finalize barrier "
                "passed without a write?)");
  drop_committed(ri);
  ri.committed = std::move(ri.staged);
  ri.staged.reset();
  ri.commit_seq = next_commit_seq_++;
  if (options_.mode == StorageMode::kDrain) {
    ++stats_.drains_started;
    ri.committed->drain = cluster_->engine().spawn(
        "drain" + std::to_string(rank),
        drain_body(rank, ri.committed->epoch, ri.committed->bytes));
  }
}

void TierStore::discard_staged(mpi::RankId rank) {
  const int node = rank;
  const std::uint64_t seq = node_seq_[static_cast<std::size_t>(node)]++;
  post_op(TierOp{TierOp::Kind::kDiscard, node, rank, seq, 0, 0});
}

void TierStore::do_discard(mpi::RankId rank) {
  auto it = ranks_.find(rank);
  if (it == ranks_.end() || !it->second.staged) return;
  release_bb(it->second.staged->bytes);
  it->second.staged.reset();
}

void TierStore::on_node_failed(mpi::RankId rank) {
  const int node = rank;
  const std::uint64_t seq = node_seq_[static_cast<std::size_t>(node)]++;
  post_op(TierOp{TierOp::Kind::kNodeFailed, node, rank, seq, 0, 0});
}

void TierStore::do_node_failed(mpi::RankId rank) {
  // The dead process's home-side pipelines stop acting for it: a killed
  // stage returns its reservation through the guard; a killed read frees
  // the device (its caller died with the node, so no reply is owed).
  auto it = ranks_.find(rank);
  if (it != ranks_.end()) {
    kill_pipeline(it->second.stage_pipeline);
    kill_pipeline(it->second.read_pipeline);
  }
  do_discard(rank);
  it = ranks_.find(rank);
  if (it != ranks_.end() && it->second.committed) {
    // The node's staging buffer dies with the process; the committed image
    // survives on the shared tiers (burst buffer and/or PFS).
    it->second.committed->in_local = false;
  }
}

sim::Co<void> TierStore::drain_body(mpi::RankId rank, std::uint64_t epoch,
                                    std::int64_t bytes) {
  // The burst buffer's outbound pipe is separate from its ingest pipe;
  // the drain is charged as the PFS write alone (PFS writers fair-share).
  co_await cluster_->pfs().write(bytes);
  RankImages& ri = ranks_[rank];
  if (ri.committed && ri.committed->epoch == epoch) {
    ri.committed->in_pfs = true;
    ri.committed->drain.reset();
    ++stats_.drains_completed;
    // Nothing freed yet, but drained images are evictable: wake writers
    // stalled on capacity so they can run the eviction pass.
    space_freed_.fire();
  }
}

// -------------------------------------------------------------- read path

sim::Co<void> TierStore::read_image(int node, mpi::RankId rank,
                                    std::int64_t bytes) {
  const std::uint64_t seq = node_seq_[static_cast<std::size_t>(node)]++;
  post_op(TierOp{TierOp::Kind::kRead, node, rank, seq, 0, bytes});
  int result = 0;
  co_await await_reply(node, seq, &result);
  if (result == kReplyReadLocal) {
    // Warm restart: the committed image never left the node's staging
    // buffer, so the read runs at memory speed.
    co_await cluster_->node_buffer(node).read(bytes);
  }
}

sim::Co<void> TierStore::read_body(mpi::RankId rank, int node,
                                   std::int64_t bytes, std::uint64_t seq,
                                   bool from_bb) {
  if (from_bb) {
    co_await cluster_->burst_buffer_for(node).read(bytes);
  } else {
    co_await cluster_->pfs().read(bytes);
  }
  auto it = ranks_.find(rank);
  if (it != ranks_.end()) it->second.read_pipeline.reset();
  post_reply(node, seq, kReplyDone);
}

// ---------------------------------------------------------------- dispatch

void TierStore::run_op(TierOp& op) {
  switch (op.kind) {
    case TierOp::Kind::kStage: {
      RankImages& ri = ranks_[op.rank];
      // A still-live prior pipeline means the rank died mid-stage and its
      // restart is staging again before the failure notice landed; the
      // replacement supersedes it.
      kill_pipeline(ri.stage_pipeline);
      ri.stage_pipeline = engine().spawn(
          "stage" + std::to_string(op.rank),
          stage_body(op.rank, op.node, op.epoch, op.bytes, op.seq));
      break;
    }
    case TierOp::Kind::kCommit:
      do_commit(op.rank);
      break;
    case TierOp::Kind::kDiscard:
      do_discard(op.rank);
      break;
    case TierOp::Kind::kNodeFailed:
      do_node_failed(op.rank);
      break;
    case TierOp::Kind::kRead: {
      auto it = ranks_.find(op.rank);
      GCR_CHECK_MSG(it != ranks_.end() && it->second.committed.has_value(),
                    "tier read for a rank with no committed image");
      const Image& img = *it->second.committed;
      if (img.in_local) {
        ++stats_.reads_local;
        post_reply(op.node, op.seq, kReplyReadLocal);
      } else if (img.in_bb) {
        ++stats_.reads_bb;
        it->second.read_pipeline = engine().spawn(
            "tread" + std::to_string(op.rank),
            read_body(op.rank, op.node, op.bytes, op.seq, /*from_bb=*/true));
      } else {
        GCR_CHECK_MSG(img.in_pfs, "committed image resident in no tier");
        ++stats_.reads_pfs;
        it->second.read_pipeline = engine().spawn(
            "tread" + std::to_string(op.rank),
            read_body(op.rank, op.node, op.bytes, op.seq, /*from_bb=*/false));
      }
      break;
    }
  }
}

}  // namespace gcr::ckpt
