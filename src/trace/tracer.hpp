// Light-weight MPI communication tracer (paper §3.2 / §4).
//
// Attaches to the MiniMPI runtime as a passive Observer — the analogue of
// linking the tracer library into the application for a profiling run. The
// collected send records feed Algorithm 2 (group formation); the full event
// stream feeds the timeline renderer.
//
// Records land in PER-RANK buffers; the merged view is produced on demand
// in the canonical (time, rank, per-rank append order) order, a pure
// function of each rank's execution. Every downstream consumer (pair
// aggregation, timeline binning) is order-independent within a tick
// anyway; the canonical order fixes the raw trace bytes, which the
// committed goldens depend on.
#pragma once

#include <algorithm>
#include <cstddef>

#include "mpi/hooks.hpp"
#include "mpi/rank.hpp"
#include "trace/record.hpp"

namespace gcr::trace {

class Tracer : public mpi::Observer {
 public:
  /// If `sends_only` is true, only send events are kept (cheapest mode,
  /// sufficient for group formation).
  explicit Tracer(bool sends_only = false) : sends_only_(sends_only) {}

  /// Pre-sizes the per-rank buffers (optional; they also grow lazily).
  void prepare(int nranks) {
    if (static_cast<std::size_t>(nranks) > per_rank_.size()) {
      per_rank_.resize(static_cast<std::size_t>(nranks));
    }
  }

  void on_send(const mpi::Rank& rank, const mpi::Message& msg,
               bool transmitted) override {
    // Suppressed re-sends never reach the wire; profiling runs are
    // failure-free anyway, so drop them for fidelity.
    if (!transmitted) return;
    buf(rank).push_back(TraceRecord{rank.engine().now(), EventKind::kSend,
                                    rank.id(), msg.dst, msg.tag, msg.bytes});
  }

  void on_deliver(const mpi::Rank& rank, const mpi::Message& msg) override {
    if (sends_only_) return;
    buf(rank).push_back(TraceRecord{rank.engine().now(), EventKind::kDeliver,
                                    rank.id(), msg.src, msg.tag, msg.bytes});
  }

  void on_consume(const mpi::Rank& rank, const mpi::Message& msg) override {
    if (sends_only_) return;
    buf(rank).push_back(TraceRecord{rank.engine().now(), EventKind::kConsume,
                                    rank.id(), msg.src, msg.tag, msg.bytes});
  }

  /// The merged trace in canonical (time, rank, append) order.
  Trace records() const { return merged(); }
  Trace take() {
    Trace out = merged();
    clear();
    return out;
  }
  void clear() {
    for (Trace& t : per_rank_) t.clear();
  }

 private:
  Trace& buf(const mpi::Rank& rank) {
    const auto id = static_cast<std::size_t>(rank.id());
    if (id >= per_rank_.size()) per_rank_.resize(id + 1);
    return per_rank_[id];
  }

  Trace merged() const {
    Trace out;
    std::size_t total = 0;
    for (const Trace& t : per_rank_) total += t.size();
    out.reserve(total);
    // Concatenating in rank order and stable-sorting by (time, rank)
    // leaves each rank's append order as the final tiebreak.
    for (const Trace& t : per_rank_) out.insert(out.end(), t.begin(), t.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.rank < b.rank;
                     });
    return out;
  }

  bool sends_only_;
  std::vector<Trace> per_rank_;
};

}  // namespace gcr::trace
